"""Time integration of the particle system.

Particles carry (x_i, w_i, nu_i) and follow

    dx_i/dt  = A(t, x_i)                      A = a(t, x, I_a(x))
    dw_i/dt  = (div A)(t, x_i) w_i            Liouville volume transport
    dnu_i/dt = (-div A + R(t, x_i, I_g(x_i))) nu_i
               + sum_j w_j nu_j m(t, x_i, x_j, I_d(x_i))

with every non-local input evaluated against the current ensemble.  The
stepper is fixed-step classical RK4; all interaction sums are recomputed at
every stage.  Default step: dt = min(1e-3, h / (2 a_sup)).

Mutation pruning: rows are restricted once, at t = 0, to particles whose
initial position lies within supp_x m padded by a_sup T (no other particle
can ever enter the mutation region); columns are restricted each stage to
particles currently inside supp_y m.  Both prunings drop exact zeros only.

Runtime monitors (recorded every step, violations are hard errors where
noted):

- mass bound: total mass <= max(initial mass, I_star / psi_g_min); the
  maximal excess is recorded
- support bound: max_i |x_i(t) - x_i(0)| <= a_sup t; maximal excess recorded
- volume positivity: min w_i > 0
- intensity sign alarm: nu_i < -tol * max_j nu_j aborts the run (negative
  intensities of that size mean the discretization has broken down; they
  are never clamped)
- finiteness of the state after every step
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import ParticleEnsemble
from .model import (ModelSpec, advection_inputs, divergence_field,
                    nonlocal_field, pair_sum, velocity_field)

__all__ = [
    "IntegrationError",
    "RunConfig",
    "MonitorReport",
    "Trajectory",
    "rhs",
    "integrate",
    "default_dt",
]


class IntegrationError(RuntimeError):
    """The particle integration produced an invalid state."""


def default_dt(h: float, a_sup: float) -> float:
    """Step policy: a particle may not cross half a cell per step."""
    if a_sup > 0:
        return min(1e-3, h / (2.0 * a_sup))
    return 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Integration window and bookkeeping knobs."""

    t_final: float
    dt: Optional[float] = None          # None: default_dt(h, a_sup)
    snapshot_every: Optional[int] = None  # None: ~40 snapshots over the run
    nu_alarm: float = 1e-10             # abort when nu < -nu_alarm * max(nu)

    def __post_init__(self):
        if self.t_final < 0:
            raise ValueError("t_final must be >= 0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class MonitorReport:
    mass_bound: float
    mass_excess_max: float
    support_excess_max: float
    w_min: float
    nu_min: float
    ok: bool


@dataclass
class Trajectory:
    """Integration output: snapshots, per-step series, and monitor summary."""

    model: ModelSpec
    dt: float
    n_steps: int
    snapshots: list
    series: dict
    monitors: MonitorReport

    @property
    def initial(self) -> ParticleEnsemble:
        return self.snapshots[0]

    @property
    def final(self) -> ParticleEnsemble:
        return self.snapshots[-1]


class _MutationPruning:
    """Fixed row set (initial positions + a_sup*T padding) for mutation sums."""

    def __init__(self, model: ModelSpec, ens: ParticleEnsemble, T: float):
        self.active = model.mutation is not None
        if self.active:
            padded = model.support_m_x.expand(model.a_sup * T)
            self.rows = np.flatnonzero(padded.contains(ens.positions))
        else:
            self.rows = np.empty(0, dtype=np.int64)


def _stage_rhs(model: ModelSpec, t: float, x: np.ndarray, w: np.ndarray,
               nu: np.ndarray, mut: _MutationPruning):
    alpha = nu * w
    I = advection_inputs(model, t, x, x, alpha)
    dx = velocity_field(model, t, x, I)
    div = divergence_field(model, t, x, x, alpha, I)
    I_g = nonlocal_field(model.kernel_g, t, x, x, alpha)
    R = np.asarray(model.growth(t, x, I_g), dtype=float)
    dw = div * w
    dnu = (R - div) * nu
    if mut.active and mut.rows.size:
        rows = mut.rows
        cols = np.flatnonzero(model.support_m_y.contains(x))
        if cols.size:
            I_d = nonlocal_field(model.kernel_d, t, x[rows], x, alpha)
            M = np.asarray(model.mutation(t, x[rows], x[cols], I_d))
            influx = pair_sum(M * alpha[cols][None, :], axis=-1)
            dnu = dnu.copy()
            dnu[rows] += influx
    return dx, dw, dnu


def rhs(model: ModelSpec, ens: ParticleEnsemble):
    """Right-hand side (dx, dw, dnu) of the particle system at ens.time.

    Mutation rows are pruned with zero padding (T = 0): exactly the particles
    currently inside supp_x m receive influx, which is the T -> 0 limit of
    the integrator's fixed row set.
    """
    mut = _MutationPruning(model, ens, 0.0)
    return _stage_rhs(model, ens.time, ens.positions, ens.volumes,
                      ens.intensities, mut)


def integrate(model: ModelSpec, ens0: ParticleEnsemble, cfg: RunConfig) -> Trajectory:
    """Fixed-step RK4 on the particle system with runtime monitors.

    Deterministic by construction: fixed step count, fixed-order pairwise
    reductions, no adaptivity, no randomness.  Identical inputs produce
    bit-identical trajectories.
    """
    if ens0.n == 0:
        raise IntegrationError("cannot integrate an empty ensemble")
    T = cfg.t_final
    dt_req = cfg.dt if cfg.dt is not None else default_dt(ens0.h, model.a_sup)
    if T == 0.0:
        snap = ens0.copy()
        monitors = MonitorReport(
            mass_bound=max(ens0.mass(), model.mass_bound_factor),
            mass_excess_max=0.0, support_excess_max=0.0,
            w_min=float(np.min(ens0.volumes)),
            nu_min=float(np.min(ens0.intensities)),
            ok=True)
        series = {k: np.zeros(1) for k in
                  ("t", "mass", "nu_min", "nu_max", "w_min", "w_max", "speed_max")}
        series["t"][0] = ens0.time
        series["mass"][0] = ens0.mass()
        return Trajectory(model=model, dt=dt_req, n_steps=0,
                          snapshots=[snap], series=series, monitors=monitors)

    n_steps = max(1, int(math.ceil(T / dt_req - 1e-9)))
    dt = T / n_steps
    snap_every = cfg.snapshot_every or max(1, n_steps // 40)

    x = ens0.positions.copy()
    w = ens0.volumes.copy()
    nu = ens0.intensities.copy()
    x0 = ens0.positions.copy()
    t0 = ens0.time
    mut = _MutationPruning(model, ens0, T)

    mass = ens0.mass()
    bound = max(mass, model.mass_bound_factor)
    mass_excess = 0.0
    support_excess = -math.inf
    w_min_seen = float(np.min(w))
    nu_min_seen = float(np.min(nu))

    series = {k: np.zeros(n_steps + 1) for k in
              ("t", "mass", "nu_min", "nu_max", "w_min", "w_max", "speed_max")}

    def record(i, t, mass, nu_min, nu_max, w_min, speed_max):
        series["t"][i] = t
        series["mass"][i] = mass
        series["nu_min"][i] = nu_min
        series["nu_max"][i] = nu_max
        series["w_min"][i] = w_min
        series["w_max"][i] = np.max(w)
        series["speed_max"][i] = speed_max

    snapshots = [ens0.copy()]
    record(0, t0, mass, nu_min_seen, float(np.max(nu)), w_min_seen, 0.0)

    for step in range(n_steps):
        t = t0 + step * dt
        k1 = _stage_rhs(model, t, x, w, nu, mut)
        speed_max = float(np.max(np.sqrt(pair_sum(k1[0] * k1[0], axis=-1))))
        k2 = _stage_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k1[0],
                        w + 0.5 * dt * k1[1], nu + 0.5 * dt * k1[2], mut)
        k3 = _stage_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k2[0],
                        w + 0.5 * dt * k2[1], nu + 0.5 * dt * k2[2], mut)
        k4 = _stage_rhs(model, t + dt, x + dt * k3[0],
                        w + dt * k3[1], nu + dt * k3[2], mut)
        x = x + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        w = w + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        nu = nu + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t_next = t0 + (step + 1) * dt

        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))
                and np.all(np.isfinite(nu))):
            for name, arr in (("position", x), ("volume", w), ("intensity", nu)):
                bad = np.flatnonzero(~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1))
                if bad.size:
                    raise IntegrationError(
                        f"non-finite {name} for particle {int(bad[0])} "
                        f"at t={t_next:.6g}")
        nu_max = float(np.max(nu))
        nu_min = float(np.min(nu))
        if nu_min < -cfg.nu_alarm * max(nu_max, 1e-300):
            i = int(np.argmin(nu))
            raise IntegrationError(
                f"negative intensity nu[{i}]={nu_min:.3e} at t={t_next:.6g} "
                f"(alarm threshold {-cfg.nu_alarm:.1e} * max nu); intensities "
                "are never clamped, the run is aborted instead")
        wm = float(np.min(w))
        if wm <= 0.0:
            i = int(np.argmin(w))
            raise IntegrationError(
                f"non-positive volume w[{i}]={wm:.3e} at t={t_next:.6g}")

        mass = float(pair_sum(nu * w))
        mass_excess = max(mass_excess, mass - bound)
        disp = np.sqrt(pair_sum((x - x0) ** 2, axis=-1))
        support_excess = max(support_excess,
                             float(np.max(disp)) - model.a_sup * (t_next - t0))
        w_min_seen = min(w_min_seen, wm)
        nu_min_seen = min(nu_min_seen, nu_min)

        record(step + 1, t_next, mass, nu_min, nu_max, wm, speed_max)
        if (step + 1) % snap_every == 0 or step + 1 == n_steps:
            snapshots.append(ParticleEnsemble(
                time=t_next, positions=x.copy(), volumes=w.copy(),
                intensities=nu.copy(), h=ens0.h,
                index_set=ens0.index_set.copy()))

    monitors = MonitorReport(
        mass_bound=bound,
        mass_excess_max=max(mass_excess, 0.0),
        support_excess_max=support_excess,
        w_min=w_min_seen,
        nu_min=nu_min_seen,
        ok=(mass_excess <= 1e-6 * (1.0 + T) and support_excess <= 1e-9
            and w_min_seen > 0.0),
    )
    return Trajectory(model=model, dt=dt, n_steps=n_steps,
                      snapshots=snapshots, series=series, monitors=monitors)

"""Time integration of the particle system.

Particles carry (x_i, w_i, nu_i) and follow

    dx_i/dt  = A(t, x_i)                      A = a(t, x, I_a(x))
    dw_i/dt  = (div A)(t, x_i) w_i            Liouville volume transport
    dnu_i/dt = (-div A + R(t, x_i, I_g(x_i))) nu_i
               + sum_j w_j nu_j m(t, x_i, x_j, I_d(x_i))

with every non-local input evaluated against the current ensemble.  The
stepper is fixed-step classical RK4; all interaction sums are recomputed at
every stage.  Default step: dt = min(1e-3, h / (2 a_sup)).

The integrator carries the ensemble as one state array S of shape
(d + 2, n): rows 0..d-1 hold the position components, row d the volumes
and row d + 1 the intensities.  Each stage returns the derivative K in the
same layout, so a stage input is S + c dt K and the RK4 update acts on
the whole state.  The step reuses its buffers: the three stage inputs are
formed in one preallocated array, and the update accumulates
((k1 + 2 k2) + 2 k3) + k4 in k2's storage and adds it to S in place.  Each
in-place pass rounds as the allocating expression would, so the bits are
the same.

Mutation pruning: rows are restricted once, at t = 0, to particles in
``mutation_reach`` (supp_x m padded by a_sup T), the rule by which
``partition_support`` keeps empty cells; columns are restricted each stage
to particles currently inside supp_y m.  Both prunings drop exact zeros only.

Runtime monitors (recorded every step, violations are hard errors where
noted):

- mass bound: total mass <= max(initial mass, I_star / psi_g_min); the
  maximal excess is recorded
- support bound: max_i |x_i(t) - x_i(0)| <= a_sup t; maximal excess recorded
- volume positivity: min w_i > 0
- intensity sign alarm: nu_i < -NU_ALARM * max_j nu_j aborts the run (negative
  intensities of that size mean the discretization has broken down; they
  are never clamped)
- finiteness of the state after every step
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import ParticleEnsemble, mutation_reach
from .model import (ModelSpec, advection_inputs, divergence_field,
                    nonlocal_field, pair_sum, velocity_field)

__all__ = [
    "IntegrationError",
    "RunConfig",
    "MonitorReport",
    "Trajectory",
    "integrate",
    "default_dt",
]


NU_ALARM = 1e-10    # abort when nu < -NU_ALARM * max(nu)


class IntegrationError(RuntimeError):
    """The particle integration produced an invalid state."""


def default_dt(h: float, a_sup: float) -> float:
    """Step policy: a particle may not cross half a cell per step."""
    if a_sup > 0:
        return min(1e-3, h / (2.0 * a_sup))
    return 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Integration window; a run keeps about 40 snapshots."""

    t_final: float
    dt: Optional[float] = None          # None: default_dt(h, a_sup)

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


def _mutation_rows(model: ModelSpec, ens: ParticleEnsemble,
                   T: float) -> np.ndarray:
    """Fixed row set for mutation sums: the particles whose position lies
    in the mutation reach; empty without mutation."""
    reach = mutation_reach(model, T)
    if reach is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(reach.contains(ens.positions))


def _pack(ens: ParticleEnsemble) -> np.ndarray:
    """The (d + 2, n) state array of an ensemble."""
    return np.vstack([ens.positions.T, ens.volumes, ens.intensities])


def _points(S: np.ndarray) -> np.ndarray:
    """Position rows of a packed array as (n, d) C-contiguous points."""
    d = S.shape[0] - 2
    if d == 1:
        return S[:1].T  # (n, 1) view, already C-contiguous
    # a strided view would slow every model copy, and filling the columns
    # from the rows is faster than a transposing copy
    x = np.empty((S.shape[1], d))
    for k in range(d):
        x[:, k] = S[k]
    return x


def _stage_rhs(model: ModelSpec, t: float, S: np.ndarray,
               mut_rows: np.ndarray) -> np.ndarray:
    d = S.shape[0] - 2
    x = _points(S)
    w, nu = S[d], S[d + 1]
    alpha = nu * w
    I = advection_inputs(model, t, x, x, alpha)
    K = np.empty_like(S)
    K[:d] = velocity_field(model, t, x, I).T
    div = divergence_field(model, t, x, x, alpha, I)
    I_g = nonlocal_field(model.kernel_g, t, x, x, alpha)
    R = np.asarray(model.growth(t, x, I_g), dtype=float)
    K[d] = div * w
    K[d + 1] = (R - div) * nu
    if mut_rows.size:
        cols = np.flatnonzero(model.support_m_y.contains(x))
        if cols.size:
            I_d = nonlocal_field(model.kernel_d, t, x[mut_rows], x, alpha)
            M = np.asarray(model.mutation(t, x[mut_rows], x[cols], I_d))
            K[d + 1, mut_rows] += pair_sum(M * alpha[cols][None, :], axis=-1)
    return K


def integrate(model: ModelSpec, ens0: ParticleEnsemble, cfg: RunConfig) -> Trajectory:
    """Fixed-step RK4 on the particle system with runtime monitors.

    Deterministic by construction: fixed step count, fixed-order pairwise
    reductions, no adaptivity, no randomness.  Identical inputs produce
    bit-identical trajectories.  t_final = 0 takes no step and returns the
    initial state with its one series row.
    """
    if ens0.n == 0:
        raise IntegrationError("cannot integrate an empty ensemble")
    T = cfg.t_final
    dt = cfg.dt if cfg.dt is not None else default_dt(ens0.h, model.a_sup)
    n_steps = 0 if T == 0.0 else max(1, int(math.ceil(T / dt - 1e-9)))
    dt = T / n_steps if n_steps else dt
    snap_every = max(1, n_steps // 40)

    d = ens0.dim
    S = _pack(ens0)
    x0 = ens0.positions
    t0 = ens0.time
    mut_rows = _mutation_rows(model, ens0, T)

    mass = ens0.mass()
    bound = max(mass, model.mass_bound_factor)
    # the displacement has no series column, so its maximum is kept while
    # stepping; it starts at 0, its exact value at t0
    support_excess = 0.0

    rows = [(t0, mass, np.min(S[d + 1]), np.max(S[d + 1]), np.min(S[d]),
             np.max(S[d]), 0.0)]
    snapshots = [ens0.copy()]
    # the ufunc reductions behind np.min and np.max, without their wrappers
    vmin, vmax = np.minimum.reduce, np.maximum.reduce
    U = np.empty_like(S)

    for step in range(n_steps):
        t = t0 + step * dt
        k1 = _stage_rhs(model, t, S, mut_rows)
        v = _points(k1)
        # sqrt is monotone and correctly rounded: sqrt(max) == max(sqrt)
        speed_max = math.sqrt(vmax(pair_sum(v * v, axis=-1)))
        np.add(S, np.multiply(k1, 0.5 * dt, out=U), out=U)
        k2 = _stage_rhs(model, t + 0.5 * dt, U, mut_rows)
        np.add(S, np.multiply(k2, 0.5 * dt, out=U), out=U)
        k3 = _stage_rhs(model, t + 0.5 * dt, U, mut_rows)
        np.add(S, np.multiply(k3, dt, out=U), out=U)
        k4 = _stage_rhs(model, t + dt, U, mut_rows)
        # S += (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in k2
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        S += k2
        t_next = t0 + (step + 1) * dt

        finite = np.isfinite(S)
        if not finite.all():
            groups = (("position", finite[:d].all(axis=0)),
                      ("volume", finite[d]), ("intensity", finite[d + 1]))
            name, ok = next(g for g in groups if not g[1].all())
            raise IntegrationError(
                f"non-finite {name} for particle {int(np.argmin(ok))} "
                f"at t={t_next:.6g}")
        x, w, nu = _points(S), S[d], S[d + 1]
        nu_max = float(vmax(nu))
        nu_min = float(vmin(nu))
        if nu_min < -NU_ALARM * max(nu_max, 1e-300):
            i = int(np.argmin(nu))
            raise IntegrationError(
                f"negative intensity nu[{i}]={nu_min:.3e} at t={t_next:.6g} "
                f"(alarm threshold {-NU_ALARM:.1e} * max nu); intensities "
                "are never clamped, the run is aborted instead")
        wm = float(vmin(w))
        if wm <= 0.0:
            i = int(np.argmin(w))
            raise IntegrationError(
                f"non-positive volume w[{i}]={wm:.3e} at t={t_next:.6g}")

        mass = float(pair_sum(nu * w))
        dx = x - x0
        dx *= dx
        support_excess = max(support_excess,
                             math.sqrt(vmax(pair_sum(dx, axis=-1)))
                             - model.a_sup * (t_next - t0))

        rows.append((t_next, mass, nu_min, nu_max, wm, vmax(w), speed_max))
        if (step + 1) % snap_every == 0 or step + 1 == n_steps:
            snapshots.append(ParticleEnsemble(
                time=t_next, positions=x.copy(), volumes=w.copy(),
                intensities=nu.copy(), h=ens0.h))

    keys = ("t", "mass", "nu_min", "nu_max", "w_min", "w_max", "speed_max")
    series = {k: np.array(col, dtype=float) for k, col in zip(keys, zip(*rows))}
    mass_excess = max(0.0, float(np.max(series["mass"] - bound)))
    w_min = float(np.min(series["w_min"]))
    monitors = MonitorReport(
        mass_bound=bound,
        mass_excess_max=mass_excess,
        support_excess_max=support_excess,
        w_min=w_min,
        nu_min=float(np.min(series["nu_min"])),
        ok=(mass_excess <= 1e-6 * (1.0 + T) and support_excess <= 1e-9
            and w_min > 0.0),
    )
    return Trajectory(model=model, dt=dt, n_steps=n_steps,
                      snapshots=snapshots, series=series, monitors=monitors)

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
and row d + 1 the intensities, in C order so that every row is
contiguous.  Each stage writes the derivative K in the same layout, so a
stage input is S + c dt K and the RK4 update acts on the whole state.
A stage hands the model its points as the view S[:d].T, not a copy: an
(n, d) array that is F-ordered for d >= 2, each column a contiguous
state row.  Sums over particles are taken in C order, so their bits do
not depend on the layout of what an evaluator returns.

The integrator owns every buffer of the step: the four stage
derivatives, one array for the three stage inputs, the masses
alpha = nu w and a (d, n) array for the squared speeds and displacements.
A stage writes its K into the buffer it is given and reads alpha, which
the caller fills once per state; the end-of-step masses give the total
mass and are the next step's first alpha.  The update accumulates
((k1 + 2 k2) + 2 k3) + k4 in k2's storage and adds it to S in place.  Each
in-place pass rounds as the allocating expression would, so the bits are
the same.

The per-step series is one (7, n_steps + 1) float64 array, allocated
before the first step: each step writes its column of seven values, and
no Python object is kept per step, so a long run's series costs 56 bytes
a step.  A run of more than MAX_STEPS steps is refused before anything
is allocated.

Snapshots are not kept: about 40 times a run (t0, every n_steps // 40
steps and the last step) the state is copied into an ensemble and handed
to the caller's ``snapshot`` callback, so a caller that streams them
holds one at a time and a caller that passes none pays for none.  The
trajectory keeps the initial and the final ensemble only.

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
- finiteness of the state after every step: NaN and inf reach the minima
  and maxima of w and nu and the largest displacement, so the state is
  scanned for the first non-finite quantity only when one of those is not
  finite; the error names the quantity, the particle and the time
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
# the largest step count of a run, the size of partition_support's
# lattice cap: its series alone would take 2.8 GB
MAX_STEPS = 50_000_000


class IntegrationError(RuntimeError):
    """The particle integration produced an invalid state."""


def default_dt(h: float, a_sup: float) -> float:
    """Step policy: a particle may not cross half a cell per step."""
    if a_sup > 0:
        return min(1e-3, h / (2.0 * a_sup))
    return 1e-3


@dataclass(frozen=True)
class RunConfig:
    """Integration window; a run hands about 40 snapshots to its
    ``snapshot`` callback and keeps none."""

    t_final: float
    dt: Optional[float] = None          # None: default_dt(h, a_sup)

    def __post_init__(self):
        if self.t_final < 0:
            raise ValueError("t_final must be >= 0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")

    def steps(self, h: float, a_sup: float) -> tuple:
        """(n_steps, dt) of a run at spacing h under the speed bound a_sup:
        the step is shortened to divide t_final.  A run of more than
        MAX_STEPS steps raises IntegrationError."""
        T = self.t_final
        dt = self.dt if self.dt is not None else default_dt(h, a_sup)
        if T == 0.0:
            return 0, dt
        # compared in float before the cast: a tiny dt makes T / dt
        # overflow to inf, and a huge a_sup makes the default dt 0
        steps = T / dt - 1e-9 if dt > 0 else math.inf
        if steps > MAX_STEPS:
            step = (f"dt={dt:g}" if self.dt is not None else
                    f"the default dt=min(1e-3, h/(2 a_sup))={dt:g} "
                    f"(h={h:g}, a_sup={a_sup:g})")
            raise IntegrationError(
                f"t_final={T:g} at {step} takes {steps:.3g} steps, more "
                f"than {MAX_STEPS}; shorten t_final or raise dt")
        n_steps = max(1, math.ceil(steps))
        return n_steps, T / n_steps


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
    """Integration output: the initial and final ensembles, the per-step
    series and the monitor summary.  A run of no step has one ensemble,
    so ``final is initial``.

    ``series`` maps t, mass, nu_min, nu_max, w_min, w_max and speed_max to
    the rows of one (7, n_steps + 1) float64 array, as C-contiguous row
    views.  Entry i holds the values after i steps, except speed_max: the
    largest speed at the start of the i-th step (0 at i = 0).
    """

    model: ModelSpec
    dt: float
    n_steps: int
    initial: ParticleEnsemble
    final: ParticleEnsemble
    series: dict
    monitors: MonitorReport


def _mutation_rows(model: ModelSpec, ens: ParticleEnsemble,
                   T: float) -> np.ndarray:
    """Fixed row set for mutation sums: the particles whose position lies
    in the mutation reach; empty without mutation."""
    reach = mutation_reach(model, T)
    if reach is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(reach.contains(ens.positions))


def _pack(ens: ParticleEnsemble) -> np.ndarray:
    """The (d + 2, n) state array of an ensemble, in C order: np.vstack
    keeps the column order of positions.T for d >= 2, which would make
    every row a strided view."""
    return np.ascontiguousarray(
        np.vstack([ens.positions.T, ens.volumes, ens.intensities]))


def _unpack(S: np.ndarray, t: float, h: float) -> ParticleEnsemble:
    """A copy of the state S as the ensemble at time t."""
    d = S.shape[0] - 2
    return ParticleEnsemble(time=t, positions=S[:d].T.copy(),
                            volumes=S[d].copy(), intensities=S[d + 1].copy(),
                            h=h)


def _stage_rhs(model: ModelSpec, t: float, S: np.ndarray, alpha: np.ndarray,
               K: np.ndarray, I_local: Optional[np.ndarray],
               mut_rows: np.ndarray) -> None:
    """Write the derivative of the state S into K.  alpha holds S's masses
    nu * w, filled by the caller; I_local is the (n, 0) advection input of
    a local model, None for a non-local one."""
    d = S.shape[0] - 2
    # the (n, d) points as a view, F-ordered for d >= 2: column k is the
    # contiguous row S[k]
    x = S[:d].T
    w, nu = S[d], S[d + 1]
    I = I_local if I_local is not None else \
        advection_inputs(model, t, x, x, alpha)
    K[:d] = velocity_field(model, t, x, I).T
    div = divergence_field(model, t, x, x, alpha, I)
    I_g = nonlocal_field(model.kernel_g, t, x, x, alpha)
    R = model.growth(t, x, I_g)
    np.multiply(div, w, out=K[d])
    Kn = K[d + 1]
    np.subtract(R, div, out=Kn)
    Kn *= nu
    if mut_rows.size:
        cols = np.flatnonzero(model.support_m_y.contains(x))
        if cols.size:
            I_d = nonlocal_field(model.kernel_d, t, x[mut_rows], x, alpha)
            M = np.asarray(model.mutation(t, x[mut_rows], x[cols], I_d))
            # summed in C order: pairwise along each row, whatever the
            # layout the model returns
            Kn[mut_rows] += pair_sum(
                np.ascontiguousarray(M * alpha[cols][None, :]), axis=-1)


def _non_finite(S: np.ndarray, t: float) -> None:
    """Raise naming the first non-finite quantity of S and its particle;
    return when every entry is finite."""
    d = S.shape[0] - 2
    finite = np.isfinite(S)
    groups = (("position", finite[:d].all(axis=0)),
              ("volume", finite[d]), ("intensity", finite[d + 1]))
    for name, ok in groups:
        if not ok.all():
            raise IntegrationError(
                f"non-finite {name} for particle {int(np.argmin(ok))} "
                f"at t={t:.6g}")


def _max_norm(sq: np.ndarray) -> float:
    """Largest Euclidean norm of the columns of a (d, n) array of squares,
    the components summed as pair_sum(..., axis=-1) sums an (n, d) array."""
    d = sq.shape[0]
    if d == 1:
        # a reduction over one component returns it unchanged
        return math.sqrt(np.maximum.reduce(sq[0]))
    if d < 8:
        # numpy sums fewer than 8 terms in index order, as the rows of
        # the (d, n) array are added, without the strided pass per point
        return math.sqrt(np.maximum.reduce(pair_sum(sq, axis=0)))
    return math.sqrt(np.maximum.reduce(pair_sum(sq.T.copy(), axis=-1)))


def integrate(model: ModelSpec, ens0: ParticleEnsemble, cfg: RunConfig,
              snapshot: Optional[Callable[[ParticleEnsemble], None]] = None
              ) -> Trajectory:
    """Fixed-step RK4 on the particle system with runtime monitors.

    Deterministic by construction: fixed step count, fixed-order pairwise
    reductions, no adaptivity, no randomness.  Identical inputs produce
    bit-identical trajectories.  t_final = 0 takes no step and returns the
    initial state with its one series row.

    `snapshot`, when given, is called with a fresh ensemble at t0, after
    every n_steps // 40 steps (at least 1) and after the last step, in
    time order; it is not called again once the run fails.
    """
    if ens0.n == 0:
        raise IntegrationError("cannot integrate an empty ensemble")
    T = cfg.t_final
    n_steps, dt = cfg.steps(ens0.h, model.a_sup)
    snap_every = max(1, n_steps // 40)

    d, n = ens0.dim, ens0.n
    S = _pack(ens0)
    x0 = ens0.positions.T.copy()
    t0 = ens0.time
    mut_rows = _mutation_rows(model, ens0, T)

    mass = ens0.mass()
    bound = max(mass, model.mass_bound_factor)
    # the displacement has no series column, so its maximum is kept while
    # stepping; it starts at 0, its exact value at t0
    support_excess = 0.0

    keys = ("t", "mass", "nu_min", "nu_max", "w_min", "w_max", "speed_max")
    # one series row per key, one column per step: rows[i] = (...) stores
    # the values after i steps and keeps no Python object per step
    table = np.empty((len(keys), n_steps + 1))
    rows = table.T
    rows[0] = (t0, mass, np.min(S[d + 1]), np.max(S[d + 1]), np.min(S[d]),
               np.max(S[d]), 0.0)
    initial = ens0.copy()
    if snapshot is not None:
        snapshot(initial)
    # the ufunc reductions behind np.min and np.max, without their wrappers
    vmin, vmax = np.minimum.reduce, np.maximum.reduce
    I_local = np.zeros((n, 0)) if model.is_local else None
    k1, k2, k3, k4 = (np.empty_like(S) for _ in range(4))
    U = np.empty_like(S)
    # views stay valid: S, U and the stage buffers are updated in place
    pos, w, nu, wnu, v = S[:d], S[d], S[d + 1], S[d:], k1[:d]
    Uw, Unu = U[d], U[d + 1]
    alpha = nu * w
    sq = np.empty((d, n))

    for step in range(n_steps):
        t = t0 + step * dt
        # alpha holds the masses of S, formed with the last step's mass
        _stage_rhs(model, t, S, alpha, k1, I_local, mut_rows)
        # sqrt is monotone and correctly rounded: sqrt(max) == max(sqrt)
        speed_max = _max_norm(np.multiply(v, v, out=sq))
        np.add(S, np.multiply(k1, 0.5 * dt, out=U), out=U)
        np.multiply(Unu, Uw, out=alpha)
        _stage_rhs(model, t + 0.5 * dt, U, alpha, k2, I_local, mut_rows)
        np.add(S, np.multiply(k2, 0.5 * dt, out=U), out=U)
        np.multiply(Unu, Uw, out=alpha)
        _stage_rhs(model, t + 0.5 * dt, U, alpha, k3, I_local, mut_rows)
        np.add(S, np.multiply(k3, dt, out=U), out=U)
        np.multiply(Unu, Uw, out=alpha)
        _stage_rhs(model, t + dt, U, alpha, k4, I_local, mut_rows)
        # S += (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in k2
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        S += k2
        t_next = t0 + (step + 1) * dt

        wm, nu_min = vmin(wnu, axis=1).tolist()
        w_max, nu_max = vmax(wnu, axis=1).tolist()
        np.subtract(pos, x0, out=sq)
        disp_max = _max_norm(np.multiply(sq, sq, out=sq))
        # NaN and inf reach these reductions, so the state is scanned only
        # when one of them is not finite (a finite state can still
        # overflow the squared displacement)
        if not (math.isfinite(wm + nu_min + w_max + nu_max)
                and math.isfinite(disp_max)):
            _non_finite(S, t_next)
        if nu_min < -NU_ALARM * max(nu_max, 1e-300):
            i = int(np.argmin(nu))
            raise IntegrationError(
                f"negative intensity nu[{i}]={nu_min:.3e} at t={t_next:.6g} "
                f"(alarm threshold {-NU_ALARM:.1e} * max nu); intensities "
                "are never clamped, the run is aborted instead")
        if wm <= 0.0:
            i = int(np.argmin(w))
            raise IntegrationError(
                f"non-positive volume w[{i}]={wm:.3e} at t={t_next:.6g}")

        mass = float(pair_sum(np.multiply(nu, w, out=alpha)))
        support_excess = max(support_excess,
                             disp_max - model.a_sup * (t_next - t0))

        rows[step + 1] = (t_next, mass, nu_min, nu_max, wm, w_max, speed_max)
        if snapshot is not None and (step + 1) % snap_every == 0 \
                and step + 1 < n_steps:
            snapshot(_unpack(S, t_next, ens0.h))

    final = initial
    if n_steps:
        final = _unpack(S, t_next, ens0.h)
        if snapshot is not None:
            snapshot(final)
    series = dict(zip(keys, table))
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
    return Trajectory(model=model, dt=dt, n_steps=n_steps, initial=initial,
                      final=final, series=series, monitors=monitors)

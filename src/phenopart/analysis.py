"""Convergence measurement and long-time asymptotics diagnostics.

Two regimes are measured:

- finite-horizon accuracy: L1 distance between the mollified particle
  density and a reference solution, the weighted pointwise intensity error
  sum_i |v(T, x_i) - nu_i| w_i, and least-squares convergence orders on
  log-log (h, error) pairs;

- long-time behavior: detection of limit clusters (candidate weighted Dirac
  masses) from a trajectory, the predicted limit mass rho solving
  R(x_hat, psi_g(x_hat, x_hat) rho) = 0, residuals of the stationarity
  conditions a Dirac limit must satisfy, and the weak measure gap
  max_k |<test_k, particles> - <test_k, reference>| over a fixed family of
  smooth bumps.  Whether the gap contracts under refinement decides the
  preservation verdict: the discretization preserves the continuum
  asymptotics when the gap at h/4 is at most half the gap at h; a gap that
  stagnates above the configured floor across the sweep is non-preserving;
  anything else is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .discretize import (InitialDensity, ParticleEnsemble, _bump_1d,
                         active_box, partition_support)
from .dynamics import RunConfig, Trajectory, integrate
from .model import Box, ModelSpec, pair_sum
from .reference import ReferenceSolution
from .regularize import CutoffSpec, epsilon_rule, reconstruct

__all__ = [
    "AnalysisError",
    "PredictionError",
    "FitResult",
    "ClusterReport",
    "weighted_pointwise_error",
    "fit_convergence_order",
    "detect_limit_clusters",
    "predict_limit_mass",
    "check_dirac_necessary_conditions",
    "weak_measure_gap",
    "default_test_functions",
    "particle_self_convergence",
    "SelfConvergenceResult",
    "ap_verdict",
    "APReport",
]


class AnalysisError(RuntimeError):
    """A diagnostic was asked to operate outside its contract."""


class PredictionError(RuntimeError):
    """The limit-mass equation has no root in the admissible bracket."""


# ---------------------------------------------------------------------------
# finite-horizon accuracy


def weighted_pointwise_error(ens: ParticleEnsemble, oracle: ReferenceSolution) -> float:
    """sum_i |v_oracle(T, x_i) - nu_i| w_i; particles must lie on the grid."""
    if ens.dim != 1:
        raise AnalysisError("weighted pointwise error is defined on 1D oracles")
    pos = ens.positions[:, 0]
    if np.any(pos < oracle.x[0]) or np.any(pos > oracle.x[-1]):
        raise AnalysisError("particles left the oracle grid; widen the oracle box")
    vals = oracle.value_at(pos)
    return float(pair_sum(np.abs(vals - ens.intensities) * ens.volumes))


@dataclass(frozen=True)
class FitResult:
    order: float
    intercept: float
    max_residual: float
    pairs: tuple

    def __iter__(self):
        yield self.order
        yield self.intercept


def fit_convergence_order(pairs: Sequence) -> FitResult:
    """Least-squares slope of log error against log h.

    Requires at least 3 pairs with strictly decreasing h and positive finite
    errors.  max_residual is the worst log-space deviation from the fit.
    """
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 3:
        raise AnalysisError("order fit needs at least 3 (h, error) pairs")
    hs = np.array([p[0] for p in pairs])
    es = np.array([p[1] for p in pairs])
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise AnalysisError("h values must be positive and strictly decreasing")
    if np.any(~np.isfinite(es)) or np.any(es <= 0):
        raise AnalysisError("errors must be positive and finite")
    L = np.log(hs)
    E = np.log(es)
    slope, intercept = np.polyfit(L, E, 1)
    resid = float(np.max(np.abs(E - (slope * L + intercept))))
    return FitResult(order=float(slope), intercept=float(intercept),
                     max_residual=resid, pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# long-time diagnostics


@dataclass(frozen=True)
class ClusterReport:
    """Limit-cluster detection outcome.

    conclusive is False when the trajectory has not reached stationarity
    inside the trailing window (positions still moving faster than
    pos_tol / window, or total mass still drifting by more than the relative
    mass_tol); in that case no clusters are reported.
    """

    conclusive: bool
    clusters: tuple          # ((center (d,), mass), ...) sorted by first coord
    total_mass: float
    max_speed: float
    mass_drift: float
    window: float
    pos_tol: float
    mass_tol: float


def detect_limit_clusters(traj: Trajectory, window: Optional[float] = None,
                          pos_tol: Optional[float] = None,
                          mass_tol: float = 1e-3) -> ClusterReport:
    """Group the final ensemble into clusters once the run is stationary.

    Stationarity certificates over the trailing window: the maximal particle
    speed stays below pos_tol / window, and the total mass moves by less than
    mass_tol relative.  Clusters are connected components of the final
    positions at linking distance pos_tol; clusters lighter than
    mass_tol * total mass are discarded as numerical debris.  The reported
    masses sum to the total mass up to that discard tolerance.
    """
    ens = traj.final
    T = float(traj.series["t"][-1])
    if window is None:
        window = max(0.1 * T, 10.0 * traj.dt)
    if pos_tol is None:
        pos_tol = 10.0 * ens.h

    t_arr = traj.series["t"]
    sel = t_arr >= T - window
    if not np.any(sel):
        raise AnalysisError("stationarity window contains no recorded steps")
    max_speed = float(np.max(traj.series["speed_max"][sel]))
    mass_now = float(traj.series["mass"][-1])
    mass_then = float(traj.series["mass"][sel][0])
    mass_drift = abs(mass_now - mass_then) / max(abs(mass_now), 1e-300)

    conclusive = (max_speed < pos_tol / window) and (mass_drift < mass_tol)
    if not conclusive:
        return ClusterReport(False, (), mass_now, max_speed, mass_drift,
                             window, pos_tol, mass_tol)

    alpha = ens.alpha()
    pos = ens.positions
    if ens.dim == 1:
        order = np.argsort(pos[:, 0], kind="stable")
        sorted_x = pos[order, 0]
        breaks = np.flatnonzero(np.diff(sorted_x) > pos_tol)
        groups = np.split(order, breaks + 1)
    else:
        tree = cKDTree(pos)
        parent = np.arange(ens.n)

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in sorted(tree.query_pairs(pos_tol)):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        roots = np.array([find(i) for i in range(ens.n)])
        groups = [np.flatnonzero(roots == r) for r in np.unique(roots)]

    clusters = []
    for g in groups:
        m = float(pair_sum(alpha[g]))
        if m >= mass_tol * max(mass_now, 1e-300):
            center = pair_sum(alpha[g][:, None] * pos[g], axis=0) / m
            clusters.append((center, m))
    clusters.sort(key=lambda cm: float(cm[0][0]))
    return ClusterReport(True, tuple(clusters), mass_now, max_speed,
                         mass_drift, window, pos_tol, mass_tol)


def predict_limit_mass(model: ModelSpec, x_hat) -> float:
    """Root of rho -> R(x_hat, psi_g(x_hat, x_hat) rho) on [0, I*/psi_min + 1].

    Requires a sign change over the bracket (R positive at empty population,
    negative at saturation) and R strictly decreasing in the non-local input
    on it; solved by bisection to ~1e-12 relative.
    """
    X = np.atleast_2d(np.asarray(x_hat, dtype=float))
    if X.shape != (1, model.dim):
        raise PredictionError(f"x_hat must be a single point in R^{model.dim}")
    if not math.isfinite(model.I_star):
        raise PredictionError("limit-mass prediction needs a finite I_star")
    psi = model.kernel_g.const
    if psi is None:
        psi = float(np.asarray(model.kernel_g.func(0.0, X, X))[0, 0])

    def g(rho: float) -> float:
        return float(np.asarray(model.growth(0.0, X, np.array([psi * rho])))[0])

    lo, hi = 0.0, model.I_star / model.psi_g_min + 1.0
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 > g_hi):
        raise PredictionError(
            f"no sign change on [{lo:g}, {hi:g}]: R({lo:g})={g_lo:g}, "
            f"R({hi:g})={g_hi:g}")
    if model.growth_dI is not None:
        slope = float(np.asarray(model.growth_dI(0.0, X, np.array([psi * lo])))[0])
        if slope >= 0:
            raise PredictionError("growth must be strictly decreasing in I")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConditionResiduals:
    """Stationarity residuals of one candidate limit cluster."""

    center: np.ndarray
    advection_residual: float   # |a(x_hat)| at the limit measure
    growth_residual: float      # |R(x_hat, I_g of the limit measure)|
    mutation_residual: float    # sup over samples of m(x, x_hat, I_d samples)


def check_dirac_necessary_conditions(model: ModelSpec, clusters,
                                     n_samples: int = 128) -> list:
    """Residuals of the conditions a weighted Dirac limit must satisfy.

    The candidate limit is sum_k m_k delta_{c_k}.  For each cluster:
    the advection must vanish at the center, the growth must vanish there
    under the limit measure's own non-local input, and mutation into any
    point of the support must vanish (sampled over the padded support box).
    """
    clusters = list(clusters)
    if not clusters:
        return []
    centers = np.stack([np.atleast_1d(np.asarray(c, dtype=float))
                        for c, _m in clusters])
    masses = np.array([float(m) for _c, m in clusters])

    out = []
    box = active_box(model, 0.0).expand(0.5)
    X_samples = box.sample(n_samples, seed=3)
    for k in range(centers.shape[0]):
        c = centers[k:k + 1]
        I_a = np.zeros((1, model.n_a))
        if not model.is_local:
            for j, ker in enumerate(model.kernels_a):
                if ker.const is not None:
                    I_a[0, j] = ker.const * float(pair_sum(masses))
                else:
                    vals = np.asarray(ker.func(0.0, c, centers))[0]
                    I_a[0, j] = float(pair_sum(vals * masses))
        a_res = float(np.max(np.abs(np.asarray(model.advection(0.0, c, I_a))[0])))

        if model.kernel_g.const is not None:
            I_g = model.kernel_g.const * float(pair_sum(masses))
        else:
            vals = np.asarray(model.kernel_g.func(0.0, c, centers))[0]
            I_g = float(pair_sum(vals * masses))
        g_res = abs(float(np.asarray(model.growth(0.0, c, np.array([I_g])))[0]))

        if model.mutation is not None:
            I_d = np.zeros(n_samples)
            M = np.asarray(model.mutation(0.0, X_samples,
                                          np.broadcast_to(c, (1, model.dim)), I_d))
            m_res = float(np.max(np.abs(M)))
        else:
            m_res = 0.0
        out.append(ConditionResiduals(
            center=centers[k], advection_residual=a_res,
            growth_residual=g_res, mutation_residual=m_res))
    return out


# ---------------------------------------------------------------------------
# weak measure gap and the preservation verdict


def default_test_functions(lo: float, hi: float, count: int = 7):
    """Fixed family of smooth bumps spread over [lo, hi] (1D)."""
    centers = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    width = (hi - lo) / count
    return [
        (lambda x, c=c, w=width: _bump_1d((np.asarray(x, dtype=float) - c) / w))
        for c in centers
    ]


def weak_measure_gap(ens: ParticleEnsemble, oracle: ReferenceSolution,
                     tests: Optional[list] = None) -> float:
    """max_k |sum_i alpha_i phi_k(x_i) - int phi_k v_oracle| over the family."""
    if ens.dim != 1:
        raise AnalysisError("weak measure gap compares against 1D oracles")
    if tests is None:
        tests = default_test_functions(float(oracle.x[0]), float(oracle.x[-1]))
    alpha = ens.alpha()
    pos = ens.positions[:, 0]
    gap = 0.0
    for phi in tests:
        part = float(pair_sum(np.asarray(phi(pos)) * alpha))
        ref = float(np.trapezoid(np.asarray(phi(oracle.x)) * oracle.v, dx=oracle.dx))
        gap = max(gap, abs(part - ref))
    return gap


# ---------------------------------------------------------------------------
# self-convergence without an oracle


@dataclass(frozen=True)
class SelfConvergenceResult:
    fit: FitResult
    truth_h: float
    grid: np.ndarray

    @property
    def order(self) -> float:
        return self.fit.order


def particle_self_convergence(model: ModelSpec, v0: InitialDensity,
                              h_list: Sequence[float], T: float,
                              cutoff: CutoffSpec, eps_q: float = 0.5,
                              dt: Optional[float] = None) -> SelfConvergenceResult:
    """Convergence order against the finest run itself.

    Runs every h in h_list plus one extra refinement at min(h)/2, which
    serves as the surrogate truth, so the fit still has len(h_list) pairs
    (the order fit needs at least 3).  All runs are reconstructed on one
    shared grid with spacing eps(truth)/4.
    """
    h_list = sorted(set(float(h) for h in h_list), reverse=True)
    if len(h_list) < 3:
        raise AnalysisError("self-convergence needs at least 3 h values")
    h_truth = h_list[-1] / 2.0
    box = active_box(model, T)
    eps_truth = epsilon_rule(h_truth, q=eps_q)
    spacing = eps_truth / 4.0
    lo = float(box.lo[0]) - 4.0 * eps_rule_radius(cutoff, epsilon_rule(h_list[0], q=eps_q))
    hi = float(box.hi[0]) + 4.0 * eps_rule_radius(cutoff, epsilon_rule(h_list[0], q=eps_q))
    n_pts = int(math.ceil((hi - lo) / spacing)) + 1
    grid = lo + spacing * np.arange(n_pts)

    def run(h: float) -> np.ndarray:
        ens0 = partition_support(v0, model, h, T)
        cfg = RunConfig(t_final=T, dt=dt, record_series=False)
        traj = integrate(model, ens0, cfg)
        return reconstruct(traj.final, cutoff, epsilon_rule(h, q=eps_q),
                           grid[:, None])

    truth = run(h_truth)
    pairs = []
    for h in h_list:
        vals = run(h)
        err = float(np.trapezoid(np.abs(vals - truth), dx=spacing))
        pairs.append((h, err))
    return SelfConvergenceResult(fit=fit_convergence_order(pairs),
                                 truth_h=h_truth, grid=grid)


def eps_rule_radius(cutoff: CutoffSpec, eps: float) -> float:
    """Physical support radius of the scaled cutoff."""
    return cutoff.radius * eps


# ---------------------------------------------------------------------------
# preservation verdict


@dataclass(frozen=True)
class APReport:
    verdict: str              # preserving | non_preserving | inconclusive
    gaps: tuple               # ((h, gap), ...) sorted by decreasing h
    floor: float
    detail: str


def ap_verdict(gaps: Sequence, floor: float = 1e-2) -> APReport:
    """Decide whether refinement drives the weak gap to zero.

    preserving: the gap at the finest h (at least 4x finer than the
    coarsest) is at most half the coarsest gap.  non_preserving: every gap
    stays at or above `floor`.  Anything else: inconclusive.

    `gaps` is an iterable of (h, gap) pairs or a {h: gap} mapping.
    """
    if isinstance(gaps, dict):
        gaps = gaps.items()
    pairs = sorted(((float(h), float(g)) for h, g in gaps), reverse=True)
    if len(pairs) < 2:
        raise AnalysisError("verdict needs gaps at >= 2 resolutions")
    h0, g0 = pairs[0]
    h1, g1 = pairs[-1]
    span_ok = h0 / h1 >= 4.0 * (1.0 - 1e-12)
    if span_ok and g1 <= 0.5 * g0:
        return APReport("preserving", tuple(pairs), floor,
                        f"gap fell {g0:.3g} -> {g1:.3g} over h {h0:g} -> {h1:g}")
    if min(g for _h, g in pairs) >= floor:
        return APReport("non_preserving", tuple(pairs), floor,
                        f"gap stagnates at >= {min(g for _h, g in pairs):.3g} "
                        f"(floor {floor:g})")
    return APReport("inconclusive", tuple(pairs), floor,
                    "gap neither halved over a 4x refinement nor stayed "
                    "above the floor")

"""Initial densities and their particle discretization.

The initial density v0 is sampled on the lattice of half-open cells
[i1 h, (i1+1) h) x ... x [id h, (id+1) h) that tile the box

    supp v0  union  mutation_reach(model, T),

one particle per cell at the cell center x_i = h (i + 1/2), with volume
w_i = h^d and intensity nu_i = v0(x_i).  A cell is kept when nu_i != 0 or
its center lies in the mutation reach, the particles the integrator feeds
mutation influx; a dropped cell would carry nu = 0 forever.

The lattice is anchored at the origin: cell boundaries at integer multiples
of h, particles at half-integer multiples.  With v0 = 1 on [0, 1] and
h = 1/4 this yields exactly 4 particles of total mass 1; a profile positive
on (0, 1) with h = 1/N yields exactly N particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import Box, ModelSpec, as_points, nonlocal_field, pair_sum

__all__ = [
    "DiscretizationError",
    "InitialDensity",
    "ParticleEnsemble",
    "MutationCheck",
    "partition_support",
    "check_mutation_discretization",
    "build_profile",
    "PROFILES",
]


# the largest lattice partition_support builds, in cells
MAX_CELLS = 50_000_000


class DiscretizationError(RuntimeError):
    """The requested lattice produced no usable particles."""


@dataclass(frozen=True)
class InitialDensity:
    """Initial profile: evaluator over point rows and declared support.

    evaluator(X(n,d)) -> (n,) must vanish identically outside `support`.
    """

    name: str
    evaluator: Callable
    support: Box

    def __call__(self, X) -> np.ndarray:
        pts = as_points(X, self.support.dim)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        return np.where(self.support.contains(pts), vals, 0.0)


@dataclass
class ParticleEnsemble:
    """Weighted particle state (x_i, w_i, nu_i) at one time.

    The represented measure is sum_i nu_i w_i delta_{x_i}.  A particle's
    label is its row index: the integrator never reorders or drops rows, so
    row i of every snapshot is the same particle.
    """

    time: float
    positions: np.ndarray   # (n, d)
    volumes: np.ndarray     # (n,)
    intensities: np.ndarray  # (n,)
    h: float

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        n = self.positions.shape[0]
        if self.volumes.shape != (n,) or self.intensities.shape != (n,):
            raise ValueError("ensemble arrays have inconsistent lengths")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def alpha(self) -> np.ndarray:
        """Per-particle masses nu_i w_i."""
        return self.intensities * self.volumes

    def mass(self) -> float:
        return float(pair_sum(self.alpha()))

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            time=self.time,
            positions=self.positions.copy(),
            volumes=self.volumes.copy(),
            intensities=self.intensities.copy(),
            h=self.h,
        )


def active_box(model: ModelSpec, T: float) -> Box:
    """Diagnostics box O_T: supports padded by the maximal displacement 2 a_sup T."""
    box = model.support_v0
    if model.support_m_x is not None:
        box = box.union(model.support_m_x)
    return box.expand(2.0 * model.a_sup * T)


def mutation_reach(model: ModelSpec, T: float) -> Optional[Box]:
    """The only region whose particles can gain mass by time T: supp_x m
    padded by a_sup T, or None without mutation."""
    if model.mutation is None:
        return None
    return model.support_m_x.expand(model.a_sup * T)


def partition_support(v0: InitialDensity, model: ModelSpec, h: float,
                      T: float) -> ParticleEnsemble:
    """Lattice discretization of v0 over supp v0 union mutation_reach(model, T).

    Cells are [ih, (i+1)h)^d with particles at centers h(i+1/2) in
    lexicographic lattice order; w_i = h^d, nu_i = v0(x_i).  A cell is kept
    when nu_i != 0 or its center lies in the mutation reach.
    """
    if h <= 0:
        raise DiscretizationError("h must be positive")
    if v0.support.dim != model.dim:
        raise DiscretizationError("profile/model dimension mismatch")
    reach = mutation_reach(model, T)
    box = v0.support if reach is None else v0.support.union(reach)
    # the cells are counted in float before any cast: a tiny h overflows
    # an int64 index, and a subnormal one overflows box / h to inf
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = np.floor(box.lo / h), np.ceil(box.hi / h)
        cells = np.prod(hi - lo)
    if not cells <= MAX_CELLS:  # nan where both edges overflow
        raise DiscretizationError(
            f"h={h:g} makes a lattice of more than {MAX_CELLS} cells; "
            "raise h")
    lo_idx = lo.astype(np.int64)
    counts = (hi - lo).astype(np.int64)

    axes = [lo_idx[k] + np.arange(counts[k], dtype=np.int64) for k in range(model.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.reshape(-1) for m in mesh], axis=1)  # lexicographic
    centers = (idx + 0.5) * h

    nu = v0(centers)
    keep = nu != 0.0
    if reach is not None:
        keep |= reach.contains(centers)
    if not np.any(keep):
        raise DiscretizationError(
            "no particles: v0 vanishes at every lattice center (h too coarse?)")

    positions = centers[keep]
    intensities = nu[keep]
    volumes = np.full(positions.shape[0], float(h) ** model.dim)
    return ParticleEnsemble(
        time=0.0, positions=positions, volumes=volumes,
        intensities=intensities, h=float(h))


class MutationCheck(NamedTuple):
    """Result of the discrete mutation-sum bound check; truthy when it holds."""

    ok: bool
    worst: float
    bound: float
    witness: Optional[tuple]  # (t, y) achieving the worst sum

    def __bool__(self) -> bool:  # noqa: D105
        return self.ok


def check_mutation_discretization(ens: ParticleEnsemble, model: ModelSpec,
                                  t_samples: Sequence[float],
                                  y_samples) -> MutationCheck:
    """Check sup_{t,y} sum_i w_i m(t, x_i, y, I_d(t, x_i)) < K_const + r_star/2.

    This is the discrete smallness condition on mutation needed for the mass
    bound to survive discretization.  Models without mutation satisfy it
    trivially.
    """
    bound = model.K_const + 0.5 * model.r_star
    if model.mutation is None:
        return MutationCheck(ok=True, worst=0.0, bound=bound, witness=None)
    Y = as_points(y_samples, model.dim)
    alpha = ens.alpha()
    worst = -math.inf
    witness = None
    for t in t_samples:
        I_d = nonlocal_field(model.kernel_d, t, ens.positions, ens.positions, alpha)
        # rows: particles, cols: probe points y
        M = np.asarray(model.mutation(t, ens.positions, Y, I_d))
        sums = pair_sum(M * ens.volumes[:, None], axis=0)
        j = int(np.argmax(sums))
        if sums[j] > worst:
            worst = float(sums[j])
            witness = (float(t), Y[j].copy())
    return MutationCheck(ok=worst < bound, worst=worst, bound=bound, witness=witness)


# ---------------------------------------------------------------------------
# initial profile presets


def _bump_1d(u: np.ndarray) -> np.ndarray:
    # exp(1 - 1/(1-u^2)) on |u| < 1, extended by zero
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def build_profile(name: str, **params) -> InitialDensity:
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(PROFILES)}")
    return PROFILES[name](**params)


def _profile_one_minus_x() -> InitialDensity:
    support = Box([0.0], [1.0])
    return InitialDensity(
        name="one-minus-x",
        evaluator=lambda X: 1.0 - X[:, 0],
        support=support)


def _profile_x_one_minus_x() -> InitialDensity:
    support = Box([0.0], [1.0])
    return InitialDensity(
        name="x-one-minus-x",
        evaluator=lambda X: X[:, 0] * (1.0 - X[:, 0]),
        support=support)


def _profile_x_squared() -> InitialDensity:
    support = Box([0.0], [1.0])
    return InitialDensity(
        name="x-squared",
        evaluator=lambda X: X[:, 0] ** 2,
        support=support)


def _positive(name: str, value) -> None:
    """Refuse a profile parameter that is not positive everywhere: a zero
    width or level leaves no particle, a negative level a negative
    intensity."""
    if not np.all(np.asarray(value, dtype=float) > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def _profile_const(value: float = 6.0, lo: float = 0.05, hi: float = 1.0) -> InitialDensity:
    _positive("value", value)
    support = Box([lo], [hi])
    return InitialDensity(
        name="const",
        evaluator=lambda X: np.full(X.shape[0], float(value)),
        support=support)


def _profile_const6() -> InitialDensity:
    # constant 6 on [0.05, 1]: the support stays clear of the unstable rest
    # point at 0, so the long-run limit is a single cluster at 1
    return _profile_const(6.0, 0.05, 1.0)


def _profile_bump(center=0.5, width=0.3, scale: float = 1.0) -> InitialDensity:
    """Smooth compactly supported bump (product form in d dimensions)."""
    _positive("width", width)
    _positive("scale", scale)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    width = np.broadcast_to(np.asarray(width, dtype=float), center.shape).copy()
    support = Box(center - width, center + width)

    def evaluator(X):
        vals = np.full(X.shape[0], float(scale))
        for k in range(center.shape[0]):
            vals = vals * _bump_1d((X[:, k] - center[k]) / width[k])
        return vals

    return InitialDensity(
        name="bump", evaluator=evaluator, support=support)


def _profile_bump_pair(centers=((-0.5, 0.0), (0.5, 0.0)), width=0.35,
                       scale: float = 1.0) -> InitialDensity:
    """Sum of bumps of one width, one at each center; the two-cluster
    initial condition."""
    bumps = [_profile_bump(c, width, scale) for c in centers]
    support = reduce(Box.union, [b.support for b in bumps])

    def evaluator(X):
        return sum((b.evaluator(X) for b in bumps), np.zeros(X.shape[0]))

    return InitialDensity(
        name="bump-pair", evaluator=evaluator, support=support)


PROFILES = {
    "one-minus-x": _profile_one_minus_x,
    "x-one-minus-x": _profile_x_one_minus_x,
    "x-squared": _profile_x_squared,
    "const": _profile_const,
    "const6": _profile_const6,
    "bump": _profile_bump,
    "bump-pair": _profile_bump_pair,
}

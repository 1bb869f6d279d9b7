"""Reconstruction of densities from particles via mollification.

A cutoff profile phi with unit mass and vanishing moments up to order r - 1
turns a particle ensemble into the function

    v_eps(x) = sum_i nu_i w_i eps^{-d} phi((x - x_i)/eps).

The reconstruction error splits into a smoothing part eps^r and a quadrature
part (h/eps)^m, plus the particle flow's own error (Raviart, An analysis of
particle methods, LNM 1127, 1985).  The exponent m is the cutoff's
smoothness: how many of its derivatives are integrable, capped by the
smoothness of the density.  A smooth cutoff on smooth data makes m large,
so the error approaches eps^r = h^{rq}: `gaussian4` (r = 4) at q = 0.8
measures L1 orders rising toward 3.2.  Balancing the two parts gives the
bandwidth rule eps(h) = h^{m/(m+r)}, which is how the exponent q of
`epsilon_rule`, eps = h^q, is chosen.

Cutoffs are product-form in d dimensions: phi(x) = prod_k profile(x_k).
All profiles have compact support (the analytic Gaussian is hard-zeroed
beyond |u| = 9, where its tail is below 1e-17 per factor).  A profile is
called as `profile(u, out=None) -> out`.  Given `out`, it writes its values
there with `out=` ufuncs, may overwrite `u` as scratch, and allocates no
float array (its support masks take one byte per entry); given no `out`, it
allocates the result and leaves `u` alone.  So `_kernel_sum` owns its tile
buffers, at most three of `_GRID_CHUNK x _PARTICLE_CHUNK` floats (the
offsets, the weights and, for d >= 2, one more axis factor), allocated once
per call and reused for every grid tile and particle block.  Of a block, it
evaluates only the window of particle columns that can reach the tile, and
skips a block that has none: the profile is exactly 0 beyond the support,
so the sum keeps every bit of the dense sum over all pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretize import ParticleEnsemble
from .model import as_points, pair_sum

__all__ = [
    "CutoffSpec",
    "CUTOFFS",
    "build_cutoff",
    "reconstruct",
    "epsilon_rule",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class CutoffSpec:
    """One cutoff profile: 1D shape, moment order, support radius, kinks.

    `profile(u, out=None) -> out` evaluates the shape at every entry of `u`
    and must give 0 where |u| > radius.  With `out` (a float array of u's
    shape) it writes the values there, may overwrite `u` as scratch, and
    allocates no float array, only one-byte support masks: this is how
    `_kernel_sum` reuses its tile buffers.  With no `out` it allocates the
    result and leaves `u` unchanged.
    `breakpoints` lists interior non-smooth points (the tests' moment
    quadrature splits its intervals there); `r_order` is the claimed moment
    order: integral phi = 1 and all moments up to r_order - 1 vanish.
    """

    name: str
    profile: Callable
    r_order: int
    radius: float
    breakpoints: tuple = ()


def _operands(u, out):
    """`u` and `out` for a profile to work in: with no `out`, a fresh result
    and a copy of `u`, so that the caller's `u` stays as it was."""
    if out is None:
        u = np.array(u, dtype=float)
        out = np.empty_like(u)
    return u, out


def _gaussian_profile(u, out=None):
    u, out = _operands(u, out)
    np.multiply(-0.5, u, out=out)
    np.multiply(out, u, out=out)
    np.exp(out, out=out)
    np.divide(out, _SQRT2PI, out=out)
    out[np.abs(u, out=u) > 9.0] = 0.0
    return out


# renormalized hard truncation at |u| <= 5: zeroth moment is exactly 1
_TRUNC_NORM = 0.9999994266968563  # erf(5/sqrt(2))


def _gaussian_trunc_profile(u, out=None):
    u, out = _operands(u, out)
    np.multiply(-0.5, u, out=out)
    np.multiply(out, u, out=out)
    np.exp(out, out=out)
    np.divide(out, _SQRT2PI * _TRUNC_NORM, out=out)
    out[np.abs(u, out=u) > 5.0] = 0.0
    return out


def _bspline3_profile(u, out=None):
    # cubic B-spline on [-2, 2], C^2, unit mass
    u, out = _operands(u, out)
    a = np.abs(u, out=u)
    inner = a <= 1.0
    outer = a < 2.0
    outer ^= inner  # 1 < a < 2
    out.fill(0.0)
    np.subtract(2.0, a, out=out, where=outer)
    np.power(out, 3, out=out, where=outer)
    np.divide(out, 6.0, out=out, where=outer)
    # 2/3 - a^2 + a^3/2; a^3 is the power, whose bits differ from a*a*a
    np.multiply(a, a, out=out, where=inner)
    np.subtract(2.0 / 3.0, out, out=out, where=inner)
    np.power(a, 3, out=a, where=inner)
    np.multiply(0.5, a, out=a, where=inner)
    np.add(out, a, out=out, where=inner)
    return out


def _gaussian4_profile(u, out=None):
    # fourth-order kernel: (3/2 - u^2/2) * standard Gaussian
    u, out = _operands(u, out)
    np.multiply(0.5, u, out=out)
    np.multiply(out, u, out=out)
    beyond = np.abs(u, out=u) > 9.0
    # -(u/2 * u) has the bits of (-u/2) * u: rounding is symmetric in sign
    np.negative(out, out=u)
    np.exp(u, out=u)
    np.subtract(1.5, out, out=out)
    np.multiply(out, u, out=out)
    np.divide(out, _SQRT2PI, out=out)
    out[beyond] = 0.0
    return out


CUTOFFS = {
    "gaussian": CutoffSpec(
        name="gaussian", profile=_gaussian_profile, r_order=2, radius=9.0),
    "gaussian-trunc": CutoffSpec(
        name="gaussian-trunc", profile=_gaussian_trunc_profile, r_order=2,
        radius=5.0, breakpoints=(-5.0, 5.0)),
    "bspline3": CutoffSpec(
        name="bspline3", profile=_bspline3_profile, r_order=2, radius=2.0,
        breakpoints=(-1.0, 0.0, 1.0)),
    "gaussian4": CutoffSpec(
        name="gaussian4", profile=_gaussian4_profile, r_order=4, radius=9.0),
}


def build_cutoff(name: str) -> CutoffSpec:
    if name not in CUTOFFS:
        raise KeyError(f"unknown cutoff {name!r}; known: {sorted(CUTOFFS)}")
    return CUTOFFS[name]


# the particle block fixes the order in which each grid row accumulates; the
# grid tile only bounds the size of the tile buffers (rows are independent)
_GRID_CHUNK = 128
_PARTICLE_CHUNK = 512


def _kernel_sum(grid: np.ndarray, positions: np.ndarray, coef: np.ndarray,
                phi: CutoffSpec, eps: float) -> np.ndarray:
    """sum_i coef_i eps^{-d} phi((g - x_i)/eps) over grid rows g.

    Particles are summed in fixed blocks of `_PARTICLE_CHUNK`, in their given
    order.  A particle is far from a grid tile when, on some axis,
    (g_lo - x)/eps > radius or (x - g_hi)/eps > radius.  Subtraction and
    division round monotonically, so every row of the tile has |u| > radius
    with it in floating point too, the profile is exactly 0 there, and the
    pair adds only a signed zero to a row, which leaves it unchanged.  So a
    block is skipped when its bounding box is far, or when each of its
    particles is; otherwise only the window [c0, c1) from its first to its
    last particle in reach is evaluated, and written into a row of zeros as
    wide as the block.  Each row then sums the same entries in the same
    order as the dense sum over every pair, and the result is bit-identical
    to it.

    The offsets U, the weights W and, for d >= 2, the factor F of each
    further axis live in tile buffers allocated once per call; the row of
    zeros reuses U's.  A partial tile, block or window uses a leading slice
    of each, contiguous like a fresh array, so its ufuncs and its reduction
    run as they would on one.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (math.isfinite(eps) and np.all(np.isfinite(grid))):
        raise ValueError("kernel sum needs a finite grid and eps")
    if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(coef))):
        raise ValueError("kernel sum needs finite particle positions and "
                         "coefficients")
    G, d = grid.shape
    try:
        scale = float(eps) ** (-d)
    except OverflowError:
        raise ValueError(f"eps={eps!r} is too small: eps^-{d} overflows "
                         "a float") from None
    out = np.zeros(G)
    radius = phi.radius
    starts = np.arange(0, positions.shape[0], _PARTICLE_CHUNK)
    p_lo = np.minimum.reduceat(positions, starts, axis=0)
    p_hi = np.maximum.reduceat(positions, starts, axis=0)
    # U, W and F; with d = 1, F is never written, so it is never paged in
    buffers = np.empty((3, min(G, _GRID_CHUNK)
                        * min(positions.shape[0], _PARTICLE_CHUNK)))
    for gs in range(0, G, _GRID_CHUNK):
        gb = grid[gs:gs + _GRID_CHUNK]
        g_lo, g_hi = gb.min(axis=0), gb.max(axis=0)
        far = (((g_lo - p_hi) / eps > radius)
               | ((p_lo - g_hi) / eps > radius)).any(axis=1)
        acc = np.zeros(gb.shape[0])
        for ps in starts[~far]:
            pb = positions[ps:ps + _PARTICLE_CHUNK]
            near = np.flatnonzero(~(((g_lo - pb) / eps > radius)
                                    | ((pb - g_hi) / eps > radius)).any(axis=1))
            if near.size == 0:
                continue
            c0, c1 = near[0], near[-1] + 1
            rows, cols = gb.shape[0], pb.shape[0]
            U, W, F = buffers[:, :rows * (c1 - c0)].reshape(3, rows, c1 - c0)
            for k in range(d):
                np.subtract(gb[:, k, None], pb[c0:c1, k], out=U)
                np.divide(U, eps, out=U)
                if k == 0:
                    phi.profile(U, out=W)
                else:
                    W *= phi.profile(U, out=F)
            W *= coef[ps + c0:ps + c1]
            if c1 - c0 < cols:
                row = buffers[0, :rows * cols].reshape(rows, cols)
                row[:, :c0] = 0.0
                row[:, c0:c1] = W
                row[:, c1:] = 0.0
                W = row
            acc += pair_sum(W, axis=-1)
        out[gs:gs + _GRID_CHUNK] = acc * scale
    return out


def reconstruct(ens: ParticleEnsemble, phi: CutoffSpec, eps: float,
                grid) -> np.ndarray:
    """Mollified density sum_i nu_i w_i phi_eps(x - x_i) on grid rows."""
    pts = as_points(grid, ens.dim)
    return _kernel_sum(pts, ens.positions, ens.alpha(), phi, eps)


def epsilon_rule(h: float, q: float) -> float:
    """Bandwidth eps = h^q with 0 < q < 1.

    The balanced exponent q = m/(m+r) equates the smoothing error eps^r
    with the quadrature error (h/eps)^m, m the cutoff's smoothness.
    """
    if h <= 0 or h >= 1:
        raise ValueError("epsilon rule expects 0 < h < 1")
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q={q} outside (0, 1)")
    return float(h) ** q

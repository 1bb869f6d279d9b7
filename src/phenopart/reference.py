"""Independent reference solver: characteristics with a Duhamel exponent.

Scope: one spatial dimension, local advection a = a(t, x).  Along the
backward characteristic foot Y(t_n; t_{n+1}, x) the density satisfies

    v(t_{n+1}, x) = v(t_n, Y) exp( int (R - div a) )  +  mutation influx,

and one step of the scheme freezes the non-local inputs through a fixed-point
iteration on the new time level:

- feet by backward RK4 on dx/dt = a(t, x) (sub-stepped to <= 1e-3)
- exponent by the trapezoid rule, E = dt/2 [G(t_n, Y) + G(t_{n+1}, x)] with
  G = R(., ., I_g) - div a, the t_n part frozen, the t_{n+1} part updated
  from the current iterate
- mutation source by the trapezoid rule in time
- v(t_n, .) evaluated at feet by monotone cubic (PCHIP) interpolation, which
  cannot overshoot local extrema, so non-negative data stays non-negative;
  feet outside the grid read 0
- iteration stops when the L1 update drops below tol = 1e-10 (1 + mass);
  no contraction within 50 iterations halves the sub-interval, and
  sub-intervals below 1e-6 abort

This solver shares no code path with the particle dynamics (grid transport
vs. interacting particles), which is what makes it usable as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .discretize import InitialDensity
from .model import Kernel, ModelSpec, pair_sum

__all__ = [
    "OracleError",
    "ReferenceConfig",
    "ReferenceSolution",
    "characteristics",
    "solve_reference",
    "refine_until_stable",
    "l1_distance",
]


class OracleError(RuntimeError):
    """The reference solver could not reach the requested accuracy."""


@dataclass(frozen=True)
class ReferenceConfig:
    """Grid and stepping knobs for the reference solver."""

    x_lo: float
    x_hi: float
    dx: float
    dt: float
    fixed_point_tol: Optional[float] = None  # None: 1e-10 * (1 + mass)
    max_fixed_point_iter: int = 50
    min_dt: float = 1e-6

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        # a negative tolerance never converges, and without a positive
        # floor the halving of a non-contracting step never stops
        if self.fixed_point_tol is not None and self.fixed_point_tol < 0:
            raise ValueError("fixed_point_tol must be >= 0")
        if self.min_dt <= 0:
            raise ValueError("min_dt must be positive")
        n = (self.x_hi - self.x_lo) / self.dx
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError("dx must divide the grid extent")


@dataclass
class ReferenceSolution:
    """Grid solution at the final time plus the recorded mass history."""

    x: np.ndarray
    v: np.ndarray
    dx: float
    dt: float
    rho_times: np.ndarray
    rho_values: np.ndarray
    min_value: float
    fixed_point_iters_max: int
    subdivisions: int
    _interp: object = field(default=None, repr=False)

    def mass(self) -> float:
        return float(pair_sum(_support_weights(self.v, self.dx) * self.v))

    def value_at(self, points, fill: float = math.nan) -> np.ndarray:
        """Interpolated final-time values; outside the grid returns `fill`."""
        if self._interp is None:
            self._interp = _monotone_interpolant(self.x, self.v)
        pts = np.asarray(points, dtype=float).reshape(-1)
        vals = self._interp(pts)
        return np.where(np.isnan(vals), fill, vals)


def _monotone_interpolant(x: np.ndarray, v: np.ndarray) -> PchipInterpolator:
    # flat stretches trip a harmless divide-by-zero inside the slope
    # harmonic mean; silence it locally
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return PchipInterpolator(x, v, extrapolate=False)


def _flow_rhs(model: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    X = x[:, None]
    I = np.zeros((x.shape[0], model.n_a))
    return np.asarray(model.advection(t, X, I))[:, 0]


def _rk4_flow(model: ModelSpec, x: np.ndarray, t0: float, t1: float,
              n_sub: int) -> np.ndarray:
    """RK4 flow map of dx/dt = a(t, x) from t0 to t1 (either direction)."""
    dt = (t1 - t0) / n_sub
    x = x.astype(float).copy()
    for j in range(n_sub):
        t = t0 + j * dt
        k1 = _flow_rhs(model, t, x)
        k2 = _flow_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = _flow_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = _flow_rhs(model, t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def characteristics(model: ModelSpec, y, t0: float, t1: float):
    """Flow map X(t1; t0, y) of the local advection field.

    Fixed-step RK4 with step min(1e-3, |t1 - t0|), the dynamics default;
    horizons longer than 10 reduce the step tenfold (long runs sit near
    equilibria where the accumulated phase matters).
    """
    if model.dim != 1:
        raise OracleError("characteristics: 1D models only")
    if not model.is_local:
        raise OracleError("characteristics requires local advection")
    span = abs(t1 - t0)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if span == 0.0:
        out = y_arr.copy()
        return float(out[0]) if np.isscalar(y) or y_arr.shape == (1,) else out
    step = min(1e-3, span)
    if span > 10.0:
        step = step / 10.0
    n_sub = max(1, int(math.ceil(span / step - 1e-12)))
    out = _rk4_flow(model, y_arr, t0, t1, n_sub)
    return float(out[0]) if np.isscalar(y) or out.shape == (1,) else out


def _support_weights(v: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid weights that skip cells bridging an exact-zero run.

    With a compactly supported density whose edge falls on a node, the
    plain rule charges half the jump cell (an O(dx) mass bias); dropping
    the half-weight at zero/nonzero junctions restores second order.
    """
    w = np.full(v.shape, dx)
    w[0] = w[-1] = 0.5 * dx
    nz = v != 0.0
    left = np.zeros_like(nz)
    right = np.zeros_like(nz)
    left[1:] = nz[1:] & ~nz[:-1]
    right[:-1] = nz[:-1] & ~nz[1:]
    w[left] -= 0.5 * dx
    w[right] -= 0.5 * dx
    return w


def _grid_nonlocal(kernel: Kernel, t: float, xq: np.ndarray, grid: np.ndarray,
                   v: np.ndarray, trapw: np.ndarray) -> np.ndarray:
    """(I_l v)(x_q) by the trapezoid rule on the grid."""
    if kernel.const is not None:
        return np.full(xq.shape[0], kernel.const * float(pair_sum(trapw * v)))
    if kernel.x_free:
        row = np.asarray(kernel.func(t, xq[:1, None], grid[:, None]))[0]
        return np.full(xq.shape[0], float(pair_sum(row * trapw * v)))
    out = np.empty(xq.shape[0])
    chunk = 2048
    wv = trapw * v
    for s in range(0, xq.shape[0], chunk):
        block = np.asarray(kernel.func(t, xq[s:s + chunk, None], grid[:, None]))
        out[s:s + chunk] = pair_sum(block * wv[None, :], axis=-1)
    return out


def solve_reference(model: ModelSpec, v0: InitialDensity, cfg: ReferenceConfig,
                    T: float) -> ReferenceSolution:
    """March the grid density from 0 to T; see the module docstring."""
    if model.dim != 1:
        raise OracleError("reference solver covers 1D models only")
    if not model.is_local:
        raise OracleError("reference solver requires local advection")

    G = int(round((cfg.x_hi - cfg.x_lo) / cfg.dx))
    x = cfg.x_lo + cfg.dx * np.arange(G + 1)
    v = v0(x[:, None])

    has_mut = model.mutation is not None
    min_seen = float(np.min(v))
    state = {"iters_max": 0, "subdiv": 0}

    def I_g_at(t, pts, dens):
        return _grid_nonlocal(model.kernel_g, t, pts, x, dens,
                              _support_weights(dens, cfg.dx))

    def source_at(t, pts, dens):
        # mutation influx int m(t, x_q, z, I_d(x_q)) v(z) dz
        wq = _support_weights(dens, cfg.dx)
        I_d = _grid_nonlocal(model.kernel_d, t, pts, x, dens, wq)
        out = np.empty(pts.shape[0])
        chunk = 2048
        wv = wq * dens
        for s in range(0, pts.shape[0], chunk):
            M = np.asarray(model.mutation(t, pts[s:s + chunk, None], x[:, None],
                                          I_d[s:s + chunk]))
            out[s:s + chunk] = pair_sum(M * wv[None, :], axis=-1)
        return out

    def G_of(t, pts, dens):
        I = I_g_at(t, pts, dens)
        R = np.asarray(model.growth(t, pts[:, None], I))
        div = np.asarray(model.advection_div_x(
            t, pts[:, None], np.zeros((pts.shape[0], model.n_a))))
        return R - div

    def advance(vn, t, Dt, edges):
        nonlocal min_seen
        if Dt < cfg.min_dt:
            raise OracleError(
                f"fixed point failed to contract above dt={cfg.min_dt:g} "
                f"(reached {Dt:g} at t={t:.6g})")
        n_sub = max(1, int(math.ceil(Dt / 1e-3 - 1e-12)))
        feet = _rk4_flow(model, x, t + Dt, t, n_sub)  # backward feet
        interp = _monotone_interpolant(x, vn)
        base = interp(feet)
        base = np.where(np.isnan(base), 0.0, base)
        G0 = G_of(t, feet, vn)
        S0 = source_at(t, feet, vn) if has_mut else None

        # without mutation the support is exactly the flow image of the
        # initial one; clipping outside it stops interpolation bleed
        # across the support-edge jump cell
        edges_out = None
        if edges is not None:
            edges_out = _rk4_flow(model, edges, t, t + Dt, n_sub)
            keep = (x >= edges_out[0]) & (x <= edges_out[1])
            if np.count_nonzero(keep) < 2:
                # one node gets zero trapezoid weight: mass and I_g would
                # read 0 while its value grows without bound
                raise OracleError(
                    f"support [{edges_out[0]:.6g}, {edges_out[1]:.6g}] holds "
                    f"fewer than two grid nodes at t={t + Dt:.6g}; refine dx")

        rho_n = float(pair_sum(_support_weights(vn, cfg.dx) * vn))
        tol = cfg.fixed_point_tol
        if tol is None:
            tol = 1e-10 * (1.0 + rho_n)

        u = vn.copy()
        for it in range(cfg.max_fixed_point_iter):
            G1 = G_of(t + Dt, x, u)
            E = 0.5 * Dt * (G0 + G1)
            wfac = np.exp(E)
            v_new = wfac * base
            if has_mut:
                S1 = source_at(t + Dt, x, u)
                v_new = v_new + 0.5 * Dt * (wfac * S0 + S1)
            if edges_out is not None:
                v_new = np.where(keep, v_new, 0.0)
            delta = float(pair_sum(np.abs(v_new - u))) * cfg.dx
            u = v_new
            if delta < tol:
                state["iters_max"] = max(state["iters_max"], it + 1)
                mn = float(np.min(u))
                min_seen = min(min_seen, mn)
                if mn < -1e-10 * max(float(np.max(u)), 1e-300):
                    raise OracleError(
                        f"negative density {mn:.3e} at t={t + Dt:.6g}")
                return u, edges_out
        # no contraction: halve the sub-interval
        state["subdiv"] += 1
        half, mid_edges = advance(vn, t, 0.5 * Dt, edges)
        return advance(half, t + 0.5 * Dt, 0.5 * Dt, mid_edges)

    edges = None
    if not has_mut:
        edges = np.array([float(v0.support.lo[0]), float(v0.support.hi[0])])

    n_steps = 0 if T == 0.0 else max(1, int(round(T / cfg.dt)))
    dt = T / n_steps if n_steps else cfg.dt
    rho_t = np.zeros(n_steps + 1)
    rho_v = np.zeros(n_steps + 1)
    rho_v[0] = float(pair_sum(_support_weights(v, cfg.dx) * v))
    for n in range(n_steps):
        v, edges = advance(v, n * dt, dt, edges)
        rho_t[n + 1] = (n + 1) * dt
        rho_v[n + 1] = float(pair_sum(_support_weights(v, cfg.dx) * v))

    return ReferenceSolution(
        x=x, v=v, dx=cfg.dx, dt=dt,
        rho_times=rho_t, rho_values=rho_v,
        min_value=min_seen,
        fixed_point_iters_max=state["iters_max"],
        subdivisions=state["subdiv"])


def refine_until_stable(model: ModelSpec, v0: InitialDensity,
                        cfg: ReferenceConfig, T: float,
                        target: float = 1e-3, max_levels: int = 4):
    """Halve (dx, dt) jointly until the final mass moves less than `target`.

    Returns (solution, history) where history lists (dx, mass) per level.
    The dominant long-time error sources scale with dx and dt, so they are
    refined together.
    """
    sol = solve_reference(model, v0, cfg, T)
    history = [(cfg.dx, sol.mass())]
    for _ in range(max_levels):
        cfg = replace(cfg, dx=cfg.dx / 2.0, dt=cfg.dt / 2.0)
        nxt = solve_reference(model, v0, cfg, T)
        history.append((cfg.dx, nxt.mass()))
        if abs(history[-1][1] - history[-2][1]) <= target:
            return nxt, history
        sol = nxt
    raise OracleError(
        f"reference mass did not stabilize to {target:g} within "
        f"{max_levels} refinements: {history}")


def l1_distance(sol: ReferenceSolution, values: np.ndarray) -> float:
    """Trapezoid L1 distance between the oracle and values on its grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != sol.v.shape:
        raise ValueError(f"expected shape {sol.v.shape}, got {values.shape}")
    return float(np.trapezoid(np.abs(sol.v - values), dx=sol.dx))

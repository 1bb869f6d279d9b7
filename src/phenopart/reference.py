"""Independent reference solver: characteristics with a Duhamel exponent.

Scope: one spatial dimension, local advection a = a(t, x).  Along the
backward characteristic foot Y(t_n; t_{n+1}, x) the density satisfies

    v(t_{n+1}, x) = v(t_n, Y) exp( int (R - div a) )  +  mutation influx,

and one step of the scheme freezes the non-local inputs through a fixed-point
iteration on the new time level.  Its pieces:

- `_flow`: the nodes' backward feet by RK4 on dx/dt = a(t, x)
  (sub-stepped to <= 1e-3), with their PCHIP cells and div a;
  `_edges`: the support edges flowed forward on the same substeps and,
  under mutation, widened to their hull with supp_x m
- `_transport`: v(t_n, .) at the feet by our own monotone cubic, the
  Fritsch-Carlson PCHIP (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980)
  with Moler's one-sided three-point end slopes (Numerical Computing with
  MATLAB, 3.6); it cannot overshoot local extrema, so non-negative data
  stays non-negative; feet outside the grid read 0
- `_exponent`: G = R(., ., I_g) - div a, by the trapezoid rule
  E = dt/2 [G(t_n, Y) + G(t_{n+1}, x)], the t_n part frozen
- `_source`: the mutation influx int m(., ., z, I_d) v(z) dz, by the
  trapezoid rule in time
- `_fixed_point` stops when the L1 update drops below FIXED_POINT_RTOL
  (1 + mass); `_advance` halves a sub-interval that does not contract
  within MAX_FIXED_POINT_ITER iterations, down to MIN_DT

The new level is 0 outside the node range [lo, hi) of the tracked
support, which stops interpolation bleed across the support-edge jump
cell.  So the transport at the feet, the exponent, the source and each
iterate are computed on [lo, hi) only; the update, the masses and the
grid integrals still sum over the whole grid.

Every grid density travels with its support-weighted values
wv = _support_weights(v, dx) * v, computed once, from which the masses and
all grid integrals are read; a `_State` holds both and the support edges.
The weights depend on v's zero pattern alone, so the solve keeps the last
ones it built and rebuilds them only for a density whose pattern differs.

What outlives a step is held by one `_Solve`: the model, the nodes and
their PCHIP spacing terms, what the solve reports besides the density,
and, for a model declared `autonomous` (a and div a read no t), one cached
`_Flow`: the feet, their cells (interval, s, s^2, s^3, outside mask) and
div a at the feet and at the nodes.  Its feet depend on the step Dt alone,
so a step reuses it while Dt is unchanged and flows the nodes afresh
otherwise; a model not declared autonomous runs the same code with the
cache off.

This solver shares no code path with the particle dynamics (grid transport
vs. interacting particles), which is what makes it usable as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import InitialDensity
from .model import Kernel, ModelSpec, pair_sum

__all__ = [
    "OracleError",
    "ReferenceConfig",
    "ReferenceSolution",
    "solve_reference",
    "refine_until_stable",
    "l1_distance",
]

FIXED_POINT_RTOL = 1e-10     # stop when the L1 update < RTOL * (1 + mass)
MAX_FIXED_POINT_ITER = 50    # iterations before a step is halved
MIN_DT = 1e-6                # a halved step below this aborts the solve

_ROW_CHUNK = 2048            # query rows per dense grid-integral block
# the largest grid and step count of a solve: a grid array of MAX_NODES
# takes 80 MB, and the mass history of MAX_STEPS steps 400 MB
MAX_NODES = 10_000_000
MAX_STEPS = 50_000_000


class OracleError(RuntimeError):
    """The reference solver could not reach the requested accuracy."""


def check_scope(model: ModelSpec) -> None:
    """Refuse a model outside the oracle's scope: 1D, local advection."""
    if model.dim != 1:
        raise OracleError("the grid reference covers 1D models only")
    if not model.is_local:
        raise OracleError("the grid reference requires local advection")


@dataclass(frozen=True)
class ReferenceConfig:
    """Grid and time step of the reference solver."""

    x_lo: float
    x_hi: float
    dx: float
    dt: float

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        # counted in float: a tiny dx makes the count overflow to inf
        n = (self.x_hi - self.x_lo) / self.dx
        if n + 1 > MAX_NODES:
            raise ValueError(
                f"dx={self.dx:g} puts {n + 1:.3g} nodes on "
                f"[{self.x_lo:g}, {self.x_hi:g}], more than {MAX_NODES}; "
                "raise dx")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError("dx must divide the grid extent")

    def steps(self, T: float) -> tuple:
        """(n_steps, dt) of a solve to time T: the step is adjusted to
        divide T.  More than MAX_STEPS steps raise OracleError."""
        if T == 0.0:
            return 0, self.dt
        steps = T / self.dt
        if steps > MAX_STEPS:
            raise OracleError(
                f"T={T:g} at dt={self.dt:g} takes {steps:.3g} oracle steps, "
                f"more than {MAX_STEPS}; shorten T or raise dt")
        n_steps = max(1, int(round(steps)))
        return n_steps, T / n_steps


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
        return float(self.rho_values[-1])

    def value_at(self, points) -> np.ndarray:
        """Interpolated final-time values; NaN outside the grid."""
        if self._interp is None:
            self._interp = PchipInterpolator(self.x, self.v)
        return self._interp(np.asarray(points, dtype=float).reshape(-1))


def _end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope at an end node, clipped to keep
    the shape: zero against the end secant's sign, at most 3 m0 where the
    data turn."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Nodes:
    """The PCHIP terms that depend on the nodes alone (the spacing h and
    the harmonic-mean weights w1, w2 and w1 + w2), and the coefficient
    rows of the x.size - 1 intervals that a build on them writes."""

    def __init__(self, x: np.ndarray):
        self.h = np.diff(x)
        self.w1 = 2.0 * self.h[1:] + self.h[:-1]
        self.w2 = self.h[1:] + 2.0 * self.h[:-1]
        self.w12 = self.w1 + self.w2
        self.coef = np.empty((4, x.size - 1))


def _cells(x: np.ndarray, points) -> tuple:
    """Where each point falls on the nodes x: its interval k (the largest
    with x[k] <= p, clipped to the last), s = p - x[k] with s^2 and s^3,
    and the mask of points outside [x[0], x[-1]]."""
    p = np.asarray(points, dtype=float)
    k = np.clip(np.searchsorted(x, p, side="right") - 1, 0, x.size - 2)
    s = p - x[k]
    ss = s * s
    return k, s, ss, ss * s, ~((p >= x[0]) & (p <= x[-1]))


def _at(coef, cells, fill):
    """The cubics of the coefficient rows at the cells of `_cells`; points
    outside the nodes read `fill`.  Each is ((c3 + c2 s) + c1 s^2) + c0 s^3,
    computed in the rows of the gathered coefficients: a row of that copy
    is returned."""
    k, s, ss, sss, outside = cells
    c0, c1, c2, c3 = np.take(coef, k, axis=1, mode="clip")
    c2 *= s
    c2 += c3
    c1 *= ss
    c2 += c1
    c0 *= sss
    c2 += c0
    np.copyto(c2, fill, where=outside)
    return c2


class PchipInterpolator:
    """Monotone piecewise cubic Hermite interpolant of v on the strictly
    increasing nodes x (at least two).

    Fritsch-Carlson slopes: the weighted harmonic mean of the two secants,
    zero where they differ in sign or either is flat, and `_end_slope` at
    both ends.  The cubic of interval k is written in s = p - x[k] and
    summed in the order scipy's PchipInterpolator uses, so the values
    agree with it bit for bit.  Points outside [x[0], x[-1]] read NaN.

    A build on the caller's `_Nodes` of x writes its coefficients there,
    so it holds until the next build on them; without, it has its own.
    """

    def __init__(self, x: np.ndarray, v: np.ndarray,
                 nodes: _Nodes | None = None):
        if not np.all(np.isfinite(v)):
            raise ValueError("PCHIP data must be finite")
        nodes = _Nodes(x) if nodes is None else nodes
        h = nodes.h
        m = (v[1:] - v[:-1]) / h
        d = np.empty(x.size)
        if x.size == 2:
            d[:] = m[0]
        else:
            sign = np.sign(m)
            zero = sign[1:] * sign[:-1] <= 0.0   # a turn or a flat secant
            # the mean divides by zero at flat secants, which `zero` masks
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (nodes.w1 / m[:-1] + nodes.w2 / m[1:]) / nodes.w12
                d[1:-1] = np.where(zero, 0.0, 1.0 / whmean)
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c0, c1, c2, c3 = nodes.coef
        c0[:] = t / h
        c1[:] = (m - d[:-1]) / h - t
        c2[:] = d[:-1]
        c3[:] = v[:-1] + 0.0
        self.x = x
        self._c = nodes.coef

    def __call__(self, points) -> np.ndarray:
        return _at(self._c, _cells(self.x, points), np.nan)


def _flow_rhs(model: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    X = x[:, None]
    I = np.zeros((x.shape[0], model.n_a))
    return np.asarray(model.advection(t, X, I))[:, 0]


def _div(model: ModelSpec, t: float, x: np.ndarray) -> np.ndarray:
    return np.asarray(model.advection_div_x(
        t, x[:, None], np.zeros((x.shape[0], model.n_a))))


def _substeps(span: float) -> int:
    """RK4 substeps of at most 1e-3 over a time span; at least one."""
    return max(1, int(math.ceil(span / 1e-3 - 1e-12)))


def _rk4_flow(model: ModelSpec, x: np.ndarray, t0: float, dt: float,
              n_sub: int) -> np.ndarray:
    """RK4 flow map of dx/dt = a(t, x) from t0 over n_sub substeps of the
    signed dt (negative: backward in time)."""
    x = x.astype(float)
    for j in range(n_sub):
        t = t0 + j * dt
        k1 = _flow_rhs(model, t, x)
        k2 = _flow_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = _flow_rhs(model, t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = _flow_rhs(model, t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _support_weights(v: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid weights that skip cells bridging an exact-zero run.

    With a compactly supported density whose edge falls on a node, the
    plain rule charges half the jump cell (an O(dx) mass bias); dropping
    the half-weight at zero/nonzero junctions restores second order.
    """
    w = np.full(v.shape, dx)
    w[0] = w[-1] = 0.5 * dx
    nz = v != 0.0
    j = np.flatnonzero(nz[1:] != nz[:-1])   # a junction between j, j + 1
    up = nz[j + 1]
    w[j[up] + 1] -= 0.5 * dx                # a run's first node
    w[j[~up]] -= 0.5 * dx                   # a run's last node
    return w


def _row_sums(rows, n: int, wv: np.ndarray) -> np.ndarray:
    """sum_j K[i, j] wv[j] for i < n, where rows(s, e) returns K[s:e, :]."""
    out = np.empty(n)
    for s in range(0, n, _ROW_CHUNK):
        block = np.asarray(rows(s, s + _ROW_CHUNK))
        # summed in C order: pairwise along each row, whatever the layout
        # the kernel returns
        out[s:s + _ROW_CHUNK] = pair_sum(
            np.ascontiguousarray(block * wv[None, :]), axis=-1)
    return out


def _grid_nonlocal(kernel: Kernel, t: float, xq: np.ndarray, grid: np.ndarray,
                   wv: np.ndarray) -> np.ndarray:
    """(I_l v)(x_q) by the support-weighted trapezoid rule on the grid."""
    if kernel.const is not None:
        return np.full(xq.shape[0], kernel.const * float(pair_sum(wv)))
    if kernel.x_free:
        row = np.asarray(kernel.func(t, xq[:1, None], grid[:, None]))[0]
        return np.full(xq.shape[0], float(pair_sum(row * wv)))
    return _row_sums(lambda s, e: kernel.func(t, xq[s:e, None], grid[:, None]),
                     xq.shape[0], wv)


@dataclass
class _State:
    """A time level: v, wv and the tracked support edges."""

    v: np.ndarray
    wv: np.ndarray
    edges: np.ndarray


@dataclass
class _Flow:
    """What one backward flow of the nodes over a step Dt fixes: the feet,
    their PCHIP cells, and div a at the feet and at the nodes."""

    Dt: float
    feet: np.ndarray
    cells: tuple
    div_feet: np.ndarray
    div_nodes: np.ndarray


class _Solve:
    """What outlives a step of one solve: the model, the nodes x with
    spacing dx and their PCHIP terms, the cached flow (autonomous
    advection only), the last support weights and the zero pattern they
    were built for, and what the solve reports besides the density."""

    def __init__(self, model: ModelSpec, x: np.ndarray, dx: float,
                 min_seen: float):
        self.model, self.x, self.dx = model, x, dx
        self.nodes = _Nodes(x)
        self.flow = None
        self.nonzero = self.weights = None
        self.min_seen = min_seen
        self.iters_max = 0
        self.subdivisions = 0

    def weigh(self, v: np.ndarray) -> np.ndarray:
        """wv = _support_weights(v, dx) * v, with the weights rebuilt only
        when v's zero pattern differs from that of the last ones."""
        nonzero = v != 0.0
        if self.nonzero is None or not np.array_equal(nonzero, self.nonzero):
            self.nonzero = nonzero
            self.weights = _support_weights(v, self.dx)
        return self.weights * v


def _flow(sv, t, Dt, n_sub):
    """The nodes' backward flow over [t, t + Dt]; see the module docstring
    for when it comes from the cache."""
    flow = sv.flow
    if flow is None or flow.Dt != Dt:
        model, x = sv.model, sv.x
        feet = _rk4_flow(model, x, t + Dt, -Dt / n_sub, n_sub)
        flow = _Flow(Dt, feet, _cells(x, feet), _div(model, t, feet),
                     _div(model, t + Dt, x))
        if model.autonomous:
            sv.flow = flow
    return flow


def _edges(sv, edges, t, Dt, n_sub):
    """The support edges flowed forward over [t, t + Dt] on the feet's
    substeps, and the node range [lo, hi) between them.  Under mutation
    they widen to their hull with supp_x m, where offspring land."""
    edges = _rk4_flow(sv.model, edges, t, Dt / n_sub, n_sub)
    m_x = sv.model.support_m_x
    if m_x is not None:
        edges = np.array([min(edges[0], m_x.lo[0]), max(edges[1], m_x.hi[0])])
    lo = int(np.searchsorted(sv.x, edges[0], side="left"))
    hi = int(np.searchsorted(sv.x, edges[1], side="right"))
    if hi - lo < 2:
        # a lone node has zero trapezoid weight: mass and I_g would read 0
        raise OracleError(f"support [{edges[0]:.6g}, {edges[1]:.6g}] holds "
                          f"fewer than two grid nodes at t={t + Dt:.6g}; "
                          "refine dx")
    return edges, (lo, hi)


def _transport(sv, v, cells):
    """v at the feet; feet outside the grid read 0."""
    interp = PchipInterpolator(sv.x, v, sv.nodes)
    return _at(interp._c, cells, 0.0)


def _exponent(sv, t, pts, div, wv):
    I = _grid_nonlocal(sv.model.kernel_g, t, pts, sv.x, wv)
    return np.asarray(sv.model.growth(t, pts[:, None], I)) - div


def _source(sv, t, pts, wv):
    model, x = sv.model, sv.x
    I_d = _grid_nonlocal(model.kernel_d, t, pts, x, wv)
    return _row_sums(
        lambda s, e: model.mutation(t, pts[s:e, None], x[:, None], I_d[s:e]),
        pts.shape[0], wv)


def _fixed_point(sv, old, t, Dt):
    """The state at t + Dt, or None if the iteration does not contract.

    Its nodes outside the support's node range [lo, hi) are 0, and only
    those inside are computed."""
    n_sub = _substeps(Dt)
    flow = _flow(sv, t, Dt, n_sub)
    edges, (lo, hi) = _edges(sv, old.edges, t, Dt, n_sub)
    feet, nodes = flow.feet[lo:hi], sv.x[lo:hi]
    base = _transport(sv, old.v, tuple(c[lo:hi] for c in flow.cells))
    G0 = _exponent(sv, t, feet, flow.div_feet[lo:hi], old.wv)
    S0 = None if sv.model.mutation is None else _source(sv, t, feet, old.wv)
    tol = FIXED_POINT_RTOL * (1.0 + float(pair_sum(old.wv)))
    u, wu = old.v, old.wv
    # the iterates' temporaries are computed in place: each one freed is
    # heap that the allocator may trim and fault back in on the next step
    diff = np.empty(sv.x.size)
    for it in range(MAX_FIXED_POINT_ITER):
        G1 = _exponent(sv, t + Dt, nodes, flow.div_nodes[lo:hi], wu)
        G1 += G0
        G1 *= 0.5 * Dt
        wfac = np.exp(G1, out=G1)
        v_new = np.zeros(sv.x.size)
        span = np.multiply(wfac, base, out=v_new[lo:hi])
        if S0 is not None:
            S1 = _source(sv, t + Dt, nodes, wu)
            span += 0.5 * Dt * (wfac * S0 + S1)
        np.subtract(v_new, u, out=diff)
        delta = float(pair_sum(np.abs(diff, out=diff))) * sv.dx
        u = v_new
        wu = sv.weigh(v_new)
        if delta < tol:
            sv.iters_max = max(sv.iters_max, it + 1)
            mn = float(np.min(u))
            sv.min_seen = min(sv.min_seen, mn)
            if mn < -1e-10 * max(float(np.max(u)), 1e-300):
                raise OracleError(
                    f"negative density {mn:.3e} at t={t + Dt:.6g}")
            return _State(u, wu, edges)
    return None


def _advance(sv, old, t, Dt):
    """The state at t + Dt, halving sub-intervals that do not contract."""
    if Dt < MIN_DT:
        raise OracleError(
            f"fixed point failed to contract above dt={MIN_DT:g} "
            f"(reached {Dt:g} at t={t:.6g})")
    new = _fixed_point(sv, old, t, Dt)
    if new is None:
        sv.subdivisions += 1
        half = _advance(sv, old, t, 0.5 * Dt)
        new = _advance(sv, half, t + 0.5 * Dt, 0.5 * Dt)
    return new


def solve_reference(model: ModelSpec, v0: InitialDensity, cfg: ReferenceConfig,
                    T: float) -> ReferenceSolution:
    """March the grid density from 0 to T; see the module docstring."""
    check_scope(model)
    n_steps, dt = cfg.steps(T)
    G = int(round((cfg.x_hi - cfg.x_lo) / cfg.dx))
    x = cfg.x_lo + cfg.dx * np.arange(G + 1)
    v = v0(x[:, None])
    edges = np.array([float(v0.support.lo[0]), float(v0.support.hi[0])])
    sv = _Solve(model, x, cfg.dx, float(np.min(v)))
    state = _State(v, sv.weigh(v), edges)
    del v  # only `state` holds the initial level: the first step frees it
    rho_v = np.zeros(n_steps + 1)
    rho_v[0] = float(pair_sum(state.wv))
    for n in range(n_steps):
        state = _advance(sv, state, n * dt, dt)
        rho_v[n + 1] = float(pair_sum(state.wv))
    return ReferenceSolution(
        x=x, v=state.v, dx=cfg.dx, dt=dt,
        rho_times=dt * np.arange(n_steps + 1), rho_values=rho_v,
        min_value=sv.min_seen, fixed_point_iters_max=sv.iters_max,
        subdivisions=sv.subdivisions)


def refine_until_stable(model: ModelSpec, v0: InitialDensity,
                        cfg: ReferenceConfig, T: float,
                        target: float = 1e-3, max_levels: int = 4):
    """Halve (dx, dt) jointly until the final mass moves less than `target`.

    Returns (solution, history) where history lists (dx, mass) per level.
    The dominant long-time error sources scale with dx and dt, so they are
    refined together.
    """
    history = [(cfg.dx, solve_reference(model, v0, cfg, T).mass())]
    for _ in range(max_levels):
        cfg = replace(cfg, dx=cfg.dx / 2.0, dt=cfg.dt / 2.0)
        sol = solve_reference(model, v0, cfg, T)
        history.append((cfg.dx, sol.mass()))
        if abs(history[-1][1] - history[-2][1]) <= target:
            return sol, history
    raise OracleError(
        f"reference mass did not stabilize to {target:g} within "
        f"{max_levels} refinements: {history}")


def l1_distance(sol: ReferenceSolution, values: np.ndarray) -> float:
    """Trapezoid L1 distance between the oracle and values on its grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != sol.v.shape:
        raise ValueError(f"expected shape {sol.v.shape}, got {values.shape}")
    return float(np.trapezoid(np.abs(sol.v - values), dx=sol.dx))

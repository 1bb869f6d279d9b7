"""Model specification for non-local advection-selection-mutation dynamics.

The continuous state is a non-negative density v(t, x) on R^d driven by

    d_t v + div_x( a(t, x, I_a v) v ) = R(t, x, I_g v) v
                                        + int m(t, x, y, I_d v) v(t, y) dy

where every non-local input is a kernel average

    (I_l u)(t, x) = int psi_l(t, x, y) u(t, y) dy,   l in {a, g, d},

and the advection input I_a is a vector of n_a such averages.  A
:class:`ModelSpec` bundles the coefficient evaluators, the kernels, the
declared support boxes, and the structural constants that the particle
discretization and its runtime monitors rely on (velocity bound, mass
saturation threshold, mutation bounds).

When the measure argument is a weighted particle ensemble, the averages
reduce to weighted sums

    I_l(t, x) = sum_j nu_j w_j psi_l(t, x, x_j),

and the divergence of the effective velocity field picks up a chain-rule
term through the non-local inputs:

    div A(t, x) = (div_x a)(t, x, I(x))
                  + sum_k da/dI_k (t, x, I(x)) . sum_j nu_j w_j grad_x psi_a^k(t, x, x_j).

Reduction policy: every weighted sum over particles goes through numpy's
pairwise summation over the fixed index order (``np.add.reduce``), never
through BLAS.  This keeps results bit-reproducible across runs and across
process counts regardless of threading configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import qmc

__all__ = [
    "Box",
    "Kernel",
    "ModelSpec",
    "ValidationReport",
    "EvaluationError",
    "constant_kernel",
    "moment_kernel",
    "function_kernel",
    "pair_sum",
    "as_points",
    "nonlocal_field",
    "nonlocal_grad_field",
    "advection_inputs",
    "velocity_field",
    "divergence_field",
    "eval_nonlocal",
    "eval_velocity",
    "eval_divergence",
    "validate_model",
    "build_model",
    "MODELS",
]


class EvaluationError(RuntimeError):
    """A model evaluator produced an invalid (non-finite or misshaped) value."""


def pair_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Deterministic reduction: numpy pairwise summation in index order."""
    return np.add.reduce(np.asarray(values), axis=axis)


def as_points(x, dim: int) -> np.ndarray:
    """Normalize scalars / flat vectors / row stacks to shape (n, dim)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise EvaluationError(f"scalar point given for dim={dim}")
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        if arr.shape[0] == dim:
            return arr.reshape(1, dim)
        if dim == 1:
            return arr.reshape(-1, 1)
        raise EvaluationError(f"cannot view shape {arr.shape} as points in R^{dim}")
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr
    raise EvaluationError(f"cannot view shape {arr.shape} as points in R^{dim}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box, the declared support of densities and kernels."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be equal-length 1D arrays")
        if np.any(hi < lo):
            raise ValueError("box has hi < lo")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def expand(self, radius: float) -> "Box":
        return Box(self.lo - radius, self.hi + radius)

    def union(self, other: "Box") -> "Box":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in box union")
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def contains(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Low-discrepancy sample of n interior points (deterministic)."""
        eng = qmc.Sobol(d=self.dim, scramble=True, seed=seed)
        u = eng.random(n)
        return self.lo + u * (self.hi - self.lo)


@dataclass(frozen=True)
class Kernel:
    """Kernel psi(t, x, y) with optional fast-path structure.

    func(t, X(n,d), Y(m,d)) -> (n, m); grad_x, when available, returns the
    x-gradient with shape (n, m, d).  ``const`` declares psi identically
    constant; ``x_free`` declares psi(t, x, y) = f(t, y), in which case the
    x-gradient vanishes and field evaluations collapse to a single weighted
    sum shared by all evaluation points.
    """

    name: str
    func: Callable
    grad_x: Optional[Callable] = None
    const: Optional[float] = None
    x_free: bool = False


def constant_kernel(value: float, name: str | None = None) -> Kernel:
    value = float(value)

    def _func(t, X, Y):
        return np.full((X.shape[0], Y.shape[0]), value)

    return Kernel(name=name or f"const[{value:g}]", func=_func, const=value, x_free=True)


def moment_kernel(axis: int, name: str | None = None) -> Kernel:
    """psi(t, x, y) = y_axis: the non-local input is the measure's moment."""

    def _func(t, X, Y):
        return np.broadcast_to(Y[None, :, axis], (X.shape[0], Y.shape[0]))

    return Kernel(name=name or f"moment[{axis}]", func=_func, x_free=True)


def function_kernel(func: Callable, grad_x: Callable | None = None,
                    name: str = "kernel") -> Kernel:
    return Kernel(name=name, func=func, grad_x=grad_x)


# ---------------------------------------------------------------------------
# model specification


@dataclass
class ModelSpec:
    """Coefficients, kernels, supports and structural constants of one model.

    Evaluator contracts (all vectorized over rows of X):

    - advection(t, X(n,d), I(n,n_a)) -> (n, d)
    - advection_div_x(t, X, I) -> (n,): x-divergence at frozen non-local input
    - advection_dI(t, X, I) -> (n, n_a, d) or None; None declares the
      advection local (independent of its non-local inputs), and the
      chain-rule divergence term is identically zero
    - growth(t, X(n,d), I(n,)) -> (n,)
    - mutation(t, X(n,d), Y(m,d), I(n,)) -> (n, m) or None for m == 0

    Declared constants are trusted inputs, cross-checked by
    :func:`validate_model` sampling, never inferred:

    - a_sup: speed bound on the region the dynamics can reach (controls the
      support monitor and the truncation padding)
    - I_star / r_star / K_const: growth saturation, R(t,x,I) + K_const <
      -r_star whenever I >= I_star; gives the mass bound
      max(initial mass, I_star / psi_g_min).  I_star = inf declares the
      hypothesis unavailable (monitor falls back to vacuous bound).
    - M_bar: uniform bound on m; psi_g_min: uniform lower bound on psi_g.
    - kappa, k_reg: declared convergence/regularity orders used by the
      optimal bandwidth rule.
    """

    name: str
    dim: int
    advection: Callable
    advection_div_x: Callable
    growth: Callable
    kernels_a: tuple
    kernel_g: Kernel
    support_v0: Box
    a_sup: float
    advection_dI: Optional[Callable] = None
    growth_dI: Optional[Callable] = None
    mutation: Optional[Callable] = None
    kernel_d: Optional[Kernel] = None
    support_m_x: Optional[Box] = None
    support_m_y: Optional[Box] = None
    I_star: float = math.inf
    r_star: float = 0.25
    M_bar: float = 0.0
    K_const: float = 0.0
    psi_g_min: float = 1.0
    kappa: int = 1
    k_reg: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.support_v0.dim != self.dim:
            raise ValueError("support_v0 dimension mismatch")
        if self.a_sup < 0:
            raise ValueError("a_sup must be >= 0")
        if self.r_star <= 0:
            raise ValueError("r_star must be > 0")
        if self.psi_g_min <= 0:
            raise ValueError("psi_g_min must be > 0")
        parts = (self.kernel_d, self.support_m_x, self.support_m_y)
        if self.mutation is None and any(p is not None for p in parts):
            raise ValueError("mutation kernels/supports declared without mutation")
        if self.mutation is not None and any(p is None for p in parts):
            raise ValueError("mutation requires kernel_d and both m-supports")

    @property
    def n_a(self) -> int:
        return len(self.kernels_a)

    @property
    def is_local(self) -> bool:
        """True when the advection ignores its non-local inputs."""
        return self.advection_dI is None

    @property
    def mass_bound_factor(self) -> float:
        return self.I_star / self.psi_g_min


# ---------------------------------------------------------------------------
# field evaluation against particle data


def nonlocal_field(kernel: Kernel, t: float, X: np.ndarray, Y: np.ndarray,
                   alpha: np.ndarray) -> np.ndarray:
    """I(t, x_row) = sum_j alpha_j psi(t, x_row, y_j) for each row of X."""
    n = X.shape[0]
    if kernel.const is not None:
        return np.full(n, kernel.const * pair_sum(alpha))
    if kernel.x_free:
        row = np.asarray(kernel.func(t, X[:1], Y))[0]
        return np.full(n, pair_sum(row * alpha))
    vals = np.asarray(kernel.func(t, X, Y))
    if vals.shape != (n, Y.shape[0]):
        raise EvaluationError(
            f"kernel {kernel.name}: expected shape {(n, Y.shape[0])}, got {vals.shape}")
    return pair_sum(vals * alpha[None, :], axis=-1)


def nonlocal_grad_field(kernel: Kernel, t: float, X: np.ndarray, Y: np.ndarray,
                        alpha: np.ndarray) -> np.ndarray:
    """grad_x I(t, x_row) = sum_j alpha_j grad_x psi(t, x_row, y_j); (n, d)."""
    n, d = X.shape
    if kernel.const is not None or kernel.x_free:
        return np.zeros((n, d))
    if kernel.grad_x is None:
        raise EvaluationError(
            f"kernel {kernel.name} has no x-gradient; needed for the "
            "divergence chain rule with non-local advection")
    grads = np.asarray(kernel.grad_x(t, X, Y))
    if grads.shape != (n, Y.shape[0], d):
        raise EvaluationError(
            f"kernel {kernel.name} gradient: expected {(n, Y.shape[0], d)}, "
            f"got {grads.shape}")
    return pair_sum(grads * alpha[None, :, None], axis=1)


def advection_inputs(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """Stack of advection non-local inputs, shape (n, n_a).

    Local models skip the sums entirely; their evaluators ignore the input.
    """
    n = X.shape[0]
    if model.n_a == 0 or model.is_local:
        return np.zeros((n, model.n_a))
    cols = [nonlocal_field(k, t, X, Y, alpha) for k in model.kernels_a]
    return np.stack(cols, axis=1)


def velocity_field(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                   alpha: np.ndarray) -> np.ndarray:
    I = advection_inputs(model, t, X, Y, alpha)
    A = np.asarray(model.advection(t, X, I), dtype=float)
    if A.shape != X.shape:
        raise EvaluationError(f"advection returned shape {A.shape}, expected {X.shape}")
    return A


def divergence_field(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """div A with the chain-rule term through the non-local inputs."""
    I = advection_inputs(model, t, X, Y, alpha)
    div = np.asarray(model.advection_div_x(t, X, I), dtype=float)
    if div.shape != (X.shape[0],):
        raise EvaluationError(
            f"advection_div_x returned shape {div.shape}, expected {(X.shape[0],)}")
    if model.advection_dI is not None:
        dI = np.asarray(model.advection_dI(t, X, I), dtype=float)
        if dI.shape != (X.shape[0], model.n_a, model.dim):
            raise EvaluationError(
                f"advection_dI returned shape {dI.shape}, expected "
                f"{(X.shape[0], model.n_a, model.dim)}")
        for k, ker in enumerate(model.kernels_a):
            g = nonlocal_grad_field(ker, t, X, Y, alpha)
            div = div + pair_sum(dI[:, k, :] * g, axis=-1)
    return div


def _ens_arrays(ens):
    Y = ens.positions
    alpha = ens.intensities * ens.volumes
    return Y, alpha


def _kernel_by_id(model: ModelSpec, kernel_id):
    kernels = {"g": model.kernel_g, "d": model.kernel_d}
    kernels.update((f"a{k}", ker) for k, ker in enumerate(model.kernels_a))
    if kernel_id not in kernels:
        raise KeyError(f"unknown kernel id {kernel_id!r}")
    if kernels[kernel_id] is None:
        raise KeyError("model has no mutation kernel")
    return kernels[kernel_id]


def eval_nonlocal(model: ModelSpec, kernel_id, t: float, x, ens) -> float:
    """One kernel average I_l(t, x) against the ensemble's weighted sum.

    kernel_id: "g", "d", or "a<k>" (advection kernel k).
    """
    kernel = _kernel_by_id(model, kernel_id)
    X = as_points(x, model.dim)
    Y, alpha = _ens_arrays(ens)
    out = nonlocal_field(kernel, t, X, Y, alpha)
    if not np.all(np.isfinite(out)):
        vals = np.asarray(kernel.func(t, X, Y))
        bad = np.argwhere(~np.isfinite(vals))
        j = int(bad[0][1]) if bad.size else -1
        raise EvaluationError(
            f"kernel {kernel.name} produced a non-finite value at particle {j}")
    return float(out[0])


def eval_velocity(model: ModelSpec, t: float, x, ens) -> np.ndarray:
    X = as_points(x, model.dim)
    Y, alpha = _ens_arrays(ens)
    A = velocity_field(model, t, X, Y, alpha)
    if not np.all(np.isfinite(A)):
        raise EvaluationError("advection produced a non-finite velocity")
    return A[0]


def eval_divergence(model: ModelSpec, t: float, x, ens) -> float:
    X = as_points(x, model.dim)
    Y, alpha = _ens_arrays(ens)
    div = divergence_field(model, t, X, Y, alpha)
    if not np.all(np.isfinite(div)):
        raise EvaluationError("divergence produced a non-finite value")
    return float(div[0])


# ---------------------------------------------------------------------------
# finite-difference fallbacks (used by expression-defined models)


def fd_divergence(advection: Callable, dim: int) -> Callable:
    """Central-difference x-divergence of an advection evaluator."""

    def _div(t, X, I):
        n = X.shape[0]
        out = np.zeros(n)
        for axis in range(dim):
            step = 6e-6 * np.maximum(1.0, np.abs(X[:, axis]))
            Xp = X.copy()
            Xm = X.copy()
            Xp[:, axis] += step
            Xm[:, axis] -= step
            ap = np.asarray(advection(t, Xp, I))[:, axis]
            am = np.asarray(advection(t, Xm, I))[:, axis]
            out += (ap - am) / (2.0 * step)
        return out

    return _div


def fd_advection_dI(advection: Callable, dim: int, n_a: int) -> Callable:
    """Central-difference dA/dI_k of an advection evaluator; (n, n_a, d)."""

    def _dI(t, X, I):
        n = X.shape[0]
        out = np.zeros((n, n_a, dim))
        for k in range(n_a):
            step = 6e-6 * np.maximum(1.0, np.abs(I[:, k]))
            Ip = I.copy()
            Im = I.copy()
            Ip[:, k] += step
            Im[:, k] -= step
            ap = np.asarray(advection(t, X, Ip))
            am = np.asarray(advection(t, X, Im))
            out[:, k, :] = (ap - am) / (2.0 * step)[:, None]
        return out

    return _dI


# ---------------------------------------------------------------------------
# hypothesis validation by sampling


@dataclass(frozen=True)
class ValidationEntry:
    name: str
    passed: bool
    value: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    model_name: str
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> ValidationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def lines(self):
        out = [f"validation of {self.model_name}:"]
        for e in self.entries:
            tag = "ok  " if e.passed else "FAIL"
            out.append(f"  [{tag}] {e.name}: {e.value:.6g}  ({e.detail})")
        return out


def validate_model(model: ModelSpec, box: Box, samples: int = 256,
                   t_samples: Sequence[float] = (0.0, 0.5, 1.0),
                   seed: int = 0) -> ValidationReport:
    """Sample the declared structural hypotheses on a box.

    Checks, each reported with the measured extremum and a witness:
    speed bound a_sup; psi_g positivity and lower bound; growth saturation
    beyond I_star; mutation uniform bound and declared-support vanishing;
    finiteness of finite-difference Lipschitz estimates.  Declared constants
    are trusted inputs; this cross-checks them, it does not infer them.
    """
    X = box.sample(samples, seed=seed)
    Y = box.sample(samples, seed=seed + 1)
    entries = []

    if math.isfinite(model.I_star):
        I_levels = np.array([0.0, 0.5, 1.0]) * model.I_star
    else:
        I_levels = np.array([0.0, 1.0, 10.0])

    # declared speed bound
    worst = -np.inf
    witness = ""
    for t in t_samples:
        for lvl in I_levels:
            I = np.full((samples, model.n_a), lvl)
            A = np.asarray(model.advection(t, X, I))
            speed = np.sqrt(pair_sum(A * A, axis=-1))
            j = int(np.argmax(speed))
            if speed[j] > worst:
                worst = float(speed[j])
                witness = f"t={t:g}, x={X[j]}, I={lvl:g}"
    entries.append(ValidationEntry(
        "speed_bound", worst <= model.a_sup * (1.0 + 1e-12), worst,
        f"sup |a| sampled vs declared a_sup={model.a_sup:g}; worst at {witness}"))

    # psi_g lower bound
    vals = np.asarray(model.kernel_g.func(0.0, X, Y))
    gmin = float(np.min(vals))
    entries.append(ValidationEntry(
        "growth_kernel_lower", gmin >= model.psi_g_min > 0, gmin,
        f"min psi_g sampled vs declared psi_g_min={model.psi_g_min:g}"))

    # growth saturation beyond I_star
    if math.isfinite(model.I_star):
        worst = -np.inf
        for t in t_samples:
            for fac in (1.0, 1.5, 3.0):
                I = np.full(samples, fac * model.I_star)
                R = np.asarray(model.growth(t, X, I))
                worst = max(worst, float(np.max(R + model.K_const)))
        entries.append(ValidationEntry(
            "growth_saturation", worst < -model.r_star, worst,
            f"max R + K_const for I >= I_star={model.I_star:g}; "
            f"needs < -r_star={-model.r_star:g}"))
    else:
        entries.append(ValidationEntry(
            "growth_saturation", False, math.inf,
            "I_star not declared (inf): saturation hypothesis unavailable, "
            "mass bound is vacuous"))

    # mutation bound and support
    if model.mutation is not None:
        worst = -np.inf
        for t in t_samples:
            I = np.zeros(samples)
            M = np.asarray(model.mutation(t, X, Y, I))
            worst = max(worst, float(np.max(np.abs(M))))
        entries.append(ValidationEntry(
            "mutation_bound", worst <= model.M_bar * (1.0 + 1e-12), worst,
            f"sup |m| sampled vs declared M_bar={model.M_bar:g}"))
        outside = X[~model.support_m_x.contains(X)]
        if outside.shape[0] > 0:
            M = np.asarray(model.mutation(0.0, outside, Y, np.zeros(outside.shape[0])))
            leak = float(np.max(np.abs(M)))
        else:
            leak = 0.0
        entries.append(ValidationEntry(
            "mutation_support", leak == 0.0, leak,
            "m must vanish exactly outside its declared x-support"))
    else:
        entries.append(ValidationEntry(
            "mutation_bound", True, 0.0, "no mutation term"))

    # finite-difference Lipschitz estimates (finiteness check, informational)
    h = 1e-5
    I0 = np.zeros((samples, model.n_a))
    lip = 0.0
    for axis in range(model.dim):
        Xp = X.copy()
        Xp[:, axis] += h
        dA = np.asarray(model.advection(0.0, Xp, I0)) - np.asarray(model.advection(0.0, X, I0))
        lip = max(lip, float(np.max(np.abs(dA))) / h)
    Rx = np.asarray(model.growth(0.0, X, np.zeros(samples)))
    RxI = np.asarray(model.growth(0.0, X, np.full(samples, h)))
    lipR = float(np.max(np.abs(RxI - Rx))) / h
    ok = math.isfinite(lip) and math.isfinite(lipR)
    entries.append(ValidationEntry(
        "lipschitz_estimates", ok, max(lip, lipR),
        f"FD slopes: |a|_x ~ {lip:.3g}, |R|_I ~ {lipR:.3g}"))

    return ValidationReport(model_name=model.name, entries=tuple(entries))


# ---------------------------------------------------------------------------
# model presets


def _affine_growth_max(r0: float, r1: float, box: Box) -> float:
    # max of r0 - r1*x over the box (1D affine)
    return max(r0 - r1 * float(box.lo[0]), r0 - r1 * float(box.hi[0]))


def build_advsel1d(support_v0: Box, r0: float = 6.0, r1: float = 4.0) -> ModelSpec:
    """1D local advection a(x) = x(1-x) with selection R(x, I) = r0 - r1 x - I.

    The growth kernel is psi_g = 1, so the non-local input is the total mass.
    The flow fixes 0 and 1 and maps (0, 1) into itself; all presets start
    inside [0, 1], where |a| <= 1/4, which is the declared speed bound.
    Saturation holds on the padded support with
    I_star = max r + K_const + 2 r_star.
    """
    r_star = 0.25
    I_star = _affine_growth_max(r0, r1, support_v0.expand(0.5)) + 2 * r_star

    def advection(t, X, I):
        x = X[:, 0]
        return (x * (1.0 - x))[:, None]

    def advection_div_x(t, X, I):
        return 1.0 - 2.0 * X[:, 0]

    def growth(t, X, I):
        return r0 - r1 * X[:, 0] - I

    def growth_dI(t, X, I):
        return np.full(X.shape[0], -1.0)

    return ModelSpec(
        name="advsel1d", dim=1,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth, growth_dI=growth_dI,
        kernels_a=(constant_kernel(1.0),), kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=0.25,
        I_star=I_star, r_star=r_star, psi_g_min=1.0,
        kappa=1, k_reg=1,
        params={"r0": r0, "r1": r1},
    )


def build_logistic0d(support_v0: Box, r0: float = 1.0) -> ModelSpec:
    """No transport; R(I) = r0 - I with psi_g = 1: total mass is logistic."""

    def advection(t, X, I):
        return np.zeros_like(X)

    def advection_div_x(t, X, I):
        return np.zeros(X.shape[0])

    def growth(t, X, I):
        return r0 - I

    def growth_dI(t, X, I):
        return np.full(X.shape[0], -1.0)

    return ModelSpec(
        name="logistic0d", dim=support_v0.dim,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth, growth_dI=growth_dI,
        kernels_a=(constant_kernel(1.0),), kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=0.0,
        I_star=r0 + 0.5, r_star=0.25, psi_g_min=1.0,
        params={"r0": r0},
    )


def build_linadv1d(support_v0: Box) -> ModelSpec:
    """Pure contraction a(x) = -x, no growth: closed forms x0 e^{-t}, w0 e^{-t}."""

    def advection(t, X, I):
        return -X

    def advection_div_x(t, X, I):
        return np.full(X.shape[0], -1.0)

    def growth(t, X, I):
        return np.zeros(X.shape[0])

    a_sup = float(np.max(np.abs(np.concatenate([support_v0.lo, support_v0.hi]))))
    return ModelSpec(
        name="linadv1d", dim=support_v0.dim,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth,
        kernels_a=(constant_kernel(1.0),), kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=a_sup,
    )


def build_nldrift1d(support_v0: Box, drift0: float = 1.0, r0: float = 1.0) -> ModelSpec:
    """Non-local 1D toy: a(I) = drift0 - I_a, R(I) = r0 - I_g, psi = 1.

    The advection depends on the measure only through its total mass, so the
    chain-rule divergence term is exactly zero (constant kernels have zero
    x-gradient) while the code path for non-local advection stays exercised.
    """

    def advection(t, X, I):
        return drift0 - I[:, :1]

    def advection_div_x(t, X, I):
        return np.zeros(X.shape[0])

    def advection_dI(t, X, I):
        return np.full((X.shape[0], 1, 1), -1.0)

    def growth(t, X, I):
        return r0 - I

    def growth_dI(t, X, I):
        return np.full(X.shape[0], -1.0)

    return ModelSpec(
        name="nldrift1d", dim=1,
        advection=advection, advection_div_x=advection_div_x,
        advection_dI=advection_dI,
        growth=growth, growth_dI=growth_dI,
        kernels_a=(constant_kernel(1.0),), kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=max(abs(drift0), 1.0),
        I_star=r0 + 0.5, r_star=0.25, psi_g_min=1.0,
        kappa=1, k_reg=2,
        params={"drift0": drift0, "r0": r0},
    )


def build_twotrait2d(support_v0: Box,
                     a1: str = "x1 - x1**3 - 0.1*I1",
                     a2: str = "-0.5*x2 - 0.1*I2",
                     a_sup: float = 2.5) -> ModelSpec:
    """Two-trait drift demo: config-supplied advection laws in (x1, x2).

    The advection components are expression strings over t, x1, x2, I1, I2,
    where I_j is the j-th moment of the measure (psi_a^(j)(t, x, y) = y_j).
    Divergence and dA/dI fall back to central differences.  There is no
    selection or mutation; mass is conserved and the saturation hypothesis is
    unavailable (I_star = inf), so this preset is qualitative: use it for
    limit-cluster geometry, not for mass-bound studies.
    """
    from .expressions import compile_expression

    f1 = compile_expression(a1, ("t", "x1", "x2", "I1", "I2"))
    f2 = compile_expression(a2, ("t", "x1", "x2", "I1", "I2"))

    def advection(t, X, I):
        env = (t, X[:, 0], X[:, 1], I[:, 0], I[:, 1])
        return np.stack([f1(*env), f2(*env)], axis=1)

    def growth(t, X, I):
        return np.zeros(X.shape[0])

    return ModelSpec(
        name="twotrait2d", dim=2,
        advection=advection,
        advection_div_x=fd_divergence(advection, 2),
        advection_dI=fd_advection_dI(advection, 2, 2),
        growth=growth,
        kernels_a=(moment_kernel(0), moment_kernel(1)),
        kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=a_sup,
        params={"a1": a1, "a2": a2},
    )


MODELS = {
    "advsel1d": build_advsel1d,
    "logistic0d": build_logistic0d,
    "linadv1d": build_linadv1d,
    "nldrift1d": build_nldrift1d,
    "twotrait2d": build_twotrait2d,
}


def build_model(name: str, support_v0: Box, **params) -> ModelSpec:
    if name not in MODELS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    return MODELS[name](support_v0, **params)

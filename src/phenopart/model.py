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

The advection kernels declare the model's structure.  A model without
advection kernels has local advection.  The chain-rule sum runs only over
the graded kernels, those that depend on x: a constant or x-free kernel has
zero x-gradient.  So da/dI (``advection_dI``) is declared exactly when some
advection kernel is graded, and each graded kernel declares its x-gradient.
The advection inputs I = (I_a^k) are computed once by
:func:`advection_inputs` and handed to both :func:`velocity_field` and
:func:`divergence_field`.

Reduction policy: every weighted sum over particles goes through numpy's
pairwise summation over the fixed index order (``np.add.reduce``), never
through BLAS.  This keeps results bit-reproducible across runs and across
process counts regardless of threading configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Box",
    "Kernel",
    "ModelSpec",
    "ValidationReport",
    "EvaluationError",
    "constant_kernel",
    "moment_kernel",
    "pair_sum",
    "as_points",
    "nonlocal_field",
    "nonlocal_grad_field",
    "advection_inputs",
    "velocity_field",
    "divergence_field",
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
        """Low-discrepancy sample of n interior points (deterministic): the
        Halton sequence (Numer. Math. 2, 1960), coordinate k in the k-th
        prime base, started at an index drawn from `seed`."""
        start = int(np.random.default_rng(seed).integers(1, 2**31))
        index = start + np.arange(n, dtype=np.int64)
        u = np.column_stack([_radical_inverse(index, base)
                             for base in _primes(self.dim)])
        return self.lo + u * (self.hi - self.lo)


def _primes(n: int) -> list:
    """The first n primes."""
    found = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """The base-b digits of each index >= 1 mirrored about the radix
    point: a value strictly inside (0, 1)."""
    u = np.zeros(index.shape)
    scale = 1.0 / base
    while np.any(index):
        index, digit = np.divmod(index, base)
        u += scale * digit
        scale /= base
    return u


@dataclass(frozen=True)
class Kernel:
    """Kernel psi(t, x, y) with optional fast-path structure.

    func(t, X(n,d), Y(m,d)) -> (n, m); grad_x, when available, returns the
    x-gradient with shape (n, m, d).  ``const`` declares psi identically
    constant; ``x_free`` declares psi(t, x, y) = f(t, y), in which case the
    x-gradient vanishes and field evaluations collapse to a single weighted
    sum shared by all evaluation points.  A kernel that is neither is
    graded: it depends on x.
    """

    name: str
    func: Callable
    grad_x: Optional[Callable] = None
    const: Optional[float] = None
    x_free: bool = False

    @property
    def graded(self) -> bool:
        """True when psi depends on x, so its x-gradient need not vanish."""
        return self.const is None and not self.x_free


def constant_kernel(value: float, name: str | None = None) -> Kernel:
    value = float(value)

    def _func(t, X, Y):
        return np.full((X.shape[0], Y.shape[0]), value)

    return Kernel(name=name or f"const[{value:g}]", func=_func, const=value, x_free=True)


def moment_kernel(axis: int, name: str | None = None) -> Kernel:
    """psi(t, x, y) = y_axis: the non-local input is the measure's moment."""

    def _func(t, X, Y):
        row = Y[None, :, axis]
        # nonlocal_field evaluates an x-free kernel at one point, which
        # needs no broadcast
        if X.shape[0] == 1:
            return row
        return np.broadcast_to(row, (X.shape[0], Y.shape[0]))

    return Kernel(name=name or f"moment[{axis}]", func=_func, x_free=True)


# ---------------------------------------------------------------------------
# model specification


@dataclass
class ModelSpec:
    """Coefficients, kernels, supports and structural constants of one model.

    Evaluator contracts (all vectorized over rows of X):

    - advection(t, X(n,d), I(n,n_a)) -> (n, d); n_a = len(kernels_a), and
      no advection kernels (the default) declares the advection local
    - advection_div_x(t, X, I) -> (n,): x-divergence at frozen non-local input
    - advection_dI(t, X, I) -> (n, n_a, d): given exactly when some advection
      kernel is graded (depends on x), and only then evaluated; each graded
      advection kernel must declare grad_x
    - growth(t, X(n,d), I(n,)) -> (n,)
    - mutation(t, X(n,d), Y(m,d), I(n,)) -> (n, m) or None for m == 0

    Declared constants are trusted inputs, cross-checked by
    :func:`validate_model` sampling, never inferred:

    - a_sup: speed bound on the region the dynamics can reach (controls the
      support monitor, the default step and the mutation reach)
    - I_star / r_star / K_const: growth saturation, R(t,x,I) + K_const <
      -r_star whenever I >= I_star; gives the mass bound
      max(initial mass, I_star / psi_g_min).  I_star = inf declares the
      hypothesis unavailable (monitor falls back to vacuous bound).
    - M_bar: uniform bound on m; psi_g_min: uniform lower bound on psi_g.
    - autonomous: advection and advection_div_x do not depend on t, bit
      for bit; the grid reference then reuses its backward feet
    """

    name: str
    dim: int
    advection: Callable
    advection_div_x: Callable
    growth: Callable
    kernel_g: Kernel
    support_v0: Box
    a_sup: float
    kernels_a: tuple = ()
    advection_dI: Optional[Callable] = None
    mutation: Optional[Callable] = None
    kernel_d: Optional[Kernel] = None
    support_m_x: Optional[Box] = None
    support_m_y: Optional[Box] = None
    I_star: float = math.inf
    r_star: float = 0.25
    M_bar: float = 0.0
    K_const: float = 0.0
    psi_g_min: float = 1.0
    autonomous: bool = False

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
        graded = [k for k in self.kernels_a if k.graded]
        for k in graded:
            if k.grad_x is None:
                raise ValueError(
                    f"advection kernel {k.name} depends on x but has no grad_x")
        if bool(graded) != (self.advection_dI is not None):
            raise ValueError("advection_dI must be given exactly when an "
                             "advection kernel depends on x")

    @property
    def n_a(self) -> int:
        return len(self.kernels_a)

    @property
    def is_local(self) -> bool:
        """True when the advection has no non-local inputs."""
        return not self.kernels_a

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
        value = kernel.const * pair_sum(alpha)
    elif kernel.x_free:
        value = pair_sum(np.asarray(kernel.func(t, X[:1], Y))[0] * alpha)
    else:
        vals = np.asarray(kernel.func(t, X, Y))
        if vals.shape != (n, Y.shape[0]):
            raise EvaluationError(
                f"kernel {kernel.name}: expected shape {(n, Y.shape[0])}, "
                f"got {vals.shape}")
        return pair_sum(vals * alpha[None, :], axis=-1)
    # every row shares the value; fill() is cheaper than np.full
    I = np.empty(n)
    I.fill(value)
    return I


def nonlocal_grad_field(kernel: Kernel, t: float, X: np.ndarray, Y: np.ndarray,
                        alpha: np.ndarray) -> np.ndarray:
    """grad_x I(t, x_row) = sum_j alpha_j grad_x psi(t, x_row, y_j); (n, d)."""
    n, d = X.shape
    if not kernel.graded:
        return np.zeros((n, d))
    grads = np.asarray(kernel.grad_x(t, X, Y))
    if grads.shape != (n, Y.shape[0], d):
        raise EvaluationError(
            f"kernel {kernel.name} gradient: expected {(n, Y.shape[0], d)}, "
            f"got {grads.shape}")
    return pair_sum(grads * alpha[None, :, None], axis=1)


def advection_inputs(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """The advection non-local inputs, one column per kernel, shape
    (n, n_a); (n, 0) for a local model."""
    I = np.empty((X.shape[0], model.n_a))
    for k, kernel in enumerate(model.kernels_a):
        I[:, k] = nonlocal_field(kernel, t, X, Y, alpha)
    return I


def velocity_field(model: ModelSpec, t: float, X: np.ndarray,
                   I: np.ndarray) -> np.ndarray:
    """A(t, x_row) = a(t, x_row, I_row) at given advection inputs I (n, n_a)."""
    A = np.asarray(model.advection(t, X, I), dtype=float)
    if A.shape != X.shape:
        raise EvaluationError(f"advection returned shape {A.shape}, expected {X.shape}")
    return A


def divergence_field(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                     alpha: np.ndarray, I: np.ndarray) -> np.ndarray:
    """div A at given advection inputs I, with the chain-rule term summed
    over the kernels that depend on x (for the others it is exactly zero)."""
    div = np.asarray(model.advection_div_x(t, X, I), dtype=float)
    if div.shape != (X.shape[0],):
        raise EvaluationError(
            f"advection_div_x returned shape {div.shape}, expected {(X.shape[0],)}")
    graded = [k for k, ker in enumerate(model.kernels_a) if ker.graded]
    if graded:
        dI = np.asarray(model.advection_dI(t, X, I), dtype=float)
        if dI.shape != (X.shape[0], model.n_a, model.dim):
            raise EvaluationError(
                f"advection_dI returned shape {dI.shape}, expected "
                f"{(X.shape[0], model.n_a, model.dim)}")
        for k in graded:
            g = nonlocal_grad_field(model.kernels_a[k], t, X, Y, alpha)
            div = div + pair_sum(dI[:, k, :] * g, axis=-1)
    return div


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


def validate_model(model: ModelSpec, box: Box) -> ValidationReport:
    """Sample the declared structural hypotheses on a box.

    The samples are 256 points of the box (seeds 0 and 1 for the two point
    sets) at the times 0, 0.5 and 1.  Checks, each reported with the
    measured extremum and a witness:
    speed bound a_sup; declared autonomy (a and div a equal bit for bit at
    t = 0 and 1); psi_g positivity and lower bound; growth saturation
    beyond I_star; mutation uniform bound and declared-support vanishing;
    finiteness of finite-difference Lipschitz estimates.  Declared constants
    are trusted inputs; this cross-checks them, it does not infer them.
    """
    samples = 256
    t_samples = (0.0, 0.5, 1.0)
    X = box.sample(samples, seed=0)
    Y = box.sample(samples, seed=1)
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

    # declared autonomy: the advection and its divergence read no t
    if model.autonomous:
        moved, same = 0.0, True
        for lvl in I_levels:
            I = np.full((samples, model.n_a), lvl)
            for func in (model.advection, model.advection_div_x):
                a0, a1 = (np.asarray(func(t, X, I)) for t in (0.0, 1.0))
                same = same and a0.tobytes() == a1.tobytes()
                moved = max(moved, float(np.max(np.abs(a1 - a0))))
        entries.append(ValidationEntry(
            "autonomous", same, moved,
            "largest change of a and div a from t=0 to t=1; declared "
            "autonomous, so both must agree bit for bit"))
    else:
        entries.append(ValidationEntry(
            "autonomous", True, 0.0, "not declared"))

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

    # each evaluator rounds as its plain expression would, in place
    def advection(t, X, I):
        a = 1.0 - X[:, 0]
        a *= X[:, 0]
        return a[:, None]

    def advection_div_x(t, X, I):
        div = 2.0 * X[:, 0]
        return np.subtract(1.0, div, out=div)

    def growth(t, X, I):
        R = r1 * X[:, 0]
        np.subtract(r0, R, out=R)
        R -= I
        return R

    return ModelSpec(
        name="advsel1d", dim=1,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth, kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=0.25,
        I_star=I_star, r_star=r_star, psi_g_min=1.0, autonomous=True,
    )


def build_logistic0d(support_v0: Box, r0: float = 1.0) -> ModelSpec:
    """No transport; R(I) = r0 - I with psi_g = 1: total mass is logistic."""

    def advection(t, X, I):
        return np.zeros_like(X)

    def advection_div_x(t, X, I):
        return np.zeros(X.shape[0])

    def growth(t, X, I):
        return r0 - I

    return ModelSpec(
        name="logistic0d", dim=support_v0.dim,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth, kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=0.0,
        I_star=r0 + 0.5, r_star=0.25, psi_g_min=1.0, autonomous=True,
    )


def build_linadv1d(support_v0: Box) -> ModelSpec:
    """Pure contraction a(x) = -x, no growth: closed forms x0 e^{-t}, w0 e^{-t}.

    In d dimensions the volumes follow w0 e^{-d t}.  The speed bound is the
    largest |x| on the box, the norm of the componentwise max(|lo|, |hi|).
    """

    def advection(t, X, I):
        return -X

    def advection_div_x(t, X, I):
        # div(-x) = -d
        return np.full(X.shape[0], -float(X.shape[1]))

    def growth(t, X, I):
        return np.zeros(X.shape[0])

    # |a(x)| = |x| is the Euclidean norm, as the support monitor measures
    # the displacement; math.hypot of one term is its absolute value
    a_sup = math.hypot(*np.maximum(np.abs(support_v0.lo),
                                   np.abs(support_v0.hi)).tolist())
    return ModelSpec(
        name="linadv1d", dim=support_v0.dim,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth, kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=a_sup, autonomous=True,
    )


def build_nldrift1d(support_v0: Box, drift0: float = 1.0, r0: float = 1.0) -> ModelSpec:
    """Non-local 1D toy: a(I) = drift0 - I_a, R(I) = r0 - I_g, psi = 1.

    The advection depends on the measure only through its total mass: one
    constant advection kernel makes it non-local, and since that kernel has
    zero x-gradient the chain-rule divergence term is exactly zero, so the
    model declares no dA/dI.  The non-local input still feeds the velocity.
    The speed |drift0 - I| is bounded over the saturation range
    0 <= I <= I_star by max(|drift0|, |drift0 - I_star|).
    """
    I_star = r0 + 0.5

    def advection(t, X, I):
        return drift0 - I[:, :1]

    def advection_div_x(t, X, I):
        return np.zeros(X.shape[0])

    def growth(t, X, I):
        return r0 - I

    return ModelSpec(
        name="nldrift1d", dim=1,
        advection=advection, advection_div_x=advection_div_x,
        growth=growth,
        kernels_a=(constant_kernel(1.0),), kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=max(abs(drift0), abs(drift0 - I_star)),
        I_star=I_star, r_star=0.25, psi_g_min=1.0,
    )


def build_twotrait2d(support_v0: Box) -> ModelSpec:
    """Two-trait drift demo: a1 = x1 - x1^3 - 0.1 I1, a2 = -0.5 x2 - 0.1 I2.

    I_j is the j-th moment of the measure (psi_a^(j)(t, x, y) = y_j).  The
    divergence at fixed I is d a1/d x1 + d a2/d x2 = 1 - 3 x1^2 - 0.5.  The
    moment kernels are x-free, so the chain-rule term vanishes and no dA/dI
    is declared.  The speed bound a_sup = 2.5 is fixed.
    There is no selection or mutation; mass is conserved and the saturation
    hypothesis is unavailable (I_star = inf), so this preset is qualitative:
    use it for limit-cluster geometry, not for mass-bound studies.
    """

    def advection(t, X, I):
        x1, x2 = X[:, 0], X[:, 1]
        A = np.empty(X.shape)
        A[:, 0] = x1 - x1 * x1 * x1 - 0.1 * I[:, 0]
        A[:, 1] = -0.5 * x2 - 0.1 * I[:, 1]
        return A

    def advection_div_x(t, X, I):
        x1 = X[:, 0]
        return 1.0 - 3.0 * (x1 * x1) - 0.5

    def growth(t, X, I):
        return np.zeros(X.shape[0])

    return ModelSpec(
        name="twotrait2d", dim=2,
        advection=advection,
        advection_div_x=advection_div_x,
        growth=growth,
        kernels_a=(moment_kernel(0), moment_kernel(1)),
        kernel_g=constant_kernel(1.0),
        support_v0=support_v0, a_sup=2.5,
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

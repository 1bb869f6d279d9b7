"""Field evaluation, kernels, and structural validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import phenopart as pp
from phenopart.model import nonlocal_field

from conftest import make_ensemble


# ---------------------------------------------------------------------------
# kernels and non-local fields


def test_constant_kernel_field_is_weighted_total(random_ensemble):
    ens = random_ensemble
    ker = pp.constant_kernel(2.5)
    alpha = ens.alpha()
    out = nonlocal_field(ker, 0.0, ens.positions, ens.positions, alpha)
    assert out == pytest.approx(np.full(ens.n, 2.5 * alpha.sum()), rel=1e-14)


def test_moment_kernel_matches_direct_sum():
    ens = make_ensemble(25, seed=3, dim=2)
    ker = pp.moment_kernel(1)
    alpha = ens.alpha()
    out = nonlocal_field(ker, 0.0, ens.positions, ens.positions, alpha)
    direct = float(np.sum(alpha * ens.positions[:, 1]))
    assert out == pytest.approx(np.full(ens.n, direct), rel=1e-13)


def test_function_kernel_matches_loop(random_ensemble):
    ens = random_ensemble
    ker = pp.function_kernel(
        lambda t, X, Y: np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2),
        name="gauss")
    alpha = ens.alpha()
    xq = np.array([[0.3], [0.71]])
    out = nonlocal_field(ker, 0.0, xq, ens.positions, alpha)
    for row, x in zip(out, xq[:, 0]):
        direct = sum(a * np.exp(-(x - y) ** 2)
                     for a, y in zip(alpha, ens.positions[:, 0]))
        assert row == pytest.approx(direct, rel=1e-12)


def test_eval_nonlocal_selects_kernels(advsel_model, random_ensemble):
    ens = random_ensemble
    total = float(np.sum(ens.alpha()))
    # growth kernel is constant 1: the field is the total intensity
    val = pp.eval_nonlocal(advsel_model, "g", 0.0, [0.5], ens)
    assert val == pytest.approx(total, rel=1e-13)


def _mutation_model(**overrides):
    support = pp.Box([0.0], [1.0])
    parts = dict(
        name="mut", dim=1,
        advection=lambda t, X, I: np.zeros_like(X),
        advection_div_x=lambda t, X, I: np.zeros(X.shape[0]),
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernels_a=(pp.constant_kernel(2.0), pp.moment_kernel(0)),
        kernel_g=pp.constant_kernel(1.0), support_v0=support, a_sup=0.0,
        mutation=lambda t, X, Y, I: np.zeros((X.shape[0], Y.shape[0])),
        kernel_d=pp.constant_kernel(3.0),
        support_m_x=support, support_m_y=support)
    parts.update(overrides)
    return pp.ModelSpec(**parts)


def test_eval_nonlocal_kernel_ids(random_ensemble):
    ens = random_ensemble
    alpha = ens.alpha()
    total = float(np.sum(alpha))
    model = _mutation_model()
    expected = {"g": total, "d": 3.0 * total, "a0": 2.0 * total,
                "a1": float(np.sum(alpha * ens.positions[:, 0]))}
    for kernel_id, value in expected.items():
        got = pp.eval_nonlocal(model, kernel_id, 0.0, [0.5], ens)
        assert got == pytest.approx(value, rel=1e-13), kernel_id
    for kernel_id in ("a", ("a", 0), "a2", "x", "G"):
        with pytest.raises(KeyError, match="unknown kernel id"):
            pp.eval_nonlocal(model, kernel_id, 0.0, [0.5], ens)


def test_eval_nonlocal_without_mutation_kernel(advsel_model,
                                               random_ensemble):
    with pytest.raises(KeyError, match="no mutation kernel"):
        pp.eval_nonlocal(advsel_model, "d", 0.0, [0.5], random_ensemble)


@pytest.mark.parametrize("with_mutation", [True, False])
@pytest.mark.parametrize("declared", range(8))
def test_mutation_declaration_must_be_complete(with_mutation, declared):
    """mutation, kernel_d and both m-supports come all together or not at
    all; `declared` is a bit mask over (kernel_d, support_m_x, support_m_y)."""
    names = ("kernel_d", "support_m_x", "support_m_y")
    overrides = {name: None for bit, name in enumerate(names)
                 if not declared >> bit & 1}
    if not with_mutation:
        overrides["mutation"] = None
    if declared == (7 if with_mutation else 0):
        model = _mutation_model(**overrides)
        assert (model.mutation is None) == (not with_mutation)
    else:
        match = "requires kernel_d" if with_mutation else "without mutation"
        with pytest.raises(ValueError, match=match):
            _mutation_model(**overrides)


def test_eval_nonlocal_rejects_nonfinite(random_ensemble):
    ens = random_ensemble
    bad = pp.function_kernel(
        lambda t, X, Y: np.where(Y[None, :, 0] > 0.5, np.nan, 1.0)
        * np.ones((X.shape[0], 1)),
        name="poisoned")
    model = pp.ModelSpec(
        name="bad", dim=1,
        advection=lambda t, X, I: np.zeros_like(X),
        advection_div_x=lambda t, X, I: np.zeros(X.shape[0]),
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernels_a=(), kernel_g=bad,
        support_v0=pp.Box([0.0], [1.0]), a_sup=0.0)
    with pytest.raises(pp.EvaluationError, match="particle"):
        pp.eval_nonlocal(model, "g", 0.0, [0.5], ens)


# ---------------------------------------------------------------------------
# velocity divergence: analytic chain rule against finite differences


def _chainrule_model():
    psi = pp.function_kernel(
        lambda t, X, Y: np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2),
        grad_x=lambda t, X, Y: (-2.0 * (X[:, None, 0] - Y[None, :, 0])
                                * np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2)
                                )[:, :, None],
        name="gauss-pair")
    return pp.ModelSpec(
        name="chainrule-toy", dim=1,
        advection=lambda t, X, I: (X[:, 0] * (1 - X[:, 0])
                                   * (1 + 0.5 * I[:, 0]))[:, None],
        advection_div_x=lambda t, X, I: (1 - 2 * X[:, 0]) * (1 + 0.5 * I[:, 0]),
        advection_dI=lambda t, X, I: (0.5 * X[:, 0]
                                      * (1 - X[:, 0]))[:, None, None],
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernels_a=(psi,), kernel_g=pp.constant_kernel(1.0),
        support_v0=pp.Box([0.0], [1.0]), a_sup=0.5)


def test_divergence_chain_rule_against_fd(random_ensemble):
    """The kernel-gradient term of div(a) must match d/dx of the velocity."""
    model = _chainrule_model()
    ens = random_ensemble
    step = 1e-6
    for xq in np.linspace(0.1, 0.9, 9):
        div = pp.eval_divergence(model, 0.0, [xq], ens)
        up = pp.eval_velocity(model, 0.0, [xq + step], ens)[0]
        dn = pp.eval_velocity(model, 0.0, [xq - step], ens)[0]
        assert div == pytest.approx((up - dn) / (2 * step), abs=1e-5)


def test_fd_divergence_fallback_matches_analytic(advsel_model):
    fd_div = pp.fd_divergence(advsel_model.advection, dim=1)
    X = np.linspace(0.05, 0.95, 7)[:, None]
    I = np.zeros((7, advsel_model.n_a))
    want = advsel_model.advection_div_x(0.0, X, I)
    got = fd_div(0.0, X, I)
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_fd_advection_dI_on_linear_coupling():
    # a = 1 - I: the I-derivative is exactly -1
    adv = lambda t, X, I: (1.0 - I[:, 0])[:, None]
    fd = pp.fd_advection_dI(adv, dim=1, n_a=1)
    X = np.array([[0.2], [0.8]])
    I = np.array([[0.3], [1.7]])
    np.testing.assert_allclose(fd(0.0, X, I), -np.ones((2, 1, 1)), atol=1e-8)


# ---------------------------------------------------------------------------
# registry and validation


def test_build_model_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown model"):
        pp.build_model("nope", pp.Box([0.0], [1.0]))


def test_validate_advsel_passes(advsel_model):
    box = pp.Box([0.0], [1.0])
    report = pp.validate_model(advsel_model, box)
    assert report.all_passed, "\n".join(report.lines())
    assert report.entry("speed_bound").passed
    assert report.entry("growth_saturation").passed


def test_validate_flags_missing_saturation():
    profile = pp.build_profile("bump-pair")
    model = pp.build_model("twotrait2d", profile.support)
    box = profile.support.expand(0.5)
    report = pp.validate_model(model, box)
    entry = report.entry("growth_saturation")
    assert not entry.passed


def test_speed_bound_violation_detected(advsel_profile):
    model = pp.build_model("advsel1d", advsel_profile.support)
    # lie about the speed bound and expect the sampler to notice
    slow = pp.ModelSpec(
        name="understated", dim=1, advection=model.advection,
        advection_div_x=model.advection_div_x, growth=model.growth,
        kernels_a=model.kernels_a, kernel_g=model.kernel_g,
        support_v0=model.support_v0, a_sup=0.01,
        I_star=model.I_star, psi_g_min=model.psi_g_min)
    report = pp.validate_model(slow, pp.Box([0.0], [1.0]))
    assert not report.entry("speed_bound").passed


# ---------------------------------------------------------------------------
# Box


def test_box_expand_union_contains():
    a = pp.Box([0.0, 0.0], [1.0, 0.5])
    b = pp.Box([-1.0, 0.2], [0.2, 2.0])
    u = a.union(b)
    np.testing.assert_allclose(u.lo, [-1.0, 0.0])
    np.testing.assert_allclose(u.hi, [1.0, 2.0])
    e = a.expand(0.25)
    np.testing.assert_allclose(e.lo, [-0.25, -0.25])
    assert a.contains(np.array([[0.5, 0.25]]))[0]
    assert not a.contains(np.array([[1.5, 0.25]]))[0]


def test_box_sample_deterministic():
    box = pp.Box([0.0], [2.0])
    s1 = box.sample(16, seed=5)
    s2 = box.sample(16, seed=5)
    assert s1.shape == (16, 1)
    np.testing.assert_array_equal(s1, s2)
    assert box.contains(s1).all()


# ---------------------------------------------------------------------------
# properties


@given(st.integers(min_value=1, max_value=50),
       st.floats(min_value=-4.0, max_value=4.0))
def test_constant_kernel_field_scales_linearly(n, c):
    ens = make_ensemble(n, seed=11)
    ker = pp.constant_kernel(1.0)
    alpha = ens.alpha()
    base = nonlocal_field(ker, 0.0, ens.positions, ens.positions, alpha)
    scaled = nonlocal_field(ker, 0.0, ens.positions, ens.positions, c * alpha)
    np.testing.assert_allclose(scaled, c * base, atol=1e-12 * max(1, abs(c)))


@given(st.integers(min_value=2, max_value=64))
def test_pair_sum_matches_fsum(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 1.0, size=n)
    import math
    assert pp.pair_sum(values) == pytest.approx(math.fsum(values), abs=1e-14)

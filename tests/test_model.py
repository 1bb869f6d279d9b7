"""Field evaluation, kernels, and structural validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import phenopart as pp
from phenopart.model import advection_inputs, nonlocal_field

from conftest import make_ensemble, velocity_and_divergence


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


def test_moment_inputs_sum_the_kernel_rows():
    """twotrait2d's advection inputs: one column per moment kernel, each
    the row-wise weighted sum of the kernel's (n, m) values, bit for bit;
    evaluated at one point, the kernel gives its one row."""
    model = pp.build_model("twotrait2d", pp.Box([-1.0, -1.0], [1.0, 1.0]))
    ens = make_ensemble(40, seed=7, dim=2)
    X, alpha = ens.positions, ens.alpha()
    I = advection_inputs(model, 0.0, X, X, alpha)
    assert I.shape == (40, 2) and I.flags.c_contiguous
    for k, kernel in enumerate(model.kernels_a):
        vals = kernel.func(0.0, X, X)
        assert vals.shape == (40, 40)
        assert kernel.func(0.0, X[:1], X).tolist() == vals[:1].tolist()
        want = pp.pair_sum(vals * alpha[None, :], axis=-1)
        assert I[:, k].tobytes() == want.tobytes()


def test_function_kernel_matches_loop(random_ensemble):
    ens = random_ensemble
    ker = pp.Kernel(
        name="gauss",
        func=lambda t, X, Y: np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2))
    alpha = ens.alpha()
    xq = np.array([[0.3], [0.71]])
    out = nonlocal_field(ker, 0.0, xq, ens.positions, alpha)
    for row, x in zip(out, xq[:, 0]):
        direct = sum(a * np.exp(-(x - y) ** 2)
                     for a, y in zip(alpha, ens.positions[:, 0]))
        assert row == pytest.approx(direct, rel=1e-12)


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


def test_integrate_rejects_nonfinite_kernel(random_ensemble):
    """A growth kernel that is NaN at some particles makes the growth
    input NaN; the step's finiteness check names a particle."""
    ens = random_ensemble
    bad = pp.Kernel(
        name="poisoned",
        func=lambda t, X, Y: np.where(Y[None, :, 0] > 0.5, np.nan, 1.0)
        * np.ones((X.shape[0], 1)))
    model = pp.ModelSpec(
        name="bad", dim=1,
        advection=lambda t, X, I: np.zeros_like(X),
        advection_div_x=lambda t, X, I: np.zeros(X.shape[0]),
        growth=lambda t, X, I: 1.0 - I,
        kernels_a=(), kernel_g=bad,
        support_v0=pp.Box([0.0], [1.0]), a_sup=0.0)
    with pytest.raises(pp.IntegrationError, match="particle"):
        pp.integrate(model, ens, pp.RunConfig(t_final=1e-3, dt=1e-3))


# ---------------------------------------------------------------------------
# velocity divergence: analytic chain rule against finite differences


def _chainrule_model():
    psi = pp.Kernel(
        name="gauss-pair",
        func=lambda t, X, Y: np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2),
        grad_x=lambda t, X, Y: (-2.0 * (X[:, None, 0] - Y[None, :, 0])
                                * np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2)
                                )[:, :, None])
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
    xq = np.linspace(0.1, 0.9, 9)[:, None]
    _v, div = velocity_and_divergence(model, xq, ens)
    up = velocity_and_divergence(model, xq + step, ens)[0][:, 0]
    dn = velocity_and_divergence(model, xq - step, ens)[0][:, 0]
    assert div == pytest.approx((up - dn) / (2 * step), abs=1e-5)


def _counted(func, counts, key):
    def wrapped(*args):
        counts[key] += 1
        return func(*args)
    return wrapped


def _one_step(model, ens):
    """One RK4 step: four stage evaluations."""
    return pp.integrate(model, ens, pp.RunConfig(t_final=1e-3, dt=1e-3))


def test_rhs_sums_graded_kernel_once(random_ensemble):
    """Velocity and divergence share one evaluation of the advection inputs
    per stage."""
    model = _chainrule_model()
    counts = {"func": 0}
    psi = model.kernels_a[0]
    model.kernels_a = (dataclasses.replace(
        psi, func=_counted(psi.func, counts, "func")),)
    assert _one_step(model, random_ensemble).n_steps == 1
    assert counts["func"] == 4


def test_moment_kernels_skip_the_chain_rule_term():
    """Moment kernels have no x-gradient, so the model declares no dA/dI and
    one stage makes one velocity evaluation; the divergence is written out
    with the laws, not taken from further velocity evaluations.  It still
    matches central differences of the velocity."""
    model = pp.build_model("twotrait2d", pp.Box([-1.0, -1.0], [1.0, 1.0]))
    counts = {"advection": 0}
    model = dataclasses.replace(
        model, advection=_counted(model.advection, counts, "advection"))
    ens = make_ensemble(40, seed=7, dim=2)
    assert _one_step(model, ens).n_steps == 1
    assert counts == {"advection": 4}

    step = 1e-6
    xq = np.array([[0.2, 0.7], [-0.5, 0.3], [0.9, -0.8]])
    _v, div = velocity_and_divergence(model, xq, ens)
    fd = 0.0
    for axis, e in enumerate(step * np.eye(2)):
        up = velocity_and_divergence(model, xq + e, ens)[0][:, axis]
        dn = velocity_and_divergence(model, xq - e, ens)[0][:, axis]
        fd += (up - dn) / (2 * step)
    assert div == pytest.approx(fd, abs=1e-6)


def test_twotrait_divergence_is_exact():
    """The divergence of the shipped twotrait2d laws, a1 = x1 - x1**3 -
    0.1*I1 and a2 = -0.5*x2 - 0.1*I2, at fixed I."""
    model = pp.build_model("twotrait2d", pp.Box([-1.0, -1.0], [1.0, 1.0]))
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.5, 1.5, size=(50, 2))
    I = rng.uniform(-1.0, 1.0, size=(50, 2))
    div = model.advection_div_x(0.0, X, I)
    np.testing.assert_allclose(div, 1 - 3 * X[:, 0] ** 2 - 0.5,
                               rtol=0, atol=1e-14)
    step = 1e-5
    fd = 0.0
    for axis, e in enumerate(step * np.eye(2)):
        up = model.advection(0.0, X + e, I)[:, axis]
        dn = model.advection(0.0, X - e, I)[:, axis]
        fd = fd + (up - dn) / (2 * step)
    np.testing.assert_allclose(div, fd, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# declared structure: the advection kernels decide locality and dA/dI


def _advection_kernels(case):
    psi = _chainrule_model().kernels_a[0]
    return {"none": (), "constant": (pp.constant_kernel(1.0),),
            "moment": (pp.moment_kernel(0),), "graded": (psi,),
            "graded-no-grad": (dataclasses.replace(psi, grad_x=None),)}[case]


_STRUCTURE = [
    ("none", True, "advection_dI"),
    ("constant", False, "advection_dI"),
    ("moment", False, "advection_dI"),
    ("graded", "advection_dI", False),
    ("graded-no-grad", "grad_x", "grad_x"),
]


@pytest.mark.parametrize("declare_dI", [False, True], ids=["no-dI", "dI"])
@pytest.mark.parametrize("case, without_dI, with_dI", _STRUCTURE,
                         ids=[row[0] for row in _STRUCTURE])
def test_advection_kernels_declare_the_structure(case, without_dI, with_dI,
                                                 declare_dI):
    """Local means no advection kernels; advection_dI comes exactly when a
    kernel depends on x, and every such kernel declares grad_x.  An expected
    string is the ValueError's match, a bool the model's is_local."""
    base = _chainrule_model()
    expected = with_dI if declare_dI else without_dI
    parts = dict(kernels_a=_advection_kernels(case),
                 advection_dI=base.advection_dI if declare_dI else None)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            dataclasses.replace(base, **parts)
    else:
        assert dataclasses.replace(base, **parts).is_local is expected


@pytest.mark.parametrize("name, local", [
    ("advsel1d", True), ("logistic0d", True), ("linadv1d", True),
    ("nldrift1d", False), ("twotrait2d", False)])
def test_preset_locality(name, local):
    dim = 2 if name == "twotrait2d" else 1
    model = pp.build_model(name, pp.Box([0.0] * dim, [1.0] * dim))
    assert model.is_local is local
    assert model.advection_dI is None


def test_mass_feeds_the_velocity_without_advection_dI(random_ensemble):
    """A constant advection kernel alone makes the model non-local: with
    nldrift1d's advection and no dA/dI, a = drift0 - mass."""
    model = dataclasses.replace(
        pp.build_model("nldrift1d", pp.Box([0.0], [1.0]), drift0=2.0),
        advection_dI=None)
    assert not model.is_local
    ens = random_ensemble
    got = velocity_and_divergence(model, np.array([[0.5]]), ens)[0][0, 0]
    assert got == pytest.approx(2.0 - ens.mass(), rel=1e-13)


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


@pytest.mark.parametrize("drift0, r0", [(-1.0, 1.0), (1.0, 4.0), (0.2, 1.0)])
def test_nldrift_speed_bound_covers_the_saturation_range(drift0, r0):
    """|drift0 - I| over 0 <= I <= I_star = r0 + 1/2 is what a_sup must
    bound: no particle outruns it, and the sampler finds no faster point."""
    prof = pp.build_profile("bump")
    model = pp.build_model("nldrift1d", prof.support, drift0=drift0, r0=r0)
    ens = pp.partition_support(prof, model, 1 / 100, T=1.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=1.0))
    assert traj.monitors.support_excess_max == 0.0
    report = pp.validate_model(model, prof.support)
    assert report.entry("speed_bound").passed, "\n".join(report.lines())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linadv_in_d_dimensions(dim):
    """The support monitor measures the Euclidean displacement, so a_sup
    bounds |x| over the box, not each component: the far corner of the
    d-dimensional bump moves at 0.8 sqrt(d).  The volumes contract at the
    divergence -d."""
    prof = pp.build_profile("bump", center=[0.5] * dim, width=0.3)
    model = pp.build_model("linadv1d", prof.support)
    assert model.a_sup == pytest.approx(0.8 * np.sqrt(dim), rel=1e-15)
    ens = pp.partition_support(prof, model, 1 / 10, T=0.2)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=0.2, dt=0.01))
    assert traj.monitors.ok
    assert traj.monitors.support_excess_max == 0.0
    report = pp.validate_model(model, prof.support)
    assert report.entry("speed_bound").passed, "\n".join(report.lines())
    # div(-x) = -d: the closed forms x0 e^{-t} and w0 e^{-d t}, to the RK4
    # error T (3 dt)^4 3 / 120 = 4e-9 of the fastest rate
    np.testing.assert_allclose(traj.final.positions,
                               ens.positions * np.exp(-0.2), rtol=1e-8)
    np.testing.assert_allclose(traj.final.volumes,
                               ens.volumes * np.exp(-0.2 * dim), rtol=1e-8)


def test_linadv_speed_bound_keeps_its_1d_value():
    assert pp.build_model("linadv1d", pp.Box([-2.0], [1.5])).a_sup == 2.0
    assert pp.build_model("linadv1d", pp.Box([0.1], [0.7])).a_sup == 0.7


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


@pytest.mark.parametrize("name", ["advsel1d", "linadv1d", "logistic0d"])
def test_autonomous_presets_pass_the_cross_check(name):
    box = pp.Box([0.0], [1.0])
    model = pp.build_model(name, box)
    assert model.autonomous
    entry = pp.validate_model(model, box).entry("autonomous")
    assert entry.passed and entry.value == 0.0


@pytest.mark.parametrize("part", ["advection", "advection_div_x"])
def test_time_dependent_model_declared_autonomous_is_flagged(advsel_model,
                                                             part):
    """a = (1 + t) x (1 - x), or only its divergence scaled by (1 + t),
    wrongly declared autonomous: the t = 0 and t = 1 samples differ."""
    law = getattr(advsel_model, part)
    wrong = dataclasses.replace(
        advsel_model, name="drifting", autonomous=True,
        **{part: lambda t, X, I: (1.0 + t) * law(t, X, I)})
    entry = pp.validate_model(wrong, pp.Box([0.0], [1.0])).entry("autonomous")
    assert not entry.passed
    assert entry.value > 0.0
    # undeclared, the same model is not held to it
    honest = dataclasses.replace(wrong, autonomous=False)
    assert pp.validate_model(honest, pp.Box([0.0], [1.0])).entry(
        "autonomous").passed


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


def test_box_sample_stratifies():
    """Any 2^k consecutive Halton indices put one point in each of the 2^k
    equal cells of the base-2 coordinate; the points lie strictly inside,
    and each seed starts its own run of the sequence."""
    box = pp.Box([0.0, 0.0], [1.0, 1.0])
    samples = [box.sample(256, seed=seed) for seed in (0, 1)]
    for s in samples:
        assert np.all((s > 0.0) & (s < 1.0))
        assert sorted(np.floor(s[:, 0] * 256).astype(int)) == list(range(256))
    assert not np.any(samples[0][:, 1] == samples[1][:, 1])


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

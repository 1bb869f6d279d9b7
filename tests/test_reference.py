"""Grid reference solver and characteristics against closed forms."""

import math

import numpy as np
import pytest

import phenopart as pp
from phenopart.reference import _support_weights

LOGISTIC_RHO_5 = 0.9933071490757153
# logistic flow of x' = x(1-x): 1 / (1 + e^-2)
FLOW_HALF_AT_2 = 0.8807970779778824


def test_characteristics_logistic_flow(advsel_model):
    got = pp.characteristics(advsel_model, 0.5, 0.0, 2.0)
    assert isinstance(got, float)
    assert got == pytest.approx(FLOW_HALF_AT_2, abs=1e-10)


def test_characteristics_linear_contraction():
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    y = np.array([2.0, 1.0, -0.5])
    got = pp.characteristics(model, y, 0.0, 1.0)
    np.testing.assert_allclose(got, y * math.exp(-1.0), atol=1e-10)
    # reversed in time: expansion
    back = pp.characteristics(model, got, 1.0, 0.0)
    np.testing.assert_allclose(back, y, atol=1e-9)


def test_characteristics_zero_span():
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    assert pp.characteristics(model, 1.5, 3.0, 3.0) == 1.5


def test_logistic_mass_history():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=1e-3)
    sol = pp.solve_reference(model, prof, cfg, 5.0)
    assert sol.mass() == pytest.approx(LOGISTIC_RHO_5, abs=1e-6)
    assert sol.rho_values[0] == pytest.approx(0.5)
    assert sol.rho_values[-1] == pytest.approx(LOGISTIC_RHO_5, abs=1e-6)
    assert np.all(np.diff(sol.rho_values) > 0)  # monotone approach
    assert sol.min_value >= 0.0


def test_pure_transport_closed_form():
    """Contraction field: v(t, x) = e^t v0(x e^t), second-order in dx."""
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    prof = pp.build_profile("bump", center=0.0, width=1.0)
    errs = {}
    for dx in (1 / 100, 1 / 200):
        cfg = pp.ReferenceConfig(x_lo=-2.0, x_hi=2.0, dx=dx, dt=1e-3)
        sol = pp.solve_reference(model, prof, cfg, 0.5)
        exact = math.exp(0.5) * prof((sol.x * math.exp(0.5))[:, None])
        errs[dx] = float(np.max(np.abs(sol.v - exact)))
    assert errs[1 / 200] < 4e-3
    assert errs[1 / 100] / errs[1 / 200] > 3.0


def test_mutation_influx_closed_form():
    """a = 0, R = 0, m = mu: v(t, x) = v0(x) + rho0 (e^{mu t} - 1)."""
    sup = pp.Box([0.0], [1.0])

    def no_field(t, X, I):
        return np.zeros_like(X)

    def no_scalar(t, X, I):
        return np.zeros(X.shape[0])

    model = pp.ModelSpec(
        name="pure-mutation", dim=1, advection=no_field,
        advection_div_x=no_scalar, growth=no_scalar,
        kernels_a=(pp.constant_kernel(1.0),),
        kernel_g=pp.constant_kernel(1.0), support_v0=sup, a_sup=0.0,
        mutation=lambda t, X, Y, I: np.full((X.shape[0], Y.shape[0]), 0.5),
        kernel_d=pp.constant_kernel(1.0),
        support_m_x=sup, support_m_y=sup, M_bar=0.5)
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=1e-3)
    sol = pp.solve_reference(model, prof, cfg, 1.0)
    expect = math.exp(0.5)
    assert sol.mass() == pytest.approx(expect, abs=1e-7)
    np.testing.assert_allclose(sol.v, expect, atol=1e-7)


def test_support_stays_sharp_under_nonuniform_flow(advsel_profile,
                                                   advsel_model):
    """The support edges 0 and 1 are rest points of x(1-x); the final
    density must vanish identically outside [0, 1], with no interpolation
    bleed into the neighboring cells."""
    cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 200, dt=2e-3)
    sol = pp.solve_reference(advsel_model, advsel_profile, cfg, 1.0)
    nz = np.flatnonzero(sol.v != 0.0)
    assert sol.x[nz[0]] == pytest.approx(0.0, abs=1e-12)
    assert sol.x[nz[-1]] <= 1.0 + 1e-12
    outside = (sol.x < -1e-12) | (sol.x > 1.0 + 1e-12)
    np.testing.assert_array_equal(sol.v[outside], 0.0)


def test_value_at_fill():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2)
    sol = pp.solve_reference(model, prof, cfg, 0.1)
    inside = sol.value_at([0.5])
    assert np.isfinite(inside[0]) and inside[0] > 0.5
    assert np.isnan(sol.value_at([2.0])[0])
    assert sol.value_at([2.0], fill=0.0)[0] == 0.0


def test_zero_tolerance_cannot_contract():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2,
                             fixed_point_tol=0.0, max_fixed_point_iter=4,
                             min_dt=1e-4)
    with pytest.raises(pp.OracleError, match="fixed point"):
        pp.solve_reference(model, prof, cfg, 0.1)


def test_oracle_rejects_unsupported_models(advsel_profile):
    nl = pp.build_model("nldrift1d", pp.Box([0.0], [1.0]))
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2)
    with pytest.raises(pp.OracleError, match="local advection"):
        pp.solve_reference(nl, advsel_profile, cfg, 0.1)
    two = pp.build_model("twotrait2d", pp.Box([-1.0, -1.0], [1.0, 1.0]))
    with pytest.raises(pp.OracleError, match="1D"):
        pp.solve_reference(two, advsel_profile, cfg, 0.1)


def test_collapsed_support_is_an_error():
    # a = x(1-x) squeezes [0.05, 1] onto x = 1; at dx = 1/40 the clipped
    # support keeps a single node, which has zero trapezoid weight, so mass
    # would read 0 while the node value grows without bound
    prof = pp.build_profile("const6")
    model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
    cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 40, dt=2e-2)
    with pytest.raises(pp.OracleError, match="fewer than two grid nodes"):
        pp.solve_reference(model, prof, cfg, 10.0)


def test_refinement_history():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2)
    sol, hist = pp.refine_until_stable(model, prof, cfg, 1.0, target=1e-4)
    assert len(hist) >= 2
    assert hist[1][0] == pytest.approx(0.05)
    assert abs(hist[-1][1] - hist[-2][1]) < 1e-4
    assert sol.dx == hist[-1][0]


class TestSupportWeights:
    dx = 0.1

    def total(self, v):
        return float(np.sum(_support_weights(np.asarray(v, float), self.dx)
                            * np.asarray(v, float)))

    def test_interior_support(self):
        w = _support_weights(np.array([0.0, 1.0, 1.0, 1.0, 0.0]), self.dx)
        np.testing.assert_allclose(w, [0.05, 0.05, 0.1, 0.05, 0.05])
        # jump edges on nodes: mass is the exact support length
        assert self.total([0.0, 1.0, 1.0, 1.0, 0.0]) == pytest.approx(0.2)

    def test_full_support_is_plain_trapezoid(self):
        w = _support_weights(np.ones(4), self.dx)
        np.testing.assert_allclose(w, [0.05, 0.1, 0.1, 0.05])

    def test_isolated_spike_has_zero_weight(self):
        w = _support_weights(np.array([0.0, 0.0, 5.0, 0.0, 0.0]), self.dx)
        assert w[2] == 0.0

    def test_boundary_touching_run(self):
        assert self.total([1.0, 1.0, 0.0, 0.0]) == pytest.approx(self.dx)

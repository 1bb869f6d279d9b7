"""Grid reference solver and characteristics against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phenopart as pp
from phenopart import reference
from phenopart.discretize import _bump_1d
from phenopart.reference import (PchipInterpolator, _at, _cells, _Nodes,
                                 _rk4_flow, _substeps, _support_weights,
                                 check_scope)

LOGISTIC_RHO_5 = 0.9933071490757153
# logistic flow of x' = x(1-x): 1 / (1 + e^-2)
FLOW_HALF_AT_2 = 0.8807970779778824


def characteristics(model, y, t0, t1):
    """Flow map X(t1; t0, y) of the oracle's feet: its scope rule, then RK4
    with its own substeps of at most 1e-3."""
    check_scope(model)
    n_sub = _substeps(abs(t1 - t0))
    return _rk4_flow(model, np.atleast_1d(y), t0, (t1 - t0) / n_sub, n_sub)


def test_characteristics_logistic_flow(advsel_model):
    got = characteristics(advsel_model, 0.5, 0.0, 2.0)
    assert got == pytest.approx([FLOW_HALF_AT_2], abs=1e-10)


def test_characteristics_linear_contraction():
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    y = np.array([2.0, 1.0, -0.5])
    got = characteristics(model, y, 0.0, 1.0)
    np.testing.assert_allclose(got, y * math.exp(-1.0), atol=1e-10)
    # reversed in time: expansion
    back = characteristics(model, got, 1.0, 0.0)
    np.testing.assert_allclose(back, y, atol=1e-9)


def test_characteristics_zero_span():
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    assert characteristics(model, 1.5, 3.0, 3.0).tolist() == [1.5]


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


def _pure_mutation(mu):
    """a = 0, R = 0 and the constant mutation law m = mu on [0, 1]."""
    sup = pp.Box([0.0], [1.0])

    def no_field(t, X, I):
        return np.zeros_like(X)

    def no_scalar(t, X, I):
        return np.zeros(X.shape[0])

    return pp.ModelSpec(
        name="pure-mutation", dim=1, advection=no_field,
        advection_div_x=no_scalar, growth=no_scalar,
        kernel_g=pp.constant_kernel(1.0), support_v0=sup, a_sup=0.0,
        mutation=lambda t, X, Y, I: np.full((X.shape[0], Y.shape[0]), mu),
        kernel_d=pp.constant_kernel(1.0),
        support_m_x=sup, support_m_y=sup, M_bar=abs(mu))


def test_mutation_influx_closed_form():
    """a = 0, R = 0, m = mu: v(t, x) = v0(x) + rho0 (e^{mu t} - 1)."""
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=1e-3)
    sol = pp.solve_reference(_pure_mutation(0.5), prof, cfg, 1.0)
    expect = math.exp(0.5)
    assert sol.mass() == pytest.approx(expect, abs=1e-7)
    np.testing.assert_allclose(sol.v, expect, atol=1e-7)


def test_negative_density_is_an_error():
    """A negative mutation law drains v at its zero end (x = 1) below 0
    in the first step; the solve refuses the level instead of going on."""
    prof = pp.build_profile("one-minus-x")
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=1e-3)
    with pytest.raises(pp.OracleError,
                       match=r"negative density -4\.997e-04 at t=0\.001"):
        pp.solve_reference(_pure_mutation(-1.0), prof, cfg, 0.1)


def test_halved_steps_under_mutation(monkeypatch):
    """Halving runs under mutation, whose support edges widen to
    supp_x m = [0, 1]: forced by a cap of 3 iterations, the solve keeps one
    mass sample per outer step and lands closer to e^{mu T} than the
    unforced one."""
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=0.1)
    expect = math.exp(0.5)
    unforced = pp.solve_reference(_pure_mutation(0.5), prof, cfg, 1.0)
    monkeypatch.setattr(reference, "MAX_FIXED_POINT_ITER", 3)
    halved = pp.solve_reference(_pure_mutation(0.5), prof, cfg, 1.0)
    assert unforced.subdivisions == 0
    assert halved.subdivisions > 0
    assert len(halved.rho_times) == len(halved.rho_values) == 11
    err = abs(halved.mass() - expect)
    assert err < 1e-6
    assert err < abs(unforced.mass() - expect)


def _mutating_advsel(mu=0.5):
    """advsel1d with R lowered by mu and offspring law
    m(x, y) = mu bump((x - y)/0.1)/Z on [0, 1]^2, Z = 0.1 int bump: a parent
    away from the edges gives birth at the rate R loses."""
    u = np.linspace(-1.0, 1.0, 20001)
    Z = 0.1 * float(np.trapezoid(_bump_1d(u), u))

    def mutation(t, X, Y, I):
        x, y = X[:, :1], Y[None, :, 0]
        inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
        return np.where(inside, mu * _bump_1d((x - y) / 0.1) / Z, 0.0)

    prof = pp.build_profile("one-minus-x")
    base = pp.build_model("advsel1d", prof.support)
    sup = pp.Box([0.0], [1.0])
    model = dataclasses.replace(
        base, growth=lambda t, X, I: base.growth(t, X, I) - mu,
        mutation=mutation, kernel_d=pp.constant_kernel(1.0),
        support_m_x=sup, support_m_y=sup, M_bar=mu / Z)
    return model, prof


def test_mutation_stays_in_its_support():
    """Under mutation the solve clips to the flowed support widened to
    supp_x m = [0, 1]: no node outside it holds density, and with no
    unclipped jump cell the mass moves far less than O(dx) on halving dx
    (without the clip: up to 1.0e-3 outside and a step of 3.6e-3)."""
    model, prof = _mutating_advsel()
    masses = []
    for dx in (1 / 100, 1 / 200):
        cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=dx, dt=2e-3)
        sol = pp.solve_reference(model, prof, cfg, 0.1)
        outside = (sol.x < 0.0) | (sol.x > 1.0)
        np.testing.assert_array_equal(sol.v[outside], 0.0)
        masses.append(sol.mass())
    assert abs(masses[0] - masses[1]) < 4e-4


def test_offspring_land_beyond_the_initial_support():
    """Data on [0.4, 0.6] under m = mu on supp_x m = [0, 1]: the tracked
    support widens to [0, 1], so the offspring fill it evenly, also where
    the data were 0."""
    prof = pp.build_profile("const", value=1.0, lo=0.4, hi=0.6)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=1e-2)
    sol = pp.solve_reference(_pure_mutation(0.5), prof, cfg, 1.0)
    offspring = sol.v[(sol.x < 0.35) | (sol.x > 0.65)]
    assert offspring.min() > 0.1
    assert np.ptp(offspring) < 1e-12


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


def test_zero_tolerance_cannot_contract(monkeypatch):
    monkeypatch.setattr(reference, "FIXED_POINT_RTOL", 0.0)
    monkeypatch.setattr(reference, "MAX_FIXED_POINT_ITER", 4)
    monkeypatch.setattr(reference, "MIN_DT", 1e-4)
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2)
    with pytest.raises(pp.OracleError, match="fixed point"):
        pp.solve_reference(model, prof, cfg, 0.1)


def test_halved_steps_contract_and_stay_accurate(monkeypatch, advsel_profile,
                                                 advsel_model):
    """A step that does not contract within the iteration cap is halved
    until it does; the solve succeeds, keeps one mass sample per outer
    step, and lands closer to a fine-step solve than the unforced one."""
    def solve(dt):
        cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 400, dt=dt)
        return pp.solve_reference(advsel_model, advsel_profile, cfg, 1.0)

    fine, unforced = solve(1e-3), solve(0.1)
    assert unforced.subdivisions == 0
    monkeypatch.setattr(reference, "MAX_FIXED_POINT_ITER", 9)
    halved = solve(0.1)
    assert halved.subdivisions == 17
    assert halved.fixed_point_iters_max == 9
    assert len(halved.rho_times) == len(unforced.rho_times) == 11
    assert halved.mass() == pytest.approx(4.484140, abs=1e-6)
    assert (abs(halved.mass() - fine.mass())
            < abs(unforced.mass() - fine.mass()))


def _solve_counted(model, prof, cfg, T):
    """The solve, and how many times it evaluated the advection."""
    calls = []

    def advection(t, X, I):
        calls.append(X.shape[0])
        return model.advection(t, X, I)

    sol = pp.solve_reference(dataclasses.replace(model, advection=advection),
                             prof, cfg, T)
    return sol, len(calls)


def _cache_case(case, advsel_profile, advsel_model):
    """(model, profile, config, T, MAX_FIXED_POINT_ITER or None)."""
    if case == "advsel":
        cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 400, dt=1e-2)
        return advsel_model, advsel_profile, cfg, 1.0, None
    if case == "halved":
        cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 400, dt=0.1)
        return advsel_model, advsel_profile, cfg, 1.0, 9
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.02, dt=0.1)
    return (dataclasses.replace(_pure_mutation(0.5), autonomous=True), prof,
            cfg, 1.0, 3)


@pytest.mark.parametrize("case", ["advsel", "halved", "mutation"])
def test_cached_feet_change_no_bit(monkeypatch, advsel_profile, advsel_model,
                                   case):
    """An autonomous model reuses its backward feet, their PCHIP cells and
    div a while the step Dt stays the same; declared
    time-dependent, the same model flows its nodes every step.  Both give
    the same bytes, with and without halved steps and under mutation."""
    model, prof, cfg, T, cap = _cache_case(case, advsel_profile, advsel_model)
    if cap is not None:
        monkeypatch.setattr(reference, "MAX_FIXED_POINT_ITER", cap)
    assert model.autonomous
    cached, n_cached = _solve_counted(model, prof, cfg, T)
    fresh, n_fresh = _solve_counted(
        dataclasses.replace(model, autonomous=False), prof, cfg, T)
    assert cached.v.tobytes() == fresh.v.tobytes()
    assert cached.rho_values.tobytes() == fresh.rho_values.tobytes()
    assert ((cached.min_value, cached.fixed_point_iters_max,
             cached.subdivisions) == (fresh.min_value,
                                      fresh.fixed_point_iters_max,
                                      fresh.subdivisions))
    assert (cached.subdivisions > 0) == (cap is not None)
    assert n_cached < n_fresh


def test_autonomous_nodes_flow_once(advsel_profile, advsel_model):
    """200 steps of one Dt on an autonomous model: 4 advection calls a step
    flow the support edges over their single RK4 substep, and 4 more flow
    the nodes once for the whole solve."""
    cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 400, dt=5e-4)
    sol, calls = _solve_counted(advsel_model, advsel_profile, cfg, 0.1)
    assert len(sol.rho_times) == 201
    assert calls == 4 * 200 + 4


def test_oracle_rejects_unsupported_models(advsel_profile):
    nl = pp.build_model("nldrift1d", pp.Box([0.0], [1.0]))
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=0.1, dt=1e-2)
    with pytest.raises(pp.OracleError, match="local advection"):
        pp.solve_reference(nl, advsel_profile, cfg, 0.1)
    with pytest.raises(pp.OracleError, match="local advection"):
        characteristics(nl, 0.5, 0.0, 0.1)
    two = pp.build_model("twotrait2d", pp.Box([-1.0, -1.0], [1.0, 1.0]))
    with pytest.raises(pp.OracleError, match="1D"):
        pp.solve_reference(two, advsel_profile, cfg, 0.1)
    with pytest.raises(pp.OracleError, match="1D"):
        characteristics(two, np.zeros(2), 0.0, 0.1)


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


@pytest.mark.parametrize("x_free", [True, False])
def test_grid_nonlocal_matches_dense_sum(x_free):
    """An x-free kernel's one row and a graded kernel's row blocks give the
    dense support-weighted sum, on more query points than one block."""
    grid = np.linspace(-0.25, 1.25, 301)
    v = np.where((grid >= 0.0) & (grid <= 1.0), 1.0 - grid, 0.0)
    wv = _support_weights(v, grid[1] - grid[0]) * v
    xq = np.linspace(-1.0, 2.0, reference._ROW_CHUNK + 37)
    if x_free:
        kernel = pp.Kernel("y2", lambda t, X, Y: np.broadcast_to(
            t + Y[None, :, 0] ** 2, (X.shape[0], Y.shape[0])), x_free=True)
    else:
        kernel = pp.Kernel("gauss", lambda t, X, Y: np.exp(
            -t * (X[:, :1] - Y[None, :, 0]) ** 2))
    got = reference._grid_nonlocal(kernel, 0.5, xq, grid, wv)
    dense = pp.pair_sum(kernel.func(0.5, xq[:, None], grid[:, None])
                        * wv[None, :], axis=-1)
    assert got.shape == (xq.size,)
    np.testing.assert_array_equal(got, dense)
    # the x-free branch shares one value; the graded one varies with x
    assert (np.ptp(got) == 0.0) == x_free


class TestSupportWeights:
    dx = 0.1

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), min_size=2,
                    max_size=40))
    def test_matches_two_masks(self, values):
        """The junction walk gives the weights of the two-mask rule: minus
        half a cell at a run's first node (left) and at its last (right),
        twice for a lone node."""
        v = np.array(values)
        w = np.full(v.shape, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        nz = v != 0.0
        left = np.zeros_like(nz)
        right = np.zeros_like(nz)
        left[1:] = nz[1:] & ~nz[:-1]
        right[:-1] = nz[:-1] & ~nz[1:]
        w[left] -= 0.5 * self.dx
        w[right] -= 0.5 * self.dx
        got = _support_weights(v, self.dx)
        assert got.tobytes() == w.tobytes()

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


def _pchip_case(kind):
    """Nodes, data and query points of one differential case."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    x = -0.25 + 1e-3 * np.arange(1501)
    if kind == "random":
        x = np.cumsum(rng.uniform(0.1, 2.0, 300))
        v = rng.normal(size=300)
    elif kind == "flat":
        v = np.where(rng.uniform(size=x.size) < 0.5, 0.0,
                     rng.integers(0, 3, x.size).astype(float))
    elif kind == "sign-changing":
        v = np.round(np.sin(37.0 * x), 2)
        # both clips of the end slope: to 3 m0 where the data turn, and to
        # zero against the end secant's sign
        v[:3] = [0.0, 0.01, -0.09]
        v[-3:] = [0.5, 0.1, 0.0]
    elif kind == "two-node":
        x, v = np.array([0.5, 2.0]), np.array([3.0, -1.0])
    else:  # signed zeros; on a falling, bending stretch every term of
        # the cubic at a -0.0 node is -0.0, and scipy's sum reads +0.0
        v = np.where(rng.uniform(size=x.size) < 0.5, -0.0,
                     rng.uniform(-1.0, 1.0, x.size))
        v[::7] = 0.0
        v[100:104] = [0.16, -0.0, -0.23, -0.64]
    lo, hi = x[0], x[-1]
    p = np.concatenate([
        rng.uniform(lo, hi, 4000), x, 0.5 * (x[:-1] + x[1:]),
        [lo, hi, np.nan, np.nan],
        [lo - 1e-12, hi + 1e-12, np.nextafter(lo, -np.inf),
         np.nextafter(hi, np.inf), lo - 1.0, hi + 1.0]])
    return x, v, p


class TestPchip:
    @pytest.mark.parametrize("kind", ["random", "flat", "sign-changing",
                                      "two-node", "signed-zeros"])
    def test_bit_identical_to_scipy(self, kind):
        from scipy.interpolate import PchipInterpolator as ScipyPchip

        x, v, p = _pchip_case(kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = ScipyPchip(x, v, extrapolate=False)(p)
        got = PchipInterpolator(x, v)(p)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["random", "flat", "sign-changing",
                                      "two-node", "signed-zeros"])
    def test_cached_cells_match_scipy(self, kind):
        """The oracle's path: cells found once, coefficients built into
        reused nodes (after a build of other data), evaluated with 0
        outside the nodes."""
        from scipy.interpolate import PchipInterpolator as ScipyPchip

        x, v, p = _pchip_case(kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = ScipyPchip(x, v, extrapolate=False)(p)
        want = np.where(np.isnan(want), 0.0, want)
        nodes, cells = _Nodes(x), _cells(x, p)
        PchipInterpolator(x, v[::-1].copy(), nodes)
        interp = PchipInterpolator(x, v, nodes)
        got = _at(interp._c, cells, 0.0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(data=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=24),
           steps=st.lists(st.floats(1e-3, 10.0), min_size=23, max_size=23))
    def test_no_overshoot(self, data, steps):
        """Every value between two nodes lies inside the pair's range, up
        to the rounding of the cubic's four terms (each interval is
        monotone), so non-negative data give non-negative values."""
        v = np.array(data)
        x = np.concatenate([[0.0], np.cumsum(steps[:v.size - 1])])
        frac = np.linspace(0.0, 1.0, 17)
        p = np.minimum(x[:-1, None] + frac * np.diff(x)[:, None], x[1:, None])
        got = PchipInterpolator(x, v)(p.ravel()).reshape(p.shape)
        lo = np.minimum(v[:-1], v[1:])[:, None]
        hi = np.maximum(v[:-1], v[1:])[:, None]
        slack = 1e-14 * hi
        assert np.all((got >= lo - slack) & (got <= hi + slack))

"""Order fits, cluster detection, limit predictions, preservation verdicts."""

import dataclasses
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenopart as pp
from phenopart.model import pair_sum


class TestOrderFit:
    def test_exact_power_laws(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        for p in (0.5, 1.0, 2.0):
            fit = pp.fit_convergence_order([(h, 3.0 * h ** p) for h in hs])
            assert fit.order == pytest.approx(p, abs=1e-12)
            assert fit.max_residual < 1e-12
        fit = pp.fit_convergence_order([(h, h ** 2) for h in hs])
        assert fit.order == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_pairs(self):
        with pytest.raises(pp.AnalysisError, match="at least 3"):
            pp.fit_convergence_order([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(pp.AnalysisError, match="decreasing"):
            pp.fit_convergence_order([(0.05, 1.0), (0.1, 0.5), (0.2, 0.1)])
        with pytest.raises(pp.AnalysisError):
            pp.fit_convergence_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])
        # distinct h whose logarithms round to one value give no slope
        h = 1e300
        with pytest.raises(pp.AnalysisError, match="one logarithm"):
            pp.fit_convergence_order([(h * (1 + 4e-16), 1.0),
                                      (h * (1 + 2e-16), 2.0), (h, 3.0)])

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(3, 8))
    def test_matches_polyfit(self, seed, n):
        """The closed-form line is np.polyfit's to rounding."""
        rng = np.random.default_rng(seed)
        hs = np.sort(rng.uniform(1e-4, 1.0, n))[::-1]
        es = np.exp(rng.uniform(-20.0, 5.0, n))
        fit = pp.fit_convergence_order(list(zip(hs, es)))
        L, E = np.log(hs), np.log(es)
        slope, intercept = np.polyfit(L, E, 1)
        resid = np.max(np.abs(E - (slope * L + intercept)))
        assert fit.order == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.max_residual == pytest.approx(resid, rel=1e-12, abs=1e-12)

    def test_calls_no_polyfit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.polyfit was called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        fit = pp.fit_convergence_order([(0.1, 0.3), (0.05, 0.1),
                                        (0.025, 0.04)])
        assert 1.0 < fit.order < 2.0


def _flat_oracle(value=0.5, dx=0.05):
    prof = pp.build_profile("const", value=value, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=dx, dt=1e-2)
    return pp.solve_reference(model, prof, cfg, 0.0)


def test_weighted_pointwise_error_by_hand():
    sol = _flat_oracle()
    ens = pp.ParticleEnsemble(
        time=0.0, positions=np.array([[0.25], [0.75]]),
        volumes=np.array([0.1, 0.2]),
        intensities=np.array([0.4, 0.9]), h=0.5)
    # |0.5-0.4|*0.1 + |0.5-0.9|*0.2
    got = pp.weighted_pointwise_error(ens, sol)
    assert got == pytest.approx(0.09, abs=1e-12)


def test_weighted_pointwise_error_needs_covering_grid():
    sol = _flat_oracle()
    ens = pp.ParticleEnsemble(
        time=0.0, positions=np.array([[1.5]]), volumes=np.array([0.1]),
        intensities=np.array([1.0]), h=0.5)
    with pytest.raises(pp.AnalysisError, match="oracle grid"):
        pp.weighted_pointwise_error(ens, sol)


def test_single_cluster_detection_and_residuals():
    """Selection concentrates everything at x = 1 where r is largest and
    the advection rests; the limit mass solves R(1, rho) = 0."""
    prof = pp.build_profile("const6")
    model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
    ens = pp.partition_support(prof, model, 1 / 200, T=30.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=30.0, dt=2e-3))
    rep = pp.detect_limit_clusters(traj)
    assert rep.conclusive
    assert len(rep.clusters) == 1
    center, mass = rep.clusters[0]
    assert center[0] == pytest.approx(1.0, abs=1e-3)
    assert mass == pytest.approx(5.5, abs=1e-3)
    assert pp.predict_limit_mass(model, [1.0]) == pytest.approx(5.5,
                                                                abs=1e-10)
    res = pp.check_dirac_necessary_conditions(model, rep.clusters)
    assert len(res) == 1
    assert res[0].advection_residual <= 1e-3
    assert res[0].growth_residual <= 1e-2
    assert res[0].mutation_residual == 0.0


def test_unsettled_run_is_inconclusive():
    prof = pp.build_profile("const6")
    model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
    ens = pp.partition_support(prof, model, 1 / 100, T=1.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=1.0, dt=2e-3))
    rep = pp.detect_limit_clusters(traj)
    assert not rep.conclusive
    assert rep.clusters == ()


def test_two_basins_two_clusters():
    """a = -sin(2 pi x) rests at the half-integers with 0 and 1 stable;
    logistic growth fixes the total mass at 1."""
    sup = pp.Box([0.0], [1.0])

    def advection(t, X, I):
        return -np.sin(2.0 * np.pi * X)

    def advection_div_x(t, X, I):
        return -2.0 * np.pi * np.cos(2.0 * np.pi * X[:, 0])

    def growth(t, X, I):
        return 1.0 - I

    model = pp.ModelSpec(
        name="two-basins", dim=1, advection=advection,
        advection_div_x=advection_div_x, growth=growth,
        kernels_a=(pp.constant_kernel(1.0),),
        kernel_g=pp.constant_kernel(1.0),
        support_v0=sup, a_sup=1.0, I_star=1.5, r_star=0.25)
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    ens = pp.partition_support(prof, model, 1 / 20, T=20.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=20.0, dt=1e-3))
    rep = pp.detect_limit_clusters(traj)
    assert rep.conclusive
    assert len(rep.clusters) == 2
    (c0, m0), (c1, m1) = rep.clusters
    assert c0[0] == pytest.approx(0.0, abs=1e-3)
    assert c1[0] == pytest.approx(1.0, abs=1e-3)
    assert m0 + m1 == pytest.approx(1.0, abs=1e-3)
    assert m0 > 0.1 and m1 > 0.1


def _union_find_groups(pos, tol):
    """The components of the links shorter than tol by union-find over the
    sorted k-d tree pairs: each group ascending, the groups ordered by
    their smallest index."""
    from scipy.spatial import cKDTree

    parent = np.arange(pos.shape[0])

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in sorted(cKDTree(pos).query_pairs(tol)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(pos.shape[0])])
    return [np.flatnonzero(roots == r) for r in np.unique(roots)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
       h=st.sampled_from([0.005, 0.01, 0.02]))
def test_2d_clusters_match_union_find(seed, n, h):
    """On a stationary random cloud, the 2D clusters are those of the
    union-find reference, bit for bit and in the same order."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (n, 2))
    pos[n // 2:] = pos[:n - n // 2]      # exact duplicates link at distance 0
    ens = pp.ParticleEnsemble(
        time=1.0, positions=pos, volumes=rng.uniform(1e-5, 1.0, n),
        intensities=rng.uniform(1e-5, 1.0, n), h=h)
    mass = ens.mass()
    traj = SimpleNamespace(final=ens, dt=0.01, series={
        "t": np.array([0.0, 1.0]), "speed_max": np.zeros(2),
        "mass": np.full(2, mass)})
    rep = pp.detect_limit_clusters(traj)
    alpha = ens.alpha()
    want = []
    for g in _union_find_groups(pos, 10.0 * h):
        m = float(pair_sum(alpha[g]))
        if m >= 1e-3 * mass:
            want.append((pair_sum(alpha[g][:, None] * pos[g], axis=0) / m, m))
    want.sort(key=lambda cm: float(cm[0][0]))
    assert rep.conclusive
    assert len(rep.clusters) == len(want)
    for (center, m), (w_center, w_m) in zip(rep.clusters, want):
        assert center.tobytes() == w_center.tobytes()
        assert m == w_m


def test_four_basins_four_clusters_in_2d():
    """a = -sin(2 pi x) on each axis sends the unit square to its corners;
    the clusters are linked by a k-d tree in d > 1."""
    sup = pp.Box([0.0, 0.0], [1.0, 1.0])

    def advection(t, X, I):
        return -np.sin(2.0 * np.pi * X)

    def advection_div_x(t, X, I):
        return -2.0 * np.pi * np.add.reduce(np.cos(2.0 * np.pi * X), axis=1)

    def growth(t, X, I):
        return 1.0 - I

    model = pp.ModelSpec(
        name="four-basins", dim=2, advection=advection,
        advection_div_x=advection_div_x, growth=growth,
        kernel_g=pp.constant_kernel(1.0),
        support_v0=sup, a_sup=np.sqrt(2.0), I_star=1.5, r_star=0.25)
    prof = pp.InitialDensity(name="unit-square",
                             evaluator=lambda X: np.ones(X.shape[0]),
                             support=sup)
    # pos_tol = 10 h = 0.625 links each corner but no two of them
    ens = pp.partition_support(prof, model, 1 / 16, T=4.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=4.0, dt=1e-3))
    rep = pp.detect_limit_clusters(traj)
    assert rep.conclusive
    assert len(rep.clusters) == 4
    corners = sorted(tuple(np.round(c).tolist()) for c, _m in rep.clusters)
    assert corners == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for center, mass in rep.clusters:
        np.testing.assert_allclose(center, np.round(center), atol=1e-6)
        assert mass == pytest.approx(0.25, rel=1e-6)
    assert sum(m for _c, m in rep.clusters) == pytest.approx(
        rep.total_mass, rel=1e-12)


def test_dirac_conditions_without_mutation_leave_scipy_stats_unloaded():
    """The Dirac conditions must not pay the scipy.stats import: only the
    mutation residual samples, and `Box.sample` draws its points in
    numpy."""
    code = ("import sys, numpy as np, phenopart as pp\n"
            "prof = pp.build_profile('const6')\n"
            "model = pp.build_model('advsel1d', prof.support, r0=6.0, r1=0.5)\n"
            "res = pp.check_dirac_necessary_conditions(\n"
            "    model, [(np.array([1.0]), 5.5)])\n"
            "assert res[0].mutation_residual == 0.0\n"
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pp.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_dirac_conditions_sample_the_mutation():
    """With mutation, the residual is sup |m(x, c, 0)| over the 128 Halton
    points of the padded support box."""
    sup = pp.Box([0.0], [1.0])
    base = pp.build_model("advsel1d", sup)
    model = dataclasses.replace(
        base, mutation=lambda t, X, Y, I: np.exp(-(X[:, :1] - Y[:, 0]) ** 2),
        kernel_d=pp.constant_kernel(1.0), support_m_x=sup, support_m_y=sup,
        M_bar=1.0)
    center = np.array([0.5])
    res = pp.check_dirac_necessary_conditions(model, [(center, 1.0)])
    X = pp.active_box(model, 0.0).expand(0.5).sample(128, seed=3)
    expected = float(np.max(np.exp(-(X[:, 0] - 0.5) ** 2)))
    assert res[0].mutation_residual == expected
    assert res[0].mutation_residual > 0.9


class TestLimitMassPrediction:
    def test_no_root_in_bracket(self):
        prof = pp.build_profile("one-minus-x")
        model = pp.build_model("advsel1d", prof.support)
        # r(1.6) = 6 - 4*1.6 < 0: R < 0 on the whole bracket
        with pytest.raises(pp.PredictionError, match="sign"):
            pp.predict_limit_mass(model, [1.6])

    def test_shape_check(self):
        prof = pp.build_profile("one-minus-x")
        model = pp.build_model("advsel1d", prof.support)
        with pytest.raises(pp.PredictionError, match="single point"):
            pp.predict_limit_mass(model, [[0.5], [0.6]])

    def test_growth_rising_in_I_is_rejected(self):
        """R = 1 + 2I - I^2 changes sign once on the bracket [0, 3] but rises
        on [0, 1]: the prediction refuses it instead of returning the root."""
        prof = pp.build_profile("one-minus-x")
        model = dataclasses.replace(
            pp.build_model("logistic0d", prof.support), I_star=2.0,
            growth=lambda t, X, I: 1.0 + 2.0 * I - I ** 2)
        with pytest.raises(pp.PredictionError,
                           match="growth must be strictly decreasing in I"):
            pp.predict_limit_mass(model, [0.5])


class TestVerdict:
    def test_preserving(self):
        rep = pp.ap_verdict({1 / 100: 0.1, 1 / 200: 0.07, 1 / 400: 0.04})
        assert rep.verdict == "preserving"

    def test_non_preserving(self):
        rep = pp.ap_verdict({1 / 100: 2.40, 1 / 200: 2.39, 1 / 400: 2.39})
        assert rep.verdict == "non_preserving"
        assert "stagnates" in rep.detail

    def test_inconclusive(self):
        rep = pp.ap_verdict({1 / 100: 5e-3, 1 / 400: 4e-3})
        assert rep.verdict == "inconclusive"

    def test_needs_two_levels(self):
        with pytest.raises(pp.AnalysisError):
            pp.ap_verdict({0.01: 0.5})


def test_weak_gap_vanishes_at_matching_data(advsel_profile, advsel_model):
    ens = pp.partition_support(advsel_profile, advsel_model, 1 / 200, T=0.0)
    cfg = pp.ReferenceConfig(x_lo=0.0, x_hi=1.0, dx=1 / 2000, dt=1e-2)
    sol = pp.solve_reference(advsel_model, advsel_profile, cfg, 0.0)
    gap = pp.weak_measure_gap(ens, sol)
    assert gap < 1e-3
    # the same measure against the same density, coarser particles: bigger gap
    ens_coarse = pp.partition_support(advsel_profile, advsel_model,
                                      1 / 25, T=0.0)
    assert pp.weak_measure_gap(ens_coarse, sol) > gap


def test_default_test_function_family():
    tests = pp.default_test_functions(0.0, 2.0)
    assert len(tests) == 7
    tests5 = pp.default_test_functions(0.0, 2.0, count=5)
    assert len(tests5) == 5
    # first of five on [0, 2]: center 0.2, width 0.4
    phi0 = tests5[0]
    x = np.linspace(-0.5, 2.5, 601)
    vals = phi0(x)
    assert np.all(vals[x <= -0.2] == 0.0)
    assert np.all(vals[x >= 0.6] == 0.0)
    assert vals.max() <= 1.0 + 1e-12
    assert phi0(np.array([0.2]))[0] == pytest.approx(1.0)


def test_check_dirac_conditions_empty():
    prof = pp.build_profile("one-minus-x")
    model = pp.build_model("advsel1d", prof.support)
    assert pp.check_dirac_necessary_conditions(model, []) == []

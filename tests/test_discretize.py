"""Lattice discretization, profiles, and midpoint quadrature behavior."""

import numpy as np
import pytest

import phenopart as pp

# integral of exp(1 - 1/(1-x^2)) over (-1, 1): mpmath quad at 40 digits
# gives 1.20690032243787617533..., rounded to the nearest double
BUMP_INTEGRAL = 1.2069003224378763


def midpoint_lattice_sum(f, h, lo=-1.0, hi=1.0):
    """Sum of h*f(cell centers) over the lattice covering [lo, hi]."""
    idx = np.arange(int(np.floor(lo / h)), int(np.ceil(hi / h)))
    centers = (idx + 0.5) * h
    return float(np.add.reduce(h * f(centers)))


def bump(x):
    inside = np.abs(x) < 1.0
    u = np.where(inside, x, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - u ** 2)), 0.0)


class TestMidpointQuadrature:
    def test_smooth_compact_function_is_superalgebraic(self):
        """For a function all of whose derivatives vanish at the support
        edge, midpoint sums converge faster than any fixed power."""
        hs = [1 / 50, 1 / 100, 1 / 200, 1 / 400]
        errs = [abs(midpoint_lattice_sum(bump, h) - BUMP_INTEGRAL)
                for h in hs]
        # orders fitted on the first pairs only: the finer ones sit at
        # machine precision already
        order01 = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert errs[0] < 1e-8
        assert order01 > 4.0
        assert errs[-1] < 1e-13

    def test_quadratic_converges_at_order_two(self):
        """Companion case with a non-vanishing second derivative: the
        midpoint error is exactly h^2/12 * |f''| here."""
        exact = 1.0 / 6.0
        f = lambda x: np.where((x >= 0) & (x <= 1), x * (1 - x), 0.0)
        hs = [1 / 50, 1 / 100, 1 / 200, 1 / 400]
        errs = []
        for h in hs:
            got = midpoint_lattice_sum(f, h, 0.0, 1.0)
            err = abs(got - exact)
            # f'' = -2, every cell contributes h^3/24 * f''
            assert err == pytest.approx(h * h / 12.0, rel=1e-9)
            errs.append(err)
        fit = pp.fit_convergence_order(list(zip(hs, errs)))
        assert fit.order == pytest.approx(2.0, abs=1e-6)


class TestPartition:
    def test_unit_interval_four_cells(self, advsel_model):
        prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
        ens = pp.partition_support(prof, advsel_model, 0.25, T=0.0)
        np.testing.assert_allclose(ens.positions[:, 0],
                                   [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(ens.volumes, 0.25)
        np.testing.assert_allclose(ens.intensities, 1.0)
        assert ens.mass() == pytest.approx(1.0, abs=1e-15)

    def test_density_profile_count(self, advsel_profile, advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model,
                                   1 / 5000, T=0.0)
        assert ens.n == 5000
        # lattice cell centers carry the point values of the density
        np.testing.assert_allclose(
            ens.intensities, 1.0 - ens.positions[:, 0], atol=1e-14)

    def test_const6_mass_is_exact(self):
        prof = pp.build_profile("const6")
        model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
        ens = pp.partition_support(prof, model, 1 / 2000, T=0.0)
        assert ens.n == 1900
        assert ens.mass() == pytest.approx(5.7, abs=1e-12)

    def test_empty_support_rejected(self, advsel_model):
        # the one cell of [0.2, 0.4] at h = 1 has its center 0.5 outside
        # the bump's support
        prof = pp.build_profile("bump", center=0.3, width=0.1)
        with pytest.raises(pp.DiscretizationError, match="no particles"):
            pp.partition_support(prof, advsel_model, 1.0, T=0.0)

    @pytest.mark.parametrize("name, params", [
        ("const", {"value": 0.0}), ("const", {"value": -1.0}),
        ("bump", {"width": 0.0}), ("bump", {"scale": 0.0}),
        ("bump", {"scale": -1.0}), ("bump", {"center": [0.5, 0.5],
                                             "width": [0.3, 0.0]}),
        ("bump-pair", {"width": 0.0}), ("bump-pair", {"scale": -1.0}),
    ])
    def test_non_positive_parameters_rejected(self, name, params):
        key = "width" if "width" in params else next(iter(params))
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            pp.build_profile(name, **params)

    def test_cell_cap(self, advsel_profile, advsel_model):
        with pytest.raises(pp.DiscretizationError, match="cells"):
            pp.partition_support(advsel_profile, advsel_model, 1e-9, T=0.0)

    def test_zero_cells_kept_inside_mutation_source(self):
        # a density vanishing on part of the mutation source support:
        # those cells must stay (they can gain intensity later)
        prof = pp.build_profile("const", value=2.0, lo=0.0, hi=0.5)
        base = pp.build_model("advsel1d", prof.support)
        model = pp.ModelSpec(
            name="mut", dim=1, advection=base.advection,
            advection_div_x=base.advection_div_x, growth=base.growth,
            kernels_a=base.kernels_a, kernel_g=base.kernel_g,
            support_v0=prof.support, a_sup=base.a_sup,
            mutation=lambda t, X, Y, I: np.full(
                (X.shape[0], Y.shape[0]), 0.05),
            kernel_d=pp.constant_kernel(1.0),
            support_m_x=pp.Box([0.0], [1.0]),
            support_m_y=pp.Box([0.0], [1.0]),
            I_star=base.I_star, M_bar=0.05, K_const=0.1, r_star=0.25)
        ens = pp.partition_support(prof, model, 0.25, T=0.0)
        assert ens.n == 4
        assert np.count_nonzero(ens.intensities) == 2


@pytest.mark.parametrize("profile, model, h", [
    ("const6", "advsel1d", 1 / 100),
    ("one-minus-x", "advsel1d", 1 / 100),
    ("bump", "nldrift1d", 1 / 100),
    ("bump-pair", "twotrait2d", 2 / 100),
])
def test_lattice_does_not_depend_on_T_without_mutation(profile, model, h):
    """Without mutation no empty cell can gain mass, so the horizon never
    enters the partition."""
    prof = pp.build_profile(profile)
    spec = pp.build_model(model, prof.support)
    ens = [pp.partition_support(prof, spec, h, T=T) for T in (0.0, 1.0, 40.0)]
    for other in ens[1:]:
        for a, b in ((ens[0].positions, other.positions),
                     (ens[0].volumes, other.volumes),
                     (ens[0].intensities, other.intensities)):
            assert a.tobytes() == b.tobytes()


class TestMutationCheck:
    def test_no_mutation_is_trivially_ok(self, advsel_profile, advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model, 0.1, T=0.0)
        chk = pp.check_mutation_discretization(ens, advsel_model,
                                               [0.0], ens.positions)
        assert chk.ok
        assert bool(chk)

    def test_violated_bound_reports_witness(self):
        prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
        base = pp.build_model("advsel1d", prof.support)
        model = pp.ModelSpec(
            name="hot-mutation", dim=1, advection=base.advection,
            advection_div_x=base.advection_div_x, growth=base.growth,
            kernels_a=base.kernels_a, kernel_g=base.kernel_g,
            support_v0=prof.support, a_sup=base.a_sup,
            mutation=lambda t, X, Y, I: np.full(
                (X.shape[0], Y.shape[0]), 50.0),
            kernel_d=pp.constant_kernel(1.0),
            support_m_x=pp.Box([0.0], [1.0]),
            support_m_y=pp.Box([0.0], [1.0]),
            I_star=base.I_star, M_bar=50.0, K_const=1.0, r_star=0.25)
        ens = pp.partition_support(prof, model, 0.25, T=0.0)
        chk = pp.check_mutation_discretization(ens, model,
                                               [0.0, 1.0], ens.positions)
        assert not chk.ok
        assert chk.worst > chk.bound
        assert chk.witness is not None


class TestProfiles:
    def test_named_profiles_cover_unit_interval(self):
        for name in ("one-minus-x", "x-one-minus-x", "x-squared"):
            prof = pp.build_profile(name)
            np.testing.assert_allclose(prof.support.lo, [0.0])
            np.testing.assert_allclose(prof.support.hi, [1.0])
            assert prof(np.array([[-0.5]]))[0] == 0.0
            assert prof(np.array([[1.5]]))[0] == 0.0

    def test_profile_values(self):
        x = np.array([[0.25]])
        assert pp.build_profile("one-minus-x")(x)[0] == pytest.approx(0.75)
        assert pp.build_profile("x-one-minus-x")(x)[0] == pytest.approx(
            0.25 * 0.75)
        assert pp.build_profile("x-squared")(x)[0] == pytest.approx(0.0625)

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            pp.build_profile("missing-profile")


def test_active_box_growth(advsel_profile, advsel_model):
    box0 = pp.active_box(advsel_model, T=0.0)
    box2 = pp.active_box(advsel_model, T=2.0)
    width0 = float(box0.hi[0] - box0.lo[0])
    width2 = float(box2.hi[0] - box2.lo[0])
    # widening is exactly twice the horizon times the speed bound per side
    assert width2 - width0 == pytest.approx(
        2 * 2 * advsel_model.a_sup * 2.0, rel=1e-12)

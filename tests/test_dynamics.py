"""Particle integrator: closed forms, cross-checks, monitors, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import phenopart as pp
from conftest import make_ensemble

# 1 / (1 + e^-5), logistic mass at t = 5 from rho0 = 1/2, r0 = 1
LOGISTIC_RHO_5 = 0.9933071490757153
EXP_MINUS_1 = 0.36787944117144233


def test_logistic_total_mass():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=0.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=5.0, dt=1e-3))
    assert traj.mass_at_final() == pytest.approx(LOGISTIC_RHO_5, abs=1e-6)
    # RK4 at this step size actually sits far below the required tolerance
    assert abs(traj.mass_at_final() - LOGISTIC_RHO_5) < 1e-11


def test_linear_advection_closed_forms():
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    pos = np.array([[2.0], [1.0], [-0.5]])
    ens = pp.ParticleEnsemble(
        time=0.0, positions=pos, volumes=np.array([0.1, 0.2, 0.3]),
        intensities=np.array([1.0, 2.0, 3.0]), h=0.1)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=1.0, dt=1e-3))
    fin = traj.final
    # x(t) = x0 e^-t, w(t) = w0 e^-t, nu(t) = nu0 e^t; alpha is conserved
    np.testing.assert_allclose(fin.positions, pos * EXP_MINUS_1, atol=1e-8)
    assert fin.positions[0, 0] == pytest.approx(0.7357588823428847, abs=1e-8)
    np.testing.assert_allclose(fin.volumes,
                               ens.volumes * EXP_MINUS_1, atol=1e-8)
    np.testing.assert_allclose(fin.intensities,
                               ens.intensities * np.e, atol=1e-7)
    assert fin.mass() == pytest.approx(ens.mass(), abs=1e-12)


def test_rk4_matches_scipy_reference(advsel_profile, advsel_model):
    """Same right-hand side handed to an adaptive high-accuracy integrator."""
    ens = pp.partition_support(advsel_profile, advsel_model, 1 / 16, T=0.5)
    n, d = ens.n, ens.dim

    def packed_rhs(t, y):
        x = y[:n * d].reshape(n, d)
        w = y[n * d:n * d + n]
        nu = y[n * d + n:]
        state = pp.ParticleEnsemble(time=t, positions=x, volumes=w,
                                    intensities=nu, h=ens.h,
                                    index_set=ens.index_set)
        dx, dw, dnu = pp.rhs(advsel_model, state)
        return np.concatenate([dx.ravel(), dw, dnu])

    y0 = np.concatenate([ens.positions.ravel(), ens.volumes,
                         ens.intensities])
    sol = solve_ivp(packed_rhs, (0.0, 0.5), y0, method="RK45",
                    rtol=1e-12, atol=1e-14)
    traj = pp.integrate(advsel_model, ens, pp.RunConfig(t_final=0.5, dt=1e-3))
    ref = sol.y[:, -1]
    np.testing.assert_allclose(traj.final.positions.ravel(),
                               ref[:n * d], atol=1e-8)
    np.testing.assert_allclose(traj.final.volumes,
                               ref[n * d:n * d + n], atol=1e-8)
    np.testing.assert_allclose(traj.final.intensities,
                               ref[n * d + n:], atol=1e-8)


def test_integration_is_bitwise_deterministic(advsel_profile, advsel_model):
    ens = pp.partition_support(advsel_profile, advsel_model, 1 / 40, T=0.3)
    cfg = pp.RunConfig(t_final=0.3, dt=2e-3)
    a = pp.integrate(advsel_model, ens, cfg)
    b = pp.integrate(advsel_model, ens, cfg)
    assert a.final.positions.tobytes() == b.final.positions.tobytes()
    assert a.final.volumes.tobytes() == b.final.volumes.tobytes()
    assert a.final.intensities.tobytes() == b.final.intensities.tobytes()
    assert a.series["mass"].tobytes() == b.series["mass"].tobytes()


def test_zero_intensity_particles_do_not_alter_dynamics():
    """Carrying empty cells may only perturb the rest at roundoff level."""
    prof = pp.build_profile("const", value=2.0, lo=0.3, hi=0.7)
    model = pp.build_model("advsel1d", pp.Box([0.0], [1.0]))
    lean = pp.partition_support(prof, model, 0.1, T=1.0)
    full = pp.partition_support(prof, model, 0.1, T=1.0, drop_empty=False)
    assert full.n > lean.n
    mask = full.intensities != 0.0
    assert int(np.count_nonzero(mask)) == lean.n
    cfg = pp.RunConfig(t_final=1.0, dt=1e-3)
    traj_lean = pp.integrate(model, lean, cfg)
    traj_full = pp.integrate(model, full, cfg)
    np.testing.assert_allclose(traj_full.final.positions[mask],
                               traj_lean.final.positions, atol=1e-13)
    np.testing.assert_allclose(traj_full.final.intensities[mask],
                               traj_lean.final.intensities, atol=1e-12)
    carried = traj_full.final.intensities[~mask]
    np.testing.assert_array_equal(carried, 0.0)


def test_negative_intensity_aborts():
    support = pp.Box([0.0], [1.0])

    def zero_field(t, X, I):
        return np.zeros_like(X)

    def zero_scalar(t, X, I):
        return np.zeros(X.shape[0])

    def lopsided_growth(t, X, I):
        # right half keeps producing mass while the negative mutation
        # drains the left half below zero
        return np.where(X[:, 0] > 0.5, 10.0, 0.0)

    model = pp.ModelSpec(
        name="sink", dim=1, advection=zero_field,
        advection_div_x=zero_scalar, growth=lopsided_growth,
        kernels_a=(pp.constant_kernel(1.0),),
        kernel_g=pp.constant_kernel(1.0),
        support_v0=support, a_sup=0.0,
        mutation=lambda t, X, Y, I: np.full((X.shape[0], Y.shape[0]), -5.0),
        kernel_d=pp.constant_kernel(1.0),
        support_m_x=support, support_m_y=support,
        M_bar=5.0)
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=0.5)
    with pytest.raises(pp.IntegrationError, match="negative intensity"):
        pp.integrate(model, ens, pp.RunConfig(t_final=0.5))


@pytest.mark.parametrize("t_final", [0.0, 1.0])
def test_empty_ensemble_is_rejected(advsel_model, t_final):
    empty = pp.ParticleEnsemble(time=0.0, positions=np.zeros((0, 1)),
                                volumes=np.zeros(0), intensities=np.zeros(0),
                                h=0.1)
    with pytest.raises(pp.IntegrationError, match="empty ensemble"):
        pp.integrate(advsel_model, empty, pp.RunConfig(t_final=t_final))


class TestBookkeeping:
    def test_zero_horizon_returns_initial_state(self, advsel_profile,
                                                advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model, 0.25, T=0.0)
        traj = pp.integrate(advsel_model, ens, pp.RunConfig(t_final=0.0))
        assert traj.n_steps == 0
        assert len(traj.snapshots) == 1
        assert traj.final.positions.tobytes() == ens.positions.tobytes()
        assert traj.series["t"].shape == (1,)
        assert traj.monitors.ok

    def test_snapshot_cadence(self, advsel_profile, advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model, 0.25, T=0.1)
        traj = pp.integrate(advsel_model, ens,
                            pp.RunConfig(t_final=0.1, dt=0.01,
                                         snapshot_every=5))
        assert traj.n_steps == 10
        assert [s.time for s in traj.snapshots] == pytest.approx(
            [0.0, 0.05, 0.1])

    def test_series_off(self, advsel_profile, advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model, 0.25, T=0.1)
        traj = pp.integrate(advsel_model, ens,
                            pp.RunConfig(t_final=0.1, dt=0.01,
                                         record_series=False))
        assert traj.series["mass"].shape == (1,)

    def test_default_dt_respects_cell_crossing(self):
        assert pp.default_dt(1.0, 0.0) == 1e-3
        assert pp.default_dt(0.01, 10.0) == pytest.approx(0.0005)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(5, 60))
def test_monitors_hold_on_random_clouds(advsel_model, seed, n):
    """Mass stays under max(initial, saturation) and particles never
    outrun the declared speed bound, whatever the starting cloud."""
    ens = make_ensemble(n, seed=seed)
    traj = pp.integrate(advsel_model, ens, pp.RunConfig(t_final=0.2, dt=5e-3))
    rep = traj.monitors
    assert rep.ok
    bound = max(ens.mass(), advsel_model.mass_bound_factor)
    assert rep.mass_bound == pytest.approx(bound)
    assert np.all(traj.series["mass"] <= bound + 1e-6 * 1.2)
    disp = np.abs(traj.final.positions - ens.positions).max()
    assert disp <= advsel_model.a_sup * 0.2 + 1e-9

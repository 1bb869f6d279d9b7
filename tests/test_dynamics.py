"""Particle integrator: closed forms, cross-checks, monitors, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import phenopart as pp
from phenopart import dynamics
from phenopart.model import (advection_inputs, divergence_field,
                             nonlocal_field, velocity_field)
from conftest import make_ensemble

# 1 / (1 + e^-5), logistic mass at t = 5 from rho0 = 1/2, r0 = 1
LOGISTIC_RHO_5 = 0.9933071490757153
EXP_MINUS_1 = 0.36787944117144233


def test_logistic_total_mass():
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=0.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=5.0, dt=1e-3))
    assert traj.final.mass() == pytest.approx(LOGISTIC_RHO_5, abs=1e-6)
    # RK4 at this step size actually sits far below the required tolerance
    assert abs(traj.final.mass() - LOGISTIC_RHO_5) < 1e-11


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


MOMENT_DRIFT_C, MOMENT_DRIFT_T = 0.5, 0.5


def _moment_drift(h):
    """The bump at (0.3, 0.2) under a_k = -x_k - c I_k to T: the initial
    ensemble, its mass M and moments I0, and the final state."""
    c, T = MOMENT_DRIFT_C, MOMENT_DRIFT_T
    prof = pp.build_profile("bump", center=(0.3, 0.2), width=0.5)
    model = pp.ModelSpec(
        name="moment-drift", dim=2,
        advection=lambda t, X, I: -X - c * I,
        advection_div_x=lambda t, X, I: np.full(X.shape[0], -2.0),
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernels_a=(pp.moment_kernel(0), pp.moment_kernel(1)),
        kernel_g=pp.constant_kernel(1.0),
        support_v0=prof.support, a_sup=2.5)
    ens = pp.partition_support(prof, model, h, T=T)
    fin = pp.integrate(model, ens, pp.RunConfig(t_final=T, dt=1e-2)).final
    return prof, ens, ens.mass(), ens.alpha() @ ens.positions, fin


@pytest.mark.parametrize("h", [1 / 10, 1 / 20])
def test_twotrait_moment_drift_closed_form(h):
    """a_k = -x_k - c I_k with R = 0 keeps the mass M, and the moments obey
    I_k' = -(1 + cM) I_k, so each particle follows
    x(T) = e^-T (x0 - c I0 (1 - e^(-cMT)) / (cM)); div a = -2 gives
    w0 e^(-2T) and nu0 e^(2T).  A wrong moment kernel, moment input or
    divergence moves the particles off this path."""
    c, T = MOMENT_DRIFT_C, MOMENT_DRIFT_T
    _prof, ens, M, I0, fin = _moment_drift(h)
    expected = np.exp(-T) * (ens.positions
                             - c * I0 * (1.0 - np.exp(-c * M * T)) / (c * M))
    np.testing.assert_allclose(fin.positions, expected, rtol=0, atol=1e-9)
    np.testing.assert_allclose(fin.volumes, ens.volumes * np.exp(-2 * T),
                               rtol=1e-8)
    np.testing.assert_allclose(fin.intensities,
                               ens.intensities * np.exp(2 * T), rtol=1e-8)


def test_twotrait_moment_drift_reconstruction_converges():
    """The `gaussian4` reconstruction at eps = h^0.8 against the closed
    form v(T, x) = v0(x e^T + (I0 / M)(1 - e^(-cMT))) e^(2T): the L1 error
    on a 141 x 141 grid of [-1, 1]^2 falls at every halving of h, with a
    rising local order (about 1.52e-1, 5.40e-2 and 1.72e-2)."""
    c, T = MOMENT_DRIFT_C, MOMENT_DRIFT_T
    g = np.linspace(-1.0, 1.0, 141)
    grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    errors = []
    for h in (1 / 10, 1 / 20, 1 / 40):
        prof, _ens, M, I0, fin = _moment_drift(h)
        foot = grid * np.exp(T) + (I0 / M) * (1.0 - np.exp(-c * M * T))
        exact = prof(foot) * np.exp(2 * T)
        recon = pp.reconstruct(fin, pp.CUTOFFS["gaussian4"],
                               pp.epsilon_rule(h, 0.8), grid)
        errors.append(float(np.sum(np.abs(recon - exact))) * (g[1] - g[0]) ** 2)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert errors[0] < 0.2
    assert np.all(orders > 1.0)
    assert orders[1] > orders[0]


def test_nldrift_closed_form():
    """a = drift0 - m and R = r0 - m with m the mass: the mass is logistic,
    m' = (r0 - m) m, every particle moves by drift0 T - int m =
    drift0 T - ln(1 + m0 (e^(r0 T) - 1) / r0), nu scales by m(T) / m0 and,
    with div a = 0, w stays.  A wrong non-local input moves them off it."""
    T, drift0, r0 = 1.0, 1.0, 1.0
    prof = pp.build_profile("bump", center=0.5, width=0.3)
    model = pp.build_model("nldrift1d", prof.support, drift0=drift0, r0=r0)
    ens = pp.partition_support(prof, model, 1 / 40, T=T)
    m0 = ens.mass()
    fin = pp.integrate(model, ens, pp.RunConfig(t_final=T, dt=1e-2)).final
    grow = np.exp(r0 * T) - 1.0
    mT = r0 * m0 * np.exp(r0 * T) / (r0 + m0 * grow)
    shift = drift0 * T - np.log1p(m0 * grow / r0)
    np.testing.assert_allclose(fin.positions, ens.positions + shift,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(fin.intensities, ens.intensities * mT / m0,
                               rtol=1e-10)
    assert fin.volumes.tobytes() == ens.volumes.tobytes()


def test_rk4_matches_scipy_reference(advsel_profile, advsel_model):
    """The advsel particle system, a = x(1-x) and R = 6 - 4x - mass, written
    out by hand and handed to an adaptive high-accuracy integrator."""
    ens = pp.partition_support(advsel_profile, advsel_model, 1 / 16, T=0.5)
    n, d = ens.n, ens.dim

    def packed_rhs(t, y):
        x, w, nu = y[:n], y[n:2 * n], y[2 * n:]
        div = 1.0 - 2.0 * x
        mass = np.sum(nu * w)
        return np.concatenate([x * (1.0 - x), div * w,
                               (6.0 - 4.0 * x - mass - div) * nu])

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
    # every cell of [0, 1] at h = 0.1, the empty ones included
    centers = (np.arange(10) + 0.5) * 0.1
    full = pp.ParticleEnsemble(0.0, centers[:, None], np.full(10, 0.1),
                               prof(centers[:, None]), h=0.1)
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


def test_mutation_mass_matches_closed_form():
    """Drift a = 1 without growth, v0 = 1 on [0, 0.2] and m = 1/2 for x in
    [1/2, 1], y in [0, 3].  All mass stays in [0, 3], so it grows at rate
    1/2 * |[1/2, 1]| = 1/4: the mass at T = 1 is 0.2 e^(1/4).  The empty
    cells that drift into supp_x m must be kept for that."""
    m_x, m_y = pp.Box([0.5], [1.0]), pp.Box([0.0], [3.0])
    model = pp.ModelSpec(
        name="drift-mutation", dim=1,
        advection=lambda t, X, I: np.ones_like(X),
        advection_div_x=lambda t, X, I: np.zeros(X.shape[0]),
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernel_g=pp.constant_kernel(1.0),
        support_v0=pp.Box([0.0], [0.2]), a_sup=1.0,
        mutation=lambda t, X, Y, I: 0.5 * (
            m_x.contains(X)[:, None] & m_y.contains(Y)[None, :]),
        kernel_d=pp.constant_kernel(1.0),
        support_m_x=m_x, support_m_y=m_y, M_bar=0.5)
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=0.2)
    T = 1.0
    ens = pp.partition_support(prof, model, 1 / 100, T=T)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=T, dt=1e-3))
    assert traj.final.mass() == pytest.approx(0.2 * np.exp(0.25), rel=1e-3)
    rows = dynamics._mutation_rows(model, ens, T)
    # the rows are the lattice centers in supp_x m + a_sup T = [-0.5, 2],
    # and every one of them was kept, so every empty particle is a row
    assert rows.size == 250
    assert np.isin(np.flatnonzero(ens.intensities == 0.0), rows).all()


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


@pytest.mark.parametrize("quantity, particle", [
    ("position", 3),
    # the RK4 combination adds infinities of both signs: the NaN this
    # case is after
    pytest.param("volume", 2, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")),
    ("intensity", 2)])
def test_non_finite_state_names_quantity_and_particle(quantity, particle):
    """One field of the named quantity turns infinite partway through: the
    advection on particle 3 only, the divergence (volumes and intensities
    both go non-finite, volumes are named first) or the growth rate on the
    right half."""
    support = pp.Box([0.0], [1.0])

    def blowup(name):
        """inf where the named quantity's field blows up, else 0."""
        def field(t, X, I):
            x = X[:, 0]
            hit = (x == 0.875) if name == "position" else (x > 0.5)
            return np.where(hit & (t > 0.042) & (name == quantity),
                            np.inf, 0.0)
        return field

    speed = blowup("position")

    def advection(t, X, I):
        return speed(t, X, I)[:, None]

    model = pp.ModelSpec(
        name="blowup", dim=1, advection=advection,
        advection_div_x=blowup("volume"), growth=blowup("intensity"),
        kernels_a=(pp.constant_kernel(1.0),),
        kernel_g=pp.constant_kernel(1.0),
        support_v0=support, a_sup=0.0)
    prof = pp.build_profile("const", value=1.0, lo=0.0, hi=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=0.1)
    assert ens.positions[:, 0].tolist() == [0.125, 0.375, 0.625, 0.875]
    with pytest.raises(pp.IntegrationError) as err:
        pp.integrate(model, ens, pp.RunConfig(t_final=0.1, dt=0.01))
    assert str(err.value) == \
        f"non-finite {quantity} for particle {particle} at t=0.05"


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
        snaps = []
        traj = pp.integrate(advsel_model, ens, pp.RunConfig(t_final=0.0),
                            snapshot=snaps.append)
        assert traj.n_steps == 0
        assert len(snaps) == 1
        assert snaps[0] is traj.initial is traj.final
        assert traj.final.positions.tobytes() == ens.positions.tobytes()
        assert traj.series["t"].shape == (1,)
        assert traj.monitors.ok

    def test_zero_horizon_series_row_is_the_initial_row(self, advsel_profile,
                                                        advsel_model):
        ens = pp.partition_support(advsel_profile, advsel_model, 0.25, T=0.01)
        zero = pp.integrate(advsel_model, ens, pp.RunConfig(t_final=0.0))
        one = pp.integrate(advsel_model, ens,
                           pp.RunConfig(t_final=0.01, dt=0.01))
        assert one.n_steps == 1
        for key, values in zero.series.items():
            assert values.tolist() == [one.series[key][0]], key
        assert zero.series["nu_max"][0] > zero.series["nu_min"][0] > 0.0
        assert zero.dt == pp.default_dt(ens.h, advsel_model.a_sup)
        assert zero.monitors.mass_excess_max == 0.0
        assert zero.monitors.support_excess_max == 0.0

    def test_support_excess_max_is_never_negative(self):
        """The support excess is 0 at t0, so its maximum reads 0 when every
        particle stays strictly inside its reach (here x0 e^{-t})."""
        prof = pp.build_profile("one-minus-x")
        model = pp.build_model("linadv1d", prof.support)
        ens = pp.partition_support(prof, model, 1 / 10, T=0.5)
        traj = pp.integrate(model, ens, pp.RunConfig(t_final=0.5))
        assert traj.n_steps > 0
        assert traj.monitors.support_excess_max == 0.0

    def test_snapshot_cadence(self, advsel_profile, advsel_model):
        """About 40 snapshots: every 130 // 40 = 3 steps, and the last."""
        ens = pp.partition_support(advsel_profile, advsel_model, 0.25, T=1.3)
        snaps = []
        traj = pp.integrate(advsel_model, ens,
                            pp.RunConfig(t_final=1.3, dt=0.01),
                            snapshot=snaps.append)
        assert traj.n_steps == 130
        times = [s.time for s in snaps]
        assert len(times) == 45
        assert times[:3] == pytest.approx([0.0, 0.03, 0.06])
        assert times[-2:] == pytest.approx([1.29, 1.3])

    def test_series_costs_its_float64_array(self, advsel_profile,
                                            advsel_model):
        """A 10 000-step run keeps its series as one float64 array and no
        object per step: the traced peak stays under twice the bytes of
        the series (a list of per-step tuples of Python floats took about
        7 times as much).  Each series value is a C-contiguous float64
        row, as the tobytes() comparisons need."""
        ens = pp.partition_support(advsel_profile, advsel_model, 1 / 20,
                                   T=10.0)
        run = pp.RunConfig(t_final=10.0, dt=1e-3)
        tracemalloc.start()
        try:
            traj = pp.integrate(advsel_model, ens, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.n == 20 and traj.n_steps == 10_000
        series_bytes = 7 * 8 * (traj.n_steps + 1)
        assert peak < 2 * series_bytes
        assert len(traj.series) == 7
        for key, values in traj.series.items():
            assert values.dtype == np.float64, key
            assert values.shape == (traj.n_steps + 1,), key
            assert values.flags.c_contiguous, key

    def test_no_callback_keeps_no_snapshot(self, advsel_profile,
                                           advsel_model):
        """Without a callback the run holds no snapshot: at n = 4000 and
        400 steps (41 snapshots, 96 kB each) the traced peak stays under
        the bytes of one copy of them all."""
        ens = pp.partition_support(advsel_profile, advsel_model, 1 / 4000,
                                   T=0.04)
        run = pp.RunConfig(t_final=0.04, dt=1e-4)
        tracemalloc.start()
        try:
            traj = pp.integrate(advsel_model, ens, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.n == 4000 and traj.n_steps == 400
        snapshot_bytes = (ens.positions.nbytes + ens.volumes.nbytes
                          + ens.intensities.nbytes)
        assert peak < 41 * snapshot_bytes

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


# ---------------------------------------------------------------------------
# the step loop against the expression-per-stage loop it replaced


def _reference_stage(model, t, S, mut_rows):
    """The stage right-hand side with fresh arrays: C-contiguous points
    copied from the state, alpha = nu * w, K, div * w, (R - div) * nu and
    the mutation sum, taken in C order."""
    d = S.shape[0] - 2
    x = np.ascontiguousarray(S[:d].T)
    w, nu = S[d], S[d + 1]
    alpha = nu * w
    I = advection_inputs(model, t, x, x, alpha)
    K = np.empty_like(S)
    K[:d] = velocity_field(model, t, x, I).T
    div = divergence_field(model, t, x, x, alpha, I)
    I_g = nonlocal_field(model.kernel_g, t, x, x, alpha)
    R = np.asarray(model.growth(t, x, I_g), dtype=float)
    K[d] = div * w
    K[d + 1] = (R - div) * nu
    if mut_rows.size:
        cols = np.flatnonzero(model.support_m_y.contains(x))
        if cols.size:
            I_d = nonlocal_field(model.kernel_d, t, x[mut_rows], x, alpha)
            M = np.asarray(model.mutation(t, x[mut_rows], x[cols], I_d))
            K[d + 1, mut_rows] += pp.pair_sum(
                np.ascontiguousarray(M * alpha[cols][None, :]), axis=-1)
    return K


def _reference_steps(model, ens0, dt, n_steps, snap_every):
    """Series, snapshots and support excess from a plain RK4 loop: fresh
    arrays per stage, stage input and update, np.min / np.max monitors
    and a finiteness check of the whole state."""
    S = dynamics._pack(ens0)
    x0, d, t0 = ens0.positions, ens0.dim, ens0.time
    mut_rows = dynamics._mutation_rows(model, ens0, n_steps * dt)
    rows = [(t0, ens0.mass(), np.min(S[d + 1]), np.max(S[d + 1]),
             np.min(S[d]), np.max(S[d]), 0.0)]
    snapshots = [ens0.copy()]
    support_excess = 0.0
    for step in range(n_steps):
        t = t0 + step * dt
        k1 = _reference_stage(model, t, S, mut_rows)
        v = np.ascontiguousarray(k1[:d].T)
        speed_max = float(np.max(np.sqrt(pp.pair_sum(v * v, axis=-1))))
        k2 = _reference_stage(model, t + 0.5 * dt, S + 0.5 * dt * k1,
                              mut_rows)
        k3 = _reference_stage(model, t + 0.5 * dt, S + 0.5 * dt * k2,
                              mut_rows)
        k4 = _reference_stage(model, t + dt, S + dt * k3, mut_rows)
        S = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.isfinite(S).all()
        t_next = t0 + (step + 1) * dt
        x, w, nu = np.ascontiguousarray(S[:d].T), S[d], S[d + 1]
        disp = np.sqrt(pp.pair_sum((x - x0) ** 2, axis=-1))
        support_excess = max(support_excess, float(np.max(disp))
                             - model.a_sup * (t_next - t0))
        rows.append((t_next, float(pp.pair_sum(nu * w)), float(np.min(nu)),
                     float(np.max(nu)), float(np.min(w)), np.max(w),
                     speed_max))
        if (step + 1) % snap_every == 0 or step + 1 == n_steps:
            snapshots.append(pp.ParticleEnsemble(
                time=t_next, positions=x.copy(), volumes=w.copy(),
                intensities=nu.copy(), h=ens0.h))
    series = [np.array(col, dtype=float) for col in zip(*rows)]
    return series, snapshots, support_excess


@pytest.mark.parametrize("d", range(1, 11))
def test_max_norm_sums_components_like_pair_sum(d):
    """The (d, n) buffer of squares gives the bits of pair_sum(..., axis=-1)
    over its (n, d) transpose, below and above numpy's 8-term block."""
    rng = np.random.default_rng(d)
    sq = (rng.standard_normal((d, 500))
          * 10.0 ** rng.integers(-8, 8, (d, 500))) ** 2
    want = np.max(np.sqrt(pp.pair_sum(np.ascontiguousarray(sq.T), axis=-1)))
    assert dynamics._max_norm(sq) == want


@pytest.mark.parametrize("dim", [1, 2])
def test_state_rows_are_contiguous(dim):
    """Row passes on the packed state stay contiguous in every dimension."""
    S = dynamics._pack(make_ensemble(20, dim=dim))
    assert S.shape == (dim + 2, 20)
    assert S.flags.c_contiguous


def _mutation_toy(support):
    """advsel1d with a Gaussian mutation kernel whose x- and y-supports
    cover part of the lattice, so both row and column pruning act.  The
    x-support reaches past the profile, whose empty cells there are kept
    as rows; the kernel is cut to zero for x > 1, where the flow keeps
    them, so their intensities stay exact zeros."""
    base = pp.build_model("advsel1d", support)

    def mutation(t, X, Y, I):
        gauss = 0.5 * np.exp(-(X[:, :1] - Y[:, 0][None, :]) ** 2 / 0.01)
        return np.where(X[:, :1] <= 1.0, gauss, 0.0) / (1.0 + I[:, None])

    return pp.ModelSpec(
        name="mutation-toy", dim=1, advection=base.advection,
        advection_div_x=base.advection_div_x, growth=base.growth,
        kernel_g=base.kernel_g, support_v0=support, a_sup=base.a_sup,
        mutation=mutation, kernel_d=pp.constant_kernel(1.0),
        support_m_x=pp.Box([0.2], [1.2]), support_m_y=pp.Box([0.1], [0.6]),
        M_bar=0.5)


def _gauss2d(t, X, Y):
    """exp(-|x - y|^2 / 0.1) for points in R^2."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.exp(-np.sum(diff * diff, axis=-1) / 0.1)


def _model_2d(name, support):
    """Selection R = 0.5 - I_g in 2D: with twotrait2d's non-local drift
    and a graded Gaussian growth kernel ("graded2d"), or with the
    contraction a = -x, a constant growth kernel and a Gaussian mutation
    kernel returned in F order ("mutation2d"), whose x-support keeps the
    mutation rows to part of the lattice."""
    R = dict(growth=lambda t, X, I: 0.5 - I)
    if name == "graded2d":
        return dataclasses.replace(
            pp.build_model("twotrait2d", support), name=name,
            kernel_g=pp.Kernel("gauss2d", _gauss2d), **R)
    m_x = pp.Box([-0.85, -0.35], [-0.15, 0.35])

    def mutation(t, X, Y, I):
        gauss = np.where(m_x.contains(X)[:, None], _gauss2d(t, X, Y), 0.0)
        return np.asfortranarray(0.5 * gauss / (1.0 + I[:, None]))

    return dataclasses.replace(
        pp.build_model("linadv1d", support), name=name, mutation=mutation,
        kernel_d=pp.constant_kernel(1.0), support_m_x=m_x,
        support_m_y=pp.Box([-1.0, -1.0], [1.0, 0.0]), M_bar=0.5, **R)


def _case(name):
    if name in ("graded2d", "mutation2d"):
        prof = pp.build_profile("bump-pair")
        return prof, _model_2d(name, prof.support), 1 / 10
    if name == "twotrait2d":
        prof = pp.build_profile("bump-pair")
        return prof, pp.build_model("twotrait2d", prof.support), 1 / 10
    if name == "nldrift1d":
        prof = pp.build_profile("bump", center=0.5, width=0.4)
        return prof, pp.build_model("nldrift1d", prof.support), 1 / 40
    if name == "linadv3d":
        # the only d = 3 case: pins the sums over the components of the
        # speed and displacement squares
        prof = pp.build_profile("bump", center=[0.5] * 3, width=0.3)
        return prof, pp.build_model("linadv1d", prof.support), 1 / 10
    prof = pp.build_profile("one-minus-x")
    if name == "mutation":
        return prof, _mutation_toy(prof.support), 1 / 40
    return prof, pp.build_model(name, prof.support), 1 / 40


@pytest.mark.parametrize("name", ["advsel1d", "twotrait2d", "nldrift1d",
                                  "mutation", "linadv3d", "graded2d",
                                  "mutation2d"])
def test_step_loop_matches_reference_bitwise(name):
    prof, model, h = _case(name)
    # 130 steps: a snapshot every 3 steps, and the last off that cadence
    T, dt = 0.52, 4e-3
    ens = pp.partition_support(prof, model, h, T=T)
    snaps = []
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=T, dt=dt),
                        snapshot=snaps.append)
    assert traj.n_steps == 130
    if name in ("mutation", "mutation2d"):
        assert 0 < dynamics._mutation_rows(model, ens, T).size < ens.n
    if name == "mutation":
        # exact zeros all the way, so the minima meet them at every step
        assert (traj.final.intensities == 0.0).any()
        assert (traj.series["nu_min"] == 0.0).all()
    if name == "linadv3d":
        assert ens.n == 216
    series, snapshots, support_excess = _reference_steps(
        model, ens, traj.dt, traj.n_steps, 3)
    assert [col.tobytes() for col in traj.series.values()] == \
        [col.tobytes() for col in series]
    assert len(snaps) == len(snapshots)
    assert snaps[0] is traj.initial and snaps[-1] is traj.final
    for got, want in zip(snaps, snapshots):
        assert got.time == want.time
        for a, b in ((got.positions, want.positions),
                     (got.volumes, want.volumes),
                     (got.intensities, want.intensities)):
            assert a.tobytes() == b.tobytes()
    assert traj.monitors.support_excess_max == support_excess


@pytest.mark.parametrize("name", ["advsel1d", "twotrait2d", "linadv3d"])
def test_stage_hands_the_model_views_of_the_state(name):
    """The points a stage hands the advection are the position rows of
    the stage input itself, not a copy: an (n, d) view whose columns are
    contiguous."""
    prof, model, h = _case(name)
    seen = []

    def advection(t, X, I, base=model.advection):
        seen.append(X)
        return base(t, X, I)

    model = dataclasses.replace(model, advection=advection)
    S = dynamics._pack(pp.partition_support(prof, model, h, T=0.1))
    d, n = S.shape[0] - 2, S.shape[1]
    I_local = np.zeros((n, 0)) if model.is_local else None
    dynamics._stage_rhs(model, 0.0, S, S[d] * S[d + 1], np.empty_like(S),
                        I_local, np.empty(0, dtype=np.int64))
    (X,) = seen
    assert X.shape == (n, d)
    assert np.shares_memory(X, S)
    assert all(X[:, k].flags.c_contiguous for k in range(d))

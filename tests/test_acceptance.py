"""Acceptance checklist, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criterion 1 checks the initial lattice discretization as a
midpoint quadrature: its error obeys the composite h^2 bound and its
fitted order is at least 1.8.  The method promises only that lower bound;
on the smooth bump it converges much faster.  Shared heavy computations
(the fine grid reference and the long-horizon sweeps) live in
module-scoped fixtures; each consumer asserts the combined wall time
against the criterion budget.
"""

import os
import time

import numpy as np
import pytest

import phenopart as pp
from conftest import make_ensemble, velocity_and_divergence, verify_moments
from phenopart.cli import main as cli_main

H_SWEEP = (1 / 100, 1 / 200, 1 / 400, 1 / 800)
# integral of exp(1 - 1/(1-x^2)) over (-1, 1): mpmath quad at 40 digits
# gives 1.20690032243787617533..., rounded to the nearest double
BUMP_INTEGRAL = 1.2069003224378763
# max |f''| of that integrand: f''' has its root at |x| = 0.89513...
# (mpmath findroot), where |f''| = 21.06588...; rounded up
BUMP_MAX_ABS_F2 = 21.07
LOGISTIC_RHO_5 = 0.9933071490757153


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def fig_profile():
    return pp.build_profile("one-minus-x")


@pytest.fixture(scope="module")
def fig_model(fig_profile):
    # a = x(1-x), R(x, I) = 6 - 4x - I
    return pp.build_model("advsel1d", fig_profile.support)


@pytest.fixture(scope="module")
def rate_sweep(fig_profile, fig_model):
    """Fine grid reference at t=1 plus the four-run h-sweep (criteria 5, 6)."""
    t0 = time.monotonic()
    oracle_cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 8000,
                                    dt=5e-4)
    sol = pp.solve_reference(fig_model, fig_profile, oracle_cfg, 1.0)
    cutoff = pp.build_cutoff("gaussian")
    rows = []
    for h in H_SWEEP:
        ens = pp.partition_support(fig_profile, fig_model, h, T=1.0)
        traj = pp.integrate(fig_model, ens, pp.RunConfig(t_final=1.0))
        eps = pp.epsilon_rule(h, q=0.5)  # eps = sqrt(h)
        recon = pp.reconstruct(traj.final, cutoff, eps, sol.x)
        rows.append((h, pp.l1_distance(sol, recon),
                     pp.weighted_pointwise_error(traj.final, sol)))
    return {"rows": rows, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def long_horizon(fig_profile, fig_model):
    """T=40 particle sweep and the grid reference refined until its final
    mass is stable to 1e-3 (criterion 8)."""
    t0 = time.monotonic()
    oracle_cfg = pp.ReferenceConfig(x_lo=-0.25, x_hi=1.25, dx=1 / 1000,
                                    dt=4e-3)
    sol, history = pp.refine_until_stable(fig_model, fig_profile, oracle_cfg,
                                          40.0, target=1e-3, max_levels=4)
    runs = []
    for n in (1000, 2000, 4000):
        ens = pp.partition_support(fig_profile, fig_model, 1.0 / n, T=40.0)
        traj = pp.integrate(fig_model, ens,
                            pp.RunConfig(t_final=40.0))
        gap = pp.weak_measure_gap(traj.final, sol)
        runs.append((n, traj, gap))
    return {"sol": sol, "history": history, "runs": runs,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def preset_runs():
    """Short runs of every built-in model (criteria 3, 4)."""
    out = []

    prof = pp.build_profile("one-minus-x")
    model = pp.build_model("advsel1d", prof.support)
    ens = pp.partition_support(prof, model, 1 / 100, T=1.0)
    out.append(("advsel1d", 1.0,
                pp.integrate(model, ens, pp.RunConfig(t_final=1.0))))

    prof = pp.build_profile("const6")
    model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
    ens = pp.partition_support(prof, model, 1 / 100, T=5.0)
    out.append(("advsel1d-const6", 5.0,
                pp.integrate(model, ens, pp.RunConfig(t_final=5.0))))

    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=5.0)
    out.append(("logistic0d", 5.0,
                pp.integrate(model, ens, pp.RunConfig(t_final=5.0, dt=1e-3))))

    prof = pp.build_profile("bump", center=0.0, width=1.0)
    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    ens = pp.partition_support(prof, model, 1 / 50, T=1.0)
    out.append(("linadv1d", 1.0,
                pp.integrate(model, ens, pp.RunConfig(t_final=1.0, dt=1e-3))))

    prof = pp.build_profile("bump", center=0.5, width=0.4)
    model = pp.build_model("nldrift1d", prof.support)
    ens = pp.partition_support(prof, model, 1 / 100, T=1.0)
    out.append(("nldrift1d", 1.0,
                pp.integrate(model, ens, pp.RunConfig(t_final=1.0))))

    prof = pp.build_profile("bump-pair")
    model = pp.build_model("twotrait2d", prof.support)
    ens = pp.partition_support(prof, model, 2 / 50, T=0.5)
    out.append(("twotrait2d", 0.5,
                pp.integrate(model, ens, pp.RunConfig(t_final=0.5, dt=2e-3))))

    return out


# ---------------------------------------------------------------------------
# the checklist


def test_criterion_01_bump_quadrature_order_window():
    """Initial lattice discretization as midpoint quadrature of the bump.

    The particle masses h * v0(x_i) at the cell centres of
    v0 = exp(1 - 1/(1 - x^2)) on (-1, 1) form a composite midpoint rule;
    their sum is taken through partition_support.  For every h in
    {1/25, ..., 1/400} the error must obey the composite midpoint bound
    (b - a) h^2 max|f''| / 24, and the order fitted over the errors above
    a rounding floor must be at least 1.8.  The order bound is one-sided
    because the method promises only that much: every derivative of this
    integrand vanishes at the support edge, so the midpoint rule converges
    faster than any fixed power (errors ~4.2e-7, ~3.4e-9, ~5.8e-13, then
    rounding noise; fitted order about 9.7).  Second-order convergence
    itself is pinned on an integrand with nonvanishing f'' by
    test_discretize.py::TestMidpointQuadrature::test_quadratic_converges_at_order_two.
    """
    t0 = time.monotonic()
    prof = pp.build_profile("bump", center=0.0, width=1.0)
    model = pp.build_model("linadv1d", pp.Box([-1.0], [1.0]))
    hs = [1 / 25, 1 / 50, 1 / 100, 1 / 200, 1 / 400]
    errs = [abs(pp.partition_support(prof, model, h, T=0.0).mass()
                - BUMP_INTEGRAL) for h in hs]
    assert time.monotonic() - t0 < 1.0
    for h, e in zip(hs, errs):
        assert e <= 2.0 * h * h * BUMP_MAX_ABS_F2 / 24.0, h
    # errors at the rounding level of the sum carry no slope information
    floor = 64 * np.finfo(float).eps * BUMP_INTEGRAL
    pairs = [(h, e) for h, e in zip(hs, errs) if e > floor]
    assert len(pairs) >= 3
    fit = pp.fit_convergence_order(pairs)
    assert fit.order >= 1.8


def test_criterion_02_closed_form_benchmarks():
    t0 = time.monotonic()
    prof = pp.build_profile("const", value=0.5, lo=0.0, hi=1.0)
    model = pp.build_model("logistic0d", prof.support, r0=1.0)
    ens = pp.partition_support(prof, model, 0.25, T=5.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=5.0, dt=1e-3))
    assert abs(traj.final.mass() - LOGISTIC_RHO_5) <= 1e-6

    model = pp.build_model("linadv1d", pp.Box([-2.0], [2.0]))
    prof = pp.build_profile("const", value=1.0, lo=-2.0, hi=2.0)
    ens = pp.partition_support(prof, model, 0.25, T=1.0)
    traj = pp.integrate(model, ens, pp.RunConfig(t_final=1.0, dt=1e-3))
    decay = np.exp(-1.0)
    assert np.max(np.abs(traj.final.positions
                         - ens.positions * decay)) <= 1e-8
    assert np.max(np.abs(traj.final.volumes
                         - ens.volumes * decay)) <= 1e-8
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_mass_bound_on_presets(preset_runs):
    for name, T, traj in preset_runs:
        rep = traj.monitors
        tol = 1e-6 * (1.0 + T)
        assert rep.mass_excess_max <= tol, name
        assert np.max(traj.series["mass"]) <= rep.mass_bound + tol, name


def test_criterion_04_support_bound_on_presets(preset_runs):
    for name, T, traj in preset_runs:
        assert traj.monitors.support_excess_max <= 1e-9, name
        start = traj.initial.positions
        end = traj.final.positions
        disp = np.sqrt(np.sum((end - start) ** 2, axis=1))
        assert np.max(disp) <= traj.model.a_sup * T + 1e-9, name


def test_criterion_05_l1_convergence_rate(rate_sweep):
    rows = rate_sweep["rows"]
    l1 = [r[1] for r in rows]
    assert all(a > b for a, b in zip(l1, l1[1:]))  # strictly decreasing
    fit = pp.fit_convergence_order([(r[0], r[1]) for r in rows])
    assert fit.order >= 0.5
    assert rate_sweep["seconds"] < 300.0


def test_criterion_06_weighted_error_rate(rate_sweep):
    rows = rate_sweep["rows"]
    wpe = [r[2] for r in rows]
    assert all(a > b for a, b in zip(wpe, wpe[1:]))
    fit = pp.fit_convergence_order([(r[0], r[2]) for r in rows])
    assert fit.order >= 0.8
    assert rate_sweep["seconds"] < 300.0


def test_criterion_07_long_time_single_cluster():
    t0 = time.monotonic()
    prof = pp.build_profile("const6")
    model = pp.build_model("advsel1d", prof.support, r0=6.0, r1=0.5)
    ens = pp.partition_support(prof, model, 1 / 2000, T=40.0)
    traj = pp.integrate(model, ens,
                        pp.RunConfig(t_final=40.0))
    rep = pp.detect_limit_clusters(traj)
    assert rep.conclusive
    assert len(rep.clusters) == 1
    center, mass = rep.clusters[0]
    assert abs(center[0] - 1.0) <= 1e-3
    predicted = pp.predict_limit_mass(model, center)
    assert predicted == pytest.approx(5.5, abs=1e-9)
    assert abs(mass - predicted) <= 1e-2
    residuals = pp.check_dirac_necessary_conditions(model, rep.clusters)
    assert residuals[0].advection_residual <= 1e-3
    assert residuals[0].growth_residual <= 1e-2
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_asymptotic_regime_disagreement(long_horizon):
    sol = long_horizon["sol"]
    history = long_horizon["history"]
    runs = long_horizon["runs"]

    # the oracle mass is refinement-stable ...
    assert abs(history[-1][1] - history[-2][1]) <= 1e-3
    # ... and every particle run settles at a different limit mass
    for n, traj, _gap in runs:
        assert abs(traj.final.mass() - 2.0) <= 1e-2, n
    assert abs(sol.mass() - 2.0) >= 0.5

    gaps = {1.0 / n: gap for n, _traj, gap in runs}
    coarse = gaps[max(gaps)]
    fine = gaps[min(gaps)]
    assert fine > 0.5 * coarse  # no 2x decay under 4x refinement
    verdict = pp.ap_verdict(gaps, floor=1e-2)
    assert verdict.verdict == "non_preserving"
    assert long_horizon["seconds"] < 600.0


def test_criterion_09_cutoff_moments_and_mass():
    t0 = time.monotonic()
    names = ("gaussian", "gaussian-trunc", "bspline3", "gaussian4")
    for name in names:
        rep = verify_moments(pp.build_cutoff(name))
        assert rep.passes, name
        assert abs(rep.moments[0] - 1.0) <= 1e-8
        assert all(abs(m) <= 1e-8 for m in rep.moments[1:])

    # mass through reconstruction on a grid of spacing eps/4: exact for the
    # smooth profiles, bounded by the truncation jump for gaussian-trunc
    for seed in range(100):
        name = names[seed % 4]
        phi = pp.build_cutoff(name)
        ens = make_ensemble(20 + seed % 17, seed=seed)
        eps = 0.04 + 0.005 * (seed % 3)
        dx = eps / 4.0
        pad = phi.radius * eps + dx
        grid = np.arange(-pad, 1.0 + pad, dx)
        vals = pp.reconstruct(ens, phi, eps, grid[:, None])
        err = abs(float(np.sum(vals) * dx) - ens.mass())
        tol = 1e-6 if name == "gaussian-trunc" else 1e-12
        assert err <= tol, (name, seed)
    assert time.monotonic() - t0 < 10.0


def test_criterion_10_nonlocal_toy_self_convergence(tmp_path):
    t0 = time.monotonic()
    # nldrift1d from a bump at 0.5 of width 0.4, h = 1/50, 1/100, 1/200
    # at T = 1, bspline3 cutoff, eps = h^0.5; each h against a run at 1/400
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "nonlocal_toy.cfg")
    out = tmp_path / "toy"
    assert cli_main(["converge", "--config", config, "--out", str(out)]) == 0
    with open(out / "report.txt", encoding="utf-8") as fh:
        report = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    assert report["reference"] == "self"
    assert float(report["l1_order"]) >= 0.5

    # divergence with the non-local chain-rule term against a central
    # difference of the velocity field itself
    psi = pp.Kernel(
        name="gauss-pair",
        func=lambda t, X, Y: np.exp(-(X[:, None, 0] - Y[None, :, 0]) ** 2),
        grad_x=lambda t, X, Y: (-2.0 * (X[:, None, 0] - Y[None, :, 0])
                                * np.exp(-(X[:, None, 0] - Y[None, :, 0])
                                         ** 2))[:, :, None])
    chain = pp.ModelSpec(
        name="chain", dim=1,
        advection=lambda t, X, I: (X[:, 0] * (1 - X[:, 0])
                                   * (1 + 0.5 * I[:, 0]))[:, None],
        advection_div_x=lambda t, X, I: ((1 - 2 * X[:, 0])
                                         * (1 + 0.5 * I[:, 0])),
        advection_dI=lambda t, X, I: (0.5 * X[:, 0]
                                      * (1 - X[:, 0]))[:, None, None],
        growth=lambda t, X, I: np.zeros(X.shape[0]),
        kernels_a=(psi,), kernel_g=pp.constant_kernel(1.0),
        support_v0=pp.Box([0.0], [1.0]), a_sup=0.5)
    ens = make_ensemble(30, seed=1)
    step = 1e-6
    xq = np.linspace(0.1, 0.9, 9)[:, None]
    _v, div = velocity_and_divergence(chain, xq, ens)
    up = velocity_and_divergence(chain, xq + step, ens)[0][:, 0]
    dn = velocity_and_divergence(chain, xq - step, ens)[0][:, 0]
    assert np.max(np.abs(div - (up - dn) / (2 * step))) <= 1e-5
    assert time.monotonic() - t0 < 120.0


def test_criterion_11_byte_determinism(tmp_path, fig_profile, fig_model):
    # solver level: identical bits across repeated in-process runs
    ens = pp.partition_support(fig_profile, fig_model, 1 / 50, T=0.5)
    cfg = pp.RunConfig(t_final=0.5, dt=2e-3)
    a = pp.integrate(fig_model, ens, cfg)
    b = pp.integrate(fig_model, ens, cfg)
    assert a.final.positions.tobytes() == b.final.positions.tobytes()
    assert a.final.intensities.tobytes() == b.final.intensities.tobytes()
    assert a.series["mass"].tobytes() == b.series["mass"].tobytes()

    # driver level: byte-identical artifact trees across reruns and
    # across worker counts 1 and 4
    config = tmp_path / "det.cfg"
    config.write_text(
        "[model]\nname = advsel1d\n\n[initial]\nprofile = one-minus-x\n\n"
        "[time]\nt_final = 0.5\n\n"
        "[oracle]\nx_lo = -0.25\nx_hi = 1.25\ndx = 1/500\ndt = 2e-3\n\n"
        "[converge]\nh_list = 1/25, 1/50, 1/100\n")

    def run(tag, workers):
        out = tmp_path / tag
        code = cli_main(["converge", "--config", str(config),
                         "--out", str(out), "--workers", str(workers)])
        assert code == 0
        tree = {}
        for base, _dirs, files in os.walk(out):
            for f in files:
                full = os.path.join(base, f)
                with open(full, "rb") as fh:
                    tree[os.path.relpath(full, out)] = fh.read()
        return tree

    first = run("w1", 1)
    assert run("w1-again", 1) == first
    assert run("w4", 4) == first

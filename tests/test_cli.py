"""Command-line driver: artifacts, determinism, overrides, exit codes."""

import csv
import inspect
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenopart as pp
from phenopart import cli, reference
from phenopart.cli import load_config, main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

SIM_CFG = """\
[model]
name = advsel1d
r0 = 6.0
r1 = 4.0

[initial]
profile = one-minus-x

[discretize]
h = 1/40

[time]
t_final = 0.5
dt = 2e-3
"""

CONVERGE_CFG = SIM_CFG + """
[oracle]
x_lo = -0.25
x_hi = 1.25
dx = 1/400
dt = 2e-3
enabled = true

[converge]
h_list = 1/20, 1/40, 1/80
"""

ASYMPTOTE_CFG = """\
[model]
name = advsel1d
r0 = 6.0
r1 = 4.0

[initial]
profile = one-minus-x

[time]
t_final = 2.0

[oracle]
x_lo = -0.25
x_hi = 1.25
dx = 1/200
dt = 4e-3

[asymptote]
n_list = 50, 100, 200
target = 1e-2
max_levels = 1
"""


SELF_CFG = """\
[model]
name = nldrift1d

[initial]
profile = bump
center = 0.5
width = 0.4

[regularize]
cutoff = bspline3

[converge]
h_list = 1/25, 1/50, 1/100
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _tree_bytes(root):
    """Map of relative path -> file bytes for a whole output tree."""
    found = {}
    for base, _dirs, files in os.walk(root):
        for f in sorted(files):
            full = os.path.join(base, f)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                found[rel] = fh.read()
    return found


def _report_dict(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def test_simulate_artifacts(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    for name in ("series.csv", "final.csv", "snapshots.csv", "report.txt",
                 "density.svg", "manifest.cfg"):
        assert os.path.isfile(os.path.join(out, name)), name
    rep = _report_dict(os.path.join(out, "report.txt"))
    assert rep["n_particles"] == "40"
    assert rep["monitors_ok"] == "true"
    assert float(rep["final_mass"]) > 0
    with open(os.path.join(out, "snapshots.csv")) as fh:
        lines = fh.readlines()
    assert lines[0] == "t,i,x0,w,nu\n"
    assert len({line.split(",")[0] for line in lines[1:]}) >= 2
    with open(os.path.join(out, "final.csv")) as fh:
        assert fh.readline() == "i,x0,w,nu\n"


def test_density_plot_spans_the_final_particles(tmp_path, monkeypatch):
    """Without an oracle, the 1D density plot covers every particle's
    kernel reach, also where the mass drifts left of the initial support:
    the plotted curve carries the run's whole final mass."""
    plotted = []
    monkeypatch.setattr(cli, "line_plot",
                        lambda path, series, **kw: plotted.extend(series))
    monkeypatch.setenv("PHENOPART_MODEL__DRIFT0", "0.1")
    out = str(tmp_path / "out")
    cfg = os.path.join(CONFIG_DIR, "nonlocal_toy.cfg")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    (curve,) = plotted
    with open(os.path.join(out, "final.csv")) as fh:
        x0 = np.array([float(row["x0"]) for row in csv.DictReader(fh)])
    eps = pp.epsilon_rule(1 / 200, 0.5)
    reach = pp.CUTOFFS["bspline3"].radius * eps
    assert x0.min() < -0.3
    assert curve.x[0] == pytest.approx(x0.min() - reach, abs=1e-12)
    assert curve.x[-1] >= x0.max() + reach - 1e-12
    rep = _report_dict(os.path.join(out, "report.txt"))
    mass = float(np.trapezoid(curve.y, curve.x))
    assert mass == pytest.approx(float(rep["final_mass"]), rel=1e-6)


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
def test_every_csv_goes_through_write_csv(tmp_path, monkeypatch, command):
    """Every CSV is opened by csv_file, the writer behind write_csv and
    the one simulate streams its snapshots through."""
    written = []
    csv_file = cli.csv_file

    def recorder(path, header):
        written.append(os.path.relpath(path, out))
        return csv_file(path, header)

    monkeypatch.setattr(cli, "csv_file", recorder)
    monkeypatch.setenv("PHENOPART_REPRODUCE__N", "30")
    monkeypatch.setenv("PHENOPART_REPRODUCE__T_FINAL", "0.1")
    out = str(tmp_path / "out")
    assert main([command, "--config", _write(tmp_path, SIM_CFG),
                 "--out", out]) == 0
    on_disk = [name for name in _tree_bytes(out) if name.endswith(".csv")]
    assert len(on_disk) >= 3
    assert sorted(written) == sorted(on_disk)


def test_simulate_holds_one_snapshot_at_a_time(tmp_path, monkeypatch):
    """simulate writes each snapshot as the run hands it over: from the
    second hand-over on, when the step buffers exist, the traced memory
    stays within half a snapshot, where keeping the snapshots would add
    one snapshot (96 kB at n = 4000) at each."""
    integrate = cli.integrate
    current = []

    def traced(model, ens0, run, snapshot=None):
        def recorded(snap):
            current.append(tracemalloc.get_traced_memory()[0])
            snapshot(snap)
        return integrate(model, ens0, run, snapshot=recorded)

    monkeypatch.setattr(cli, "integrate", traced)
    monkeypatch.setenv("PHENOPART_DISCRETIZE__H", "1/4000")
    monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "0.016")
    out = str(tmp_path / "out")
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", _write(tmp_path, SIM_CFG),
                     "--out", out]) == 0
    finally:
        tracemalloc.stop()
    # 8 steps of 2e-3: t0 and every step
    assert len(current) == 9
    snapshot_bytes = 3 * 8 * 4000
    assert max(current[1:]) - min(current[1:]) < snapshot_bytes / 2


def test_failed_run_keeps_the_snapshots_it_reached(tmp_path, monkeypatch):
    """A run whose growth turns NaN after t = 0.1 fails at t = 0.102,
    exits 1 and leaves snapshots.csv with the snapshots before that: the
    first bytes of the full run's file."""
    cfg = _write(tmp_path, SIM_CFG)
    full = tmp_path / "full"
    assert main(["simulate", "--config", cfg, "--out", str(full)]) == 0
    build = cli.build_objects

    def poisoned(cfg):
        profile, model, cutoff = build(cfg)
        growth = model.growth
        model.growth = lambda t, X, I: growth(t, X, I) * (
            np.nan if t > 0.1 else 1.0)
        return profile, model, cutoff

    monkeypatch.setattr(cli, "build_objects", poisoned)
    failed = tmp_path / "failed"
    assert main(["simulate", "--config", cfg, "--out", str(failed)]) == 1
    assert sorted(os.listdir(failed)) == ["snapshots.csv"]
    partial = (failed / "snapshots.csv").read_bytes()
    assert (full / "snapshots.csv").read_bytes().startswith(partial)
    # 250 steps of 2e-3, a snapshot every 6: t = 0, 0.012, ..., 0.096
    times = _csv_column(failed / "snapshots.csv", "t")
    assert len(times) == 9 * 40
    assert float(times[-1]) == pytest.approx(0.096)


def test_manifest_round_trip(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    out1 = str(tmp_path / "first")
    out2 = str(tmp_path / "second")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    manifest = os.path.join(out1, "manifest.cfg")
    text = open(manifest).read()
    for forbidden in ("out =", "workers ="):
        assert forbidden not in text
    # replaying the manifest reproduces the exact artifacts
    assert main(["simulate", "--config", manifest, "--out", out2]) == 0
    a = _tree_bytes(out1)
    b = _tree_bytes(out2)
    assert a == b


def test_converge_deterministic_across_workers(tmp_path):
    cfg = _write(tmp_path, CONVERGE_CFG)
    outs = []
    for tag, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2")):
        out = str(tmp_path / tag)
        code = main(["converge", "--config", cfg, "--out", out,
                     "--workers", workers])
        assert code == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]
    rep = _report_dict(str(tmp_path / "w1" / "report.txt"))
    assert float(rep["l1_order"]) > 0.2
    assert rep["l1_decreasing"] == "true"


def test_simulate_oracle_matches_converge(tmp_path):
    """`simulate` with the oracle on measures its run as `converge` does
    the sweep member at the same h: both errors and the oracle mass agree
    bit for bit, and the density plot draws both series."""
    cfg = _write(tmp_path, CONVERGE_CFG)
    sim, conv = str(tmp_path / "sim"), str(tmp_path / "conv")
    assert main(["simulate", "--config", cfg, "--out", sim]) == 0
    assert main(["converge", "--config", cfg, "--out", conv]) == 0
    rep = _report_dict(os.path.join(sim, "report.txt"))
    assert rep["h"] == repr(1 / 40)
    with open(os.path.join(conv, "errors.csv"), newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["h"] == rep["h"])
    assert rep["l1_error"] == row["l1_error"]
    assert rep["weighted_error"] == row["weighted_error"]
    assert rep["oracle_mass"] == _report_dict(
        os.path.join(conv, "report.txt"))["oracle_mass"]
    with open(os.path.join(sim, "density.svg")) as fh:
        svg = fh.read()
    assert svg.count("<polyline") == 2
    assert ">reconstruction</text>" in svg and ">reference</text>" in svg


def test_converge_nonlocal_self_convergence(tmp_path):
    cfg = _write(tmp_path, SELF_CFG)
    outs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = str(tmp_path / tag)
        assert main(["converge", "--config", cfg, "--out", out,
                     "--workers", workers]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    assert sorted(outs[0]) == ["errors.csv", "errors.svg", "manifest.cfg",
                               "report.txt"]
    rep = _report_dict(str(tmp_path / "w1" / "report.txt"))
    assert rep["reference"] == "self"
    assert float(rep["truth_h"]) == pytest.approx(1 / 200)
    assert float(rep["l1_order"]) >= 0.5
    assert rep["l1_decreasing"] == "true"
    with open(tmp_path / "w1" / "errors.csv") as fh:
        assert fh.readline().strip() == "h,l1_error"
        assert len(fh.read().strip().splitlines()) == 3


def test_self_convergence_rejects_fixed_eps(tmp_path, capsys):
    cfg = _write(tmp_path, SELF_CFG.replace("[regularize]\n",
                                            "[regularize]\neps = 0.02\n"))
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_asymptote_reports_the_finest_run(tmp_path):
    """The main cluster of report.txt is the largest n's, in whatever order
    n_list lists the counts."""
    text = (ASYMPTOTE_CFG.replace("t_final = 2.0", "t_final = 20.0\ndt = 1e-2")
            .replace("dx = 1/200", "dx = 1/50").replace("dt = 4e-3", "dt = 5e-2")
            .replace("target = 1e-2", "target = 1"))
    reports = []
    for n_list in ("20, 40", "40, 20"):
        cfg = _write(tmp_path, text.replace("50, 100, 200", n_list))
        out = tmp_path / n_list.replace(", ", "-")
        assert main(["asymptote", "--config", cfg, "--out", str(out)]) == 0
        reports.append((out / "report.txt").read_text())
    assert reports[0] == reports[1]
    assert "main_cluster_center" in reports[0]


def test_asymptote_artifacts(tmp_path):
    cfg = _write(tmp_path, ASYMPTOTE_CFG)
    out = str(tmp_path / "ap")
    assert main(["asymptote", "--config", cfg, "--out", out]) == 0
    for name in ("gaps.csv", "clusters.csv", "report.txt", "gaps.svg",
                 "manifest.cfg"):
        assert os.path.isfile(os.path.join(out, name)), name
    rep = _report_dict(os.path.join(out, "report.txt"))
    assert rep["verdict"] in ("preserving", "non_preserving", "inconclusive")


def test_env_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path, SIM_CFG)
    out = str(tmp_path / "env")
    monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "0.25")
    monkeypatch.setenv("PHENOPART_DISCRETIZE__H", "1/20")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rep = _report_dict(os.path.join(out, "report.txt"))
    assert rep["t_final"] == "0.25"
    assert rep["n_particles"] == "20"


def _csv_column(path, name, t=None):
    """One column of a CSV artifact as text; rows at time t when given."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[name] for row in csv.DictReader(fh)
                if t is None or row["t"] == t]


def _tree(out):
    """File name -> bytes of an artifact directory."""
    tree = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


def test_every_builder_parameter_has_a_numeric_default():
    """Each config key of [model] and [initial] parses as a number or as a
    literal of numbers: no builder parameter after the skipped leading ones
    takes text."""
    for _key, table, skip in cli.BUILDERS.values():
        for name, builder in table.items():
            params = list(inspect.signature(builder).parameters.values())
            for p in params[skip:]:
                assert (isinstance(p.default, (int, float, tuple))
                        and not isinstance(p.default, bool)), (name, p.name)


def test_tuple_profile_parameter_takes_its_default(tmp_path, monkeypatch):
    """[initial] centers, whose default is a tuple of tuples, parses as a
    literal: the default value gives the shipped config's artifacts, and
    only the manifest records the key."""
    monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "0.05")
    cfg = os.path.join(CONFIG_DIR, "friedman_pair.cfg")
    shipped, given = str(tmp_path / "shipped"), str(tmp_path / "given")
    assert main(["simulate", "--config", cfg, "--out", shipped]) == 0
    monkeypatch.setenv("PHENOPART_INITIAL__CENTERS",
                       "((-0.5, 0.0), (0.5, 0.0))")
    assert main(["simulate", "--config", cfg, "--out", given]) == 0
    a, b = _tree(shipped), _tree(given)
    assert a.keys() == b.keys()
    for name in a:
        if name != "manifest.cfg":
            assert a[name] == b[name], name
    assert b"centers = ((-0.5, 0.0), (0.5, 0.0))" in b["manifest.cfg"]
    assert b"centers" not in a["manifest.cfg"]


def test_tuple_profile_parameter_moves_the_profile(tmp_path, monkeypatch):
    monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "0.05")
    monkeypatch.setenv("PHENOPART_INITIAL__CENTERS", "[[-0.5, 0], [0, 0.5]]")
    out = str(tmp_path / "pair")
    cfg = os.path.join(CONFIG_DIR, "friedman_pair.cfg")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    x0, x1 = (np.array(_csv_column(os.path.join(out, "snapshots.csv"), k,
                                   t="0.0"), dtype=float) for k in ("x0", "x1"))
    # two bumps of width 0.35 around (-0.5, 0) and (0, 0.5)
    assert -0.85 < x0.min() and x0.max() < 0.35
    assert -0.35 < x1.min() and x1.max() < 0.85
    assert (x1[x0 < -0.35] < 0.35).all() and (x0[x1 > 0.35] > -0.35).all()


def test_reproduce_scaled_down(tmp_path, monkeypatch):
    monkeypatch.setenv("PHENOPART_REPRODUCE__N", "30")
    monkeypatch.setenv("PHENOPART_REPRODUCE__T_FINAL", "0.5")
    out = str(tmp_path / "repro")
    assert main(["reproduce", "--out", out]) == 0
    assert main(["reproduce", "--out", str(tmp_path / "w2"),
                 "--workers", "2"]) == 0
    assert _tree_bytes(str(tmp_path / "w2")) == _tree_bytes(out)
    assert os.path.isfile(os.path.join(out, "summary.csv"))
    assert os.path.isfile(os.path.join(out, "masses.svg"))
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 1 + 4
    for scenario in ("one-minus-x", "x-one-minus-x", "x-squared", "const6"):
        assert os.path.isfile(os.path.join(out, scenario, "report.txt"))


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_h_list(self, tmp_path, capsys):
        text = SIM_CFG + "\n[converge]\nh_list = 1/20, 1/10\n"
        cfg = _write(tmp_path, text)
        code = main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "decreasing" in capsys.readouterr().err

    def test_unknown_model_name(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[model]\nname = wavelet9000\n")
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a zero tolerance never contracts, and the first halving of the
        # step falls below the floor
        monkeypatch.setattr(reference, "FIXED_POINT_RTOL", 0.0)
        monkeypatch.setattr(reference, "MAX_FIXED_POINT_ITER", 2)
        monkeypatch.setattr(reference, "MIN_DT", 1e-2)
        text = SIM_CFG + (
            "\n[oracle]\nenabled = true\nx_lo = -0.25\nx_hi = 1.25\n"
            "dx = 1/100\ndt = 1e-2\n")
        cfg = _write(tmp_path, text)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "failed:" in capsys.readouterr().err

    def test_step_count_cap(self, tmp_path, capsys, monkeypatch):
        """A horizon of 10^9 steps is refused before its series is
        allocated (52 GiB here), and before `--out` is created."""
        monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "1e6")
        cfg = os.path.join(CONFIG_DIR, "nonlocal_toy.cfg")
        start = time.perf_counter()
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert not (tmp_path / "x").exists()
        assert capsys.readouterr().err == (
            "failed: IntegrationError: t_final=1e+06 at the default "
            "dt=min(1e-3, h/(2 a_sup))=0.001 (h=0.005, a_sup=1) takes "
            "1e+09 steps, more than 50000000; shorten t_final or raise "
            "dt\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, value, default_dt", [
        ("MODEL__DRIFT0", "1e308", "0 (h=0.005, a_sup=1e+308) takes inf"),
        ("TIME__DT", "1e-320", None),
        ("MODEL__DRIFT0", "1e300",
         "2.5e-303 (h=0.005, a_sup=1e+300) takes 4e+302"),
        ("TIME__DT", "1e-300", None),
    ], ids=["drift0-dt-zero", "dt-subnormal", "drift0-huge", "dt-tiny"])
    def test_step_count_overflow(self, tmp_path, capsys, monkeypatch, key,
                                 value, default_dt):
        """A step count past the int range, or a default dt of 0 (h / 2
        a_sup underflows), is refused by the step cap before `--out` is
        created, with its count in a few digits, not with a
        ZeroDivisionError, an OverflowError or a count of 300 digits.  A
        default dt is named as such, with the h and a_sup that set it."""
        monkeypatch.setenv(f"PHENOPART_{key}", value)
        cfg = os.path.join(CONFIG_DIR, "nonlocal_toy.cfg")
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        if default_dt is not None:
            assert err == (
                "failed: IntegrationError: t_final=1 at the default "
                f"dt=min(1e-3, h/(2 a_sup))={default_dt} steps, more than "
                "50000000; shorten t_final or raise dt\n")
        else:
            assert err.startswith(
                "failed: IntegrationError: t_final=1 at dt=")
            assert err.endswith(" steps, more than 50000000; shorten "
                                "t_final or raise dt\n")
            assert len(err) < 160

    @pytest.mark.parametrize("text, word", [
        ("[time]\nt_finale = 0.01\n", "t_finale"),
        ("[tyme]\nt_final = 0.01\n", "tyme"),
        ("[model]\nname = advsel1d\nr2 = 1.0\n", "r2"),
        ("[initial]\nprofile = bump\nwidht = 0.2\n", "widht"),
        ("[asymptote]\nwindow = 1.0\n", "window"),
        ("[asymptote]\npos_tol = 0.1\n", "pos_tol"),
        ("[asymptote]\nmass_tol = 1e-3\n", "mass_tol"),
        ("[regularize]\neps = 0.02\n", "eps"),
        ("[time]\nsnapshot_every = 5\n", "snapshot_every"),
        ("[oracle]\nmax_fixed_point_iter = 50.5\n", "max_fixed_point_iter"),
        ("[oracle]\nfixed_point_tol = -1\n", "fixed_point_tol"),
        ("[oracle]\nmin_dt = 0\n", "min_dt"),
        ("[model]\nname = twotrait2d\na2 = -0.5*x2 - 0.1*I2\n",
         "unknown key(s) in [model]: a2"),
        ("[model]\nname = twotrait2d\na_sup = 2.5\n",
         "unknown key(s) in [model]: a_sup"),
    ], ids=["key", "section", "model-param", "profile-param",
            "asymptote-window", "asymptote-pos_tol", "asymptote-mass_tol",
            "regularize-eps", "time-snapshot_every",
            "oracle-max_fixed_point_iter", "oracle-fixed_point_tol",
            "oracle-min_dt", "twotrait-a2", "twotrait-a_sup"])
    def test_unknown_config_input(self, tmp_path, capsys, text, word):
        cfg = _write(tmp_path, text)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert word in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("command, text, env, word", [
        ("reproduce", "", {"REPRODUCE__N": "0"}, "[reproduce] n"),
        ("reproduce", "[reproduce]\nt_final = 0.1\n",
         {"REPRODUCE__N": "2.5"}, "[reproduce] n"),
        ("reproduce", "[reproduce]\nn = 10\nt_final = -1\n", {},
         "[reproduce] t_final"),
        ("simulate", SIM_CFG.replace("h = 1/40", "h = -1"), {},
         "[discretize] h"),
        ("simulate", SIM_CFG.replace("t_final = 0.5", "t_final = -1"), {},
         "[time] t_final"),
        ("simulate", SIM_CFG.replace("t_final = 0.5", "t_final = 1e999")
         .replace("h = 1/40", "h = 1/20"), {}, "[time] t_final"),
        ("simulate", SIM_CFG.replace("t_final = 0.5", "t_final = 1e999/1e999")
         .replace("h = 1/40", "h = 1/20"), {}, "[time] t_final"),
        ("simulate", SIM_CFG.replace("dt = 2e-3", "dt = 0"), {}, "[time] dt"),
        ("simulate", SIM_CFG + "\n[regularize]\neps_q = 2\n", {},
         "[regularize] eps_q"),
        ("simulate", SIM_CFG + "\n[oracle]\nenabled = true\nx_lo = 1\n"
         "x_hi = 0\n", {}, "[oracle] x_hi"),
        ("simulate", SELF_CFG + "\n[oracle]\nenabled = true\n", {},
         "local advection"),
        ("asymptote", SELF_CFG, {}, "local advection"),
        ("simulate", "[model]\nname = twotrait2d\n[initial]\n"
         "profile = bump-pair\n[oracle]\nenabled = true\n", {}, "1D"),
        ("asymptote", ASYMPTOTE_CFG.replace("50, 100, 200", "50, 100.5, 200"),
         {}, "[asymptote] n_list"),
        ("asymptote", ASYMPTOTE_CFG.replace("50, 100, 200", "20, 20"), {},
         "[asymptote] n_list"),
        ("asymptote", ASYMPTOTE_CFG.replace("levels = 1", "levels = 1.5"), {},
         "[asymptote] max_levels"),
        ("asymptote", ASYMPTOTE_CFG.replace("target = 1e-2", "target = -1"),
         {}, "[asymptote] target"),
        ("asymptote", ASYMPTOTE_CFG + "floor = 0\n", {}, "[asymptote] floor"),
        ("converge", CONVERGE_CFG.replace("1/40, 1/80", "1/40, -1/80"), {},
         "[converge] h_list"),
        ("converge", CONVERGE_CFG.replace("1/40, 1/80", "1/40"), {},
         "[converge] h_list"),
        ("converge", SELF_CFG.replace("1/50, 1/100", "1/50"), {},
         "[converge] h_list"),
        # keys the command does not read
        ("simulate", SIM_CFG + "\n[asymptote]\nfloor = -5\n", {},
         "[asymptote] floor"),
        ("simulate", SIM_CFG + "\n[asymptote]\nn_list = 1.5\n", {},
         "[asymptote] n_list"),
        ("simulate", SIM_CFG + "\n[oracle]\ndx = -1\n", {}, "[oracle] dx"),
        ("simulate", SIM_CFG + "\n[reproduce]\nn = 0\n", {},
         "[reproduce] n"),
        ("simulate", SIM_CFG + "\n[converge]\nh_list = 1/10, 1/5\n", {},
         "[converge] h_list"),
        ("reproduce", "[regularize]\neps_q = 2\n", {}, "[regularize] eps_q"),
        ("simulate", "[model]\nname = twotrait2d\n"
         "a1 = x1 - x1**3 + (-8)**(1/3)\n"
         "[initial]\nprofile = bump-pair\n",
         {}, "unknown key(s) in [model]: a1"),
        # builder parameters with a numeric default, also where the
        # command builds no model
        ("reproduce", "", {"MODEL__R0": "abc", "REPRODUCE__N": "10",
                           "TIME__T_FINAL": "0.01"}, "[model] r0"),
        ("simulate", SIM_CFG.replace("one-minus-x", "bump\nwidth = 1/0"),
         {}, "[initial] width"),
        # profile parameters that leave no particle or a negative one
        ("simulate", SELF_CFG.replace("width = 0.4", "width = 0"), {},
         "width must be positive"),
        ("simulate", SELF_CFG.replace("width = 0.4", "width = 0.4\nscale = 0"),
         {}, "scale must be positive"),
        ("simulate", SELF_CFG.replace("width = 0.4", "width = 0.4\nscale = -1"),
         {}, "scale must be positive"),
        ("simulate", SIM_CFG.replace("one-minus-x", "const\nvalue = 0"), {},
         "value must be positive"),
        # builder parameters with a tuple default: a literal of finite
        # numbers nested like it, of one shape
        ("simulate", SIM_CFG.replace("one-minus-x", "bump-pair"),
         {"INITIAL__CENTERS": "((0, 0), (1,))"}, "[initial] centers"),
        ("simulate", SIM_CFG.replace("one-minus-x", "bump-pair"),
         {"INITIAL__CENTERS": "(0.5, 0.0)"}, "[initial] centers"),
        ("simulate", SIM_CFG.replace("one-minus-x", "bump-pair"),
         {"INITIAL__CENTERS": "((0, 0), (1e999, 0))"}, "[initial] centers"),
        ("reproduce", "[initial]\nprofile = bump-pair\n"
         "centers = ((0, 0), (x, 0))\n", {}, "[initial] centers"),
    ], ids=["reproduce-n-zero", "reproduce-n-fraction",
            "reproduce-t_final-negative", "h-negative", "t_final-negative",
            "t_final-inf", "t_final-nan", "dt-zero", "eps_q-above-one", "oracle-empty-box",
            "oracle-nonlocal", "asymptote-nonlocal", "oracle-2d",
            "n_list-fraction",
            "n_list-one-distinct", "max_levels-fraction", "target-negative",
            "floor-zero", "h_list-negative", "h_list-two", "self-h_list-two",
            "unread-floor-negative", "unread-n_list-fraction",
            "unread-oracle-dx-negative", "unread-reproduce-n-zero",
            "unread-h_list-increasing", "unread-eps_q-above-one",
            "complex-constant-law", "unread-model-param-not-a-number",
            "profile-param-not-finite", "profile-width-zero",
            "profile-scale-zero", "profile-scale-negative",
            "profile-const-zero", "profile-tuple-ragged",
            "profile-tuple-too-shallow", "profile-tuple-not-finite",
            "unread-profile-tuple-not-a-literal"])
    def test_bad_value(self, tmp_path, capsys, monkeypatch, command, text,
                       env, word):
        """A bad value of a known key, or a model the grid reference cannot
        run, exits 2 before anything runs."""
        for key, value in env.items():
            monkeypatch.setenv(f"PHENOPART_{key}", value)
        cfg = _write(tmp_path, text)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert word in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("var, word", [
        ("PHENOPART_TIME__T_FINALE", "t_finale"),
        ("PHENOPART_TIME_T_FINAL", "PHENOPART_TIME_T_FINAL"),
    ], ids=["key", "malformed"])
    def test_unknown_override(self, tmp_path, capsys, monkeypatch, var, word):
        monkeypatch.setenv(var, "0.01")
        cfg = _write(tmp_path, SIM_CFG)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert word in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")))
def test_shipped_configs_load(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    assert cfg.get("model", "name")


# ---------------------------------------------------------------------------
# the column writer against the row writer it replaced


def _reference_write_csv(path, header, rows):
    """The row-by-row writer: `_cell` of every value, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._cell(v) for v in row])


def _both_writers(header, columns):
    """Bytes of the column writer and of the row writer on the same table;
    a row holds each array's numpy scalars, as the per-row tables did.
    The column writer's bytes are None when it refuses the table."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        _reference_write_csv(old, header, list(zip(*columns)))
        with open(old, "rb") as fh:
            old_bytes = fh.read()
        try:
            cli.write_csv(new, header, [columns])
        except ValueError as exc:
            assert "quoting" in str(exc)
            return None, old_bytes
        with open(new, "rb") as fh:
            return fh.read(), old_bytes


def _cycle(cells, n):
    return [cells[i % len(cells)] for i in range(n)]


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                  2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, 0.1]
LONG = 2 * cli._CSV_BLOCK + 3


def test_column_writer_matches_row_writer_on_special_values():
    floats = np.resize(np.array(SPECIAL_FLOATS), LONG)
    columns = [np.arange(LONG), floats, np.resize([True, False, True], LONG),
               _cycle(["a b", "say 'hi'", "plain", ""], LONG),
               _cycle([np.float64(-0.0), 7, np.int64(-3), np.bool_(True), "x",
                       1.5], LONG)]
    new, old = _both_writers(["i", "f", "b", "s", "mixed"], columns)
    assert new == old
    assert new.count(b"\r\n") == LONG + 1


@pytest.mark.parametrize("header, column", [
    (["s", "i"], ["plain", "a,b"]),
    (["s", "i"], ["plain", 'say "hi"']),
    (["s", "i"], ["two\nlines", "plain"]),
    (["s", "i"], ["plain", "end\r"]),
    (["a,b", "i"], ["plain", "plain"]),
    # csv quotes an empty cell that is the only one of its row
    (["s"], ["plain", ""]),
    ([""], ["plain", "plain"]),
])
def test_column_writer_refuses_cells_csv_quotes(header, column):
    columns = [column] + [np.arange(2)] * (len(header) - 1)
    new, old = _both_writers(header, columns)
    assert new is None
    assert b'"' in old


_CELLS = {
    "float": st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "bool": st.booleans(),
    "text": st.text(alphabet='ab,"\n ', max_size=6),
    "mixed": st.one_of(st.floats(), st.integers(-10, 10), st.booleans(),
                       st.text(alphabet='a,"', max_size=3)),
}


@st.composite
def _tables(draw):
    """Columns of one length, cycled from a few drawn cells; numeric kinds
    become numpy arrays, the others stay lists."""
    n = draw(st.sampled_from([0, 1, 5, cli._CSV_BLOCK, LONG]))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=4))
    columns = []
    for kind in kinds:
        cells = draw(st.lists(_CELLS[kind], min_size=1, max_size=6))
        cycled = _cycle(cells, n)
        if kind in ("float", "int", "bool"):
            cycled = np.array(cycled, dtype={"float": float, "int": np.int64,
                                             "bool": bool}[kind])
        columns.append(cycled)
    return [f"c{k}" for k in range(len(kinds))], columns


@settings(max_examples=40, deadline=None)
@given(_tables())
def test_column_writer_matches_row_writer(table):
    header, columns = table
    new, old = _both_writers(header, columns)
    # refused exactly where the row writer quotes a cell
    assert new == (None if b'"' in old else old)


def _stacked_snapshots(snapshots):
    """The one table the snapshot writer once built and wrote: repeated
    times before the concatenated state columns of every snapshot."""
    times = np.repeat([snap.time for snap in snapshots],
                      [snap.n for snap in snapshots])
    stacked = zip(*(cli._state_table(snap) for snap in snapshots))
    return [[times] + [np.concatenate(col) for col in stacked]]


@pytest.mark.parametrize("profile, name, h, steps", [
    ("one-minus-x", "advsel1d", 1 / 700, 10),
    ("bump-pair", "twotrait2d", 1 / 70, 2),
], ids=["1D", "2D"])
def test_snapshot_writer_matches_stacked_table(tmp_path, profile, name, h,
                                               steps):
    """Streamed through csv_file one snapshot table at a time while the
    run goes, as simulate writes them, the file has the bytes of
    write_csv on the stacked copy, across block edges inside and between
    snapshots."""
    prof = pp.build_profile(profile)
    model = pp.build_model(name, prof.support)
    ens = pp.partition_support(prof, model, h, T=steps * 1e-3)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    header = ["t"] + cli._state_header(ens.dim)
    snaps = []

    def snapshot(snap):
        snaps.append(snap)
        append(cli._snapshot_table(snap))

    with cli.csv_file(str(new), header) as append:
        pp.integrate(model, ens, pp.RunConfig(t_final=steps * 1e-3, dt=1e-3),
                     snapshot=snapshot)
    rows = sum(snap.n for snap in snaps)
    assert rows > cli._CSV_BLOCK and cli._CSV_BLOCK % ens.n
    cli.write_csv(str(old), header, _stacked_snapshots(snaps))
    assert new.read_bytes() == old.read_bytes()
    assert new.read_bytes().count(b"\r\n") == rows + 1


# float64 bit patterns that the float cells must keep apart although
# some compare equal (+-0.0) or print alike (every NaN)
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,  # +0.0, -0.0
    0x7FF8000000000000, 0xFFF8000000000000,  # quiet NaN, both signs
    0x7FF0000000000001, 0xFFF00000DEADBEEF,  # signalling NaN payloads
    0x7FF8000000000ABC, 0x7FF0000000000000,  # payload NaN, +inf
    0xFFF0000000000000, 0x0000000000000001,  # -inf, smallest subnormal
    0x800FFFFFFFFFFFFF, 0x0010000000000000,  # subnormal, smallest normal
    0x3FB999999999999A, 0x3FB999999999999B,  # 0.1 and its neighbour
]


def _bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def test_float_cells_keep_every_bit_pattern():
    """Float cells equal the row writer's on every special pattern,
    repeated across block edges, with a run of -0.0 over the first edge
    and 0.0 inside it, and on the strided rows of an (n, 2) array's .T."""
    col = _bits(np.resize(np.array(SPECIAL_BITS, dtype=np.uint64), LONG))
    col[cli._CSV_BLOCK - 20:cli._CSV_BLOCK + 20] = -0.0
    col[cli._CSV_BLOCK - 3] = 0.0
    pairs = np.empty((LONG, 2))
    pairs[:, 0], pairs[:, 1] = col[::-1], col
    strided = list(pairs.T)
    assert not strided[0].flags.c_contiguous
    new, old = _both_writers(["f", "x0", "x1"], [col] + strided)
    assert new == old
    first = [line.split(b",")[0] for line in new.split(b"\r\n")[1:-1]]
    assert first[cli._CSV_BLOCK - 4:cli._CSV_BLOCK - 2] == [b"-0.0", b"0.0"]
    assert new.count(b"nan") == 3 * int(np.isnan(col).sum())


@st.composite
def _bit_columns(draw):
    """A float64 column of raw bit patterns: a few drawn patterns cycled,
    so that blocks repeat them, with patterns from the whole uint64 range
    spliced in at drawn rows."""
    n = draw(st.sampled_from([1, 5, cli._CSV_BLOCK, LONG]))
    pool = draw(st.lists(st.integers(0, 2 ** 64 - 1)
                         | st.sampled_from(SPECIAL_BITS),
                         min_size=1, max_size=8))
    bits = np.resize(np.array(pool, dtype=np.uint64), n)
    for row, pattern in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 2 ** 64 - 1)),
            max_size=20)):
        bits[row] = pattern
    return bits.view(np.float64)


@settings(max_examples=40, deadline=None)
@given(_bit_columns())
def test_float_cells_match_row_writer_on_bit_patterns(col):
    new, old = _both_writers(["f"], [col])
    assert new == old


@pytest.mark.parametrize("k", [1, 4, 9, cli._CSV_BLOCK])
def test_float_block_calls_repr_once_per_distinct_pattern(tmp_path,
                                                         monkeypatch, k):
    """A block of 1024 float cells with k distinct bit patterns, +-0.0
    and two NaNs among them, formats k strings."""
    calls = []

    def counting(value):
        calls.append(value)
        return repr(value)

    patterns = (SPECIAL_BITS[:4] + list(range(1, cli._CSV_BLOCK)))[:k]
    col = _bits(np.resize(np.array(patterns, dtype=np.uint64),
                          cli._CSV_BLOCK))
    monkeypatch.setattr(cli, "repr", counting, raising=False)
    cli.write_csv(str(tmp_path / "x.csv"), ["f"], [[col]])
    assert len(calls) == k


def test_simulate_snapshots_match_row_writer(tmp_path, monkeypatch):
    """simulate's 2D snapshots.csv has the row writer's bytes over the
    same snapshot tables."""
    integrate = cli.integrate
    snaps = []

    def recorded(model, ens0, run, snapshot=None):
        def keep(snap):
            snaps.append(snap)
            snapshot(snap)
        return integrate(model, ens0, run, snapshot=keep)

    monkeypatch.setattr(cli, "integrate", recorded)
    monkeypatch.setenv("PHENOPART_TIME__T_FINAL", "0.05")
    out = tmp_path / "out"
    assert main(["simulate", "--config",
                 os.path.join(CONFIG_DIR, "friedman_pair.cfg"),
                 "--out", str(out)]) == 0
    assert len(snaps) > 2 and snaps[0].dim == 2
    rows = (row for snap in snaps for row in zip(*cli._snapshot_table(snap)))
    _reference_write_csv(str(tmp_path / "old.csv"),
                         ["t"] + cli._state_header(2), rows)
    assert ((out / "snapshots.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        cli.write_csv(str(tmp_path / "x.csv"), ["a", "b"],
                      [[np.zeros(3), [1, 2]]])

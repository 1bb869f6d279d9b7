"""Command-line driver: artifacts, determinism, overrides, exit codes."""

import os

import pytest

from phenopart.cli import main

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
        times = {line.split(",")[0] for line in fh.readlines()[1:]}
    assert len(times) >= 2


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


def test_reproduce_scaled_down(tmp_path, monkeypatch):
    monkeypatch.setenv("PHENOPART_REPRODUCE__N", "30")
    monkeypatch.setenv("PHENOPART_REPRODUCE__T_FINAL", "0.5")
    out = str(tmp_path / "repro")
    assert main(["reproduce", "--out", out]) == 0
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

    def test_numerical_failure(self, tmp_path, capsys):
        text = SIM_CFG + (
            "\n[oracle]\nenabled = true\nx_lo = -0.25\nx_hi = 1.25\n"
            "dx = 1/100\ndt = 1e-2\nfixed_point_tol = 0.0\n"
            "max_fixed_point_iter = 2\nmin_dt = 1e-2\n")
        cfg = _write(tmp_path, text)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "failed:" in capsys.readouterr().err

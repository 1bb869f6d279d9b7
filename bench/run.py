"""phenopart benchmark: four fixed CLI workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each invocation of a workload is a fresh single-threaded ``phenopart``
process with ``--workers 1`` and a fresh output directory; one child runs at
a time.  Inputs are the fixed configs under ``configs/`` (no random draw);
the seed only permutes the order in which full runs and set-up probes (or
traced and untraced runs) are interleaved, and with ``all`` the workload
order, so slow drift of a shared machine does not always hit the same one.

``--trace 0`` reports wall time, CPU time, set-up time and peak RSS, as
medians over the invocations of the run.  ``--trace 1`` alternates traced
and untraced invocations and reports per-layer busy time and exact work
counts from ``bench/tracer.py``.  Every invocation's outputs are checked:
exit code 0, an artifact tree byte-identical to the run's other
invocations, and pinned report scalars.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Run it from a checkout of the repository; it builds nothing (the package is
pure Python and is imported from ``src/``) and writes only under
``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------------
# output checks


def _report(out: Path) -> dict:
    pairs = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def _errors(out: Path) -> list:
    with open(out / "errors.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _near(value: str, target: float, rel: float = 0.0, abs_: float = 0.0):
    return abs(float(value) - target) <= max(rel * abs(target), abs_)


# Tolerances: ULP-level reorderings move these scalars by 1e-12 relative or
# less (order fits by less than 1e-9).  A real change of the numerics moves
# them further: scaling the divergence term by 1 + 1e-6 fails the dirac and
# twotrait checks, scaling the cutoff by 1 + 1e-4 fails converge-fine.


def check_dirac(out: Path) -> list:
    rep = _report(out)
    return [msg for ok, msg in [
        (rep.get("n_particles") == "1900" and rep.get("n_steps") == "40000",
         "workload drifted: particle or step count"),
        # the root of R(1, rho) = 6 - 0.5 - rho = 0
        (_near(rep.get("final_mass", "nan"), 5.5, rel=1e-9),
         f"final_mass {rep.get('final_mass')} != 5.5"),
        (rep.get("monitors_ok") == "true", "monitors_ok is not true"),
        # the final mass sits on an attractor; these extremes do not
        (_near(rep.get("w_min", "nan"), 2.1252396146303635e-21, rel=1e-7)
         and _near(rep.get("nu_min", "nan"), 2.233896371621419, rel=1e-7),
         f"w_min {rep.get('w_min')} or nu_min {rep.get('nu_min')} moved"),
    ] if not ok]


def check_twotrait(out: Path) -> list:
    rep = _report(out)
    m0 = float(rep.get("initial_mass", "nan"))
    return [msg for ok, msg in [
        (rep.get("n_particles") == "2312" and rep.get("n_steps") == "1000",
         "workload drifted: particle or step count"),
        # no selection or mutation: mass is conserved
        (_near(rep.get("final_mass", "nan"), m0, rel=1e-11),
         f"final_mass {rep.get('final_mass')} != initial_mass {m0!r}"),
        (rep.get("monitors_ok") == "true", "monitors_ok is not true"),
        # conserved mass does not see the drift; these extremes do
        (_near(rep.get("w_min", "nan"), 5.253457460877973e-05, rel=1e-7)
         and _near(rep.get("nu_min", "nan"), 8.664039272493155e-08,
                   rel=1e-7),
         f"w_min {rep.get('w_min')} or nu_min {rep.get('nu_min')} moved"),
    ] if not ok]


def check_converge(out: Path) -> list:
    rep = _report(out)
    return [msg for ok, msg in [
        (len(_errors(out)) == 4, "workload drifted: sweep length"),
        (rep.get("l1_decreasing") == "true", "L1 errors do not decrease"),
        (rep.get("weighted_decreasing") == "true",
         "weighted errors do not decrease"),
        (_near(rep.get("l1_order", "nan"), 0.512573837375828, abs_=1e-5),
         f"l1_order {rep.get('l1_order')} != 0.51257"),
        (_near(rep.get("weighted_order", "nan"), 2.007013493808672,
               abs_=1e-5),
         f"weighted_order {rep.get('weighted_order')} != 2.00701"),
    ] if not ok]


# The weighted error of converge-fine sits at the oracle's floor (about
# 1.3e-8), so only its L1 side is pinned.
FINE_L1 = [0.06382320973851359, 0.044736252175659824, 0.0314306578224652,
           0.022121323911401838]


def check_converge_fine(out: Path) -> list:
    rep = _report(out)
    l1 = [row["l1_error"] for row in _errors(out)]
    return [msg for ok, msg in [
        (rep.get("l1_decreasing") == "true", "L1 errors do not decrease"),
        (len(l1) == len(FINE_L1)
         and all(_near(v, t, rel=1e-7) for v, t in zip(l1, FINE_L1)),
         f"L1 errors {l1} != {FINE_L1}"),
    ] if not ok]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    args: tuple
    check: Callable[[Path], list]
    env: dict = field(default_factory=dict)


WORKLOADS = {
    "dirac": Workload(
        ("simulate", "--config", "configs/advsel_dirac.cfg"), check_dirac),
    "twotrait": Workload(
        ("simulate", "--config", "configs/friedman_pair.cfg"),
        check_twotrait),
    "converge": Workload(
        ("converge", "--config", "configs/advsel_convergence.cfg"),
        check_converge),
    "converge-fine": Workload(
        ("converge", "--config", "configs/advsel_convergence.cfg"),
        check_converge_fine,
        {"PHENOPART_TIME__T_FINAL": "0.1",
         "PHENOPART_CONVERGE__H_LIST": "1/400,1/800,1/1600,1/3200"}),
}

# name, unit, exact (must repeat exactly for the same code)
PER_LAYER = [
    ("dynamics.integrate_s", "s", False),
    ("dynamics.self_s", "s", False),
    ("dynamics.steps", "count", True),
    ("dynamics.ns_per_particle_step", "ns", False),
    ("model.fields_s", "s", False),
    ("model.divergence_field_s", "s", False),
    ("model.field_calls", "count", True),
    ("model.growth_evals", "count", True),
    ("model.advection_evals", "count", True),
    ("reference.solve_s", "s", False),
    ("reference.s_per_step", "s", False),
    ("reference.steps", "count", True),
    ("reference.pchip_builds", "count", True),
    ("reference.pchip_build_s", "s", False),
    ("reference.fixed_point_iters_max", "count", True),
    ("reference.subdivisions", "count", True),
    ("reference.growth_evals", "count", True),
    ("reference.advection_evals", "count", True),
    ("regularize.reconstruct_s", "s", False),
    ("regularize.pair_evals", "count", True),
    ("regularize.ns_per_pair", "ns", False),
    ("discretize.partition_support_s", "s", False),
    ("discretize.particles", "count", True),
    ("analysis.s", "s", False),
    ("cli.write_csv_s", "s", False),
    ("cli.artifact_bytes", "count", True),
    ("trace.overhead_s", "s", False),
]


# ---------------------------------------------------------------------------
# one child process


@dataclass
class Sample:
    kind: str                       # warmup, probe, full or traced
    problems: list
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    digest: str | None = None
    artifact_bytes: int = 0
    layers: dict | None = None


def _child_env(wl: Workload) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PHENOPART_")}
    env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    env.update(wl.env)
    return env


def _tree(out: Path):
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest(), total


def spawn(wl: Workload, kind: str, slot: Path) -> Sample:
    slot.mkdir(parents=True)
    out, stamp, trace = slot / "out", slot / "stamp", slot / "trace.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--stamp", str(stamp)]
    if kind == "traced":
        cmd += ["--trace", str(trace)]
    if kind in ("warmup", "probe"):
        cmd.append("--setup-only")
    cmd += ["--", *wl.args, "--out", str(out), "--workers", "1"]
    with open(slot / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(wl),
                                stdin=subprocess.DEVNULL, stdout=err,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(kind, [], wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = (slot / "stderr.txt").read_text(errors="replace")[-400:]
        sample.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
        return sample
    try:
        sample.setup_s = float(stamp.read_text()) - t0
    except (OSError, ValueError):
        sample.problems.append("no set-up stamp")
    if kind in ("full", "traced"):
        try:
            sample.problems += wl.check(out)
        except (OSError, KeyError, ValueError) as exc:
            sample.problems.append(f"unreadable outputs: {exc!r}")
        sample.digest, sample.artifact_bytes = _tree(out)
    if kind == "traced":
        with open(trace, encoding="utf-8") as fh:
            sample.layers = layer_metrics(json.load(fh))
        sample.layers["cli.artifact_bytes"] = sample.artifact_bytes
    return sample


# ---------------------------------------------------------------------------
# per-layer metrics from one trace


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    dur = [s["end"] - s["start"] for s in spans]

    def spans_named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name, key=None):
        return sum(dur[i] if key is None else spans[i][key]
                   for i in spans_named(name))

    def hot(names, parents=None, key="busy"):
        return sum(h[key] for h in trace["hot"] if h["name"] in names
                   and (parents is None or h["parent"] in parents))

    integ = spans_named("dynamics.integrate")
    solves = spans_named("reference.solve_reference")
    fields = ("model.velocity_field", "model.divergence_field",
              "model.nonlocal_field")
    integrate_s = total("dynamics.integrate")
    particle_steps = sum(spans[i]["steps"] * spans[i]["particles"]
                         for i in integ)
    solve_s = total("reference.solve_reference")
    ref_steps = total("reference.solve_reference", "steps")
    recon_s = total("regularize.reconstruct")
    pairs = total("regularize.reconstruct", "pairs")
    return {
        "dynamics.integrate_s": integrate_s,
        "dynamics.self_s": integrate_s - hot(
            fields + ("model.growth", "model.advection"), integ, "top_busy"),
        "dynamics.steps": total("dynamics.integrate", "steps"),
        "dynamics.ns_per_particle_step":
            1e9 * integrate_s / particle_steps if particle_steps else 0.0,
        "model.fields_s": hot(fields),
        "model.divergence_field_s": hot(("model.divergence_field",)),
        "model.field_calls": hot(fields, key="calls"),
        "model.growth_evals": hot(("model.growth",), integ, "calls"),
        "model.advection_evals": hot(("model.advection",), integ, "calls"),
        "reference.solve_s": solve_s,
        "reference.s_per_step": solve_s / ref_steps if ref_steps else 0.0,
        "reference.steps": ref_steps,
        "reference.pchip_builds": hot(("reference.pchip_build",),
                                      key="calls"),
        "reference.pchip_build_s": hot(("reference.pchip_build",)),
        "reference.fixed_point_iters_max": max(
            [spans[i]["fixed_point_iters_max"] for i in solves], default=0),
        "reference.subdivisions": total("reference.solve_reference",
                                        "subdivisions"),
        "reference.growth_evals": hot(("model.growth",), solves, "calls"),
        "reference.advection_evals": hot(("model.advection",), solves,
                                         "calls"),
        "regularize.reconstruct_s": recon_s,
        "regularize.pair_evals": pairs,
        "regularize.ns_per_pair": 1e9 * recon_s / pairs if pairs else 0.0,
        "discretize.partition_support_s":
            total("discretize.partition_support"),
        "discretize.particles": total("discretize.partition_support",
                                      "particles"),
        "analysis.s": sum(total(f"analysis.{name}") for name in (
            "weighted_pointwise_error", "l1_distance",
            "fit_convergence_order")),
        "cli.write_csv_s": total("cli.write_csv"),
    }


# ---------------------------------------------------------------------------
# one workload


def _code_digest() -> str:
    digest = hashlib.sha256()
    for pattern in ("src/phenopart/*.py", "configs/*.cfg", "bench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_counts_repeat(name: str, counts: dict) -> list:
    """Exact counts must match every earlier traced run of the same code."""
    state = WORK / "counts.json"
    try:
        known = json.loads(state.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{_code_digest()}/{name}"
    if key in known and known[key] != counts:
        drift = {k: (known[key].get(k), v) for k, v in counts.items()
                 if known[key].get(k) != v}
        return [f"exact counts differ from an earlier traced run: {drift}"]
    known[key] = counts
    state.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, rng: random.Random, seconds: float,
                 trace: bool):
    """Returns (metrics, attempted, failed, problems, notes)."""
    wl = WORKLOADS[name]
    plan = ["full", "traced"] if trace else \
        ["full", "full", "probe", "probe", "probe"]
    rng.shuffle(plan)
    plan.insert(0, "warmup")
    extra = ["traced", "full"] if trace else ["full"]
    rng.shuffle(extra)
    samples = []
    start = time.monotonic()
    last = {}
    while True:
        if plan:
            kind = plan.pop(0)
        else:
            # fill the window with whole invocations only
            kind = extra[len(samples) % len(extra)]
            if time.monotonic() - start + last[kind] > seconds:
                break
        slot = WORK / f"{name}-{len(samples)}"
        shutil.rmtree(slot, ignore_errors=True)
        try:
            samples.append(spawn(wl, kind, slot))
        finally:
            shutil.rmtree(slot, ignore_errors=True)
        last[kind] = samples[-1].wall_s
        _print_sample(name, len(samples) - 1, samples[-1])

    problems = []
    digests = {s.digest for s in samples if s.digest is not None}
    if len(digests) > 1:
        problems.append(f"artifact trees differ between invocations of "
                        f"the same code: {sorted(digests)}")
        for s in samples:
            if s.digest is not None:
                s.problems.append("artifact tree differs")
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        problems += [f"{s.kind}: {p}" for p in s.problems]

    ok = [s for s in samples if not s.problems] or samples
    full = [s for s in ok if s.kind == "full"]
    if trace:
        traced = [s for s in ok if s.layers is not None]
        metrics = {}
        for metric, unit, exact in PER_LAYER[:-1]:
            values = [s.layers[metric] for s in traced]
            if exact and len(set(values)) > 1:
                problems.append(f"{metric} differs between traced "
                                f"invocations: {values}")
            metrics[metric] = (_median(values), unit)
        traced_wall = _median(s.wall_s for s in traced)
        metrics["trace.overhead_s"] = (
            traced_wall - _median(s.wall_s for s in full), "s")
        if not problems:
            problems += _check_counts_repeat(name, {
                m: metrics[m][0] for m, _, exact in PER_LAYER if exact})
        notes = {"traced_wall_s": traced_wall, "traced": len(traced),
                 "untraced": len(full)}
        return metrics, len(samples), failed, problems, notes

    setups = [s for s in ok if s.kind in ("full", "probe")]
    metrics = {
        "wall_s": (_median(s.wall_s for s in full), "s"),
        "cpu_s": (_median(s.cpu_s for s in full), "s"),
        "setup_s": (_median(s.setup_s for s in setups), "s"),
        "peak_rss_mb": (_median(s.peak_rss_mb for s in full), "MB"),
    }
    notes = {"wall_s": len(full), "cpu_s": len(full),
             "setup_s": len(setups), "peak_rss_mb": len(full)}
    return metrics, len(samples), failed, problems, notes


# ---------------------------------------------------------------------------
# entry point


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def _print_sample(name: str, index: int, s: Sample):
    setup = "-" if s.setup_s is None else f"{s.setup_s:.4f}"
    status = "ok" if not s.problems else "FAILED"
    print(f"  {name:14s} #{index:<2d} {s.kind:7s} wall {s.wall_s:.4f} s cpu "
          f"{s.cpu_s:.4f} s setup {setup} s rss {s.peak_rss_mb:.1f} MB "
          f"{status}", flush=True)


def _print_table(name: str, metrics: dict, notes: dict, trace: bool):
    for metric, (value, unit) in metrics.items():
        line = f"  {name:14s} {metric:34s} {value:14.6g} {unit:6s}"
        if trace:
            if unit == "s":
                line += (f" {100.0 * value / notes['traced_wall_s']:5.1f}%"
                         " of traced wall time")
        else:
            line += f" median of n={notes[metric]}"
        print(line, flush=True)
    if trace:
        print(f"  {name:14s} medians of {notes['traced']} traced and "
              f"{notes['untraced']} untraced invocations; traced wall "
              f"time {notes['traced_wall_s']:.6g} s", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    needed = dict.fromkeys([ROOT / "src" / "phenopart" / "cli.py"] + [
        ROOT / wl.args[2] for wl in WORKLOADS.values()])
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a phenopart checkout, missing {missing}",
              file=sys.stderr)
        return 2

    rng = random.Random(opts.seed)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    rng.shuffle(names)
    trace = bool(opts.trace)
    print("# machine " + json.dumps(machine()), flush=True)
    print("# run " + json.dumps({"workloads": names, "seed": opts.seed,
                                 "seconds": opts.seconds, "trace": trace}),
          flush=True)

    WORK.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, problems, notes = run_workload(
            name, rng, opts.seconds, trace)
        _print_table(name, metrics, notes, trace)
        for problem in problems:
            print(f"  {name:14s} FAILED CHECK: {problem}", flush=True)
        result["correct"] &= not problems
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        result["metrics"].update(
            {prefix + m: {"value": v, "unit": u}
             for m, (v, u) in metrics.items()})
        print(f"  {name:14s} failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted} invocations)", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

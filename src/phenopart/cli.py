"""Experiment driver for the particle solver.

Subcommands
-----------
simulate   one particle run from a config; time series, final state, report
converge   an h-sweep measured against the grid reference (local advection)
           or against a run at half the finest h (non-local); fitted orders
asymptote  long-horizon N-sweep; cluster reports and a preservation verdict
reproduce  built-in four-scenario long-run suite

Configs are INI files.  Any value can be overridden through environment
variables named ``PHENOPART_<SECTION>__<KEY>``.  All artifacts (CSV, SVG,
report, manifest) are deterministic: rerunning a command with the same
config produces byte-identical files, independent of ``--workers``.

Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (ap_verdict, check_dirac_necessary_conditions,
                       default_test_functions, detect_limit_clusters,
                       fit_convergence_order, particle_self_convergence,
                       predict_limit_mass, weak_measure_gap,
                       weighted_pointwise_error)
from .discretize import ParticleEnsemble, build_profile, partition_support
from .dynamics import RunConfig, integrate
from .model import build_model
from .reference import (ReferenceConfig, l1_distance, refine_until_stable,
                        solve_reference)
from .regularize import build_cutoff, epsilon_rule, reconstruct
from .svgplot import PlotSeries, line_plot


class UsageError(Exception):
    """Bad invocation or malformed configuration."""


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "model": {"name": "advsel1d"},
    "initial": {"profile": "one-minus-x"},
    "discretize": {"h": "1/100"},
    "time": {"t_final": "1.0", "record_series": "true"},
    "regularize": {"cutoff": "gaussian", "eps_q": "0.5"},
    "oracle": {"x_lo": "-0.25", "x_hi": "1.25", "dx": "1/2000",
               "dt": "1e-3", "enabled": "false"},
    "converge": {"h_list": "1/50,1/100,1/200"},
    "asymptote": {"n_list": "250,500,1000", "floor": "1e-2",
                  "target": "1e-3", "max_levels": "4"},
    "reproduce": {"n": "500", "t_final": "30.0"},
}

ENV_PREFIX = "PHENOPART_"


def load_config(path: str | None) -> configparser.ConfigParser:
    """Read the INI file (optional), fill defaults, apply env overrides."""
    cfg = configparser.ConfigParser(interpolation=None)
    for section, values in DEFAULTS.items():
        cfg[section] = dict(values)
    if path is not None:
        if not os.path.isfile(path):
            raise UsageError(f"config file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg.read_file(fh, source=path)
        except configparser.Error as exc:
            raise UsageError(f"malformed config {path}: {exc}") from exc
    for key, value in sorted(os.environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        rest = key[len(ENV_PREFIX):]
        section, sep, option = rest.partition("__")
        if not sep or not section or not option:
            continue
        section = section.lower()
        if section not in cfg:
            cfg[section] = {}
        cfg[section][option.lower()] = value
    return cfg


def _num(text: str) -> float:
    """Parse a number; plain fractions like 1/800 are allowed."""
    s = text.strip()
    try:
        if "/" in s:
            a, b = s.split("/")
            return float(ast.literal_eval(a.strip())) / \
                float(ast.literal_eval(b.strip()))
        val = ast.literal_eval(s)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(s)
        return val
    except (ValueError, SyntaxError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a number, got {text!r}") from exc


def _num_list(text: str) -> list:
    items = [p for p in (q.strip() for q in text.split(",")) if p]
    if not items:
        raise UsageError(f"expected a comma-separated list, got {text!r}")
    return [_num(p) for p in items]


def _maybe_num(text: str):
    try:
        return _num(text)
    except UsageError:
        return text


def _get_bool(cfg, section: str, option: str, fallback: bool) -> bool:
    try:
        return cfg.getboolean(section, option, fallback=fallback)
    except ValueError as exc:
        raise UsageError(
            f"[{section}] {option} is not a boolean") from exc


def build_objects(cfg: configparser.ConfigParser):
    """Profile, model, cutoff from the resolved config."""
    init = dict(cfg["initial"]) if cfg.has_section("initial") else {}
    name = init.pop("profile", "one-minus-x")
    try:
        profile = build_profile(name, **{k: _maybe_num(v)
                                         for k, v in init.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad [initial] section: {exc}") from exc

    mod = dict(cfg["model"]) if cfg.has_section("model") else {}
    mname = mod.pop("name", "advsel1d")
    try:
        model = build_model(mname, profile.support,
                            **{k: _maybe_num(v) for k, v in mod.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad [model] section: {exc}") from exc

    try:
        cutoff = build_cutoff(cfg.get("regularize", "cutoff",
                                      fallback="gaussian"))
    except KeyError as exc:
        raise UsageError(f"unknown cutoff: {exc}") from exc
    return profile, model, cutoff


def _run_config(cfg, t_final: float) -> RunConfig:
    snap = _opt_num(cfg, "time", "snapshot_every")
    return RunConfig(
        t_final=t_final, dt=_opt_num(cfg, "time", "dt"),
        snapshot_every=None if snap is None else int(snap),
        record_series=_get_bool(cfg, "time", "record_series", True))


def _oracle_config(cfg) -> ReferenceConfig:
    sec = cfg["oracle"]
    optional = {"fixed_point_tol": _num, "min_dt": _num,
                "max_fixed_point_iter": lambda s: int(_num(s))}
    kwargs = {k: parse(sec[k]) for k, parse in optional.items() if k in sec}
    return ReferenceConfig(
        x_lo=_num(sec["x_lo"]), x_hi=_num(sec["x_hi"]),
        dx=_num(sec["dx"]), dt=_num(sec["dt"]), **kwargs)


def _epsilon(cfg, h: float) -> float:
    if cfg.has_option("regularize", "eps"):
        return _num(cfg.get("regularize", "eps"))
    return epsilon_rule(h, q=_num(cfg.get("regularize", "eps_q")))


# ---------------------------------------------------------------------------
# artifacts


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_report(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {_cell(value)}\n")


def write_manifest(cfg: configparser.ConfigParser, path: str) -> None:
    """Resolved configuration, sorted; output paths and worker counts are
    session details and stay out of it."""
    out = configparser.ConfigParser(interpolation=None)
    for section in sorted(cfg.sections()):
        keep = {k: v for k, v in sorted(cfg[section].items())
                if k not in ("out", "workers")}
        if keep:
            out[section] = keep
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        out.write(fh)


def _series_rows(traj):
    keys = ["t", "mass", "nu_min", "nu_max", "w_min", "w_max", "speed_max"]
    cols = [np.asarray(traj.series[k]) for k in keys]
    return keys, list(zip(*cols))


def _state_rows(ens: ParticleEnsemble):
    dim = ens.dim
    header = ["i"] + [f"x{k}" for k in range(dim)] + ["w", "nu", "alpha"]
    alpha = ens.alpha()
    rows = []
    for i in range(ens.n):
        rows.append([int(ens.index_set[i])]
                    + [ens.positions[i, k] for k in range(dim)]
                    + [ens.volumes[i], ens.intensities[i], alpha[i]])
    return header, rows


def _monitor_pairs(mon, extremes: bool = True):
    """Monitor report pairs; `extremes` adds the smallest w and nu seen."""
    pairs = [("mass_bound", mon.mass_bound),
             ("mass_excess_max", mon.mass_excess_max),
             ("support_excess_max", mon.support_excess_max)]
    if extremes:
        pairs += [("w_min", mon.w_min), ("nu_min", mon.nu_min)]
    return pairs + [("monitors_ok", mon.ok)]


# ---------------------------------------------------------------------------
# sweep workers (module level so they pickle)


def _converge_member(payload):
    """One h of the convergence sweep; errors against the shipped oracle."""
    cfg, h, sol, t_final = payload
    profile, model, cutoff = build_objects(cfg)
    ens0 = partition_support(profile, model, h, t_final)
    traj = integrate(model, ens0, _run_config(cfg, t_final))
    fin = traj.final
    eps = _epsilon(cfg, h)
    recon = reconstruct(fin, cutoff, eps, sol.x)
    return (h, eps, fin.n,
            l1_distance(sol, recon),
            weighted_pointwise_error(fin, sol),
            traj.monitors.mass_excess_max,
            traj.monitors.support_excess_max)


def _asymptote_member(payload):
    """One N of the long-horizon sweep; clusters found in the worker, the
    gap against the oracle is computed by the parent."""
    cfg, n, t_final = payload
    profile, model, cutoff = build_objects(cfg)
    h = 1.0 / float(n)
    ens0 = partition_support(profile, model, h, t_final)
    traj = integrate(model, ens0, _run_config(cfg, t_final))
    rep = detect_limit_clusters(
        traj,
        window=_opt_num(cfg, "asymptote", "window"),
        pos_tol=_opt_num(cfg, "asymptote", "pos_tol"),
        mass_tol=_num(cfg.get("asymptote", "mass_tol", fallback="1e-3")))
    return int(n), h, traj.final, rep, traj.monitors


def _reproduce_member(payload):
    """One scenario of the built-in suite."""
    (name, profile_name, profile_params, model_params), n, t_final = payload
    profile = build_profile(profile_name, **profile_params)
    model = build_model("advsel1d", profile.support, **model_params)
    ens0 = partition_support(profile, model, 1.0 / n, t_final)
    traj = integrate(model, ens0, RunConfig(t_final=t_final))
    rep = detect_limit_clusters(traj)
    _main, predicted, summary = _cluster_summary(model, rep)
    keys, series = _series_rows(traj)
    header, state = _state_rows(traj.final)
    return (name, traj.final.mass(), rep, summary, predicted,
            keys, series, header, state, traj.monitors)


def _cluster_summary(model, rep):
    """Heaviest cluster (center, mass), its predicted limit mass, and the
    report pairs ``predicted_limit_mass`` and ``clusterK_*_residual``;
    (None, None, []) without clusters."""
    if not rep.clusters:
        return None, None, []
    clusters = [(np.asarray(c, dtype=float), float(m))
                for c, m in rep.clusters]
    main = max(clusters, key=lambda cm: cm[1])
    predicted = predict_limit_mass(model, main[0])
    pairs = [("predicted_limit_mass", predicted)]
    for k, res in enumerate(check_dirac_necessary_conditions(model, clusters)):
        pairs.append((f"cluster{k}_advection_residual",
                      res.advection_residual))
        pairs.append((f"cluster{k}_growth_residual", res.growth_residual))
    return main, predicted, pairs


def _opt_num(cfg, section, option):
    raw = cfg.get(section, option, fallback=None)
    return None if raw is None else _num(raw)


def _pool_map(func, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [func(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, payloads))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    h = _num(cfg.get("discretize", "h"))
    t_final = _num(cfg.get("time", "t_final"))
    ens0 = partition_support(profile, model, h, t_final)
    traj = integrate(model, ens0, _run_config(cfg, t_final))
    fin = traj.final

    os.makedirs(out, exist_ok=True)
    if traj.series:
        keys, rows = _series_rows(traj)
        write_csv(os.path.join(out, "series.csv"), keys, rows)
    header, rows = _state_rows(fin)
    write_csv(os.path.join(out, "final.csv"), header, rows)

    snap_header = ["t"] + header
    snap_rows = []
    for snap in traj.snapshots:
        snap_rows.extend([snap.time] + r for r in _state_rows(snap)[1])
    write_csv(os.path.join(out, "snapshots.csv"), snap_header, snap_rows)

    report = [("n_particles", fin.n), ("h", h), ("dt", traj.dt),
              ("n_steps", traj.n_steps), ("t_final", t_final),
              ("initial_mass", ens0.mass()), ("final_mass", fin.mass())]
    report.extend(_monitor_pairs(traj.monitors))

    eps = _epsilon(cfg, h)
    plots = []
    if _get_bool(cfg, "oracle", "enabled", False):
        if model.dim != 1:
            raise UsageError("the grid reference covers 1D models only")
        sol = solve_reference(model, profile, _oracle_config(cfg), t_final)
        recon = reconstruct(fin, cutoff, eps, sol.x)
        report.extend([
            ("oracle_dx", sol.dx), ("oracle_dt", sol.dt),
            ("oracle_mass", sol.mass()),
            ("l1_error", l1_distance(sol, recon)),
            ("weighted_error", weighted_pointwise_error(fin, sol)),
        ])
        plots = [PlotSeries("reconstruction", sol.x, recon),
                 PlotSeries("reference", sol.x, sol.v)]
    elif model.dim == 1:
        lo = float(profile.support.lo[0]) - cutoff.radius * eps
        hi = float(profile.support.hi[0]) + model.a_sup * t_final \
            + cutoff.radius * eps
        grid = lo + (eps / 4.0) * np.arange(
            int(np.ceil((hi - lo) / (eps / 4.0))) + 1)
        plots = [PlotSeries("reconstruction", grid,
                            reconstruct(fin, cutoff, eps, grid))]
    if plots:
        line_plot(os.path.join(out, "density.svg"), plots,
                  title=f"{model.name} at t={t_final:g}",
                  xlabel="x", ylabel="density")

    write_report(os.path.join(out, "report.txt"), report)
    return 0


def cmd_converge(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    if model.dim != 1:
        raise UsageError("converge needs a 1D model")
    t_final = _num(cfg.get("time", "t_final"))
    h_list = _num_list(cfg.get("converge", "h_list"))
    if sorted(set(h_list), reverse=True) != h_list:
        raise UsageError("[converge] h_list must be strictly decreasing")
    if not model.is_local:
        return _self_converge(cfg, out, profile, model, cutoff, t_final,
                              h_list)

    sol = solve_reference(model, profile, _oracle_config(cfg), t_final)
    members = _pool_map(_converge_member,
                        [(cfg, h, sol, t_final) for h in h_list], workers)

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "errors.csv"),
              ["h", "eps", "n_particles", "l1_error", "weighted_error",
               "mass_excess", "support_excess"],
              members)

    hs = [m[0] for m in members]
    l1 = [m[3] for m in members]
    weighted = [m[4] for m in members]
    l1_fit = fit_convergence_order(list(zip(hs, l1)))
    w_fit = fit_convergence_order(list(zip(hs, weighted)))
    report = [
        ("t_final", t_final),
        ("oracle_dx", sol.dx), ("oracle_dt", sol.dt),
        ("oracle_mass", sol.mass()),
        ("oracle_fixed_point_iters", sol.fixed_point_iters_max),
        ("l1_order", l1_fit.order),
        ("l1_max_residual", l1_fit.max_residual),
        ("weighted_order", w_fit.order),
        ("weighted_max_residual", w_fit.max_residual),
        ("l1_decreasing", _decreasing(l1)),
        ("weighted_decreasing", _decreasing(weighted)),
    ]
    write_report(os.path.join(out, "report.txt"), report)

    line_plot(
        os.path.join(out, "errors.svg"),
        [PlotSeries("L1 error", hs, l1),
         PlotSeries("weighted pointwise", hs, weighted)],
        title=f"{model.name}: errors vs h at t={t_final:g}",
        xlabel="h", ylabel="error", logx=True, logy=True,
        annotations=[f"L1 order {l1_fit.order:.3f}",
                     f"weighted order {w_fit.order:.3f}"])
    return 0


def _self_converge(cfg, out, profile, model, cutoff, t_final, h_list) -> int:
    """No grid reference covers non-local advection: every h is measured
    against one particle run at half the finest h."""
    if cfg.has_option("regularize", "eps"):
        raise UsageError("[regularize] eps must follow h for "
                         "self-convergence; set eps_q instead")
    res = particle_self_convergence(
        model, profile, h_list, t_final, cutoff,
        eps_q=_num(cfg.get("regularize", "eps_q")),
        dt=_opt_num(cfg, "time", "dt"))
    fit = res.fit
    hs = [h for h, _e in fit.pairs]
    errors = [e for _h, e in fit.pairs]

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "errors.csv"), ["h", "l1_error"], fit.pairs)
    write_report(os.path.join(out, "report.txt"), [
        ("t_final", t_final), ("reference", "self"),
        ("truth_h", res.truth_h),
        ("l1_order", fit.order), ("l1_max_residual", fit.max_residual),
        ("l1_decreasing", _decreasing(errors)),
    ])
    line_plot(
        os.path.join(out, "errors.svg"),
        [PlotSeries("L1 error vs finest run", hs, errors)],
        title=f"{model.name}: self-convergence at t={t_final:g}",
        xlabel="h", ylabel="error", logx=True, logy=True,
        annotations=[f"L1 order {fit.order:.3f}",
                     f"truth at h={res.truth_h:g}"])
    return 0


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def cmd_asymptote(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    if model.dim != 1:
        raise UsageError("asymptote needs a 1D model (grid reference)")
    t_final = _num(cfg.get("time", "t_final"))
    n_list = [int(v) for v in _num_list(cfg.get("asymptote", "n_list"))]
    floor = _num(cfg.get("asymptote", "floor"))

    sol, history = refine_until_stable(
        model, profile, _oracle_config(cfg), t_final,
        target=_num(cfg.get("asymptote", "target")),
        max_levels=int(_num(cfg.get("asymptote", "max_levels"))))

    members = _pool_map(_asymptote_member,
                        [(cfg, n, t_final) for n in n_list], workers)

    tests = default_test_functions(float(sol.x[0]), float(sol.x[-1]))
    gaps = {}
    gap_rows, cluster_rows = [], []
    for n, h, fin, rep, monitors in members:
        gap = weak_measure_gap(fin, sol, tests)
        gaps[h] = gap
        gap_rows.append([n, h, gap, len(rep.clusters), rep.total_mass,
                         rep.conclusive, monitors.ok])
        for k, (center, mass) in enumerate(rep.clusters):
            cluster_rows.append([n, k]
                                + [float(c) for c in np.atleast_1d(center)]
                                + [mass])

    verdict = ap_verdict(gaps, floor=floor)

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "gaps.csv"),
              ["n", "h", "weak_gap", "n_clusters", "total_mass",
               "conclusive", "monitors_ok"], gap_rows)
    write_csv(os.path.join(out, "clusters.csv"),
              ["n", "cluster"] + [f"center{k}" for k in range(model.dim)]
              + ["mass"],
              cluster_rows)

    report = [
        ("t_final", t_final), ("verdict", verdict.verdict),
        ("floor", floor), ("detail", verdict.detail),
        ("oracle_mass", sol.mass()), ("oracle_dx", sol.dx),
        ("oracle_refinements", len(history) - 1),
    ]
    main, _predicted, summary = _cluster_summary(model, members[-1][3])
    if main is not None:
        report.append(("main_cluster_center",
                       " ".join(repr(float(c)) for c in main[0])))
        report.append(("main_cluster_mass", main[1]))
    report.extend(summary)
    write_report(os.path.join(out, "report.txt"), report)

    ns = np.array([row[0] for row in gap_rows], dtype=float)
    line_plot(
        os.path.join(out, "gaps.svg"),
        [PlotSeries("weak gap", ns, np.array([row[2] for row in gap_rows]))],
        title=f"{model.name}: weak gap vs N at t={t_final:g}",
        xlabel="N", ylabel="gap", logx=True, logy=True,
        annotations=[f"verdict: {verdict.verdict}"])
    return 0


SCENARIOS = [
    ("one-minus-x", "one-minus-x", {}, {"r0": 6.0, "r1": 4.0}),
    ("x-one-minus-x", "x-one-minus-x", {}, {"r0": 6.0, "r1": 4.0}),
    ("x-squared", "x-squared", {}, {"r0": 6.0, "r1": 4.0}),
    ("const6", "const6", {}, {"r0": 6.0, "r1": 0.5}),
]


def cmd_reproduce(cfg, out: str, workers: int) -> int:
    n = int(_num(cfg.get("reproduce", "n", fallback="500")))
    t_final = _num(cfg.get("reproduce", "t_final", fallback="30.0"))

    members = _pool_map(_reproduce_member,
                        [(sc, n, t_final) for sc in SCENARIOS], workers)

    os.makedirs(out, exist_ok=True)
    summary_rows = []
    mass_series = []
    for (name, final_mass, rep, summary, predicted,
         keys, series, header, state, monitors) in members:
        sub = os.path.join(out, name)
        os.makedirs(sub, exist_ok=True)
        write_csv(os.path.join(sub, "series.csv"), keys, series)
        write_csv(os.path.join(sub, "final.csv"), header, state)
        report = [("scenario", name), ("t_final", t_final),
                  ("final_mass", final_mass),
                  ("conclusive", rep.conclusive),
                  ("n_clusters", len(rep.clusters))]
        for k, (center, mass) in enumerate(rep.clusters):
            report.append((f"cluster{k}_center", " ".join(
                repr(float(c)) for c in np.atleast_1d(center))))
            report.append((f"cluster{k}_mass", mass))
        report.extend(summary)
        report.extend(_monitor_pairs(monitors, extremes=False))
        write_report(os.path.join(sub, "report.txt"), report)

        first = rep.clusters[0] if rep.clusters else (np.array([np.nan]), np.nan)
        summary_rows.append([
            name, final_mass, len(rep.clusters),
            float(np.atleast_1d(first[0])[0]), float(first[1]),
            np.nan if predicted is None else predicted,
            rep.conclusive, monitors.ok])
        cols = dict(zip(keys, zip(*series)))
        mass_series.append(PlotSeries(name, np.array(cols["t"]),
                                      np.array(cols["mass"])))

    write_csv(os.path.join(out, "summary.csv"),
              ["scenario", "final_mass", "n_clusters", "cluster0_center",
               "cluster0_mass", "predicted_limit_mass", "conclusive",
               "monitors_ok"],
              summary_rows)
    line_plot(os.path.join(out, "masses.svg"), mass_series,
              title="total mass per scenario", xlabel="t", ylabel="mass")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenopart",
        description="particle-method experiments for selection-mutation "
                    "population models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in [("simulate", True), ("converge", True),
                               ("asymptote", True), ("reproduce", False)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, default=None,
                       help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="process count for sweep members")
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "asymptote": cmd_asymptote,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = args.out if args.out is not None else f"phenopart_{args.command}"
    try:
        if args.workers < 1:
            raise UsageError("--workers must be at least 1")
        cfg = load_config(args.config)
        code = COMMANDS[args.command](cfg, out, args.workers)
        write_manifest(cfg, os.path.join(out, "manifest.cfg"))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

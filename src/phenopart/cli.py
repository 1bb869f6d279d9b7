"""Experiment driver for the particle solver.

Subcommands
-----------
simulate   one particle run from a config; time series, final state, report
converge   an h-sweep measured against the grid reference where its
           `check_scope` admits the model, else against a run at half the
           finest h; fitted orders
asymptote  long-horizon N-sweep; cluster reports and a preservation verdict
reproduce  four built-in advsel1d long-run scenarios; cluster reports
           and a summary table

Configs are INI files.  Any value can be overridden through environment
variables named ``PHENOPART_<SECTION>__<KEY>``; a section or key that no
command reads, from either source, is a config error, and so is a bad value
of a known key, found before the first run.  All artifacts (CSV,
SVG, report, manifest) are deterministic: rerunning a command with the same
config produces byte-identical files, independent of ``--workers``.

Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import inspect
import math
import os
import re
import sys

import numpy as np

from .analysis import (ap_verdict, check_dirac_necessary_conditions,
                       detect_limit_clusters, fit_convergence_order,
                       predict_limit_mass, weak_measure_gap,
                       weighted_pointwise_error)
from .discretize import (PROFILES, ParticleEnsemble, active_box,
                         build_profile, partition_support)
from .dynamics import RunConfig, integrate
from .model import MODELS, build_model
from .reference import (OracleError, ReferenceConfig, check_scope,
                        l1_distance, refine_until_stable, solve_reference)
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
    "time": {"t_final": "1.0"},
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
            raise UsageError(f"malformed override {key}; expected "
                             f"{ENV_PREFIX}<SECTION>__<KEY>")
        section = section.lower()
        if section not in cfg:
            cfg[section] = {}
        cfg[section][option.lower()] = value
    _check_keys(cfg)
    _check_values(cfg)
    return cfg


# the key of [model] and [initial] that names the builder, the builders,
# and how many leading builder parameters are not config keys
BUILDERS = {"model": ("name", MODELS, 1), "initial": ("profile", PROFILES, 0)}


def _unknown_keys(section: str, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _builder_args(cfg, section: str) -> tuple:
    """Builder name and keyword arguments of [section], whose keys are the
    builder's parameters: one whose default is a number parses as one, one
    whose default is a tuple as a literal of numbers nested like it."""
    key, table, skip = BUILDERS[section]
    name = cfg[section][key]
    if name not in table:
        raise UsageError(f"unknown [{section}] {key} {name!r}; "
                         f"known: {', '.join(sorted(table))}")
    params = list(inspect.signature(table[name]).parameters.values())[skip:]
    parsers = {p.name: _default_parser(p.default) for p in params}
    args = {k: v for k, v in cfg[section].items() if k != key}
    _unknown_keys(section, args, parsers)
    return name, {k: _parsed(section, k, parsers[k], v)
                  for k, v in args.items()}


def _default_parser(default):
    """The parser of a builder parameter with this default."""
    if isinstance(default, tuple):
        return lambda text: _num_literal(text, default)
    return _num


def _num_literal(text: str, default: tuple) -> tuple:
    """Parse a literal of finite numbers in tuples or lists of one shape,
    nested as deep as `default`, such as ((-0.5, 0.0), (0.5, 0.0))."""
    try:
        val = ast.literal_eval(text.strip())
        # a ragged nesting leaves a tuple or list among the leaves
        leaves = np.asarray(val, dtype=object)
        ok = (leaves.ndim == np.ndim(default) and leaves.size > 0
              and all(map(_finite, leaves.flat)))
    except (ValueError, SyntaxError, TypeError, MemoryError,
            RecursionError):
        ok = False
    if not ok:
        raise UsageError(f"expected finite numbers nested like {default!r}, "
                         f"got {text!r}")
    return val


def _check_keys(cfg: configparser.ConfigParser) -> None:
    """Reject sections and keys that no command reads, and builder
    arguments that do not parse."""
    for section in cfg.sections():
        if section in BUILDERS:
            _builder_args(cfg, section)
        elif section in PARSERS:
            _unknown_keys(section, cfg[section], PARSERS[section])
        else:
            raise UsageError(f"unknown config section [{section}]")


def _num(text: str) -> float:
    """Parse a finite number; plain fractions like 1/800 are allowed."""
    s = text.strip()
    try:
        if "/" in s:
            a, b = s.split("/")
            val = float(ast.literal_eval(a.strip())) / \
                float(ast.literal_eval(b.strip()))
        else:
            val = ast.literal_eval(s)
        # 1e999 parses as inf and 1e999/1e999 as nan
        if not _finite(val):
            raise ValueError(s)
    except (ValueError, SyntaxError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"expected a finite number, got {text!r}") from exc
    return val


def _finite(val) -> bool:
    """True for a finite int or float; bools and other types are not."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _count(text: str) -> int:
    """Parse a whole number >= 1; 2.5 and 0 are errors, not truncated."""
    val = _num(text)
    if not (isinstance(val, int) or val.is_integer()) or val < 1:
        raise UsageError(f"expected a whole number >= 1, got {text!r}")
    return int(val)


def _positive(text: str) -> float:
    val = _num(text)
    if not val > 0:
        raise UsageError(f"expected a positive number, got {text!r}")
    return val


def _num_list(text: str, parse=_num) -> list:
    items = [p for p in (q.strip() for q in text.split(",")) if p]
    if not items:
        raise UsageError(f"expected a comma-separated list, got {text!r}")
    return [parse(p) for p in items]


def _h_list(text: str) -> list:
    """Spacings of a convergence sweep: strictly decreasing, at least 3."""
    h_list = _num_list(text, _positive)
    if sorted(set(h_list), reverse=True) != h_list:
        raise UsageError("must be strictly decreasing")
    if len(h_list) < 3:
        raise UsageError("needs at least 3 entries for an order fit")
    return h_list


def _n_list(text: str) -> list:
    """Particle counts of a long-horizon sweep: at least 2 distinct."""
    n_list = _num_list(text, _count)
    if len(set(n_list)) < 2:
        raise UsageError("needs at least 2 distinct entries for a verdict")
    return n_list


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise UsageError(f"expected a boolean, got {text!r}") from None


def _cutoff(text: str):
    try:
        return build_cutoff(text.strip())
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


# the parser of every key outside [model] and [initial], whose keys go to
# the chosen builder; these are the keys a config may set
PARSERS = {
    "discretize": {"h": _positive},
    "time": {"t_final": _num, "dt": _num},
    "regularize": {"cutoff": _cutoff, "eps_q": _num},
    "oracle": {"x_lo": _num, "x_hi": _num, "dx": _num, "dt": _num,
               "enabled": _boolean},
    "converge": {"h_list": _h_list},
    "asymptote": {"n_list": _n_list, "floor": _positive,
                  "target": _positive, "max_levels": _count},
    "reproduce": {"n": _count, "t_final": _num},
}


def _parsed(section: str, option: str, parse, text: str):
    """parse(text); a value it rejects is a usage error that names the
    section and the key."""
    try:
        return parse(text)
    except UsageError as exc:
        raise UsageError(f"[{section}] {option}: {exc}") from exc


def _get(cfg, section: str, option: str):
    """Parsed value of [section] option, None when it is unset."""
    if not cfg.has_option(section, option):
        return None
    return _parsed(section, option, PARSERS[section][option],
                   cfg.get(section, option))


def _check_values(cfg) -> None:
    """Parse every key and run the checks that span keys, so that a bad
    value exits before anything runs, also where the command does not
    read it."""
    for section, parsers in PARSERS.items():
        for option in parsers:
            _get(cfg, section, option)
    _run_config(cfg)
    _run_config(cfg, "reproduce")
    _reference_config(cfg)
    for h in [_get(cfg, "discretize", "h")] + _get(cfg, "converge", "h_list"):
        _epsilon(cfg, h)


def _checked(where: str, build, *args, **kwargs):
    """Call a library constructor; the ValueError it raises on a bad value
    is a usage error prefixed with `where`, the config section or key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{where} {exc}") from exc


def build_objects(cfg: configparser.ConfigParser):
    """Profile, model, cutoff from the resolved config."""
    name, kwargs = _builder_args(cfg, "initial")
    try:
        profile = build_profile(name, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad [initial] section: {exc}") from exc

    name, kwargs = _builder_args(cfg, "model")
    try:
        model = build_model(name, profile.support, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad [model] section: {exc}") from exc

    return profile, model, _get(cfg, "regularize", "cutoff")


def _run_config(cfg, section: str = "time") -> RunConfig:
    """The integration window of [time], or of [reproduce], which has no dt."""
    return _checked(f"[{section}]", RunConfig,
                    t_final=_get(cfg, section, "t_final"),
                    dt=_get(cfg, section, "dt"))


def _reference_config(cfg) -> ReferenceConfig:
    return _checked("[oracle]", ReferenceConfig, **{
        k: _get(cfg, "oracle", k) for k in ("x_lo", "x_hi", "dx", "dt")})


def _oracle_config(cfg, model) -> ReferenceConfig:
    """The grid reference of a model in the oracle's scope."""
    try:
        check_scope(model)
    except OracleError as exc:
        raise UsageError(str(exc)) from exc
    return _reference_config(cfg)


def _epsilon(cfg, h: float) -> float:
    """Bandwidth eps = h^eps_q of a run at spacing h."""
    return _checked("[regularize] eps_q:", epsilon_rule, h,
                    q=_get(cfg, "regularize", "eps_q"))


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


# rows formatted per block: only one block's cells are alive at a time, so
# every file is written in memory bounded by one block and one table, not
# by the length of the file
_CSV_BLOCK = 1024


def _column_cells(col, width: int) -> list:
    """`_cell` of every entry; a numpy array is formatted through its
    Python scalars, one call per column instead of one per cell.  A
    float64 column calls `repr` once per distinct bit pattern, not once
    per cell: `repr` reads only the bits, and keying on them keeps -0.0
    apart from 0.0 (every NaN pattern prints "nan")."""
    if isinstance(col, np.ndarray):
        if col.dtype == np.bool_:
            return ["true" if v else "false" for v in col.tolist()]
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
        if col.dtype == np.float64:
            # a strided column views as uint64 in place: same itemsize
            bits, inverse = np.unique(col.view(np.uint64),
                                      return_inverse=True)
            cells = np.array(list(map(repr, bits.view(np.float64).tolist())),
                             dtype=object)
            return cells[inverse].tolist()
    return _unquoted([_cell(v) for v in col], width)


_QUOTED = re.compile('[,"\r\n]')


def _unquoted(cells: list, width: int) -> list:
    """`cells`, which are written as they are; a cell that a CSV reader
    needs quoted is refused: one holding a comma, a quote or a line
    break, or an empty one that is the only cell of its row."""
    for cell in cells:
        if _QUOTED.search(cell) or (width == 1 and not cell):
            raise ValueError(f"CSV cell {cell!r} would need quoting")
    return cells


@contextlib.contextmanager
def csv_file(path: str, header):
    """A CSV file open for appending tables after its header; the context
    value appends one table per call, a list of equal-length columns
    (numpy arrays or sequences).  ","-joined cells, "\\r\\n"-ended lines."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_unquoted(list(header), len(header))) + "\r\n")

        def append(columns) -> None:
            n = len(columns[0]) if columns else 0
            if any(len(col) != n for col in columns):
                raise ValueError("CSV columns differ in length")
            for lo in range(0, n, _CSV_BLOCK):
                cells = [_column_cells(col[lo:lo + _CSV_BLOCK], len(columns))
                         for col in columns]
                # one write per block: its row strings and text, about
                # 0.2 MB for 1024 rows of a 2D snapshot (tracemalloc),
                # live for that call only, within the heap-layout noise
                # of peak RSS; no name holds a block's cells while the
                # next block is formatted
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
                del cells

        yield append


def write_csv(path: str, header, tables) -> None:
    """A CSV file: the header, then the rows of each table, one after
    another, through `csv_file`.  `tables` is read lazily, so a generator
    keeps one table alive at a time."""
    with csv_file(path, header) as append:
        for columns in tables:
            append(columns)


def write_report(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {_cell(value)}\n")


def write_manifest(cfg: configparser.ConfigParser, path: str) -> None:
    """Resolved configuration, sorted."""
    out = configparser.ConfigParser(interpolation=None)
    for section in sorted(cfg.sections()):
        out[section] = dict(sorted(cfg[section].items()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        out.write(fh)


def _state_header(dim: int) -> list:
    """Columns of the state table: label, position, w, nu.  The weight
    alpha = w * nu is not written; `repr` round-trips, so a reader gets
    it back bit for bit from the written w and nu."""
    return ["i"] + [f"x{k}" for k in range(dim)] + ["w", "nu"]


def _state_table(ens: ParticleEnsemble) -> list:
    return ([np.arange(ens.n)] + list(ens.positions.T)
            + [ens.volumes, ens.intensities])


def _snapshot_table(snap: ParticleEnsemble) -> list:
    """A snapshot's state table behind its time column."""
    return [np.full(snap.n, snap.time, dtype=float)] + _state_table(snap)


def _monitor_pairs(mon, extremes: bool = True):
    """Monitor report pairs; `extremes` adds the smallest w and nu seen."""
    pairs = [("mass_bound", mon.mass_bound),
             ("mass_excess_max", mon.mass_excess_max),
             ("support_excess_max", mon.support_excess_max)]
    if extremes:
        pairs += [("w_min", mon.w_min), ("nu_min", mon.nu_min)]
    return pairs + [("monitors_ok", mon.ok)]


# ---------------------------------------------------------------------------
# the sweep member (module level so it pickles)


def _member(payload):
    """One run of a sweep: build, partition at spacing h and integrate.
    Returns the final ensemble, the monitors, the series, the limit
    clusters and the reconstruction on `grid`, None without a grid."""
    cfg, run, h, grid = payload
    profile, model, cutoff = build_objects(cfg)
    traj = integrate(model, partition_support(profile, model, h, run.t_final),
                     run)
    fin = traj.final
    recon = None if grid is None else reconstruct(fin, cutoff,
                                                  _epsilon(cfg, h), grid)
    return (fin, traj.monitors, traj.series, detect_limit_clusters(traj),
            recon)


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


def _pool_map(func, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [func(p) for p in payloads]
    # a serial run skips the multiprocessing, socket and logging imports
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, payloads))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    h = _get(cfg, "discretize", "h")
    run = _run_config(cfg)
    t_final = run.t_final
    eps = _epsilon(cfg, h)
    oracle = None
    if _get(cfg, "oracle", "enabled"):
        oracle = _oracle_config(cfg, model)
    ens0 = partition_support(profile, model, h, t_final)
    # a step count that integrate or the oracle refuses fails here, before
    # the particle run and before --out exists
    run.steps(ens0.h, model.a_sup)
    if oracle is not None:
        oracle.steps(t_final)

    os.makedirs(out, exist_ok=True)
    # each snapshot is written as the run reaches it and then dropped, so
    # a run that fails keeps the snapshots it reached
    with csv_file(os.path.join(out, "snapshots.csv"),
                  ["t"] + _state_header(ens0.dim)) as append:
        traj = integrate(model, ens0, run,
                         snapshot=lambda snap: append(_snapshot_table(snap)))
    fin = traj.final
    write_csv(os.path.join(out, "series.csv"), list(traj.series),
              [list(traj.series.values())])
    write_csv(os.path.join(out, "final.csv"), _state_header(fin.dim),
              [_state_table(fin)])

    report = [("n_particles", fin.n), ("h", h), ("dt", traj.dt),
              ("n_steps", traj.n_steps), ("t_final", t_final),
              ("initial_mass", ens0.mass()), ("final_mass", fin.mass())]
    report.extend(_monitor_pairs(traj.monitors))

    plots = []
    if oracle is not None:
        sol = solve_reference(model, profile, oracle, t_final)
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
        # where the reconstruction can be non-zero: the particles' extent
        # padded by the kernel's reach
        lo = float(np.min(fin.positions)) - cutoff.radius * eps
        hi = float(np.max(fin.positions)) + cutoff.radius * eps
        grid = _uniform_grid(lo, hi, eps / 4.0)
        plots = [PlotSeries("reconstruction", grid,
                            reconstruct(fin, cutoff, eps, grid))]
    if plots:
        line_plot(os.path.join(out, "density.svg"), plots,
                  title=f"{model.name} at t={t_final:g}",
                  xlabel="x", ylabel="density")

    write_report(os.path.join(out, "report.txt"), report)
    return 0


def _uniform_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Nodes lo + k spacing from lo up to the first at or past hi."""
    return lo + spacing * np.arange(math.ceil((hi - lo) / spacing) + 1)


def cmd_converge(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    if model.dim != 1:
        raise UsageError("converge needs a 1D model")
    run = _run_config(cfg)
    t_final = run.t_final
    h_list = _get(cfg, "converge", "h_list")
    # both paths need a valid eps rule at every h; check it before any run
    eps_list = [_epsilon(cfg, h) for h in h_list]
    try:
        check_scope(model)
    except OracleError:
        return _self_converge(cfg, out, model, cutoff, run, h_list, workers)

    sol = solve_reference(model, profile, _reference_config(cfg), t_final)
    members = _pool_map(_member, [(cfg, run, h, sol.x) for h in h_list],
                        workers)
    rows = [(h, eps, fin.n, l1_distance(sol, recon),
             weighted_pointwise_error(fin, sol), mon.mass_excess_max,
             mon.support_excess_max)
            for h, eps, (fin, mon, _series, _rep, recon)
            in zip(h_list, eps_list, members)]

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "errors.csv"),
              ["h", "eps", "n_particles", "l1_error", "weighted_error",
               "mass_excess", "support_excess"],
              [list(zip(*rows))])

    l1 = [row[3] for row in rows]
    weighted = [row[4] for row in rows]
    l1_fit = fit_convergence_order(list(zip(h_list, l1)))
    w_fit = fit_convergence_order(list(zip(h_list, weighted)))
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
        [PlotSeries("L1 error", h_list, l1),
         PlotSeries("weighted pointwise", h_list, weighted)],
        title=f"{model.name}: errors vs h at t={t_final:g}",
        xlabel="h", ylabel="error", logx=True, logy=True,
        annotations=[f"L1 order {l1_fit.order:.3f}",
                     f"weighted order {w_fit.order:.3f}"])
    return 0


def _self_converge(cfg, out, model, cutoff, run, h_list, workers) -> int:
    """For a model outside the grid reference's scope: every h is measured
    against one particle run at half the finest h.  All runs are
    reconstructed on one grid of spacing eps(truth)/4 over the active box,
    padded by 4 cutoff radii at the coarsest eps."""
    t_final = run.t_final
    hs = [float(h) for h in h_list]
    truth_h = hs[-1] / 2.0
    spacing = _epsilon(cfg, truth_h) / 4.0
    pad = 4.0 * cutoff.radius * _epsilon(cfg, hs[0])
    box = active_box(model, t_final)
    lo = float(box.lo[0]) - pad
    hi = float(box.hi[0]) + pad
    grid = _uniform_grid(lo, hi, spacing)
    members = _pool_map(_member, [(cfg, run, h, grid)
                                  for h in hs + [truth_h]], workers)
    *recons, truth = [recon for *_rest, recon in members]
    errors = [float(np.trapezoid(np.abs(vals - truth), dx=spacing))
              for vals in recons]
    fit = fit_convergence_order(list(zip(hs, errors)))

    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "errors.csv"), ["h", "l1_error"],
              [[hs, errors]])
    write_report(os.path.join(out, "report.txt"), [
        ("t_final", t_final), ("reference", "self"),
        ("truth_h", truth_h),
        ("l1_order", fit.order), ("l1_max_residual", fit.max_residual),
        ("l1_decreasing", _decreasing(errors)),
    ])
    line_plot(
        os.path.join(out, "errors.svg"),
        [PlotSeries("L1 error vs finest run", hs, errors)],
        title=f"{model.name}: self-convergence at t={t_final:g}",
        xlabel="h", ylabel="error", logx=True, logy=True,
        annotations=[f"L1 order {fit.order:.3f}",
                     f"truth at h={truth_h:g}"])
    return 0


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def cmd_asymptote(cfg, out: str, workers: int) -> int:
    profile, model, cutoff = build_objects(cfg)
    oracle = _oracle_config(cfg, model)
    run = _run_config(cfg)
    t_final = run.t_final
    n_list = _get(cfg, "asymptote", "n_list")
    floor = _get(cfg, "asymptote", "floor")

    sol, history = refine_until_stable(
        model, profile, oracle, t_final,
        target=_get(cfg, "asymptote", "target"),
        max_levels=_get(cfg, "asymptote", "max_levels"))

    hs = [1.0 / float(n) for n in n_list]
    members = _pool_map(_member, [(cfg, run, h, None) for h in hs], workers)

    gaps = {}
    gap_rows, cluster_rows = [], []
    for n, h, (fin, monitors, _series, rep, _recon) in zip(n_list, hs,
                                                           members):
        gap = weak_measure_gap(fin, sol)
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
               "conclusive", "monitors_ok"], [list(zip(*gap_rows))])
    write_csv(os.path.join(out, "clusters.csv"),
              ["n", "cluster"] + [f"center{k}" for k in range(model.dim)]
              + ["mass"],
              [list(zip(*cluster_rows))])

    report = [
        ("t_final", t_final), ("verdict", verdict.verdict),
        ("floor", floor), ("detail", verdict.detail),
        ("oracle_mass", sol.mass()), ("oracle_dx", sol.dx),
        ("oracle_refinements", len(history) - 1),
    ]
    # the main cluster of the finest run, wherever n_list lists it
    *_rest, finest, _recon = members[n_list.index(max(n_list))]
    main, _predicted, summary = _cluster_summary(model, finest)
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


# the [model] and [initial] sections of each built-in long-run scenario
SCENARIOS = {
    name: {"model": {"name": "advsel1d", "r0": "6.0", "r1": r1},
           "initial": {"profile": name}}
    for name, r1 in [("one-minus-x", "4.0"), ("x-one-minus-x", "4.0"),
                     ("x-squared", "4.0"), ("const6", "0.5")]}


def _scenario_config(cfg, sections) -> configparser.ConfigParser:
    """A copy of `cfg` whose sections named in `sections` are replaced."""
    out = configparser.ConfigParser(interpolation=None)
    out.read_dict({**{s: cfg[s] for s in cfg.sections()}, **sections})
    return out


def cmd_reproduce(cfg, out: str, workers: int) -> int:
    n = _get(cfg, "reproduce", "n")
    run = _run_config(cfg, "reproduce")
    t_final = run.t_final
    configs = [_scenario_config(cfg, sc) for sc in SCENARIOS.values()]
    models = [build_objects(c)[1] for c in configs]

    members = _pool_map(_member, [(c, run, 1.0 / n, None) for c in configs],
                        workers)

    os.makedirs(out, exist_ok=True)
    summary_rows = []
    mass_series = []
    for name, model, (fin, monitors, series, rep, _recon) in zip(
            SCENARIOS, models, members):
        _main, predicted, summary = _cluster_summary(model, rep)
        final_mass = fin.mass()
        sub = os.path.join(out, name)
        os.makedirs(sub, exist_ok=True)
        write_csv(os.path.join(sub, "series.csv"), list(series),
                  [list(series.values())])
        write_csv(os.path.join(sub, "final.csv"), _state_header(fin.dim),
                  [_state_table(fin)])
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
        mass_series.append(PlotSeries(name, series["t"], series["mass"]))

    write_csv(os.path.join(out, "summary.csv"),
              ["scenario", "final_mass", "n_clusters", "cluster0_center",
               "cluster0_mass", "predicted_limit_mass", "conclusive",
               "monitors_ok"],
              [list(zip(*summary_rows))])
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

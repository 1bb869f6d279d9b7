"""Outside-in tracer for one phenopart CLI process.

It wraps public functions at phenopart's module boundaries by rebinding the
module attributes their callers look up, so no file under ``src/`` changes.

- Coarse calls (a handful per run: integrate, solve_reference, reconstruct,
  ...) each get a span with name, start, end and parent span.
- Hot calls (field evaluations, model callables, PCHIP builds: up to about a
  million per run) are aggregated into a call count and busy time per parent
  span, plus the busy time of the outermost hot calls, so a span's self time
  can be computed without double counting nested hot calls.

Everything stays in memory until :meth:`Tracer.dump` writes it at exit.
"""

from __future__ import annotations

import json
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []            # dicts: name, parent, start, end, notes
        self._open = [-1]          # indices of open coarse spans; -1 is root
        self._hot = {}             # (parent, name) -> [calls, busy, top_busy]
        self._hot_depth = 0

    def coarse(self, name, func, note=None):
        """Span per call; `note(args, result)` adds exact counts to it."""
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1]}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = _clock()
            try:
                out = func(*args, **kwargs)
            finally:
                span["end"] = _clock()
                self._open.pop()
            if note is not None:
                span.update(note(args, out))
            return out
        return wrapper

    def hot(self, name, func):
        """Count and busy time per parent span; no span per call."""
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            t0 = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                busy = _clock() - t0
                self._hot_depth -= 1
                key = (self._open[-1], name)
                acc = self._hot.get(key)
                if acc is None:
                    acc = self._hot[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += busy
                if self._hot_depth == 0:
                    acc[2] += busy
        return wrapper

    def dump(self, path):
        hot = [{"parent": p, "name": n, "calls": c, "busy": b, "top_busy": t}
               for (p, n), (c, b, t) in sorted(self._hot.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh)


def install(tracer: Tracer):
    """Rebind the boundaries of every layer the benchmark reports."""
    from phenopart import cli, dynamics, reference

    def integrate_note(args, traj):
        return {"steps": traj.n_steps, "particles": args[1].n}

    def solve_note(args, sol):
        return {"steps": len(sol.rho_times) - 1,
                "fixed_point_iters_max": sol.fixed_point_iters_max,
                "subdivisions": sol.subdivisions}

    def reconstruct_note(args, recon):
        ens, grid = args[0], args[3]
        return {"pairs": ens.n * (np.size(grid) // ens.dim)}

    def partition_note(args, ens):
        return {"particles": ens.n}

    def build_objects(func):
        # the ModelSpec callables are plain attributes; wrap them on the
        # model each build returns so every later use is counted
        def wrapper(cfg):
            profile, model, cutoff = func(cfg)
            model.growth = tracer.hot("model.growth", model.growth)
            model.advection = tracer.hot("model.advection", model.advection)
            return profile, model, cutoff
        return wrapper

    cli.main = tracer.coarse("cli.main", cli.main)
    cli.build_objects = tracer.coarse("cli.build_objects",
                                      build_objects(cli.build_objects))
    cli.partition_support = tracer.coarse(
        "discretize.partition_support", cli.partition_support, partition_note)
    cli.integrate = tracer.coarse("dynamics.integrate", cli.integrate,
                                  integrate_note)
    cli.solve_reference = tracer.coarse(
        "reference.solve_reference", cli.solve_reference, solve_note)
    cli.reconstruct = tracer.coarse("regularize.reconstruct", cli.reconstruct,
                                    reconstruct_note)
    for name in ("weighted_pointwise_error", "l1_distance",
                 "fit_convergence_order"):
        setattr(cli, name, tracer.coarse(f"analysis.{name}",
                                         getattr(cli, name)))
    cli.write_csv = tracer.coarse("cli.write_csv", cli.write_csv)
    for name in ("velocity_field", "divergence_field", "nonlocal_field"):
        setattr(dynamics, name, tracer.hot(f"model.{name}",
                                           getattr(dynamics, name)))
    reference.PchipInterpolator = tracer.hot("reference.pchip_build",
                                             reference.PchipInterpolator)

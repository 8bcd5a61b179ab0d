"""Traced in-process run of one curveswarm CLI invocation.

    python3 perfbench/tracer.py TRACE_JSON -- <curveswarm argv...>

Run with `src` on PYTHONPATH.  The script imports `curveswarm.cli` inside
a span, wraps the layer boundaries listed in BOUNDARIES by patching
module attributes (nothing under `src/` is edited), calls
`cli.main(argv)` and writes every span and counter to TRACE_JSON.  Its
exit code is the CLI's.

Spans record (id, name, start, end, parent id, self time).  Boundaries
called tens of thousands of times per run are aggregated per (name,
parent name) into count, total and self time instead.  The curve kernels
`curve_point`, `curve_d1` and `curve_d2` are counted, not timed: every
module binding of them is replaced by a wrapper that adds the number of
parameters evaluated, so their time stays in the caller's self time
(adherence, for instance, is mostly curve evaluation).

A boundary that a later version of the package renames or removes is
listed under "absent" and never stops the run.
"""

import json
import os
import sys
import time

# (span name, module, attribute path, aggregated).  The attribute path is
# looked up on the module; every binding of the same function object in a
# loaded curveswarm module is replaced, so `from .x import f` copies are
# traced too.  The part of the name before the first dot is the layer.
BOUNDARIES = (
    ("cli.main", "curveswarm.cli", "main", False),
    ("config.load", "curveswarm.config", "load_config", False),
    ("config.mission_config", "curveswarm.config", "EffectiveConfig.mission_config", False),
    ("curves.make_curve", "curveswarm.curves", "make_curve", False),
    ("curves.point", "curveswarm.curves", "Curve.point", True),
    ("curves.deriv", "curveswarm.curves", "Curve.deriv", True),
    ("curves.frenet", "curveswarm.curves", "Curve.frenet", True),
    ("curves.arclength", "curveswarm.curves", "Curve.arclength", True),
    ("curves.arclength_inverse", "curveswarm.curves", "Curve.arclength_inverse", True),
    ("curves.sample_cache", "curveswarm.curves", "Curve.sample_cache", True),
    ("finder.multistart", "curveswarm.finder", "multistart", False),
    ("finder.start", "curveswarm.finder", "gauss_newton_solve", False),
    ("finder.gn", "curveswarm._finder_kernels", "gn_solve", False),
    ("finder.residual", "curveswarm._finder_kernels", "residual_vector", True),
    ("finder.jacobian", "curveswarm._finder_kernels", "jacobian_matrix", True),
    ("finder.solve", "numpy.linalg", "solve", True),
    ("control.make_params", "curveswarm.control", "make_params", False),
    ("control.assign", "curveswarm.control", "assign_vertices", False),
    ("control.tick", "curveswarm._sim_kernels", "team_controls", True),
    ("sim.run_mission", "curveswarm.sim", "run_mission", False),
    ("sim.placement", "curveswarm.sim", "initial_states", False),
    ("sim.nearest_parameter", "curveswarm.sim", "nearest_parameter", True),
    ("sim.lap_schedule", "curveswarm.sim", "_schedule_laps", False),
    ("sim.loop", "curveswarm._sim_kernels", "mission_core", False),
    ("sim.nearest_on_curve", "curveswarm._sim_kernels", "nearest_on_curve", True),
    ("sim.rk4", "curveswarm._sim_kernels", "rk4_step_team", True),
    ("sim.min_pair", "curveswarm._sim_kernels", "min_pair_distance", True),
    ("output.trajectory_csv", "curveswarm.output", "write_trajectory_csv", False),
    ("output.metrics_csv", "curveswarm.output", "write_metrics_csv", False),
    ("output.svg", "curveswarm.output", "write_snapshot_svg", False),
    ("output.solution", "curveswarm.output", "write_solution_file", False),
    ("output.cost_trace", "curveswarm.output", "write_cost_trace_csv", False),
)

# counter name -> kernel attribute of curveswarm._curve_kernels
CURVE_KERNELS = (
    ("curves.point.evals", "curve_point"),
    ("curves.deriv.evals", "curve_d1"),
    ("curves.deriv.evals", "curve_d2"),
)

ROOT = "<root>"


class Tracer:
    """Span stack, span list, aggregates and counters of one traced run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # frame: [name, time covered by child spans, span id]
        self.root = [ROOT, 0.0, 0]
        self.stack = [self.root]
        self.spans = []
        self.agg = {}
        self.counts = {}
        self.absent = []

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, aggregated, on_result=None):
        stack = self.stack
        clock = self.clock
        spans = self.spans
        agg = self.agg

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[2] if aggregated else len(spans) + 1
            frame = [name, 0.0, span_id]
            if not aggregated:
                spans.append(None)  # reserve the id in call order
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                if aggregated:
                    entry = agg.get((name, parent[0]))
                    if entry is None:
                        entry = agg[(name, parent[0])] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur - frame[1]
                else:
                    spans[span_id - 1] = (
                        span_id, name, t0 - self.t0, t1 - self.t0, parent[2], dur - frame[1]
                    )
            if on_result is not None:
                try:
                    on_result(self, args, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    if name + ":result" not in self.absent:
                        self.absent.append(name + ":result")
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            s = args[2] if len(args) > 2 else kwargs.get("s", 0.0)
            k = s.size if hasattr(s, "size") else 1
            counts[name] = counts.get(name, 0) + k
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _on_start(tracer, _args, sol):
    tracer.count("finder.iterations", int(sol.iterations))
    tracer.count("finder.useful_starts", int(bool(sol.converged and sol.feasible)))


def _on_written(tracer, args, _result):
    tracer.count("output.trajectory_csv.bytes", os.path.getsize(args[0]))


ON_RESULT = {"finder.start": _on_start, "output.trajectory_csv": _on_written}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "curveswarm" or name.startswith("curveswarm."))]


def _rebind(original, replacement):
    """Replace every module-level binding of `original` in the package."""
    hits = 0
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                hits += 1
    return hits


def _resolve(module_name, path):
    obj = sys.modules.get(module_name)
    owner = None
    for part in path.split("."):
        owner = obj
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def install(tracer):
    """Patch every boundary that exists; record the ones that do not."""
    for name, module_name, path, aggregated in BOUNDARIES:
        owner, fn = _resolve(module_name, path)
        if not callable(fn):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn, aggregated, ON_RESULT.get(name))
        attr = path.rsplit(".", 1)[-1]
        if isinstance(owner, type) or not module_name.startswith("curveswarm"):
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)
    kernels = sys.modules.get("curveswarm._curve_kernels")
    for counter, attr in CURVE_KERNELS:
        fn = getattr(kernels, attr, None)
        if not callable(fn) or not _rebind(fn, tracer.counter(counter, fn)):
            tracer.absent.append(f"{counter}:{attr}")


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <curveswarm argv...>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    import_span = tracer.wrap("cli.import", __import__, False)
    import_span("curveswarm.cli")
    cli = sys.modules["curveswarm.cli"]
    install(tracer)
    rc = cli.main(cli_argv)
    wall = tracer.clock() - tracer.t0
    numba = getattr(sys.modules.get("curveswarm"), "NUMBA_ENABLED", None)
    with open(out_path, "w") as f:
        json.dump(
            {
                "rc": rc,
                "wall_s": wall,
                "unattributed_s": wall - tracer.root[1],
                "numba_enabled": numba,
                "spans": [s for s in tracer.spans if s is not None],
                "agg": [[n, p, c, t, s] for (n, p), (c, t, s) in tracer.agg.items()],
                "counts": tracer.counts,
                "absent": tracer.absent,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

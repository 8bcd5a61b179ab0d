"""Layered benchmark of `curveswarm find` and `curveswarm simulate`.

    python3 perfbench/run.py --workload mission-deltoid --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from `src/`.

--trace 0 times fresh CLI subprocesses, one at a time, for --seconds
(always at least one pass over the workload's ops), checks every output
and prints the end-to-end metrics.  --trace 1 runs each op untraced and
then traced, back to back; the traced run is a child that imports the
package and calls `cli.main(argv)` under perfbench/tracer.py.  It prints
the per-layer metrics.  Every metric is printed as `name = value unit`; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Details, spans and run metadata go to
.perfbench_work/<workload>/result.json.

--workload all runs every workload in turn; --quick shortens the
workloads (1 s horizons, two suite curves) for the self-test.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("mission-deltoid", "square-suite", "crowd")
DEFAULT_SEED = 0
RUN_BUDGET = 165.0  # seconds; children still running then are killed
SETUP_REPEATS = 20  # half before the timed passes, half after them
MAX_UNATTRIBUTED = 0.02  # share of a traced op's wall outside every boundary

# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END = {
    "wall_s": "s",
    "op_wall_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "sim.adherence.calls": "count",
    "sim.adherence.self_s": "s",
    "control.tick.calls": "count",
    "control.tick.self_s": "s",
    "sim.loop.self_s": "s",
    "sim.ticks": "count",
    "sim.rk4.self_s": "s",
    "sim.min_pair.self_s": "s",
    "sim.lap_schedule.s": "s",
    "sim.placement.s": "s",
    "sim.placement.attempts": "count",
    "control.assign.s": "s",
    "finder.multistart.s": "s",
    "finder.starts": "count",
    "finder.iterations": "count",
    "finder.useful_start_frac": "ratio",
    "finder.residual.calls": "count",
    "finder.residual.self_s": "s",
    "finder.jacobian.calls": "count",
    "finder.jacobian.self_s": "s",
    "finder.residual_per_iter": "ratio",
    "finder.solve.self_s": "s",
    "curves.point.evals": "count",
    "curves.deriv.evals": "count",
    "cli.import_s": "s",
    "output.trajectory_csv.s": "s",
    "output.trajectory_csv.mb": "MB",
    "output.metrics_csv.s": "s",
    "output.svg.s": "s",
    "output.solution.s": "s",
    "layer.cli.self_s": "s",
    "layer.config.self_s": "s",
    "layer.curves.self_s": "s",
    "layer.finder.self_s": "s",
    "layer.control.self_s": "s",
    "layer.sim.self_s": "s",
    "layer.output.self_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}
LAYERS = ("cli", "config", "curves", "finder", "control", "sim", "output")

PROBE = """
import json, sys
import curveswarm
from curveswarm.control import make_params
from curveswarm.finder import FinderConfig
import numpy
curve = curveswarm.make_curve(sys.argv[1])
print(json.dumps({
    "numba_enabled": curveswarm.NUMBA_ENABLED,
    "numpy": numpy.__version__,
    "n_init": FinderConfig(n=4).n_init,
    "scale": curve.scale,
    "d_safe": make_params(curve).d_safe,
}))
"""
SETUP = "import sys, curveswarm; curveswarm.make_curve(sys.argv[1])"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken probe)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd, timeout, stdout_path=None):
    """Run argv to completion or until `timeout` seconds have passed, then
    kill it; returns (exit code, wall seconds, max RSS in MB).

    The child is started by vfork, and Linux counts the parent's peak RSS
    into the child's ru_maxrss.  So this process must stay well below the
    ops' own peak: it imports no numpy and reads large outputs line by line."""
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT if stdout_path else subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe(curve, cwd, timeout):
    try:
        proc = subprocess.run([sys.executable, "-c", PROBE, curve], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"probe of curve {curve} timed out")
    if proc.returncode != 0:
        raise BenchError(f"cannot import curveswarm from {SRC}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(samples):
    """Highest whole percentile with at least 10 samples beyond it, or None
    when that percentile would sit below the median."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    ordered = sorted(samples)
    rank = max(0, min(n - 1, -(-p * n // 100) - 1))  # nearest-rank
    return p, ordered[rank], n


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, name, seed, seconds, quick):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.ops = workloads.build(name, seed, quick)
        self.work = os.path.join(WORK, name)
        self.problems = []  # (pass label, op index, problem)
        self.hashes = {}
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + RUN_BUDGET

    def left(self):
        return max(0.1, self.deadline - time.perf_counter())

    def prepare(self):
        if not os.path.isfile(os.path.join(SRC, "curveswarm", "cli.py")):
            raise BenchError(f"no curveswarm sources under {SRC}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.facts = {c: probe(c, self.work, self.left()) for c in sorted({op.curve for op in self.ops})}
        first = self.facts[self.ops[0].curve]
        self.meta = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "argv": [list(op.argv) for op in self.ops],
            "numba_enabled": first["numba_enabled"],
            "python": platform.python_version(),
            "numpy": first["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "git_commit": git_commit(),
            "machine": platform.machine(),
        }

    def run_op(self, label, k, op, traced=False):
        """Run one op; returns (wall, rss, trace or None).  Records failures."""
        out_dir = os.path.join(self.work, label, f"op{k:02d}")
        os.makedirs(out_dir, exist_ok=True)
        stdout_path = os.path.join(out_dir, "stdout.txt")
        argv = [*op.argv, "--out", out_dir]
        if traced:
            trace_path = os.path.join(self.work, label, f"op{k:02d}.trace.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "curveswarm.cli", *argv]
        rc, wall, rss = spawn(cmd, self.work, self.left(), stdout_path)
        with open(stdout_path) as f:
            stdout = f.read()
        problems = workloads.check(op, out_dir, stdout, rc, self.facts[op.curve])
        result = os.path.join(out_dir, op.result_file)
        if os.path.exists(result):
            digest = sha256(result)
            if self.hashes.setdefault(k, digest) != digest:
                problems.append(f"{op.result_file} differs from the first pass")
        trace = None
        if traced:
            try:
                with open(trace_path) as f:
                    trace = json.load(f)
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
            else:
                problems += check_trace(trace)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [(label, k, p) for p in problems]
        return wall, rss, trace

    def run_pass(self, label):
        results = [self.run_op(label, k, op) for k, op in enumerate(self.ops)]
        return [w for w, _, _ in results], [r for _, r, _ in results]

    # -- tracing off --------------------------------------------------------

    def set_up(self, repeats):
        """Wall times of `repeats` fresh interpreters that import the
        package and build the workload's first curve."""
        setup_cmd = [sys.executable, "-c", SETUP, min(op.curve for op in self.ops)]
        walls = []
        for _ in range(repeats):
            rc, wall, _ = spawn(setup_cmd, self.work, self.left())
            if rc != 0:
                raise BenchError(f"set-up probe exited {rc}")
            walls.append(wall)
        return walls

    def measure(self):
        self.set_up(1)  # warm the file cache
        # set-up is sampled at both ends of the run, so that its median
        # does not hang on the host's speed during one short stretch
        setups = self.set_up(SETUP_REPEATS // 2)
        passes, rss = [], []
        start = time.perf_counter()
        while True:
            walls, rss_k = self.run_pass(f"pass{len(passes)}")
            passes.append(walls)
            rss += rss_k
            if time.perf_counter() - start + median([sum(p) for p in passes]) > self.seconds:
                break
        setups += self.set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
        op_walls = [w for p in passes for w in p]
        wall_s = median([sum(p) for p in passes])
        metrics = {
            "wall_s": wall_s,
            "op_wall_s.p50": median(op_walls),
            "peak_rss_mb": max(rss),
            "setup_s": median(setups),
        }
        extra = {"fail_frac": self.failed / self.attempted}
        if any(op.simulate for op in self.ops):
            extra["agent_s_per_s"] = sum(op.agent_seconds for op in self.ops) / wall_s
        else:
            extra["finds_per_s"] = len(self.ops) / wall_s
        tail = tail_percentile(op_walls)
        detail = {
            "pass_op_walls": passes,
            "setup_walls": setups,
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1], "samples": tail[2]},
        }
        return metrics, extra, detail

    # -- tracing on ---------------------------------------------------------

    def trace(self):
        """Each op untraced and then traced, back to back, so that the
        overhead compares runs made close together in time."""
        plain, traced, traces = [], [], []
        for k, op in enumerate(self.ops):
            plain.append(self.run_op("untraced", k, op)[0])
            wall, _, trace = self.run_op("traced", k, op, traced=True)
            traced.append(wall)
            traces.append(trace)
        traces_ok = [t for t in traces if t is not None]
        layer = per_layer(self.ops, traces, self.work)
        layer["trace_overhead_frac"] = median([t / p for t, p in zip(traced, plain)]) - 1.0
        rows = breakdown(traces_ok)
        detail = {
            "untraced_op_walls": plain,
            "traced_op_walls": traced,
            "breakdown": rows,
            "absent": sorted({a for t in traces_ok for a in t["absent"]}),
            "numba_enabled_traced": [t["numba_enabled"] for t in traces_ok],
            "predictions": predictions(self.name, layer, rows, traced),
        }
        return layer, detail


def check_trace(trace):
    """Problems of one op's trace: the self times of all spans and
    aggregates plus `unattributed_s` must add up to the traced wall, and
    the boundaries must cover all but MAX_UNATTRIBUTED of it."""
    problems = []
    wall = trace["wall_s"]
    covered = sum(s[5] for s in trace["spans"]) + sum(a[4] for a in trace["agg"])
    gap = covered + trace["unattributed_s"] - wall
    if abs(gap) > 1e-6 * max(1.0, wall):
        problems.append(f"self times miss the traced wall by {gap} s")
    if trace["unattributed_s"] > MAX_UNATTRIBUTED * wall:
        problems.append(f"{trace['unattributed_s']:.4f} s of the {wall:.4f} s traced wall lies outside "
                        f"every boundary (limit {MAX_UNATTRIBUTED:.0%}); absent: {trace['absent']}")
    return problems


def _collect(traces):
    """Sum spans and aggregates over ops: name -> [calls, total, self], plus
    the same keyed by (name, parent name)."""
    by_name, by_pair = {}, {}
    for t in traces:
        names = {s[0]: s[1] for s in t["spans"]}
        names[0] = "<root>"
        rows = [(s[1], names.get(s[4], "<root>"), 1, s[3] - s[2], s[5]) for s in t["spans"]]
        rows += [tuple(a) for a in t["agg"]]
        for name, parent, calls, total, self_s in rows:
            for table, key in ((by_name, name), (by_pair, (name, parent))):
                entry = table.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
    return by_name, by_pair


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(ops, traces, work):
    """Per-layer metrics of one traced pass; `traces` has None for an op
    whose trace is missing."""
    present = [t for t in traces if t is not None]
    by_name, by_pair = _collect(present)
    counts = {}
    for t in present:
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def entry(name, parent=None):
        found = by_pair.get((name, parent)) if parent else by_name.get(name)
        return found or [0, 0.0, 0.0]

    def calls(name, parent=None):
        return entry(name, parent)[0]

    def total(name):
        return entry(name)[1]

    def self_s(name, parent=None):
        return entry(name, parent)[2]

    # placement draws n nearest-parameter queries per attempt
    attempts = 0.0
    for op, t in zip(ops, traces):
        if t is not None:
            _, pairs = _collect([t])
            attempts += pairs.get(("sim.nearest_parameter", "sim.placement"), [0])[0] / op.n
    ticks = 0
    for k, op in enumerate(ops):
        path = os.path.join(work, "traced", f"op{k:02d}", "metrics.csv")
        if op.simulate and os.path.exists(path):
            with open(path) as f:
                ticks += sum(1 for _ in f) - 1
    starts = calls("finder.start")
    iterations = counts.get("finder.iterations", 0)
    m = {
        "sim.adherence.calls": calls("sim.nearest_on_curve", "sim.loop"),
        "sim.adherence.self_s": self_s("sim.nearest_on_curve", "sim.loop"),
        "control.tick.calls": calls("control.tick"),
        "control.tick.self_s": self_s("control.tick"),
        "sim.loop.self_s": self_s("sim.loop"),
        "sim.ticks": ticks,
        "sim.rk4.self_s": self_s("sim.rk4"),
        "sim.min_pair.self_s": self_s("sim.min_pair"),
        "sim.lap_schedule.s": total("sim.lap_schedule"),
        "sim.placement.s": total("sim.placement"),
        "sim.placement.attempts": attempts,
        "control.assign.s": total("control.assign"),
        "finder.multistart.s": total("finder.multistart"),
        "finder.starts": starts,
        "finder.iterations": iterations,
        "finder.useful_start_frac": _ratio(counts.get("finder.useful_starts", 0), starts),
        "finder.residual.calls": calls("finder.residual"),
        "finder.residual.self_s": self_s("finder.residual"),
        "finder.jacobian.calls": calls("finder.jacobian"),
        "finder.jacobian.self_s": self_s("finder.jacobian"),
        "finder.residual_per_iter": _ratio(calls("finder.residual"), iterations),
        "finder.solve.self_s": self_s("finder.solve"),
        "curves.point.evals": counts.get("curves.point.evals", 0),
        "curves.deriv.evals": counts.get("curves.deriv.evals", 0),
        "cli.import_s": total("cli.import"),
        "output.trajectory_csv.s": total("output.trajectory_csv"),
        "output.trajectory_csv.mb": counts.get("output.trajectory_csv.bytes", 0) / 1e6,
        "output.metrics_csv.s": total("output.metrics_csv"),
        "output.svg.s": total("output.svg"),
        "output.solution.s": total("output.solution"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v[2] for k, v in by_name.items() if k.split(".")[0] == layer)
    m["traced_wall_s"] = sum(t["wall_s"] for t in present)
    m["unattributed_s"] = sum(t["unattributed_s"] for t in present)
    return m


def breakdown(traces):
    _, by_pair = _collect(traces)
    wall = sum(t["wall_s"] for t in traces) or 1.0
    rows = [
        {"name": n, "parent": p, "calls": c, "total_s": tot, "self_s": s, "self_share": s / wall}
        for (n, p), (c, tot, s) in by_pair.items()
    ]
    return sorted(rows, key=lambda r: -r["self_s"])


def predictions(name, layer, rows, traced_walls):
    """Where each workload's time is predicted to go, as (claim, holds) pairs."""
    wall = sum(traced_walls) or 1.0
    if name == "mission-deltoid":
        top = f"{rows[0]['name']} under {rows[0]['parent']}" if rows else "none"
        return [
            (f"sim.adherence.self_s is the largest self time (largest: {top})",
             top == "sim.nearest_on_curve under sim.loop"),
            ("sim.lap_schedule.s below 1% of op wall", layer["sim.lap_schedule.s"] < 0.01 * wall),
        ]
    if name == "crowd":
        return [("sim.lap_schedule.s above 10% of op wall", layer["sim.lap_schedule.s"] > 0.10 * wall)]
    sim_time = layer["layer.sim.self_s"] + layer["control.tick.self_s"]
    return [("no sim.* or control.tick time", sim_time == 0.0)]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name, seed, seconds, trace, quick):
    run = Run(name, seed, seconds, quick)
    run.prepare()
    print(f"# workload {name} seed {seed}: {len(run.ops)} op(s); "
          f"backend {'numba' if run.meta['numba_enabled'] else 'numpy (numba not enabled)'}; "
          f"python {run.meta['python']} numpy {run.meta['numpy']} nproc {run.meta['nproc']}; "
          f"commit {run.meta['git_commit']}")
    if trace:
        metrics, detail = run.trace()
        units = PER_LAYER
        for row in detail["breakdown"]:
            print(f"# layer {row['name']:<26} under {row['parent']:<22} calls {row['calls']:>9}"
                  f"  total {row['total_s']:9.4f} s  self {row['self_s']:9.4f} s"
                  f"  {100 * row['self_share']:5.1f}%")
        for claim, holds in detail["predictions"]:
            print(f"# prediction {'holds' if holds else 'FAILS'}: {claim}")
        if detail["absent"]:
            print(f"# absent boundaries (reported as 0): {', '.join(detail['absent'])}")
    else:
        metrics, extra, detail = run.measure()
        units = END_TO_END
        for key, value in extra.items():
            unit = {"fail_frac": "ratio", "agent_s_per_s": "agent-s/s", "finds_per_s": "1/s"}[key]
            print(f"{key} = {fmt(value)} {unit}")
        tail = detail["tail"]
        if tail is None:
            print(f"op_wall_s.tail = omitted ({sum(map(len, detail['pass_op_walls']))} op samples; "
                  "needs 20 for a percentile at or above p50 with 10 beyond it)")
        else:
            print(f"op_wall_s.tail = {fmt(tail['value'])} s (p{tail['percentile']}, {tail['samples']} samples)")
        detail["extra"] = extra
    for key, unit in units.items():
        print(f"{key} = {fmt(metrics[key])} {unit}")
    for label, k, problem in run.problems:
        print(f"# FAILED {label} op{k:02d} {' '.join(run.ops[k].argv)}: {problem}")
    run.meta["loadavg_end"] = os.getloadavg()
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(run.work, "result.json"), "w") as f:
        json.dump({"meta": run.meta, "trace": trace, "result": result, "detail": detail,
                   "problems": run.problems}, f, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, args.quick) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

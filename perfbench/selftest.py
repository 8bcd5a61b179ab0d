"""Self-test of the benchmark, on shortened workloads (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names, and every extra end-to-end
metric, is printed with its unit on every workload; that each output
check rejects a deliberately corrupted output file; that a pass whose
result file differs from the first pass fails; that a traced boundary
missing from the package is reported as absent, not as a crash; and that
a trace whose self times do not add up, or whose boundaries leave more
than run.MAX_UNATTRIBUTED of the wall uncovered, fails.
Exits 0 when all hold and prints each failure otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.WORK, "selftest")
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--quick",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    expect(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
    return proc.stdout.splitlines()


def printed(lines, name, unit):
    pattern = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)")
    return sum(1 for line in lines if pattern.match(line))


def check_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for trace, key, table in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        expect(names == table, f"BENCHMARK.json {key} matches run.py")
        lines = bench(trace)
        results = [json.loads(line) for line in lines if line.startswith("{")]
        expect(len(results) == len(run.WORKLOADS), f"--trace {trace} prints one result per workload")
        for result in results:
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names and result["correct"] and result["failed"] == 0,
                   f"--trace {trace} result has exactly the declared metrics, correct, no failures")
        for name, unit in names.items():
            expect(printed(lines, name, unit) == len(run.WORKLOADS), f"{name} printed in {unit} per workload")
        if trace == 0:
            expect(printed(lines, "fail_frac", "ratio") == 3, "fail_frac printed per workload")
            expect(printed(lines, "agent_s_per_s", "agent-s/s") == 2, "agent_s_per_s printed on both missions")
            expect(printed(lines, "finds_per_s", "1/s") == 1, "finds_per_s printed on square-suite")
            expect(sum(line.startswith("op_wall_s.tail = ") for line in lines) == 3,
                   "op_wall_s.tail printed (or its omission stated) per workload")
        else:
            expect(sum(line.startswith("# prediction") for line in lines) >= 3, "predictions printed")


def corrupt(src, dst, path, old, new):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    target = os.path.join(dst, path)
    with open(target) as f:
        text = f.read()
    if old is None:
        text = new(text)
    else:
        assert old in text, (path, old)
        text = text.replace(old, new, 1)
    with open(target, "w") as f:
        f.write(text)
    return dst


def check_find_rejections():
    quick = run.Run("square-suite", 0, 1.0, quick=True)
    quick.prepare()
    op = quick.ops[0]
    quick.run_op("good", 0, op)
    good = os.path.join(quick.work, "good", "op00")
    facts = quick.facts[op.curve]
    expect(not workloads.check(op, good, "", 0, facts), "find check accepts a good solution.txt")
    expect(workloads.check(op, good, "", 3, facts), "find check rejects exit code 3")
    bad = os.path.join(SCRATCH, "find")
    with open(os.path.join(good, "solution.txt")) as f:
        residual_line = next(line for line in f if line.startswith("residual_norm"))
    cases = {
        "feasible = False": ("feasible = True", "feasible = False"),
        "residual_norm 1e-3": (residual_line, "residual_norm = 0.001\n"),
        "a [starts] row dropped": (None, lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
        "a [starts] row added": (None, lambda t: t + t.rstrip("\n").rsplit("\n", 1)[1] + "\n"),
    }
    for label, (old, new) in cases.items():
        corrupt(good, bad, "solution.txt", old, new)
        expect(workloads.check(op, bad, "", 0, facts), f"find check rejects {label}")
    # a later pass whose solution.txt differs from the first pass fails
    quick.hashes[0] = "0" * 64
    failed = quick.failed
    quick.run_op("again", 0, op)
    expect(quick.failed == failed + 1, "a result file differing from the first pass fails the op")


def write_mission(out_dir, n, horizon, d_safe, sigma=1.0):
    os.makedirs(out_dir, exist_ok=True)
    steps = int(round(horizon / workloads.DT)) + 1
    with open(os.path.join(out_dir, "metrics.csv"), "w") as f:
        f.write("t,min_distance,mean_adherence" + "".join(f",sigma_{i}" for i in range(n)) + "\n")
        for k in range(steps):
            f.write(f"{k * workloads.DT!r},{d_safe!r},0.001" + f",{sigma!r}" * n + "\n")
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as f:
        f.write("t,agent,x,y\n0.0,0,1.0,2.0\n")


def check_mission_rejections():
    facts = {"d_safe": 0.1, "scale": 1.0, "n_init": 32}
    op = workloads.Op(("simulate",), "deltoid", 4, 120.0, criterion_08=True)
    good = os.path.join(SCRATCH, "mission-good")
    shutil.rmtree(good, ignore_errors=True)
    write_mission(good, 4, 120.0, facts["d_safe"])
    stdout = "curve=deltoid n=4 seed=0 t_end=120.00s collision=False min_distance=0.1 sigma_min=1 vertex_error_max=0.001"
    expect(not workloads.check(op, good, stdout, 0, facts), "criterion-08 check accepts good outputs")
    bad = os.path.join(SCRATCH, "mission-bad")
    row100 = f"{10000 * workloads.DT!r},0.1,0.001,1.0,1.0,1.0,1.0\n"
    metrics_cases = {
        "min sigma at 100 s below 0.99": (row100, row100.replace("1.0,1.0\n", "1.0,0.5\n")),
        "min distance below 0.95 d_safe": (row100, row100.replace(",0.1,", ",0.05,", 1)),
        "a non-finite metric": (row100, row100.replace("0.001", "nan")),
        "a truncated metrics.csv": (None, lambda t: t[: len(t) // 2].rsplit("\n", 1)[0] + "\n"),
    }
    for label, (old, new) in metrics_cases.items():
        corrupt(good, bad, "metrics.csv", old, new)
        expect(workloads.check(op, bad, stdout, 0, facts), f"mission check rejects {label}")
    corrupt(good, bad, "trajectory.csv", "2.0", "nan")
    expect(workloads.check(op, bad, stdout, 0, facts), "mission check rejects a non-finite state")
    for label, text in (("a collision", stdout.replace("collision=False", "collision=True")),
                        ("a vertex error above 0.02 scale", stdout.replace("=0.001", "=0.5"))):
        expect(workloads.check(op, good, text, 0, facts), f"mission check rejects {label}")
    expect(workloads.check(op, good, stdout, 4, facts), "mission check rejects exit code 4")
    crowd = workloads.Op(("simulate",), "ellipse", 4, 120.0)
    expect(not workloads.check(crowd, good, stdout.replace("=0.001", "=0.5"), 0, facts),
           "crowd check ignores the criterion-08 limits")


def check_absent_boundary():
    trace_path = os.path.join(SCRATCH, "absent.trace.json")
    out = os.path.join(SCRATCH, "absent-out")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer;"
        "tracer.BOUNDARIES += (('sim.renamed', 'curveswarm.sim', 'no_such_function', False),"
        " ('finder.gone', 'curveswarm.no_such_module', 'f', True));"
        "sys.exit(tracer.main(sys.argv[2:]))"
    )
    argv = [sys.executable, "-c", code, HERE, trace_path, "--", "find", "--curve", "ellipse",
            "--n", "4", "--square-mode", "--seed", "9", "--out", out]
    proc = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
                          timeout=120)
    expect(proc.returncode == 0, f"tracer survives missing boundaries ({proc.stderr.strip()[-300:]})")
    with open(trace_path) as f:
        absent = json.load(f)["absent"]
    expect({"sim.renamed", "finder.gone"} <= set(absent), "missing boundaries are reported as absent")


def check_trace_coverage():
    # one span covering 99.5% of the wall, then the same span 50% of it
    covered = {"wall_s": 2.0, "unattributed_s": 0.01, "spans": [[1, "cli.main", 0.0, 1.99, 0, 1.99]],
               "agg": [], "absent": []}
    expect(not run.check_trace(covered), "a trace whose boundaries cover the wall passes")
    lost = dict(covered, unattributed_s=1.0, spans=[[1, "cli.main", 0.0, 1.0, 0, 1.0]])
    expect(run.check_trace(lost), "a trace with half its wall outside every boundary fails")
    broken = dict(covered, unattributed_s=0.5)
    expect(run.check_trace(broken), "self times that do not add up to the traced wall fail")


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    check_find_rejections()
    check_mission_rejections()
    check_absent_boundary()
    check_trace_coverage()
    check_printed_metrics()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads (fixed lists of curveswarm CLI invocations) and output checks.

Each check takes the op, its output directory, captured stdout, exit code
and the curve facts probed from the package, and returns a list of
problems; an empty list means the op's outputs are correct.
"""

import math
import os
import random
from dataclasses import dataclass

# the 16-curve inscribed-square suite of acceptance criterion 04
SQUARE_SUITE = (
    "ellipse", "superellipse", "cassini-pinched", "cassini-oval",
    "lemniscate", "lissajous-32", "lissajous-54", "rose-3", "rose-2",
    "fourier-blob", "peanut", "deltoid", "nephroid", "spirograph-3",
    "spirograph-4", "gear-hermite",
)
QUICK_SUITE = ("ellipse", "deltoid")
DT = 0.01  # the CLI's default integration step


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `out` is appended per pass."""

    argv: tuple
    curve: str
    n: int
    horizon: float = 0.0  # simulated seconds; 0 for `find`
    criterion_08: bool = False  # check sigma, vertex error and distance limits

    @property
    def simulate(self):
        return self.argv[0] == "simulate"

    @property
    def agent_seconds(self):
        return self.n * self.horizon

    @property
    def result_file(self):
        """The file whose bytes must repeat across passes."""
        return "metrics.csv" if self.simulate else "solution.txt"


# why each workload exists; BENCHMARK.json repeats these lines
WHY = {
    "mission-deltoid": "acceptance case 08a: sweep, hand-over and station keeping; adherence dominates the mission loop",
    "square-suite": "acceptance case 04: 16 square-mode formation searches; only the finder and interpreter start-up work",
    "crowd": "12 agents over 10 s: per-agent control, pair checks, lap search and placement weigh more than on deltoid",
}


def build(name, seed, quick=False):
    """The ops of one workload pass.

    The CLI seeds are those of the reference cases (deltoid 0, suite 9,
    crowd 0), at which the acceptance checks are defined; other seeds can
    fail them (at seed 1 lemniscate has no inscribed square).  The
    benchmark seed orders the suite's curves instead.
    """
    if name == "mission-deltoid":
        horizon = 1.0 if quick else 120.0
        argv = ("simulate", "--curve", "deltoid", "--n", "4", "--target", "0,0",
                "--seed", "0", "--horizon", repr(horizon))
        return [Op(argv, "deltoid", 4, horizon, criterion_08=not quick)]
    if name == "square-suite":
        curves = list(QUICK_SUITE if quick else SQUARE_SUITE)
        random.Random(seed).shuffle(curves)
        return [Op(("find", "--curve", c, "--n", "4", "--square-mode", "--seed", "9"), c, 4)
                for c in curves]
    if name == "crowd":
        horizon = 1.0 if quick else 10.0
        argv = ("simulate", "--curve", "ellipse", "--n", "12", "--seed", "0",
                "--horizon", repr(horizon))
        return [Op(argv, "ellipse", 12, horizon)]
    raise ValueError(f"unknown workload {name!r}")


def check(op, out_dir, stdout, rc, facts):
    if rc != 0:
        return [f"exit code {rc}"]
    if op.simulate:
        return check_mission(op, out_dir, stdout, facts)
    return check_find(out_dir, facts)


def _sections(path):
    sections = {}
    current = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], [])
            elif line and not line.startswith("#") and current is not None:
                current.append(line)
    return sections


def check_find(out_dir, facts):
    """feasible = True, residual_norm <= 1e-9, one [starts] row per start."""
    path = os.path.join(out_dir, "solution.txt")
    if not os.path.exists(path):
        return ["solution.txt missing"]
    sections = _sections(path)
    fields = dict(
        (k.strip(), v.strip())
        for k, _, v in (line.partition("=") for line in sections.get("solution", []))
    )
    problems = []
    if fields.get("feasible") != "True":
        problems.append(f"feasible = {fields.get('feasible')}")
    try:
        residual = float(fields.get("residual_norm", "nan"))
    except ValueError:
        residual = math.nan
    if not residual <= 1e-9:
        problems.append(f"residual_norm = {residual} (> 1e-9)")
    rows = sections.get("starts", [])
    indices = [row.split()[0] for row in rows]
    if indices != [str(i) for i in range(len(rows))]:
        problems.append("[starts] indices are not 0..k-1")
    if len(rows) != facts["n_init"]:
        problems.append(f"{len(rows)} [starts] rows for {facts['n_init']} starts")
    return problems


def read_metrics(path):
    """metrics.csv as (header, rows of floats)."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in f if line.strip()]
    return header, rows


def _stdout_value(stdout, key):
    for token in stdout.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    return None


def check_mission(op, out_dir, stdout, facts):
    """Exit 0, no collision, all-finite outputs over the whole horizon;
    for criterion 08 also min sigma at 100 s >= 0.99, vertex error
    <= 0.02 scale and min distance >= 0.95 d_safe."""
    problems = []
    if _stdout_value(stdout, "collision") != "False":
        problems.append(f"collision={_stdout_value(stdout, 'collision')}")
    path = os.path.join(out_dir, "metrics.csv")
    if not os.path.exists(path):
        return problems + ["metrics.csv missing"]
    try:
        header, rows = read_metrics(path)
    except ValueError as exc:
        return problems + [f"metrics.csv unreadable: {exc}"]
    expected = int(round(op.horizon / DT)) + 1
    if len(rows) != expected:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {expected}")
    if any(not math.isfinite(x) for row in rows for x in row):
        problems.append("metrics.csv holds non-finite values")
    traj = os.path.join(out_dir, "trajectory.csv")
    if not os.path.exists(traj):
        problems.append("trajectory.csv missing")
    else:
        # line by line: the benchmark process must stay small (run.spawn)
        with open(traj, "rb") as f:
            if any(b"nan" in line.lower() or b"inf" in line.lower() for line in f):
                problems.append("trajectory.csv holds non-finite states")
    if not op.criterion_08 or not rows:
        return problems
    sig = [i for i, h in enumerate(header) if h.startswith("sigma_")]
    k100 = min(int(round(100.0 / DT)), len(rows) - 1)
    sigma100 = min(rows[k100][i] for i in sig) if sig else math.nan
    if not sigma100 >= 0.99:
        problems.append(f"min sigma at 100 s = {sigma100} (< 0.99)")
    dmin = min(row[header.index("min_distance")] for row in rows)
    if not dmin >= 0.95 * facts["d_safe"]:
        problems.append(f"min distance {dmin} (< 0.95 d_safe = {0.95 * facts['d_safe']})")
    try:
        err = float(_stdout_value(stdout, "vertex_error_max"))
    except (TypeError, ValueError):
        err = math.nan
    if not err <= 0.02 * facts["scale"]:
        problems.append(f"vertex error {err} (> 0.02 scale = {0.02 * facts['scale']})")
    return problems

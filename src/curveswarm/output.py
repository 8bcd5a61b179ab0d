"""File emission: trajectory and metrics CSVs, solution files, SVG snapshots.

All writers format floats with repr (shortest round-trip form), so a
rerun with the same seed produces byte-identical files; that is the
reproducibility contract the CLI and tests rely on.

trajectory.csv and metrics.csv, the two files with one row per tick,
are formatted block by block while the mission loop runs, by a forked
child or in-process (MissionWriter).  Either file only ever appears
whole: rows go to a .part file that is renamed when done.
"""

import os
from contextlib import closing

import numpy as np

from .curves import Curve
from ._sim_kernels import TICK_BLOCK, TRAJECTORY_COLUMNS

# a trajectory.csv row is a record row after its time and agent index
TRAJECTORY_HEADER = ",".join(("t", "agent") + TRAJECTORY_COLUMNS)

# the writer pipe's capacity, five 512-tick blocks of four agents; the
# largest an unprivileged Linux process may set by default
PIPE_BYTES = 1 << 20

SVG_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#b7950b", "#7d3c98", "#148f77")


def _fmt(x) -> str:
    return repr(float(x))


def _reprs(a) -> list:
    """The repr of every entry of the array a, in C order."""
    return list(map(repr, a.ravel().tolist()))


def _lines(rows) -> str:
    """CSV lines of the rows, each a sequence of strings; at least one row."""
    return "\n".join(map(",".join, rows)) + "\n"


def _trajectory_rows(t_strs, values, n) -> str:
    """trajectory.csv rows of one block of n-agent records.

    t_strs holds one time string per tick and values the repr of every
    record value (_reprs of the records), tick by tick, agent by agent;
    column c of the rows is values[c::len(TRAJECTORY_COLUMNS)].
    """
    width = len(TRAJECTORY_COLUMNS)
    return _lines(
        zip(
            (t for t in t_strs for _ in range(n)),
            list(map(str, range(n))) * len(t_strs),
            *(values[c::width] for c in range(width)),
        )
    )


def _metrics_rows(t_strs, min_distance, adherence, sigma_strs, n) -> str:
    """metrics.csv rows of one block: time, safety distance, adherence, sigma.

    sigma_strs holds the repr of each agent's sigma, tick by tick.
    """
    return _lines(
        zip(
            t_strs,
            map(repr, min_distance.tolist()),
            map(repr, adherence.tolist()),
            *(sigma_strs[i::n] for i in range(n)),
        )
    )


def _remove(path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _metrics_header(n) -> str:
    return "t,min_distance,mean_adherence" + "".join(f",sigma_{i}" for i in range(n))


class _Rows:
    """Both CSVs, formatted into their .part files a block at a time.

    Record k is at time k * dt, as in run_mission.  Each value's repr is
    taken once: the block's time and sigma strings serve both files.
    """

    def __init__(self, parts, dt):
        self.files = [open(part, "w") for part in parts]
        self.dt = dt
        self.k = 0

    def write(self, records, min_distance, adherence) -> None:
        m, n = records.shape[:2]
        traj, metrics = self.files
        if self.k == 0:
            traj.write(TRAJECTORY_HEADER + "\n")
            metrics.write(_metrics_header(n) + "\n")
        t_strs = _reprs(np.arange(self.k, self.k + m) * self.dt)
        values = _reprs(records)
        traj.write(_trajectory_rows(t_strs, values, n))
        sigma_strs = values[TRAJECTORY_COLUMNS.index("sigma") :: len(TRAJECTORY_COLUMNS)]
        metrics.write(_metrics_rows(t_strs, min_distance, adherence, sigma_strs, n))
        self.k += m

    def close(self) -> None:
        for f in self.files:
            f.close()


def _format_stream(fd, parts, dt) -> None:
    """The forked child's work: format every block read from fd.

    A block is two int64 (ticks m, agents n), then float64: m minimum
    distances, m mean adherences and the m x n x len(TRAJECTORY_COLUMNS)
    records; the stream ends at the end of the pipe.  parts are the
    .part paths of trajectory.csv and metrics.csv.
    """
    width = len(TRAJECTORY_COLUMNS)
    with os.fdopen(fd, "rb") as pipe, closing(_Rows(parts, dt)) as rows:
        while head := pipe.read(16):
            m, n = np.frombuffer(head, dtype=np.int64).tolist()
            body = pipe.read(8 * m * (2 + n * width))
            min_distance, adherence = np.frombuffer(body, count=2 * m).reshape(2, m)
            records = np.frombuffer(body, offset=16 * m).reshape(m, n, width)
            rows.write(records, min_distance, adherence)


class MissionWriter:
    """Formats trajectory.csv and metrics.csv block by block while a mission runs.

    Pass send to run_mission as on_block, then complete the files with
    write_trajectory_csv and write_metrics_csv.  The first block creates
    the output directory, so a mission that fails before its loop leaves
    nothing behind.  A first block of TICK_BLOCK records forks a child
    that formats each block piped to it, on another core, into the two
    paths + ".part".  Without os.fork, when the fork fails, or for a
    mission shorter than one block, send formats each block in-process
    with the same _Rows code; no block outlives its send.  Use it as a
    context manager: leaving the block kills and reaps a child still
    running and deletes the .part files left, whatever the exception.
    """

    def __init__(self, trajectory_path, metrics_path, dt):
        self.parts = (os.fspath(trajectory_path) + ".part", os.fspath(metrics_path) + ".part")
        self.dt = dt
        self.pid = None
        self._fd = None
        self._rows = None  # formats in-process when there is no child
        self._started = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, records, min_distance, adherence) -> None:
        """Format the next block, or pipe it to the child; the first block starts either."""
        if not self._started:
            self._started = True
            os.makedirs(os.path.dirname(self.parts[0]) or ".", exist_ok=True)
            # a first block shorter than TICK_BLOCK is the whole mission,
            # too short to be worth a fork
            if records.shape[0] == TICK_BLOCK and hasattr(os, "fork"):
                self._fork()
            if self.pid is None:
                self._rows = _Rows(self.parts, self.dt)
        if self._rows is not None:
            self._rows.write(records, min_distance, adherence)
            return
        m, n = records.shape[:2]
        frame = memoryview(
            np.array((m, n), dtype=np.int64).tobytes()
            + min_distance.tobytes()
            + adherence.tobytes()
            + records.tobytes()
        )
        while frame:
            frame = frame[os.write(self._fd, frame) :]

    def _fork(self) -> None:
        r, w = os.pipe()
        try:
            # a default pipe holds 64 KB, less than one block: room for a
            # few blocks keeps the loop out of os.write while the child
            # catches up; where the call is missing or refused the pipe
            # keeps its size
            import fcntl

            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory: format in-process
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            # the child exits here and never returns into the caller's
            # stack; it runs Python and numpy buffer code only, so no
            # lock held by another thread (a BLAS worker) at the fork
            # can stall it
            status = 1
            try:
                os.close(w)
                _format_stream(r, self.parts, self.dt)
                status = 0
            except BaseException as exc:
                os.write(2, f"mission writer: {exc!r}\n".encode())
            finally:
                os._exit(status)
        os.close(r)
        self.pid, self._fd = pid, w

    def wait(self) -> bool:
        """Finish both .part files, here or by ending the child's stream; True if written."""
        if self._rows is not None:
            self._rows.close()
        if self.pid is not None:
            os.close(self._fd)
            self._fd = None
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            if code != 0:
                raise OSError(f"mission writer for {self.parts[0]} failed (exit {code})")
        return self._started

    def close(self) -> None:
        """Kill and reap a child still running; delete the .part files left."""
        if self._rows is not None:
            self._rows.close()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.pid is not None:
            import signal  # only this rare path needs it

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._started:
            for part in self.parts:
                _remove(part)


def _complete(path, writer, write) -> None:
    """Rename the writer's path + ".part" to path, or fill it with write(f) first."""
    part = os.fspath(path) + ".part"
    try:
        if writer is None or not writer.wait():
            with open(part, "w") as f:
                write(f)
        os.replace(part, path)
    except BaseException:
        _remove(part)
        raise


def write_trajectory_csv(path, writer) -> None:
    """One row per (time, agent): states, weights, control triple.

    Completes path from the MissionWriter that was sent every block of
    the mission: its rows in path + ".part" are renamed to path.  A
    mission that made no record gets the header alone.
    """
    _complete(path, writer, lambda f: f.write(TRAJECTORY_HEADER + "\n"))


def write_metrics_csv(path, metrics, writer=None) -> None:
    """Shared time grid: safety distance, adherence, per-agent sigma.

    Completed like write_trajectory_csv from a MissionWriter, or
    formatted here from the metrics.
    """
    n = metrics.sigma.shape[1]

    def write(f):
        f.write(_metrics_header(n) + "\n")
        for k in range(0, metrics.times.shape[0], TICK_BLOCK):
            block = slice(k, k + TICK_BLOCK)
            f.write(
                _metrics_rows(
                    _reprs(metrics.times[block]), metrics.min_distance[block],
                    metrics.mean_adherence[block], _reprs(metrics.sigma[block]), n,
                )
            )

    _complete(path, writer, write)


def write_solution_file(path, best, runs=None) -> None:
    """Chosen formation plus a one-line summary of every solver start."""
    with open(path, "w") as f:
        f.write("[solution]\n")
        f.write(f"n = {best.theta.shape[0]}\n")
        f.write(f"feasible = {best.feasible}\n")
        f.write(f"converged = {best.converged}\n")
        f.write(f"convex = {best.convex}\n")
        f.write(f"status = {best.status}\n")
        f.write(f"init = {best.init_kind}:{best.init_index}\n")
        f.write(f"iterations = {best.iterations}\n")
        f.write(f"cost = {_fmt(best.cost)}\n")
        f.write(f"residual_norm = {_fmt(best.residual_norm)}\n")
        f.write(f"mean_side = {_fmt(best.mean_side)}\n")
        f.write(
            "center = " + _fmt(best.center[0]) + ", " + _fmt(best.center[1]) + "\n"
        )
        f.write("theta = " + ", ".join(_fmt(t) for t in best.theta) + "\n")
        for k, (vx, vy) in enumerate(best.vertices):
            f.write(f"vertex_{k} = " + _fmt(vx) + ", " + _fmt(vy) + "\n")
        if runs is not None:
            f.write("\n[starts]\n")
            f.write(
                "# index kind iterations status cost residual_norm"
                " feasible converged\n"
            )
            for run in runs:
                f.write(
                    f"{run.init_index} {run.init_kind} {run.iterations}"
                    f" {run.status} " + _fmt(run.cost) + " "
                    + _fmt(run.residual_norm)
                    + f" {run.feasible} {run.converged}\n"
                )


def write_cost_trace_csv(path, runs) -> None:
    """Long-format per-iteration cost of every start, for convergence plots."""
    with open(path, "w") as f:
        f.write("start,init_kind,iteration,cost\n")
        for run in runs:
            for k, cost in enumerate(run.cost_trace):
                f.write(f"{run.init_index},{run.init_kind},{k}," + _fmt(cost) + "\n")


# bytes a sample row may hold while format_samples_csv builds the table (about
# 400 measured, plus its encoded copy), within a 1 GiB budget like the finder's
SAMPLE_ROW_BYTES = 1024
SAMPLE_BUDGET = 1 << 30


def format_samples_csv(curve: Curve, n: int) -> str:
    """n curve samples with tangent and curvature columns, endpoint closed."""
    rows = ["s,x,y,tangent_x,tangent_y,curvature"]
    for s in np.linspace(0.0, 2.0 * np.pi, n):
        p = curve.point(float(s))
        fr = curve.frenet(float(s))
        rows.append(
            _fmt(s) + "," + _fmt(p[0]) + "," + _fmt(p[1]) + ","
            + _fmt(fr.tangent[0]) + "," + _fmt(fr.tangent[1]) + ","
            + _fmt(fr.curvature)
        )
    return "\n".join(rows) + "\n"


def write_samples_csv(path, curve: Curve, n: int) -> None:
    with open(path, "w") as f:
        f.write(format_samples_csv(curve, n))


def _svg_mapper(curve: Curve):
    """World-to-SVG transform: square viewBox around the curve, y up.

    Returns (to_svg, size, k, pts): to_svg maps x and y (floats or arrays)
    to SVG coordinates, k is its scale and pts the 1024 outline points.
    """
    pts = curve.point(np.linspace(0.0, 2.0 * np.pi, 1024))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    c = 0.5 * (lo + hi)
    half = float(np.max(hi - lo)) * 0.5 + 0.35 * curve.scale
    size = 720.0
    k = size / (2.0 * half)

    def to_svg(x, y):
        return (x - c[0] + half) * k, (c[1] + half - y) * k

    return to_svg, size, k, pts


def _polyline(f, xs, ys, stroke, width, opacity=1.0):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    f.write(
        f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
        f' stroke-width="{width:.2f}" stroke-opacity="{opacity:.2f}"/>\n'
    )


def write_snapshot_svg(path, curve: Curve, metrics, pose, k: int) -> None:
    """Scene at record k of run_mission's pose: curve, trails up to k, agents, targets."""
    to_svg, size, sc, pts = _svg_mapper(curve)
    k = min(max(k, 0), pose.shape[0] - 1)
    t = float(metrics.times[k])
    n = pose.shape[1]
    tick = 0.045 * curve.scale
    with open(path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}"'
            f' height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        )
        f.write(f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>\n')
        # the outline, closed on its first point
        xs, ys = (a.tolist() for a in to_svg(pts[:, 0], pts[:, 1]))
        _polyline(f, xs + xs[:1], ys + ys[:1], "#9aa0a6", 1.6)
        if metrics.assignment is not None:
            arm = 0.05 * curve.scale * sc
            for vx, vy in metrics.assignment.position:
                x, y = to_svg(float(vx), float(vy))
                f.write(
                    f'<path d="M {x - arm:.2f} {y - arm:.2f} L {x + arm:.2f}'
                    f' {y + arm:.2f} M {x - arm:.2f} {y + arm:.2f} L'
                    f' {x + arm:.2f} {y - arm:.2f}" stroke="#202124"'
                    f' stroke-width="2.0" fill="none"/>\n'
                )
        for i in range(n):
            color = SVG_COLORS[i % len(SVG_COLORS)]
            # every fourth record up to k
            xs, ys = to_svg(pose[0 : k + 1 : 4, i, 0], pose[0 : k + 1 : 4, i, 1])
            if xs.shape[0] >= 2:
                _polyline(f, xs.tolist(), ys.tolist(), color, 1.2, opacity=0.55)
            x, y, psi = pose[k, i].tolist()
            cx, cy = to_svg(x, y)
            hx, hy = to_svg(x + tick * np.cos(psi), y + tick * np.sin(psi))
            f.write(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5.0" fill="{color}"/>\n'
            )
            f.write(
                f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{hx:.2f}" y2="{hy:.2f}"'
                f' stroke="{color}" stroke-width="2.2"/>\n'
            )
        f.write(
            f'<text x="12" y="24" font-family="monospace" font-size="16"'
            f' fill="#202124">t = {t:.2f} s</text>\n'
        )
        f.write("</svg>\n")

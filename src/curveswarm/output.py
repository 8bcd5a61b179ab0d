"""File emission: trajectory and metrics CSVs, solution files, SVG snapshots.

All writers format floats with repr (shortest round-trip form), so a
rerun with the same seed produces byte-identical files; that is the
reproducibility contract the CLI and tests rely on.

trajectory.csv, the largest and slowest file, can be formatted by a
forked child while the mission loop runs (TrajectoryWriter).  It only
ever appears whole: rows go to a .part file that is renamed when done.
"""

import os

import numpy as np

from .curves import Curve
from .sim import TRAJECTORY_COLUMNS

# trajectory log column indices for the CSV payload after (t, agent):
# every logged column except the avoidance duty factor
_LOG_COLS = tuple(
    c for c, name in enumerate(TRAJECTORY_COLUMNS) if name != "alpha_duty"
)
TRAJECTORY_HEADER = ",".join(
    ("t", "agent") + tuple(TRAJECTORY_COLUMNS[c] for c in _LOG_COLS)
)

SVG_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#b7950b", "#7d3c98", "#148f77")


def _fmt(x) -> str:
    return repr(float(x))


def _write_ticks(f, times, data) -> None:
    """trajectory.csv rows of the records data (ticks, n, columns) at times.

    Formats one tick at a time: a whole-log tolist() would hold every
    value as a Python float at once.
    """
    cols = list(_LOG_COLS)
    for t, tick in zip(times.tolist(), data):
        t_str = repr(t)
        for i, row in enumerate(tick[:, cols].tolist()):
            f.write(f"{t_str},{i},{','.join(map(repr, row))}\n")


def _remove(path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _format_stream(fd, part) -> None:
    """The forked child's work: format every block read from fd into part.

    A block is two int64 (ticks m, agents n), m float64 times and the
    m x n x len(TRAJECTORY_COLUMNS) float64 records; the stream ends at
    the end of the pipe.
    """
    width = len(TRAJECTORY_COLUMNS)
    with os.fdopen(fd, "rb") as pipe, open(part, "w") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        while True:
            head = pipe.read(16)
            if not head:
                return
            m, n = np.frombuffer(head, dtype=np.int64).tolist()
            body = pipe.read(8 * m * (1 + n * width))
            times = np.frombuffer(body, count=m)
            _write_ticks(f, times, np.frombuffer(body, offset=8 * m).reshape(m, n, width))


class TrajectoryWriter:
    """Formats trajectory.csv in a forked child while a mission runs.

    Pass send to run_mission as on_block, then complete the file with
    write_trajectory_csv(path, log, writer).  The first block creates
    the output directory and forks the child, which formats each block
    into path + ".part" on another core, so a mission that fails before
    its loop leaves nothing behind.  Without os.fork, or when the fork
    fails, send does nothing and write_trajectory_csv formats the whole
    log in-process.  Use it as a context manager: leaving the block
    kills and reaps a child still running and deletes its .part file,
    whatever the exception.
    """

    def __init__(self, path, dt):
        self.path = os.fspath(path)
        self.dt = dt  # record k is at time k * dt, as in run_mission
        self.sent = 0  # records sent to the child
        self.pid = None
        self._fd = None
        self._inline = not hasattr(os, "fork")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, block) -> None:
        """Pipe the next block of records to the child, forking it first."""
        if self._inline:
            return
        if self.pid is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: format in-process
                os.close(r)
                os.close(w)
                self._inline = True
                return
            if pid == 0:
                # the child exits here and never returns into the caller's
                # stack; it runs Python and numpy buffer code only, so no
                # lock held by another thread (a BLAS worker) at the fork
                # can stall it
                status = 1
                try:
                    os.close(w)
                    _format_stream(r, self.path + ".part")
                    status = 0
                except BaseException as exc:
                    os.write(2, f"trajectory writer: {exc!r}\n".encode())
                finally:
                    os._exit(status)
            os.close(r)
            self.pid, self._fd = pid, w
        times = np.arange(self.sent, self.sent + block.shape[0]) * self.dt
        self._put(times, block)

    def _put(self, times, data) -> None:
        m, n = data.shape[:2]
        frame = memoryview(
            np.array((m, n), dtype=np.int64).tobytes() + times.tobytes() + data.tobytes()
        )
        while frame:
            frame = frame[os.write(self._fd, frame) :]
        self.sent += m

    def finish(self, log) -> None:
        """Send the records not yet sent, then wait for the child to end."""
        self._put(log.times[self.sent :], log.data[self.sent :])
        os.close(self._fd)
        self._fd = None
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0:
            raise OSError(f"trajectory writer for {self.path} failed (exit {code})")

    def close(self) -> None:
        """Kill and reap a child still running; delete its .part file."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.pid is not None:
            import signal  # only this rare path needs it

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            _remove(self.path + ".part")


def write_trajectory_csv(path, log, writer=None) -> None:
    """One row per (time, agent): states, weights, control triple.

    The rows go to path + ".part", renamed to path once complete.  A
    writer whose child is running (TrajectoryWriter.send) is sent the
    records it has not seen and waited for; otherwise the log is
    formatted here.
    """
    part = os.fspath(path) + ".part"
    try:
        if writer is not None and writer.pid is not None:
            writer.finish(log)
        else:
            with open(part, "w") as f:
                f.write(TRAJECTORY_HEADER + "\n")
                _write_ticks(f, log.times, log.data)
        os.replace(part, path)
    except BaseException:
        _remove(part)
        raise


def write_metrics_csv(path, metrics) -> None:
    """Shared time grid: safety distance, adherence, per-agent sigma."""
    sigma = metrics.sigma
    n = sigma.shape[1] if sigma.ndim == 2 else 0
    header = "t,min_distance,mean_adherence" + "".join(
        f",sigma_{i}" for i in range(n)
    )
    table = np.column_stack(
        (metrics.times, metrics.min_distance, metrics.mean_adherence)
        + ((sigma,) if n else ())
    )
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in table:
            f.write(",".join(map(repr, row.tolist())) + "\n")


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
    """World-to-SVG transform: square viewBox around the curve, y up."""
    pts = curve.point(np.linspace(0.0, 2.0 * np.pi, 1024))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    c = 0.5 * (lo + hi)
    half = float(np.max(hi - lo)) * 0.5 + 0.35 * curve.scale
    size = 720.0
    k = size / (2.0 * half)

    def to_svg(p):
        return (
            (float(p[0]) - c[0] + half) * k,
            (c[1] + half - float(p[1])) * k,
        )

    return to_svg, size, k


def _polyline(f, pts, stroke, width, opacity=1.0, dash=None):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    f.write(
        f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
        f' stroke-width="{width:.2f}" stroke-opacity="{opacity:.2f}"{extra}/>\n'
    )


def write_snapshot_svg(path, curve: Curve, log, k: int, assignment=None) -> None:
    """Scene at record k: curve, trails up to k, agents, mission targets."""
    to_svg, size, sc = _svg_mapper(curve)
    data = log.data
    k = min(max(k, 0), data.shape[0] - 1)
    t = float(log.times[k])
    n = data.shape[1]
    tick = 0.045 * curve.scale
    with open(path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}"'
            f' height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        )
        f.write(f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>\n')
        curve_pts = [
            to_svg(p)
            for p in curve.point(np.linspace(0.0, 2.0 * np.pi, 1024))
        ]
        _polyline(f, curve_pts + curve_pts[:1], "#9aa0a6", 1.6)
        if assignment is not None:
            arm = 0.05 * curve.scale * sc
            for vx, vy in assignment.position:
                x, y = to_svg((vx, vy))
                f.write(
                    f'<path d="M {x - arm:.2f} {y - arm:.2f} L {x + arm:.2f}'
                    f' {y + arm:.2f} M {x - arm:.2f} {y + arm:.2f} L'
                    f' {x + arm:.2f} {y - arm:.2f}" stroke="#202124"'
                    f' stroke-width="2.0" fill="none"/>\n'
                )
        for i in range(n):
            color = SVG_COLORS[i % len(SVG_COLORS)]
            trail = [to_svg(data[j, i, 0:2]) for j in range(0, k + 1, 4)]
            if len(trail) >= 2:
                _polyline(f, trail, color, 1.2, opacity=0.55)
            x, y, psi = data[k, i, 0], data[k, i, 1], data[k, i, 2]
            cx, cy = to_svg((x, y))
            hx, hy = to_svg((x + tick * np.cos(psi), y + tick * np.sin(psi)))
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

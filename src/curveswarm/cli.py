"""Command-line front end: formation search, missions, curve catalog.

Exit codes: 0 success (feasible solution / clean mission), 2 unreadable
or invalid configuration (the offending key is named), 3 no feasible
formation, non-finite mission state, or a mission error (placement found
no collision-free draw in 1000 tries, or the finder returned no usable
polygon), 4 mission aborted on the collision threshold (the summary
line names the pair and the time).
"""

import argparse
import os
import sys

from .config import ConfigError, dump_config, load_config, parse_target
from .curves import CurveError, catalog_names, make_curve
from .finder import multistart
from .output import (
    SAMPLE_BUDGET,
    SAMPLE_ROW_BYTES,
    MissionWriter,
    format_samples_csv,
    write_cost_trace_csv,
    write_metrics_csv,
    write_samples_csv,
    write_snapshot_svg,
    write_solution_file,
    write_trajectory_csv,
)
from .sim import MissionError, run_mission, snapshot_tick

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_COLLISION = 4


def _add_common(p, with_sim_flags):
    p.add_argument("config", nargs="?", help="INI configuration file")
    p.add_argument("--curve", help="catalog curve name")
    p.add_argument("--n", type=int, help="agent / vertex count")
    p.add_argument("--target", help="preferred formation center 'x,y'")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--square-mode", action="store_true", help="add the diagonal residuals that single out true squares (n = 4)")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--dump-config", action="store_true", help="print the effective configuration and exit")
    if with_sim_flags:
        p.add_argument("--dt", type=float, help="integration step in seconds")
        p.add_argument("--horizon", type=float, help="mission length in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveswarm",
        description="Regular polygons inscribed on closed curves, and missions that sweep into them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    find = sub.add_parser("find", help="multistart Gauss-Newton formation search")
    _add_common(find, with_sim_flags=False)
    simulate = sub.add_parser("simulate", help="closed-loop sweep-and-form mission")
    _add_common(simulate, with_sim_flags=True)
    curves = sub.add_parser("curves", help="curve catalog utilities")
    csub = curves.add_subparsers(dest="action", required=True)
    csub.add_parser("list", help="print all catalog curve names")
    sample = csub.add_parser("sample", help="emit CSV samples of one curve")
    sample.add_argument("name", help="catalog curve name")
    sample.add_argument("--n", type=int, default=100, help="sample count")
    sample.add_argument("--out", help="write CSV here instead of stdout")
    return parser


def _load(args):
    text = ""
    if args.config:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    overrides = {
        "curve": args.curve,
        "n": args.n,
        "seed": args.seed,
        "square_mode": args.square_mode,
        "target": parse_target(args.target) if args.target else None,
        "dt": getattr(args, "dt", None),
        "horizon": getattr(args, "horizon", None),
    }
    return load_config(text, overrides)


def _check_out(path, directory=True) -> None:
    """Raise ConfigError unless path can become the output directory (or file).

    Nothing is created: the path, or failing that its nearest existing
    ancestor, must already be a directory, so that os.makedirs and open
    succeed once the work is done.
    """
    if not path:
        raise ConfigError("--out is empty")
    if os.path.lexists(path):
        if os.path.isdir(path) != directory:
            what = "is not a directory" if directory else "is a directory"
            raise ConfigError(f"--out {path} {what}")
        return
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: {parent} is not a directory")


def _snapshot_name(t) -> str:
    return f"snapshot_t{t:08.2f}s.svg"


def _check_snapshot_names(times) -> None:
    """Raise ConfigError if two snapshot times would write the same file."""
    seen = {}
    for t in times:
        name = _snapshot_name(t)
        if name in seen:
            raise ConfigError(f"snapshot_times {seen[name]!r} and {t!r} both write {name}")
        seen[name] = t


def cmd_find(args) -> int:
    try:
        cfg = _load(args)
        if cfg.finder.n < 3:
            raise ConfigError(f"n = {cfg.finder.n}: a formation search needs n >= 3")
        if not args.dump_config:
            _check_out(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return EXIT_OK
    best, runs = multistart(cfg.curve, cfg.finder, return_all=True)
    os.makedirs(args.out, exist_ok=True)
    solution_path = os.path.join(args.out, "solution.txt")
    trace_path = os.path.join(args.out, "cost_trace.csv")
    write_solution_file(solution_path, best, runs)
    write_cost_trace_csv(trace_path, runs)
    print(
        f"curve={cfg.curve_name} n={cfg.finder.n} feasible={best.feasible}"
        f" converged={best.converged} cost={best.cost:.6g}"
        f" residual={best.residual_norm:.6g} side_spread={best.side_spread:.4g}"
    )
    print(f"wrote {solution_path} and {trace_path}")
    return EXIT_OK if best.feasible else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    try:
        cfg = _load(args)
        mission = cfg.mission_config()
        mission.validate()
        _check_snapshot_names(mission.snapshot_times)
        if not args.dump_config:
            _check_out(args.out)
    except (ConfigError, MissionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return EXIT_OK
    traj_path = os.path.join(args.out, "trajectory.csv")
    metrics_path = os.path.join(args.out, "metrics.csv")
    with MissionWriter(traj_path, metrics_path, mission.dt) as writer:
        try:
            metrics, kept = run_mission(mission, on_block=writer.send)
        except MissionError as exc:
            print(f"mission error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        os.makedirs(args.out, exist_ok=True)
        # the snapshots go first, while the writer's child may still be
        # formatting the last blocks
        snap_times = mission.snapshot_times or (float(metrics.times[-1]),)
        for t_snap in snap_times:
            k = snapshot_tick(t_snap, mission.dt)
            path = os.path.join(args.out, _snapshot_name(t_snap))
            write_snapshot_svg(path, cfg.curve, metrics, kept, k)
        write_trajectory_csv(traj_path, writer)
        write_metrics_csv(metrics_path, metrics, writer)
    sigma_last = float(metrics.sigma[-1].min()) if metrics.sigma.size else 0.0
    unformed = [str(i) for i, s in enumerate(metrics.sigma[-1].tolist()) if s < mission.params.sigma_accept]
    err_last = (
        float(metrics.final_vertex_errors.max())
        if metrics.final_vertex_errors is not None
        else float("nan")
    )
    t_end = f"{float(metrics.times[-1]):.2f}s"
    pair = metrics.closest_pair
    sol = metrics.solution
    print(
        f"curve={cfg.curve_name} n={mission.n} seed={mission.seed}"
        f" t_end={t_end} collision={metrics.collision}"
        f" min_distance={float(metrics.min_distance.min()):.4g}"
        f" sigma_min={sigma_last:.4f} vertex_error_max={err_last:.4g}"
        f" closest_pair={'none' if pair is None else f'{pair[0]},{pair[1]}'}"
        f" collision_t={t_end if metrics.collision else 'none'}"
        f" unformed={','.join(unformed) or 'none'}"
        f" converged={'none' if sol is None else sol.converged}"
        f" residual={'none' if sol is None else f'{sol.residual_norm:.6g}'}"
        f" side_spread={'none' if sol is None else f'{sol.side_spread:.4g}'}"
    )
    print(f"wrote metrics, trajectory, and {len(snap_times)} snapshot(s) to {args.out}")
    if metrics.collision:
        return EXIT_COLLISION
    if metrics.nonfinite:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_curves(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return EXIT_OK
    try:
        curve = make_curve(args.name)
        if args.n < 2:
            # the samples run from s = 0 to s = 2 pi, whose rows coincide
            raise ConfigError(f"--n = {args.n}: a closed sample needs n >= 2")
        if args.n * SAMPLE_ROW_BYTES > SAMPLE_BUDGET:
            raise ConfigError(f"--n = {args.n} rows of up to {SAMPLE_ROW_BYTES} bytes pass the budget of {SAMPLE_BUDGET} bytes")
        if args.out:
            _check_out(args.out, directory=False)
    except (CurveError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_samples_csv(args.out, curve, args.n)
        print(f"wrote {args.n} samples to {args.out}")
    else:
        sys.stdout.write(format_samples_csv(curve, args.n))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "find":
        return cmd_find(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_curves(args)


if __name__ == "__main__":
    sys.exit(main())

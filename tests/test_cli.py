"""Tests for configuration parsing, file emission, and the CLI."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curveswarm import _sim_kernels as sk
from curveswarm import cli, output
from curveswarm.config import (
    ConfigError,
    dump_config,
    load_config,
    parse_target,
)
from curveswarm.control import ControllerParams, make_params
from curveswarm._curve_kernels import KIND_CASSINI, KIND_LEMNISCATE, KIND_SUPERELLIPSE
from curveswarm.curves import Curve, SingularPointError, catalog_names, make_curve
from curveswarm.finder import FinderConfig, multistart
from curveswarm.output import (
    TRAJECTORY_HEADER,
    MissionWriter,
    format_samples_csv,
    write_metrics_csv,
    write_snapshot_svg,
    write_solution_file,
    write_trajectory_csv,
)
from curveswarm.sim import DT_MAX, MissionConfig, MissionError, run_mission


def run_cli(args):
    return cli.main(list(args))


# -- config parsing -----------------------------------------------------------


def test_config_minimal_and_defaults():
    cfg = load_config("[curve]\nname = deltoid\n")
    assert cfg.curve_name == "deltoid"
    assert cfg.finder.n == 4
    assert cfg.controller_overrides == {}
    mission = cfg.mission_config()
    assert mission.n == 4
    assert mission.dt == 0.01


def test_config_missing_curve_name_named():
    with pytest.raises(ConfigError, match="curve.name"):
        load_config("")
    cfg = load_config("", {"curve": "ellipse"})
    assert cfg.curve_name == "ellipse"


def test_config_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="warp_factor"):
        load_config("[curve]\nname = circle\n[finder]\nwarp_factor = 2\n")
    with pytest.raises(ConfigError, match="k_psi"):
        load_config("[curve]\nname = circle\n[controller]\nk_psi = 1\n")
    with pytest.raises(ConfigError, match="speed"):
        load_config("[curve]\nname = circle\n[sim]\nspeed = 4\n")
    with pytest.raises(ConfigError, match="extras"):
        load_config("[extras]\nx = 1\n")


def test_config_type_errors_are_named():
    with pytest.raises(ConfigError, match="finder.n"):
        load_config("[curve]\nname = circle\n[finder]\nn = four\n")
    with pytest.raises(ConfigError, match="target"):
        parse_target("1,2,3")


def test_config_flags_override_file():
    text = "[curve]\nname = circle\n[sim]\nseed = 1\nn = 3\n"
    cfg = load_config(text, {"curve": "deltoid", "seed": 9, "n": 4})
    assert cfg.curve_name == "deltoid"
    assert cfg.sim["seed"] == 9
    assert cfg.finder.n == 4
    # the finder inherits the mission seed unless set explicitly
    assert cfg.finder.seed == 9


def test_cli_flags_win_over_finder_keys(tmp_path, capsys):
    path = tmp_path / "file.ini"
    path.write_text("[curve]\nname = ellipse\n[finder]\nseed = 0\nc_target = 1,1\n")
    assert cli.main(["find", str(path), "--seed", "5", "--target", "0,0", "--dump-config"]) == 0
    dumped = load_config(capsys.readouterr().out)
    assert dumped.finder.seed == 5
    assert dumped.finder.c_target == (0.0, 0.0)
    # simulate runs the finder that --dump-config shows
    cfg = load_config(path.read_text(), {"seed": 5, "target": (0.0, 0.0)})
    assert cfg.finder == dumped.finder
    assert cfg.mission_config().finder == cfg.finder


def test_config_controller_overrides_validated():
    with pytest.raises(ConfigError, match="d_safe"):
        load_config(
            "[curve]\nname = circle\n[controller]\nd_safe = 2.0\nd_ao = 1.0\n"
        )


def test_config_dump_round_trip():
    text = (
        "[curve]\nname = lissajous-32\n"
        "[finder]\nsquare_mode = true\n"
        "[controller]\nv_ref = 0.4\n"
        "[sim]\nn = 4\nseed = 5\ntarget = 0.5, 0.5\nsnapshot_times = 10, 50\n"
    )
    cfg = load_config(text)
    dumped = dump_config(cfg)
    cfg2 = load_config(dumped)
    assert dump_config(cfg2) == dumped
    assert cfg2.finder == cfg.finder
    assert cfg2.sim == cfg.sim
    assert cfg2.controller_overrides == cfg.controller_overrides


def test_config_curve_keys_are_case_sensitive():
    # spirograph's R and r are different parameters; other sections fold case
    cfg = load_config("[curve]\nname = spirograph-4\nR = 5.0\nr = 1.25\n[finder]\nSEED = 3\n")
    assert cfg.curve_params == {"R": 5.0, "r": 1.25}
    # both keys reach the packer: the rows hold R - r = 3.75 at frequency 1
    # and the winding (R - r) / r = 3
    assert (cfg.curve.params["R"], cfg.curve.params["r"]) == (5.0, 1.25)
    assert (cfg.curve.par[0, 3], cfg.curve.par[1, 0]) == (3.75, 3.0)
    assert cfg.finder.seed == 3
    cfg = load_config("[curve]\nname = spirograph-4\nR = 4.0\n")
    assert cfg.curve_params == {"R": 4.0}
    assert cfg.curve.params["r"] == 1.0
    assert cfg.curve.par[0, 3] == 3.0
    dumped = dump_config(load_config("[curve]\nname = spirograph\nR = 6.0\n"))
    assert "\nR = 6.0\n" in dumped
    assert dump_config(load_config(dumped)) == dumped
    with pytest.raises(ConfigError, match="'seed' of \\[finder\\] is given twice"):
        load_config("[curve]\nname = circle\n[finder]\nseed = 1\nSeed = 2\n")


def _record_keys():
    """(section, key, default) for every [finder], [controller] and [sim] key."""
    curve = make_curve("circle")
    scaled = make_params(curve)
    for f in dataclasses.fields(FinderConfig):
        yield "finder", f.name, f.default
    for key in ControllerParams._fields:
        yield "controller", key, ControllerParams._field_defaults.get(key, getattr(scaled, key))
    for f in dataclasses.fields(MissionConfig):
        if f.name not in ("curve", "finder", "params"):
            yield "sim", "target" if f.name == "c_target" else f.name, f.default


def _other_and_malformed(key, default):
    """A valid value other than the default, and a value of the wrong type."""
    if default is None:
        return "0.5, -0.25", "1"
    if isinstance(default, tuple):
        return "1.0, 2.0", "1, two"
    if isinstance(default, bool):
        return str(not default).lower(), "maybe"
    if isinstance(default, int):
        return str(default + 1), "2.5"
    return repr(1.1 * default), "fast"


@pytest.mark.parametrize(
    "section,key,default", [pytest.param(*k, id=f"{k[0]}.{k[1]}") for k in _record_keys()]
)
def test_config_every_record_key_round_trips_and_names_itself(section, key, default):
    other, malformed = _other_and_malformed(key, default)
    head = "[curve]\nname = circle\n"
    cfg = load_config(f"{head}[{section}]\n{key} = {other}\n")
    values = {
        "finder": dataclasses.asdict(cfg.finder),
        "controller": cfg.controller_overrides,
        "sim": cfg.sim,
    }[section]
    assert values[key] != default
    again = load_config(dump_config(cfg))
    assert again.finder == cfg.finder
    assert again.controller_overrides == cfg.controller_overrides
    assert again.sim == cfg.sim
    assert again.mission_config().params == cfg.mission_config().params
    with pytest.raises(ConfigError, match=re.escape(f"'{section}.{key}'")):
        load_config(f"{head}[{section}]\n{key} = {malformed}\n")


# keys that were record fields and are now constants of the code
RETIRED_KEYS = (
    ("finder", "weight_length", "1.0"),
    ("finder", "weight_angle", "1.0"),
    ("finder", "weight_diagonal", "1.0"),
    ("finder", "tol_step", "1e-10"),
    ("finder", "tol_cost_rel", "1e-12"),
    ("finder", "accept_cost", "1e-9"),
    ("finder", "armijo_c1", "1e-4"),
    ("finder", "backtrack", "0.5"),
    ("finder", "lm_lambda0", "1e-8"),
    ("finder", "min_side_frac", "0.05"),
    ("finder", "min_vertex_sep_frac", "0.01"),
    ("finder", "min_theta_sep", "1e-3"),
    ("finder", "tie_tol_frac", "1e-6"),
    ("controller", "blend_mode", "product"),
    ("sim", "annulus_frac", "0.1"),
    ("sim", "heading_spread", "0.3"),
)


@pytest.mark.parametrize(
    "section,key,value", [pytest.param(*k, id=f"{k[0]}.{k[1]}") for k in RETIRED_KEYS]
)
def test_config_retired_key_is_refused(tmp_path, capsys, section, key, value):
    path = tmp_path / "retired.ini"
    path.write_text(f"[curve]\nname = circle\n[{section}]\n{key} = {value}\n")
    assert run_cli(["simulate", str(path), "--dump-config"]) == 2
    assert f"unknown {section} key '{key}'" in capsys.readouterr().err


def test_non_finite_values_are_config_errors(tmp_path, capsys):
    for text, name in (
        ("[curve]\nname = ellipse\na = inf\n", "'a' must be finite"),
        ("[curve]\nname = ellipse\n[controller]\nkp_n = inf\n", "'kp_n' must be finite"),
        ("[curve]\nname = ellipse\n[controller]\nk_avoid = nan\n", "'k_avoid' must be finite"),
    ):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        for argv in (["find"], ["simulate", "--horizon", "1"]):
            out = tmp_path / argv[0]
            assert run_cli(argv + [str(path), "--out", str(out)]) == 2
            assert name in capsys.readouterr().err
            assert not out.exists()


# -- output files -------------------------------------------------------------


def _write_mission(config, out):
    """Run the mission, its CSVs written into out by a MissionWriter.

    Returns (metrics, run_mission's (trail, poses), whether the writer
    forked, the dense record copied block by block as the writer was sent
    it).
    """
    blocks = [np.empty((0, config.n, len(sk.TRAJECTORY_COLUMNS)))]

    def on_block(records, *series):
        blocks.append(records.copy())
        writer.send(records, *series)

    with MissionWriter(out / "trajectory.csv", out / "metrics.csv", config.dt) as writer:
        metrics, kept = run_mission(config, on_block=on_block)
        forked = writer.pid is not None
        write_trajectory_csv(out / "trajectory.csv", writer)
        write_metrics_csv(out / "metrics.csv", metrics, writer)
    return metrics, kept, forked, np.concatenate(blocks)


def _replay_in_process(monkeypatch, out, record, metrics, dt):
    """Both CSVs of a collected record, formatted by a MissionWriter in this process."""
    monkeypatch.delattr(os, "fork", raising=False)
    out.mkdir()
    with MissionWriter(out / "trajectory.csv", out / "metrics.csv", dt) as writer:
        for k in range(0, record.shape[0], sk.TICK_BLOCK):
            block = slice(k, k + sk.TICK_BLOCK)
            writer.send(record[block], metrics.min_distance[block], metrics.mean_adherence[block])
        write_trajectory_csv(out / "trajectory.csv", writer)
        write_metrics_csv(out / "metrics.csv", metrics, writer)


@pytest.fixture(scope="module")
def short_mission(tmp_path_factory):
    curve = make_curve("deltoid")
    # the snapshot ticks 0, 301 and 600 are the start, middle and end of
    # the snapshot tests below
    config = MissionConfig(curve=curve, n=4, seed=0, horizon=6.0, snapshot_times=(0.0, 3.01, 6.0))
    out = tmp_path_factory.mktemp("short")
    metrics, kept, _forked, record = _write_mission(config, out)
    return curve, config, metrics, record, kept, out


def test_readme_trajectory_table_lists_the_header():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    section = text.split("`trajectory.csv` has one row per agent per time step:", 1)[1]
    table = section.split("\n\n")[1]  # the blank-line-delimited block after the intro
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert names == ["t", "agent", *sk.TRAJECTORY_COLUMNS]
    assert names == TRAJECTORY_HEADER.split(",")


def test_trajectory_csv_carries_every_record_column(short_mission):
    # a row is (t, agent) and then the agent's record, every column of it
    # in TRAJECTORY_COLUMNS order, each value's repr read back exactly
    _curve, _config, metrics, record, _kept, out = short_mission
    header, *lines = (out / "trajectory.csv").read_text().splitlines()
    assert header.split(",") == ["t", "agent", *sk.TRAJECTORY_COLUMNS]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    ticks, n, width = record.shape
    assert width == len(sk.TRAJECTORY_COLUMNS)
    assert np.array_equal(table[:, 0], np.repeat(metrics.times, n))
    assert np.array_equal(table[:, 1], np.tile(np.arange(n), ticks))
    assert table[:, 2:].tobytes() == record.reshape(-1, width).tobytes()


def test_trajectory_csv_contract(tmp_path, short_mission):
    _curve, config, _metrics, _record, _kept, out = short_mission
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,agent,x,y,psi,v,z,vz,sigma,alpha,accel,turn_rate,lift_accel"
    n_records = int(round(config.horizon / config.dt)) + 1
    assert len(lines) == 1 + n_records * config.n
    first = lines[1].split(",")
    assert len(first) == 13
    assert float(first[0]) == 0.0
    assert first[1] == "0"
    # rows grouped by time, agents cycling fastest
    assert lines[2].split(",")[1] == "1"
    # a second run from the same seed writes the same bytes
    _write_mission(config, tmp_path)
    assert (tmp_path / "trajectory.csv").read_bytes() == path.read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_after(monkeypatch, steps, exc):
    """Make the mission loop's RK4 step raise exc (or return NaN) after `steps` steps."""
    real = sk.rk4_step_team
    calls = []

    def step(rows, dt):
        calls.append(1)
        if len(calls) <= steps:
            return real(rows, dt)
        if exc is None:
            return [[np.nan] * 6 for _ in rows]
        raise exc

    monkeypatch.setattr(sk, "rk4_step_team", step)


@pytest.mark.parametrize(
    "curve, n, horizon, records, case",
    [
        ("deltoid", 4, 10.23, 2 * sk.TICK_BLOCK, "stream"),
        ("deltoid", 4, 6.0, 601, "stream"),
        ("deltoid", 4, 2.0, 201, "stream"),
        ("ellipse", 2, 6.0, 601, "stream"),
        ("ellipse", 1, 6.0, 601, "stream"),
        ("deltoid", 4, 10.0, 701, "nonfinite"),
        ("deltoid", 4, 6.0, 601, "no-fork"),
        ("deltoid", 4, 6.0, 601, "fork-fails"),
    ],
    ids=["block-multiple", "block-remainder", "one-partial-block", "sweep-only",
         "lone-agent", "nonfinite", "no-fork", "fork-fails"],
)
def test_streamed_trajectory_matches_in_process_writer(
    monkeypatch, tmp_path, curve, n, horizon, records, case
):
    if case == "nonfinite":
        _fail_after(monkeypatch, 700, None)  # the 701st state is NaN
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    if case == "fork-fails":
        def fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
    # the writer formats each block as the loop sends it, in a forked
    # child or in-process; a MissionWriter in this process given the
    # collected record a block at a time writes the same bytes, and
    # metrics.csv is also what write_metrics_csv makes of the metrics
    config = MissionConfig(curve=make_curve(curve), n=n, seed=0, horizon=horizon)
    out = tmp_path / "out"
    out.mkdir()
    metrics, _kept, forked, record = _write_mission(config, out)
    assert record.shape[0] == records
    assert forked == (records >= sk.TICK_BLOCK and case not in ("no-fork", "fork-fails"))
    assert metrics.nonfinite == (case == "nonfinite")
    if n == 1:
        # a lone agent has no neighbor: every min_distance is inf
        assert np.all(metrics.min_distance == np.inf)
    assert sorted(os.listdir(out)) == ["metrics.csv", "trajectory.csv"]
    _no_child_left()
    _replay_in_process(monkeypatch, tmp_path / "inline", record, metrics, config.dt)
    for name in ("trajectory.csv", "metrics.csv"):
        assert (out / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()
    write_metrics_csv(tmp_path / "metrics.csv", metrics)
    assert (out / "metrics.csv").read_bytes() == (tmp_path / "metrics.csv").read_bytes()


def test_cli_streamed_trajectory_of_the_collision_run(monkeypatch, tmp_path):
    # gear-hermite n=4 seed 0 aborts at 13.84 s (exit 4) with the file complete
    out = tmp_path / "out"
    argv = ["--curve", "gear-hermite", "--n", "4", "--seed", "0", "--horizon", "15"]
    assert run_cli(["simulate"] + argv + ["--out", str(out)]) == 4
    _no_child_left()
    mission = load_config("", {"curve": "gear-hermite", "n": 4, "seed": 0, "horizon": 15.0})
    blocks = []
    metrics, _kept = run_mission(
        mission.mission_config(), on_block=lambda records, *_: blocks.append(records.copy())
    )
    assert metrics.collision
    _replay_in_process(monkeypatch, tmp_path / "inline", np.concatenate(blocks), metrics, 0.01)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "inline" / "trajectory.csv").read_bytes()
    assert not list(out.glob("*.part"))


def test_mission_error_leaves_no_trajectory(monkeypatch, tmp_path):
    # a MissionError before the loop creates nothing; one after the writer
    # forked leaves neither the file nor its .part, and no child
    def no_placement(*args):
        raise MissionError("could not draw a collision-free initial placement")

    monkeypatch.setattr("curveswarm.sim.initial_states", no_placement)
    out = tmp_path / "before"
    argv = ["simulate", "--curve", "deltoid", "--n", "4", "--horizon", "10"]
    assert run_cli(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    monkeypatch.undo()
    _fail_after(monkeypatch, 700, MissionError("agent lost"))
    out = tmp_path / "during"
    assert run_cli(argv + ["--out", str(out)]) == 3
    assert not (out / "trajectory.csv").exists()
    assert not (out / "trajectory.csv.part").exists()
    _no_child_left()


def test_interrupted_mission_leaves_no_trajectory(monkeypatch, tmp_path):
    _fail_after(monkeypatch, 700, KeyboardInterrupt())
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run_cli(["simulate", "--curve", "deltoid", "--n", "4", "--horizon", "10",
                 "--out", str(out)])
    assert os.listdir(out) == []
    _no_child_left()


@pytest.mark.parametrize("how", ["first-block", "tail", "killed"])
def test_writer_failure_leaves_no_trajectory(monkeypatch, tmp_path, capfd, how):
    # the forked child dies on its first block (the loop's next send finds
    # the pipe broken), on the last block (it exits 1), or by SIGKILL after
    # the first block (the next send finds the pipe broken): the run
    # raises, and neither CSV nor any .part file is left behind
    if how == "killed":
        import signal

        send = output.MissionWriter.send

        def send_then_kill(self, *block):
            send(self, *block)
            if self.pid is not None:
                os.kill(self.pid, signal.SIGKILL)

        monkeypatch.setattr(output.MissionWriter, "send", send_then_kill)
    else:
        def broken(t_strs, values, n):
            if how == "first-block" or len(t_strs) < sk.TICK_BLOCK:
                raise OSError("disk full")
            return ""

        monkeypatch.setattr(output, "_trajectory_rows", broken)
    out = tmp_path / "out"
    with pytest.raises(OSError):
        run_cli(["simulate", "--curve", "deltoid", "--n", "4", "--horizon", "10",
                 "--out", str(out)])
    if how != "killed":
        assert "mission writer: OSError('disk full')" in capfd.readouterr().err
    # the snapshot goes out before the writer is waited for, and may stay
    assert not [f for f in os.listdir(out) if f.endswith((".csv", ".part"))]
    _no_child_left()


def test_metrics_csv_contract_and_determinism(tmp_path, short_mission):
    curve, config, metrics, _record, _kept, _out = short_mission
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_metrics_csv(p1, metrics)
    metrics2, _ = run_mission(config)
    write_metrics_csv(p2, metrics2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "t,min_distance,mean_adherence,sigma_0,sigma_1,sigma_2,sigma_3"
    assert len(lines) == 1 + metrics.times.shape[0]
    # values reparse losslessly
    row = lines[1].split(",")
    assert float(row[1]) == float(metrics.min_distance[0])


def test_solution_file_contents(tmp_path):
    curve = make_curve("deltoid")
    best, runs = multistart(curve, FinderConfig(n=4, c_target=(0.0, 0.0)), return_all=True)
    path = tmp_path / "solution.txt"
    write_solution_file(path, best, runs)
    text = path.read_text()
    assert "[solution]" in text and "[starts]" in text
    assert f"n = 4" in text
    assert "feasible = True" in text
    assert text.count("vertex_") == 4
    # one line per start after the header comment
    starts = [
        ln
        for ln in text.split("[starts]", 1)[1].splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(starts) == len(runs)


def test_snapshot_svg_well_formed(tmp_path, short_mission):
    curve, _config, metrics, record, kept, _out = short_mission
    path = tmp_path / "snap.svg"
    write_snapshot_svg(path, curve, metrics, kept, record.shape[0] - 1)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    tags = [child.tag.split("}")[-1] for child in root.iter()]
    assert tags.count("circle") == 4
    assert "polyline" in tags and "path" in tags


def reference_snapshot_svg(path, curve, metrics, pose, k):
    """The snapshot writer as it was when every point went through to_svg one at a time."""
    pts = curve.point(np.linspace(0.0, 2.0 * np.pi, 1024))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    c = 0.5 * (lo + hi)
    half = float(np.max(hi - lo)) * 0.5 + 0.35 * curve.scale
    size = 720.0
    sc = size / (2.0 * half)

    def to_svg(p):
        return (float(p[0]) - c[0] + half) * sc, (c[1] + half - float(p[1])) * sc

    def polyline(f, pts, stroke, width, opacity=1.0):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        f.write(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{width:.2f}" stroke-opacity="{opacity:.2f}"/>\n'
        )

    k = min(max(k, 0), pose.shape[0] - 1)
    tick = 0.045 * curve.scale
    with open(path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}"'
            f' height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        )
        f.write(f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>\n')
        curve_pts = [to_svg(p) for p in curve.point(np.linspace(0.0, 2.0 * np.pi, 1024))]
        polyline(f, curve_pts + curve_pts[:1], "#9aa0a6", 1.6)
        if metrics.assignment is not None:
            arm = 0.05 * curve.scale * sc
            for vx, vy in metrics.assignment.position:
                x, y = to_svg((vx, vy))
                f.write(
                    f'<path d="M {x - arm:.2f} {y - arm:.2f} L {x + arm:.2f}'
                    f' {y + arm:.2f} M {x - arm:.2f} {y + arm:.2f} L'
                    f' {x + arm:.2f} {y - arm:.2f}" stroke="#202124"'
                    f' stroke-width="2.0" fill="none"/>\n'
                )
        for i in range(pose.shape[1]):
            color = output.SVG_COLORS[i % len(output.SVG_COLORS)]
            trail = [to_svg(pose[j, i, 0:2]) for j in range(0, k + 1, 4)]
            if len(trail) >= 2:
                polyline(f, trail, color, 1.2, opacity=0.55)
            x, y, psi = pose[k, i]
            cx, cy = to_svg((x, y))
            hx, hy = to_svg((x + tick * np.cos(psi), y + tick * np.sin(psi)))
            f.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5.0" fill="{color}"/>\n')
            f.write(
                f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{hx:.2f}" y2="{hy:.2f}"'
                f' stroke="{color}" stroke-width="2.2"/>\n'
            )
        f.write(
            f'<text x="12" y="24" font-family="monospace" font-size="16"'
            f' fill="#202124">t = {float(metrics.times[k]):.2f} s</text>\n'
        )
        f.write("</svg>\n")


@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_snapshot_svg_matches_the_pointwise_writer(tmp_path, short_mission, where):
    # the trails and the outline are mapped as arrays, from the trail and
    # the poses the mission keeps; the bytes are those of mapping each
    # point of the whole record on its own
    curve, _config, metrics, record, kept, _out = short_mission
    k = {"start": 0, "middle": record.shape[0] // 2 + 1, "end": record.shape[0] - 1}[where]
    write_snapshot_svg(tmp_path / "new.svg", curve, metrics, kept, k)
    reference_snapshot_svg(tmp_path / "ref.svg", curve, metrics, record[:, :, 0:3], k)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_samples_csv_closure():
    curve = make_curve("rose-3")
    text = format_samples_csv(curve, 100)
    lines = text.splitlines()
    assert lines[0] == "s,x,y,tangent_x,tangent_y,curvature"
    assert len(lines) == 101
    first = np.array([float(v) for v in lines[1].split(",")])
    last = np.array([float(v) for v in lines[-1].split(",")])
    assert np.hypot(first[1] - last[1], first[2] - last[2]) <= 1e-9 * curve.scale
    kappa = np.array([float(ln.split(",")[5]) for ln in lines[1:]])
    assert np.all(np.isfinite(kappa)) and np.all(kappa >= 0.0)


def reference_samples_csv(curve, n):
    """The sample writer as it was when each row took one float point and one Curve.frenet."""
    rows = ["s,x,y,tangent_x,tangent_y,curvature"]
    for s in np.linspace(0.0, 2.0 * np.pi, n):
        p = curve.point(float(s))
        fr = curve.frenet(float(s))
        rows.append(",".join(repr(float(v)) for v in (s, *p, *fr.tangent, fr.curvature)))
    return "\n".join(rows) + "\n"


# the families whose float and array jets agree bit for bit: every family
# but the three that raise arrays to a power
EXACT_JET_NAMES = [
    name for name in catalog_names()
    if make_curve(name).kind not in (KIND_SUPERELLIPSE, KIND_CASSINI, KIND_LEMNISCATE)
]


@pytest.mark.parametrize("name", EXACT_JET_NAMES)
def test_samples_csv_matches_the_rowwise_writer(name):
    # deltoid's s = 0 and the gear's corners take the cusp fallback
    curve = make_curve(name)
    for n in (2, 3, 100, 1001):
        assert format_samples_csv(curve, n) == reference_samples_csv(curve, n)


def test_samples_csv_raises_on_the_rowwise_writers_row(monkeypatch):
    # an ellipse with b > a is slowest at s = pi/2: with eps_sing at the
    # speed 2e-3 away, the row 1.6e-3 before pi/2 recovers through the
    # fallback and the row at pi/2, whose whole +/-1e-3 reach is too slow,
    # raises, in both writers
    curve = make_curve("ellipse", a=1.0, b=2.0)
    eps = math.sqrt(1.0 + 3.0 * math.sin(2e-3) ** 2)
    monkeypatch.setattr(Curve, "eps_sing", property(lambda self: eps))
    with pytest.raises(SingularPointError) as expected:
        reference_samples_csv(curve, 4001)
    assert "s=1.570796" in str(expected.value)
    with pytest.raises(SingularPointError) as got:
        format_samples_csv(curve, 4001)
    assert str(got.value) == str(expected.value)
    # with eps_sing just above the slowest speed, the rows at pi/2 and
    # 3 pi/2 recover through the fallback: the bytes are the same
    monkeypatch.setattr(Curve, "eps_sing", property(lambda self: 1.0 + 1e-7))
    assert format_samples_csv(curve, 4001) == reference_samples_csv(curve, 4001)


# -- CLI ----------------------------------------------------------------------


def test_cli_find_deltoid_square(tmp_path, capsys):
    out = tmp_path / "find"
    code = run_cli(
        ["find", "--curve", "deltoid", "--n", "4", "--target", "0,0", "--out", str(out)]
    )
    assert code == 0
    text = (out / "solution.txt").read_text()
    residual = float(
        [ln for ln in text.splitlines() if ln.startswith("residual_norm")][0]
        .split("=")[1]
    )
    assert residual <= 1e-8
    # one [starts] row per start, retired ones included
    rows = [
        ln.split()
        for ln in text.split("[starts]", 1)[1].splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(rows) == FinderConfig().n_init
    collapsed = {int(row[0]) for row in rows if row[3] == "collapsed"}
    assert collapsed
    trace = (out / "cost_trace.csv").read_text().splitlines()
    assert trace[0] == "start,init_kind,iteration,cost"
    lengths = {}
    for ln in trace[1:]:
        start = int(ln.split(",")[0])
        lengths[start] = lengths.get(start, 0) + 1
    # a retired start's trace stops at its initial cost plus ten iterations
    assert all(lengths[i] == 11 for i in collapsed)


def test_cli_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "sim"
    config = tmp_path / "mission.ini"
    config.write_text(
        "[curve]\nname = deltoid\n[sim]\nn = 4\nseed = 0\nhorizon = 4.0\n"
        "snapshot_times = 0.0, 4.0\ntarget = 0, 0\n"
    )
    code = run_cli(["simulate", str(config), "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "metrics.csv" in names and "trajectory.csv" in names
    assert sum(1 for n in names if n.endswith(".svg")) == 2
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + int(round(4.0 / 0.01)) + 1


def test_cli_simulate_dt_densifies_grid(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["simulate", "--curve", "circle", "--n", "1", "--seed", "0", "--horizon", "2.0"]
    assert run_cli(base + ["--dt", "0.01", "--out", str(out1)]) == 0
    assert run_cli(base + ["--dt", "0.005", "--out", str(out2)]) == 0
    rows1 = len((out1 / "metrics.csv").read_text().splitlines())
    rows2 = len((out2 / "metrics.csv").read_text().splitlines())
    assert rows2 - 1 == 2 * (rows1 - 1) - 1


def test_cli_exit_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[sim]\nn = 4\n")
    assert run_cli(["simulate", str(bad)]) == 2
    assert "curve.name" in capsys.readouterr().err
    worse = tmp_path / "worse.ini"
    worse.write_text("[curve]\nname = circle\n[finder]\nwarp = 1\n")
    assert run_cli(["find", str(worse)]) == 2
    assert "warp" in capsys.readouterr().err
    assert run_cli(["simulate", "--curve", "klein-bottle"]) == 2
    assert run_cli(["curves", "sample", "klein-bottle"]) == 2
    capsys.readouterr()
    # a non-finite horizon used to escape as an OverflowError traceback
    assert run_cli(["simulate", "--curve", "ellipse", "--n", "2", "--horizon", "inf"]) == 2
    assert "config error: horizon must be finite" in capsys.readouterr().err
    assert run_cli(["simulate", "--curve", "ellipse", "--n", "2", "--seed", "-1"]) == 2
    assert "config error: seed must be nonnegative" in capsys.readouterr().err
    # find checks its own seed: numpy would reject a negative one with a traceback
    assert run_cli(["find", "--curve", "circle", "--n", "3", "--seed", "-1"]) == 2
    assert "config error: seed must be nonnegative" in capsys.readouterr().err


def test_cli_exit_3_when_no_feasible_formation(monkeypatch, tmp_path):
    best, runs = multistart(
        make_curve("circle"), FinderConfig(n=3), return_all=True
    )
    starved = best.__class__(**{**best.__dict__, "feasible": False})

    def fake_multistart(curve, config, return_all=False):
        return (starved, runs) if return_all else starved

    monkeypatch.setattr(cli, "multistart", fake_multistart)
    code = run_cli(["find", "--curve", "circle", "--n", "3", "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("flag, value", [("--horizon", "1e300"), ("--dt", "1e-300")])
def test_cli_rejects_records_over_the_budget(tmp_path, capsys, flag, value):
    # MissionConfig.validate refuses the mission before placement
    out = tmp_path / "out"
    code = run_cli(["simulate", "--curve", "ellipse", "--n", "2", flag, value, "--out", str(out)])
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_4_on_collision(monkeypatch, tmp_path):
    # the real mission, its blocks sent to the writer, reported as a collision
    def hit(mission, on_block=None):
        metrics, kept = run_mission(mission, on_block)
        return dataclasses.replace(metrics, collision=True), kept

    monkeypatch.setattr(cli, "run_mission", hit)
    code = run_cli(
        ["simulate", "--curve", "deltoid", "--n", "4", "--horizon", "4", "--out", str(tmp_path)]
    )
    assert code == 4


def test_cli_exit_4_names_the_colliding_pair(tmp_path, capsys):
    # gear-hermite n=4 seed 0 collides at 13.84 s: the summary line names
    # the pair and the time, and the trajectory shows that pair inside
    # the abort distance on its last record
    code = run_cli(
        ["simulate", "--curve", "gear-hermite", "--n", "4", "--seed", "0",
         "--horizon", "15", "--out", str(tmp_path)]
    )
    assert code == 4
    summary = capsys.readouterr().out.splitlines()[0]
    tokens = dict(tok.split("=", 1) for tok in summary.split())
    assert tokens["collision"] == "True"
    assert tokens["collision_t"] == "13.84s" == tokens["t_end"]
    i, j = (int(a) for a in tokens["closest_pair"].split(","))
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    last = rows[rows[:, 0] == rows[-1, 0]]
    gap = np.hypot(*(last[i, 2:4] - last[j, 2:4]))
    curve = make_curve("gear-hermite")
    assert gap < 0.5 * make_params(curve).d_safe
    assert gap == pytest.approx(float(tokens["min_distance"]), rel=1e-3)


@pytest.mark.parametrize(
    "argv, unformed",
    [
        # agent 1 ends at sigma 0.0, the others at 0.97 and above
        (["--curve", "nephroid", "--n", "5", "--seed", "3", "--horizon", "60"], "1"),
        (["--curve", "deltoid", "--n", "4", "--target", "0,0", "--seed", "0", "--horizon", "120"], "none"),
    ],
    ids=["nephroid", "deltoid"],
)
def test_cli_summary_names_the_unformed_agents(tmp_path, capsys, argv, unformed):
    # unformed= lists the agents whose last sigma is below sigma_accept,
    # as metrics.csv has it; the exit code stays 0
    assert run_cli(["simulate", *argv, "--out", str(tmp_path)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    tokens = dict(tok.split("=", 1) for tok in summary.split())
    assert tokens["unformed"] == unformed
    with open(tmp_path / "metrics.csv") as f:
        last = [float(v) for v in f.readlines()[-1].split(",")[3:]]
    accept = make_params(make_curve(argv[1])).sigma_accept
    assert (",".join(str(i) for i, s in enumerate(last) if s < accept) or "none") == unformed


def _side_spread(vertices):
    edges = vertices - np.roll(vertices, 1, axis=0)
    sides = np.hypot(edges[:, 0], edges[:, 1])
    return np.max(np.abs(sides - sides.mean())) / sides.mean()


def _summary_tokens(capsys):
    summary = capsys.readouterr().out.splitlines()[0]
    return dict(tok.split("=", 1) for tok in summary.split())


@pytest.mark.parametrize(
    "argv, kw",
    [
        # no regular pentagon is inscribed in an ellipse: the best fit is
        # feasible but unconverged, with a side spread of 0.0747
        (["--curve", "ellipse", "--n", "5"], dict(n=5)),
        (["--curve", "deltoid", "--n", "4", "--square-mode", "--seed", "9"],
         dict(n=4, square_mode=True, seed=9)),
    ],
    ids=["ellipse", "deltoid"],
)
def test_cli_find_summary_names_the_best_fit(tmp_path, capsys, argv, kw):
    assert run_cli(["find", *argv, "--out", str(tmp_path)]) == 0
    tokens = _summary_tokens(capsys)
    best = multistart(make_curve(argv[1]), FinderConfig(**kw))
    spread = _side_spread(best.vertices)
    assert tokens["converged"] == str(best.converged)
    assert tokens["side_spread"] == f"{spread:.4g}" == f"{best.side_spread:.4g}"
    if best.converged:
        assert spread < 1e-12
    else:
        assert spread > 0.05 and float(tokens["residual"]) > 1.0


@pytest.mark.parametrize(
    "argv, kw",
    [
        (["--curve", "nephroid", "--n", "5", "--seed", "3"], dict(n=5, seed=3)),
        (["--curve", "deltoid", "--n", "4", "--target", "0,0"], dict(n=4, c_target=(0.0, 0.0))),
        (["--curve", "ellipse", "--n", "2"], None),
    ],
    ids=["nephroid", "deltoid", "sweep-only"],
)
def test_cli_simulate_summary_names_the_flown_polygon(tmp_path, capsys, argv, kw):
    # the mission's polygon, as the finder returns it; none for a sweep-only
    # mission, which flies no polygon
    assert run_cli(["simulate", *argv, "--horizon", "2", "--out", str(tmp_path)]) == 0
    tokens = _summary_tokens(capsys)
    if kw is None:
        assert [tokens[k] for k in ("converged", "residual", "side_spread")] == ["none"] * 3
        return
    best = multistart(make_curve(argv[1]), FinderConfig(**kw))
    assert tokens["converged"] == str(best.converged)
    assert tokens["residual"] == f"{best.residual_norm:.6g}"
    assert tokens["side_spread"] == f"{_side_spread(best.vertices):.4g}"


def test_cli_mission_holds_no_record_past_its_block(monkeypatch, tmp_path):
    # numpy reports its buffers to tracemalloc.  While each block is sent,
    # the live buffers that are a whole number of (n, TRAJECTORY_COLUMNS)
    # record rows, 64 rows or more, are the loop's one block buffer; when
    # the files are completed there are none.  1201 ticks at dt = DT_MAX
    # is no multiple of 11, so the kept (ticks, n) sigma is not whole
    # rows, and the (301, n, 2) trail is under 64 rows
    row = 4 * len(sk.TRAJECTORY_COLUMNS) * 8
    held = []

    def check():
        numpy_buffers = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([numpy_buffers]).traces
        held.append(sorted(t.size // row for t in traces if t.size % row == 0 and t.size >= 64 * row))

    send = output.MissionWriter.send
    complete = cli.write_trajectory_csv
    monkeypatch.setattr(output.MissionWriter, "send", lambda self, *block: (check(), send(self, *block)))
    monkeypatch.setattr(cli, "write_trajectory_csv", lambda *args, **kw: (check(), complete(*args, **kw)))
    tracemalloc.start()
    try:
        argv = ["simulate", "--curve", "deltoid", "--n", "4", "--seed", "0", "--horizon", "24"]
        assert run_cli(argv + ["--dt", str(DT_MAX), "--out", str(tmp_path)]) == 0
    finally:
        tracemalloc.stop()
    # three blocks of 1201 ticks, then the completion
    assert held == [[sk.TICK_BLOCK]] * 3 + [[]]
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 1201 * 4


def test_cli_curves_list_and_sample(capsys):
    assert run_cli(["curves", "list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert "deltoid" in names and "lissajous-32" in names
    assert run_cli(["curves", "sample", "rose", "--n", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 101


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_cli_curves_sample_needs_two_rows(tmp_path, capsys, n):
    # the first and last rows are s = 0 and s = 2 pi, the same point
    out = tmp_path / "samples.csv"
    for extra in ([], ["--out", str(out)]):
        assert run_cli(["curves", "sample", "ellipse", "--n", str(n), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--n = {n}" in captured.err
    assert not out.exists()
    assert run_cli(["curves", "sample", "ellipse", "--n", "2"]) == 0
    first, last = (
        np.array([float(v) for v in line.split(",")])
        for line in capsys.readouterr().out.splitlines()[1:]
    )
    assert np.hypot(first[1] - last[1], first[2] - last[2]) <= 1e-9 * make_curve("ellipse").scale


def test_cli_curves_sample_refuses_rows_over_the_budget(tmp_path, capsys, monkeypatch):
    # the table is built in memory, so an n past the budget is refused
    # before any sampling; the writers are stubbed, so no n here samples
    sampled = []
    monkeypatch.setattr(cli, "format_samples_csv", lambda curve, n: sampled.append(n) or "")
    monkeypatch.setattr(cli, "write_samples_csv", lambda path, curve, n: sampled.append(n))
    n_max = output.SAMPLE_BUDGET // output.SAMPLE_ROW_BYTES
    out = tmp_path / "samples.csv"
    for extra in ([], ["--out", str(out)]):
        for n in (n_max + 1, 10**9):
            assert run_cli(["curves", "sample", "ellipse", "--n", str(n), *extra]) == 2
            err = capsys.readouterr().err
            assert f"--n = {n}" in err and f"budget of {output.SAMPLE_BUDGET} bytes" in err
        assert sampled == []
        assert run_cli(["curves", "sample", "ellipse", "--n", str(n_max), *extra]) == 0
        assert sampled == [n_max]
        sampled.clear()
    capsys.readouterr()


@pytest.mark.parametrize("times", ["1.001, 1.004", "1.0, 1.0"])
def test_cli_refuses_snapshot_times_that_share_a_file(tmp_path, capsys, times):
    # both times round to the same file name, so one snapshot would
    # overwrite the other; the mission must not run
    config = tmp_path / "snap.ini"
    config.write_text(f"[curve]\nname = ellipse\n[sim]\nn = 2\nhorizon = 2\nsnapshot_times = {times}\n")
    out = tmp_path / "out"
    assert run_cli(["simulate", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    first, second = (repr(float(t)) for t in times.split(","))
    assert f"snapshot_times {first} and {second} both write snapshot_t00001.00s.svg" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["find", "simulate"])
@pytest.mark.parametrize("out, why", [("afile", "is not a directory"),
                                      ("afile/sub", "is not a directory"),
                                      ("", "--out is empty")])
def test_cli_refuses_an_unusable_out(monkeypatch, tmp_path, capsys, command, out, why):
    # refused before any work: neither the search nor the mission runs
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr(cli, "multistart", no_work)
    monkeypatch.setattr(cli, "run_mission", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep")
    assert run_cli([command, "--curve", "ellipse", "--n", "3", "--out", out]) == 2
    assert why in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "keep"


def test_cli_curves_sample_out_needs_a_file_path(tmp_path, capsys):
    # a missing parent directory is created, as find and simulate create theirs
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert run_cli(["curves", "sample", "ellipse", "--n", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for bad, why in ((afile / "x.csv", "is not a directory"), (tmp_path / "missing", "is a directory")):
        capsys.readouterr()
        assert run_cli(["curves", "sample", "ellipse", "--n", "5", "--out", str(bad)]) == 2
        assert why in capsys.readouterr().err
    assert afile.read_text() == "keep"


def test_cli_find_refuses_finder_arrays_over_the_budget(tmp_path, capsys):
    path = tmp_path / "huge.ini"
    path.write_text("[curve]\nname = deltoid\n[finder]\nk_max = 1000000000000000\n")
    assert run_cli(["find", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "k_max = 1000000000000000" in err and "budget" in err
    assert not (tmp_path / "out").exists()


def test_cli_dump_config_round_trip(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--curve", "deltoid", "--n", "4", "--seed", "7", "--dump-config"]
    )
    assert code == 0
    dumped = capsys.readouterr().out
    path = tmp_path / "dump.ini"
    path.write_text(dumped)
    assert run_cli(["simulate", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_cli_dump_config_round_trip_keeps_a_wide_seed(tmp_path, capsys):
    # the seeded stream takes any nonnegative integer seed
    seed = 2**128 + 1
    assert run_cli(["find", "--curve", "deltoid", "--n", "4", "--seed", str(seed), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert f"seed = {seed}\n" in dumped
    path = tmp_path / "dump.ini"
    path.write_text(dumped)
    assert run_cli(["find", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_cli_n_below_3_is_sweep_only_for_simulate_and_an_error_for_find(tmp_path, capsys):
    # find used to solve the default 4-gon and print n=4
    assert run_cli(["find", "--curve", "circle", "--n", "2", "--out", str(tmp_path / "f")]) == 2
    assert "config error: n = 2" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()
    out = tmp_path / "s"
    assert run_cli(["simulate", "--curve", "ellipse", "--n", "2", "--horizon", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("curve=ellipse n=2 ")
    assert (out / "trajectory.csv").exists()
    assert run_cli(["simulate", "--curve", "ellipse", "--n", "2", "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    path = tmp_path / "dump.ini"
    path.write_text(dumped)
    assert run_cli(["simulate", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped
    # a [finder] n below 3 stays an error when the mission needs a formation
    path.write_text("[curve]\nname = circle\n[finder]\nn = 2\n")
    assert run_cli(["simulate", str(path), "--dump-config"]) == 2
    assert "n >= 3" in capsys.readouterr().err


def test_cli_sweep_only_mission_still_checks_and_dumps_finder_keys(tmp_path, capsys):
    head = "[curve]\nname = circle\n[sim]\nn = 2\n"
    path = tmp_path / "sweep.ini"
    for extra, message in (
        ("target = inf, 0\n", "c_target must be finite"),
        ("[finder]\nk_max = 0\n", "need at least one iteration"),
        ("[finder]\ntol_step = nan\n", "unknown finder key 'tol_step'"),
    ):
        path.write_text(head + extra)
        for command in ("simulate", "find"):
            assert run_cli([command, str(path), "--dump-config"]) == 2
            assert message in capsys.readouterr().err
    path.write_text(head + "[finder]\nk_max = 7\n")
    assert run_cli(["simulate", str(path), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert "k_max = 7\n" in dumped
    cfg = load_config(dumped)
    assert (cfg.finder.n, cfg.finder.k_max, cfg.sim["n"]) == (2, 7, 2)
    assert cfg.mission_config().finder is None
    path.write_text(dumped)
    assert run_cli(["simulate", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curveswarm.cli", "curves", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "deltoid" in proc.stdout

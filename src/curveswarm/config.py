"""Configuration files for missions and formation searches.

INI-style files with four sections, every key optional:

    [curve]       name, plus numeric curve-family parameters
    [finder]      FinderConfig fields (n, square_mode, seeds, tolerances)
    [controller]  ControllerParams overrides (gains, distances, speeds)
    [sim]         MissionConfig fields (n, seed, dt, horizon, target, ...)

Parsing is strict: an unknown section or key raises ConfigError naming
the offender, and nothing is applied until the whole file parses
(parse-then-validate, never partial application).  dump_config writes
the fully resolved effective configuration, and reparsing that dump
reproduces the same effective configuration.
"""

import configparser
import dataclasses
import io

import numpy as np

from .control import ControllerParams, make_params
from .curves import Curve, make_curve
from .finder import FinderConfig
from .sim import MissionConfig

SECTIONS = ("curve", "finder", "controller", "sim")

_FINDER_KEYS = {f.name for f in dataclasses.fields(FinderConfig)}
_CONTROLLER_KEYS = set(ControllerParams._fields)
_SIM_KEYS = {
    "n",
    "seed",
    "dt",
    "horizon",
    "annulus_frac",
    "heading_spread",
    "target",
    "snapshot_times",
}


class ConfigError(ValueError):
    """Unreadable, unknown, or inconsistent configuration input."""


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key '{key}' expects a boolean, got '{raw}'")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' expects a number, got '{raw}'") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' expects an integer, got '{raw}'") from None


def parse_target(raw: str):
    """'x,y' pair; CLI --target and config file share this format."""
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ConfigError(f"target expects 'x,y', got '{raw}'")
    return (
        _parse_float(parts[0], "target"),
        _parse_float(parts[1], "target"),
    )


@dataclasses.dataclass
class EffectiveConfig:
    """Everything resolved: curve object plus the three config records."""

    curve_name: str
    curve_params: dict
    curve: Curve
    finder: FinderConfig
    controller_overrides: dict
    sim: dict

    def mission_config(self) -> MissionConfig:
        params = (
            make_params(self.curve, **self.controller_overrides)
            if self.controller_overrides
            else None
        )
        sim = dict(self.sim)
        target = sim.pop("target", None)
        finder = self.finder
        if sim.get("n", 4) < 3:
            finder = None  # sweep-only missions never run the formation search
        return MissionConfig(
            curve=self.curve,
            finder=finder,
            params=params,
            c_target=target,
            **sim,
        )


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section '{section}'")
    return parser

def load_config(text: str, overrides: dict = None) -> EffectiveConfig:
    """Parse config text, apply CLI-style overrides, build everything.

    overrides maps flat keys (curve, n, target, seed, dt, horizon,
    square_mode) to already-typed values; flags win over file values.
    This is the one place the finder's n, seed and c_target are derived:
    from a flag, else from the [finder] key, else from the [sim] key
    (n, seed, target).  A mission n below 3 leaves the finder's n alone.
    """
    parser = _read_ini(text)
    overrides = dict(overrides or {})

    curve_name = None
    curve_params = {}
    if parser.has_section("curve"):
        for key, raw in parser.items("curve"):
            if key == "name":
                curve_name = raw.strip()
            else:
                curve_params[key] = _parse_float(raw, f"curve.{key}")
    if "curve" in overrides and overrides["curve"] is not None:
        curve_name = overrides["curve"]
    if curve_name is None:
        raise ConfigError(
            "missing required key 'curve.name' (set [curve] name or --curve)"
        )

    finder_kw = {}
    if parser.has_section("finder"):
        for key, raw in parser.items("finder"):
            if key not in _FINDER_KEYS:
                raise ConfigError(f"unknown finder key '{key}'")
            if key == "c_target":
                finder_kw[key] = parse_target(raw)
            elif key in ("n", "n_init", "k_max", "seed"):
                finder_kw[key] = _parse_int(raw, f"finder.{key}")
            elif key == "square_mode":
                finder_kw[key] = _parse_bool(raw, f"finder.{key}")
            else:
                finder_kw[key] = _parse_float(raw, f"finder.{key}")

    controller_overrides = {}
    if parser.has_section("controller"):
        for key, raw in parser.items("controller"):
            if key not in _CONTROLLER_KEYS:
                raise ConfigError(f"unknown controller key '{key}'")
            controller_overrides[key] = _parse_float(raw, f"controller.{key}")

    sim_kw = {}
    if parser.has_section("sim"):
        for key, raw in parser.items("sim"):
            if key not in _SIM_KEYS:
                raise ConfigError(f"unknown sim key '{key}'")
            if key in ("n", "seed"):
                sim_kw[key] = _parse_int(raw, f"sim.{key}")
            elif key == "target":
                sim_kw[key] = parse_target(raw)
            elif key == "snapshot_times":
                sim_kw[key] = tuple(
                    _parse_float(p, "sim.snapshot_times")
                    for p in raw.replace(",", " ").split()
                )
            else:
                sim_kw[key] = _parse_float(raw, f"sim.{key}")

    flag_types = {"n": int, "seed": int, "dt": float, "horizon": float, "target": tuple}
    for key, cast in flag_types.items():
        if overrides.get(key) is not None:
            sim_kw[key] = cast(overrides[key])
    if overrides.get("square_mode"):
        finder_kw["square_mode"] = True
    # run_mission seeds the finder from the mission the same way
    for key, finder_key in (("n", "n"), ("seed", "seed"), ("target", "c_target")):
        flagged = overrides.get(key) is not None
        if key in sim_kw and (flagged or finder_key not in finder_kw):
            if key != "n" or sim_kw["n"] >= 3:
                finder_kw[finder_key] = sim_kw[key]

    try:
        curve = make_curve(curve_name, **curve_params)
    except Exception as exc:
        raise ConfigError(str(exc)) from None
    try:
        finder = FinderConfig(**finder_kw)
        finder.validate()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from None
    if controller_overrides:
        try:
            make_params(curve, **controller_overrides)
        except Exception as exc:
            raise ConfigError(str(exc)) from None

    return EffectiveConfig(
        curve_name=curve_name,
        curve_params=curve_params,
        curve=curve,
        finder=finder,
        controller_overrides=controller_overrides,
        sim=sim_kw,
    )


def dump_config(cfg: EffectiveConfig) -> str:
    """Serialize the effective configuration; reparses to itself."""
    out = io.StringIO()
    out.write("[curve]\n")
    out.write(f"name = {cfg.curve_name}\n")
    for key in sorted(cfg.curve_params):
        out.write(f"{key} = {repr(float(cfg.curve_params[key]))}\n")
    out.write("\n[finder]\n")
    for f in dataclasses.fields(FinderConfig):
        value = getattr(cfg.finder, f.name)
        if value is None:
            continue
        if f.name == "c_target":
            out.write(f"c_target = {repr(float(value[0]))}, {repr(float(value[1]))}\n")
        elif isinstance(value, bool):
            out.write(f"{f.name} = {str(value).lower()}\n")
        elif isinstance(value, (int, np.integer)):
            out.write(f"{f.name} = {int(value)}\n")
        else:
            out.write(f"{f.name} = {repr(float(value))}\n")
    out.write("\n[controller]\n")
    for key in sorted(cfg.controller_overrides):
        out.write(f"{key} = {repr(float(cfg.controller_overrides[key]))}\n")
    out.write("\n[sim]\n")
    for key in sorted(cfg.sim):
        value = cfg.sim[key]
        if key == "target":
            out.write(f"target = {repr(float(value[0]))}, {repr(float(value[1]))}\n")
        elif key == "snapshot_times":
            out.write(
                "snapshot_times = "
                + ", ".join(repr(float(v)) for v in value)
                + "\n"
            )
        elif key in ("n", "seed"):
            out.write(f"{key} = {int(value)}\n")
        else:
            out.write(f"{key} = {repr(float(value))}\n")
    return out.getvalue()

"""Configuration files for missions and formation searches.

INI-style files with four sections, every key optional:

    [curve]       name, plus numeric curve-family parameters (case-sensitive)
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

# Each [finder], [controller] and [sim] key maps to its record field's
# default, which types the key: bool, int, float, tuple of floats, or
# None for the 'x,y' point.  The curve-scaled controller fields have no
# default; they are floats like every controller field.  [sim] spells
# MissionConfig.c_target as target and leaves out the objects a mission
# holds (curve, finder, params).
_DEFAULTS = {
    "finder": {f.name: f.default for f in dataclasses.fields(FinderConfig)},
    "controller": {
        key: ControllerParams._field_defaults.get(key, 0.0)
        for key in ControllerParams._fields
    },
    "sim": {
        "target" if f.name == "c_target" else f.name: f.default
        for f in dataclasses.fields(MissionConfig)
        if f.name not in ("curve", "finder", "params")
    },
}


class ConfigError(ValueError):
    """Unreadable, unknown, or inconsistent configuration input."""


def _number(cast, raw: str, key: str):
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"key '{key}' expects {kind}, got '{raw}'") from None


def parse_target(raw: str, key: str = "target"):
    """'x,y' pair; CLI --target and config file share this format."""
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ConfigError(f"key '{key}' expects 'x,y', got '{raw}'")
    return (_number(float, parts[0], key), _number(float, parts[1], key))


def _parse(section: str, key: str, raw: str):
    """One INI value, typed by its record field's default."""
    name = f"{section}.{key}"
    default = _DEFAULTS[section][key]
    if default is None:
        return parse_target(raw, name)
    if isinstance(default, tuple):
        return tuple(_number(float, p, name) for p in raw.replace(",", " ").split())
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key '{name}' expects a boolean, got '{raw}'")
    return _number(type(default), raw, name)


def _format(value) -> str:
    """An INI value that _parse reads back as the same value."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return repr(float(value))


@dataclasses.dataclass
class EffectiveConfig:
    """Everything resolved: curve object plus the three config records.

    For a sweep-only mission (n below 3) finder.n is the mission's n and
    the record is never run; its other fields are still validated.
    """

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
        mission = MissionConfig(curve=self.curve, params=params, c_target=target, **sim)
        if mission.n >= 3:  # sweep-only missions never run the formation search
            mission.finder = self.finder
        return mission


def _read_ini(text: str) -> dict:
    """{section: {key: raw value}}; keys are case-folded outside [curve].

    [curve] keys stay as written, since a family can have parameters
    that differ only in case (spirograph's R and r).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    sections = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section '{section}'")
        keys = sections[section] = {}
        for key, raw in parser.items(section):
            if section != "curve":
                key = key.lower()
            if key in keys:
                raise ConfigError(f"config parse error: key '{key}' of [{section}] is given twice")
            keys[key] = raw
    return sections


def load_config(text: str, overrides: dict = None) -> EffectiveConfig:
    """Parse config text, apply CLI-style overrides, build everything.

    overrides maps flat keys (curve, n, target, seed, dt, horizon,
    square_mode) to values; flags win over file values.  This is the
    one place the finder's n, seed and c_target are derived: from a
    flag, else from the [finder] key, else from the [sim] key (n, seed,
    target).  When that n is the mission's and below 3, the mission is
    sweep-only: its finder keeps that n and runs no search.
    """
    sections = _read_ini(text)
    overrides = dict(overrides or {})

    curve_name = None
    curve_params = {}
    for key, raw in sections.get("curve", {}).items():
        if key == "name":
            curve_name = raw.strip()
        else:
            curve_params[key] = _number(float, raw, f"curve.{key}")
    if "curve" in overrides and overrides["curve"] is not None:
        curve_name = overrides["curve"]
    if curve_name is None:
        raise ConfigError(
            "missing required key 'curve.name' (set [curve] name or --curve)"
        )

    values = {section: {} for section in _DEFAULTS}
    for section, fields in _DEFAULTS.items():
        for key, raw in sections.get(section, {}).items():
            if key not in fields:
                raise ConfigError(f"unknown {section} key '{key}'")
            values[section][key] = _parse(section, key, raw)
    finder_kw, controller_overrides, sim_kw = values.values()

    for key, value in overrides.items():
        if key in _DEFAULTS["sim"] and value is not None:
            sim_kw[key] = value
    if overrides.get("square_mode"):
        finder_kw["square_mode"] = True
    # run_mission seeds the finder from the mission the same way
    for key, finder_key in (("n", "n"), ("seed", "seed"), ("target", "c_target")):
        flagged = overrides.get(key) is not None
        if key in sim_kw and (flagged or finder_key not in finder_kw):
            finder_kw[finder_key] = sim_kw[key]
    sweep_only = "n" in sim_kw and sim_kw["n"] < 3 and finder_kw["n"] == sim_kw["n"]

    try:
        curve = make_curve(curve_name, **curve_params)
        finder = FinderConfig(**finder_kw)
        # a sweep-only mission runs no search, but its [finder] keys are checked
        (dataclasses.replace(finder, n=FinderConfig.n) if sweep_only else finder).validate()
        if controller_overrides:
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
    finder = dataclasses.asdict(cfg.finder)
    out = io.StringIO()
    out.write("[curve]\n")
    out.write(f"name = {cfg.curve_name}\n")
    for key in sorted(cfg.curve_params):
        out.write(f"{key} = {_format(cfg.curve_params[key])}\n")
    for section, values, keys in (
        ("finder", finder, list(finder)),
        ("controller", cfg.controller_overrides, sorted(cfg.controller_overrides)),
        ("sim", cfg.sim, sorted(cfg.sim)),
    ):
        out.write(f"\n[{section}]\n")
        for key in keys:
            if values[key] is not None:
                out.write(f"{key} = {_format(values[key])}\n")
    return out.getvalue()

"""Run configuration: presets, config files and command-line overrides.

A scenario is described by a nested mapping (the same shape the YAML
config files use) with sections ``domain``, ``populations``, ``desired``,
``initial``, ``numerics`` and ``output``.  The two crowd scenarios and the
two linear reference problems ship as named presets; a config file or
keyword overrides are deep-merged on top, and the numeric command-line
flags win over everything.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError

__all__ = ["RunConfig", "preset", "preset_names", "load_config_file", "deep_merge"]


_ROOM = {
    "scenario": "evacuation",
    "domain": {
        "box": [0.0, 8.0, -4.0, 4.0],
        "exits": [[[8.0, -1.0], [8.0, 1.0]]],
        "obstacles": [
            [6.5, 7.0, 1.0, 1.625],
            [6.5, 7.0, -1.625, -1.0],
        ],
    },
    "populations": [
        {
            "speed_law": {"amplitude": 2.0, "capacity": 4.0},
            "kernels": {"l1": 0.625, "l2": 1.5},
            "betas": [0.6],
            "target_exits": [0],
        }
    ],
    "desired": {"discomfort_amp": 0.3, "discomfort_range": None},
    "initial": {"kind": "quadrants", "counts": [5.0, 14.0, 9.0, 20.0]},
    "numerics": {"h": 0.03125, "T": 7.5, "cfl": 0.5, "theta": 1.0},
    "output": {"dir": None, "cadence": 1.5},
}

_CORRIDOR = {
    "scenario": "corridor",
    "domain": {
        "box": [0.0, 16.0, -2.0, 2.0],
        "exits": [
            [[0.0, -2.0], [0.0, 2.0]],
            [[16.0, -2.0], [16.0, 2.0]],
        ],
        "obstacles": [],
    },
    "populations": [
        {
            "speed_law": {"amplitude": 1.0, "capacity": 4.5},
            "kernels": {"l1": 0.1875, "l2": 0.5},
            "betas": [0.2, 0.5],
            "target_exits": [1],
        },
        {
            "speed_law": {"amplitude": 1.5, "capacity": 4.5},
            "kernels": {"l1": 0.1875, "l2": 0.5},
            "betas": [0.5, 0.2],
            "target_exits": [0],
        },
    ],
    "desired": {"discomfort_amp": 0.3, "discomfort_range": None},
    "initial": {"kind": "ramp", "lo": 0.0, "hi": 4.0, "orientation": "same"},
    "numerics": {"h": 0.015625, "T": 8.0, "cfl": 0.5, "theta": 1.0},
    "output": {"dir": None, "cadence": 1.6},
}

_ROTATION = {
    "scenario": "custom-linear",
    "problem": "rotation-disc",
    "numerics": {"h": 0.03125, "T": 0.5, "cfl": 0.5, "theta": 0.5},
    "output": {"dir": None, "cadence": None},
}

_CONTRACTION = {
    "scenario": "custom-linear",
    "problem": "contraction-disc",
    "numerics": {"h": 0.0078125, "T": 1.0, "cfl": 0.5, "theta": 1.0},
    "output": {"dir": None, "cadence": None},
}

_PRESETS: dict[str, dict] = {
    "room-eq25": _ROOM,
    "corridor-eq20": _CORRIDOR,
    "evacuation": _ROOM,
    "corridor": _CORRIDOR,
    "rotation-disc": _ROTATION,
    "contraction-disc": _CONTRACTION,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> dict:
    """Deep copy of a named scenario preset."""
    try:
        return copy.deepcopy(_PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(preset_names())}"
        ) from None


def load_config_file(path: str | Path) -> dict:
    """Read a YAML scenario config; must parse to a mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        # a missing file, a directory, a file that is not UTF-8 text
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return data


def deep_merge(base: dict, override: dict) -> dict:
    """Recursively merge mappings; scalars and lists in `override` win."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class RunConfig:
    """One run of the simulator: scenario plus numeric/output overrides.

    ``scenario`` is a preset name or a full scenario mapping; the optional
    fields override the scenario's own numerics/output sections.
    """

    scenario: str | dict = "room-eq25"
    h: float | None = None
    final_time: float | None = None
    cfl: float | None = None
    theta: float | None = None
    snap_every: float | None = None
    out_dir: str | None = None
    overrides: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """Full scenario mapping with every override folded in; each section
        present has its container type (``populations`` a list, the rest
        mappings), numerics hold validated floats h, T, cfl (default 0.5)
        and theta (default 1.0), and ``output.dir`` is null or a non-empty
        path."""
        if isinstance(self.scenario, str):
            cfg = preset(self.scenario)
        elif isinstance(self.scenario, dict):
            cfg = copy.deepcopy(self.scenario)
        else:
            raise ConfigError(f"scenario must be a name or mapping, got {self.scenario!r}")
        if self.overrides:
            cfg = deep_merge(cfg, self.overrides)
        for key in ("domain", "populations", "desired", "initial", "numerics", "output"):
            kind, what = (list, "a list") if key == "populations" else (dict, "a mapping")
            if key in cfg and not isinstance(cfg[key], kind):
                raise ConfigError(f"config section {key} must be {what}, got {cfg[key]!r}")
        numerics = cfg.setdefault("numerics", {})
        for key, value in (
            ("h", self.h),
            ("T", self.final_time),
            ("cfl", self.cfl),
            ("theta", self.theta),
        ):
            if value is not None:
                numerics[key] = value
        output = cfg.setdefault("output", {})
        if self.snap_every is not None:
            output["cadence"] = self.snap_every
        if self.out_dir is not None:
            output["dir"] = str(self.out_dir)
        _validate_numerics(numerics)
        out_dir = output.get("dir")
        if out_dir is not None and (
            not isinstance(out_dir, (str, os.PathLike)) or not os.fspath(out_dir)
        ):
            raise ConfigError(f"output.dir must be a non-empty path, got {out_dir!r}")
        if output.get("cadence") is not None:
            cadence = output["cadence"] = _number("output.cadence", output["cadence"])
            # 0 means no periodic snapshots, only the first and the last
            if not cadence >= 0.0:
                raise ConfigError(f"output.cadence must be null or nonnegative, got {cadence}")
        return cfg


def _number(where: str, value: Any) -> float:
    """``value`` as a float, or a config error naming ``where``.

    A boolean is not a number, although ``float`` takes YAML's ``true`` as 1.0.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _validate_numerics(numerics: dict) -> None:
    numerics.setdefault("cfl", 0.5)
    numerics.setdefault("theta", 1.0)
    for key in ("h", "T", "cfl", "theta"):
        numerics[key] = _number(f"numerics.{key}", numerics.get(key))
    h, T, cfl, theta = (numerics[key] for key in ("h", "T", "cfl", "theta"))
    if not h > 0.0:
        raise ConfigError(f"numerics.h must be positive, got {h}")
    if not 0.0 <= T < math.inf:
        raise ConfigError(f"numerics.T must be finite and nonnegative, got {T}")
    if not 0.0 < cfl < 1.0:
        raise ConfigError(f"numerics.cfl must be in (0, 1), got {cfl}")
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"numerics.theta must be in (0, 1], got {theta}")

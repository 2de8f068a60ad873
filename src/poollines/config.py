"""Run configuration: one JSON file, selectively overridable from flags.

Every tunable the pipeline uses is a key here; command line flags only
override, never extend.  Unknown keys are rejected so typos fail fast.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .geo import TravelModel
from .matching import FeasibilityRules
from .scenario import Rectangle, ScenarioConfig, ScenarioError, Window
from .simulation import EmissionModel


class ConfigError(Exception):
    pass


_TOP_KEYS = {
    "gtfs_path", "synthetic_city", "output_dir", "seed", "service_date",
    "tau", "dwell_s", "max_walk_km", "transfer_s", "num_itineraries",
    "seat_capacity", "workers", "capacity_enforcement",
    "meeting_point_route_types", "travel", "rules", "emissions",
    "scenario", "agents_path",
}
_SCENARIO_KEYS = {
    "rectangles", "driver_density", "rider_density", "area_km2",
    "sim_window", "stats_window", "driver_count", "rider_count",
}


@dataclass
class RunConfig:
    gtfs_path: str | None = None
    synthetic_city: bool = False
    output_dir: str = "out"
    seed: int = 0
    service_date: str = "2022-07-20"
    tau: float = 0.15
    dwell_s: int = 60
    max_walk_km: float = 2.5
    transfer_s: int = 60
    num_itineraries: int = 10
    seat_capacity: int = 4
    workers: int = 0  # 0, when the config and flags set none: one worker per CPU
    capacity_enforcement: bool = True
    meeting_point_route_types: tuple[int, ...] = (1,)
    travel: TravelModel = field(default_factory=TravelModel)
    rules: FeasibilityRules = field(default_factory=FeasibilityRules)
    emissions: EmissionModel = field(default_factory=EmissionModel)
    scenario: ScenarioConfig | None = None
    agents_path: str | None = None

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


def _window(value, key: str) -> Window:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be a [start, end] pair of HH:MM:SS strings")
    try:
        return Window.from_texts(value[0], value[1])
    except (ValueError, ScenarioError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def _rectangles(value) -> tuple[Rectangle, ...]:
    if value == "city":
        from .synthetic import city_rectangles

        return city_rectangles()
    if not isinstance(value, list) or not value:
        raise ConfigError("scenario.rectangles must be \"city\" or a non-empty list")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) not in (4, 5):
            raise ConfigError(
                f"rectangle {i} must be [lat_min, lat_max, lon_min, lon_max] "
                "with an optional weight"
            )
        try:
            out.append(Rectangle(*[float(x) for x in item]))
        except (TypeError, ValueError, ScenarioError) as exc:
            raise ConfigError(f"bad rectangle {i}: {exc}") from None
    return tuple(out)


def _scenario(raw: dict, seed: int, seat_capacity: int) -> ScenarioConfig:
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    if "rectangles" not in raw:
        raise ConfigError("scenario.rectangles is required")
    kwargs = {
        "rectangles": _rectangles(raw["rectangles"]),
        "driver_density": _float(raw, "driver_density", 0.0, "scenario."),
        "rider_density": _float(raw, "rider_density", 0.0, "scenario."),
        "seed": seed,
        "seat_capacity": seat_capacity,
    }
    if "sim_window" in raw:
        kwargs["sim_window"] = _window(raw["sim_window"], "scenario.sim_window")
    if "stats_window" in raw:
        kwargs["stats_window"] = _window(raw["stats_window"], "scenario.stats_window")
    if raw.get("area_km2") is not None:
        kwargs["area_km2"] = _float(raw, "area_km2", None, "scenario.")
        if kwargs["area_km2"] <= 0:
            raise ConfigError(f"scenario.area_km2 must be positive, not {kwargs['area_km2']}")
    for key in ("driver_count", "rider_count"):
        if raw.get(key) is not None:
            kwargs[key] = _int(raw, key, None, "scenario.")
            if kwargs[key] < 0:
                raise ConfigError(f"scenario.{key} must be non-negative, not {kwargs[key]}")
    try:
        return ScenarioConfig(**kwargs)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from None


def _bool(raw: dict, key: str, default: bool) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _is_int(value) -> bool:
    """A JSON integer: ``2.0``, ``true`` and ``"2"`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: booleans and strings are not."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    )


def _int(raw: dict, key: str, default, prefix: str = "") -> int:
    value = raw.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{prefix}{key} must be an integer, not {value!r}")
    return value


def _float(raw: dict, key: str, default, prefix: str = "") -> float:
    value = raw.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{prefix}{key} must be a finite number, not {value!r}")
    return float(value)


def _sub(raw: dict, key: str, cls, allowed: set[str]):
    """An object block built into ``cls``.

    A value must have its default's JSON type: a boolean for a flag, a
    finite number otherwise, so ``"false"`` or ``"abc"`` fail here and
    not deep in the run.
    """
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        v = value.get(f.name, f.default)
        if isinstance(f.default, bool):
            if not isinstance(v, bool):
                raise ConfigError(f"{key}.{f.name} must be true or false, not {v!r}")
        elif not _is_number(v):
            raise ConfigError(f"{key}.{f.name} must be a finite number, not {v!r}")
    try:
        return cls(**value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply flag overrides on top."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    cfg = RunConfig()
    cfg.gtfs_path = raw.get("gtfs_path")
    cfg.synthetic_city = _bool(raw, "synthetic_city", False)
    cfg.output_dir = str(raw.get("output_dir", cfg.output_dir))
    cfg.seed = _int(raw, "seed", cfg.seed)
    cfg.service_date = str(raw.get("service_date", cfg.service_date))
    try:
        date.fromisoformat(cfg.service_date)
    except ValueError as exc:
        raise ConfigError(f"service_date {cfg.service_date!r} is not a date: {exc}") from None
    cfg.tau = _float(raw, "tau", cfg.tau)
    cfg.dwell_s = _int(raw, "dwell_s", cfg.dwell_s)
    cfg.max_walk_km = _float(raw, "max_walk_km", cfg.max_walk_km)
    cfg.transfer_s = _int(raw, "transfer_s", cfg.transfer_s)
    cfg.num_itineraries = _int(raw, "num_itineraries", cfg.num_itineraries)
    cfg.seat_capacity = _int(raw, "seat_capacity", cfg.seat_capacity)
    cfg.workers = _int(raw, "workers", cfg.workers)
    cfg.capacity_enforcement = _bool(raw, "capacity_enforcement", True)
    route_types = raw.get("meeting_point_route_types", [1])
    if not isinstance(route_types, list) or not all(_is_int(x) for x in route_types):
        raise ConfigError(
            f"meeting_point_route_types must be a list of integers, not {route_types!r}"
        )
    cfg.meeting_point_route_types = tuple(route_types)
    cfg.agents_path = raw.get("agents_path")

    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, not {cfg.seed}")
    if cfg.seat_capacity < 1:
        raise ConfigError(f"seat_capacity must be >= 1, not {cfg.seat_capacity}")
    if "workers" in raw and cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, not {cfg.workers}")
    if cfg.tau < 0:
        raise ConfigError("tau must be non-negative")
    if cfg.max_walk_km < 0:
        raise ConfigError(f"max_walk_km must be non-negative, not {cfg.max_walk_km}")
    if cfg.num_itineraries < 1:
        raise ConfigError(f"num_itineraries must be >= 1, not {cfg.num_itineraries}")
    if cfg.dwell_s < 0 or cfg.transfer_s < 0:
        raise ConfigError("dwell_s and transfer_s must be non-negative")
    if not cfg.meeting_point_route_types:
        raise ConfigError("meeting_point_route_types must not be empty")
    if cfg.gtfs_path is None and not cfg.synthetic_city:
        raise ConfigError("either gtfs_path or synthetic_city is required")

    cfg.travel = _sub(raw, "travel", TravelModel, {"drive_speed_kmh", "walk_speed_kmh", "circuity"})
    cfg.rules = _sub(raw, "rules", FeasibilityRules, {"max_wait_s", "max_walk_km", "walk_time_bound"})
    for key in ("max_walk_km", "max_wait_s"):
        if getattr(cfg.rules, key) < 0:
            raise ConfigError(f"rules.{key} must be non-negative, not {getattr(cfg.rules, key)}")
    cfg.emissions = _sub(raw, "emissions", EmissionModel, {"grams_per_km"})
    if "scenario" in raw:
        if not isinstance(raw["scenario"], dict):
            raise ConfigError("scenario must be an object")
        cfg.scenario = _scenario(raw["scenario"], cfg.seed, cfg.seat_capacity)
    return cfg

"""Run configuration: one JSON file, selectively overridable from flags.

Every tunable the pipeline uses is a key here; command line flags only
override, never extend.  The dataclasses hold the keys and their
defaults: ``RunConfig`` the top level, and the class of each nested
object its block.  ``SCHEMA`` gives each dotted key its JSON kind and
domain.  An unknown key, a value of the wrong kind and one outside its
domain are each a :class:`ConfigError` that names the dotted key.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, NamedTuple

from .drivers import DEFAULT_DWELL_S, DEFAULT_SEAT_CAPACITY, DEFAULT_TAU
from .geo import TravelModel
from .gtfs import format_gtfs_time
from .matching import FeasibilityRules
from .planner import DEFAULT_MAX_WALK_KM, DEFAULT_NUM_ITINERARIES, DEFAULT_TRANSFER_S
from .scenario import Rectangle, ScenarioConfig, ScenarioError, Window
from .simulation import EmissionModel


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    gtfs_path: str | None = None
    synthetic_city: bool = False
    output_dir: str = "out"
    seed: int = 0
    service_date: str = "2022-07-20"
    tau: float = DEFAULT_TAU
    dwell_s: int = DEFAULT_DWELL_S
    max_walk_km: float = DEFAULT_MAX_WALK_KM
    transfer_s: int = DEFAULT_TRANSFER_S
    num_itineraries: int = DEFAULT_NUM_ITINERARIES
    seat_capacity: int = DEFAULT_SEAT_CAPACITY
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


def _is_int(value) -> bool:
    """A JSON integer: ``2.0``, ``true`` and ``"2"`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bounded(value, lo, hi):
    if not lo <= value <= hi:  # before any float(): a huge int still compares
        raise ValueError(f"must be in [{lo}, {hi}], not {value!r}")
    return value


# Each kind reads a JSON value, checks it against the domain [lo, hi] and
# returns the Python value, or raises ValueError with the message's tail.

def _integer(value, lo, hi) -> int:
    if not _is_int(value):
        raise ValueError(f"must be an integer, not {value!r}")
    return _bounded(value, lo, hi)


def _number(value, lo, hi) -> float:
    """A finite JSON number: booleans, strings and NaN are not."""
    if not (_is_int(value) or isinstance(value, float) and math.isfinite(value)):
        raise ValueError(f"must be a finite number, not {value!r}")
    return float(_bounded(value, lo, hi))


def _flag(value, lo, hi) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, not {value!r}")
    return value


def _path(value, lo, hi) -> str:
    if not (isinstance(value, str) and value and "\0" not in value):
        raise ValueError(f"must be a non-empty path string, not {value!r}")
    return value


def _date(value, lo, hi) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a YYYY-MM-DD string, not {value!r}")
    try:
        date.fromisoformat(value)
    except ValueError as exc:
        raise ValueError(f"{value!r} is not a date: {exc}") from None
    return value


def _window(value, lo, hi) -> Window:
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(t, str) for t in value)):
        raise ValueError(f"must be a [start, end] pair of HH:MM:SS strings, not {value!r}")
    try:
        window = Window.from_texts(*value)
    except (ValueError, ScenarioError) as exc:
        raise ValueError(f"is not a window: {exc}") from None
    if window.start < lo or window.end > hi:
        raise ValueError(f"must lie within {format_gtfs_time(lo)}-{format_gtfs_time(hi)}, not {value!r}")
    return window


def _integers(value, lo, hi) -> tuple[int, ...]:
    if not (isinstance(value, list) and value and all(map(_is_int, value))):
        raise ValueError(f"must be a non-empty list of integers, not {value!r}")
    return tuple(_bounded(x, lo, hi) for x in value)


def _rectangles(value, lo, hi) -> tuple[Rectangle, ...]:
    """"city", or a list of [lat_min, lat_max, lon_min, lon_max] in WGS84
    degrees, each with an optional weight in [lo, hi]."""
    if value == "city":
        from .synthetic import city_rectangles

        return city_rectangles()
    if not (isinstance(value, list) and value):
        raise ValueError(f'must be "city" or a non-empty list of rectangles, not {value!r}')
    bounds = ((-90, 90), (-90, 90), (-180, 180), (-180, 180), (lo, hi))
    out = []
    for i, r in enumerate(value):
        try:
            if not (isinstance(r, list) and len(r) in (4, 5)):
                raise ValueError("must be [lat_min, lat_max, lon_min, lon_max] with an optional weight")
            out.append(Rectangle(*(_number(x, *b) for x, b in zip(r, bounds))))
        except (ValueError, ScenarioError) as exc:
            raise ValueError(f"rectangle {i}: {exc}") from None
    return tuple(out)


class Key(NamedTuple):
    """A key's kind (a reader above, or the dataclass of a nested object) and domain."""

    kind: Callable | type
    lo: float = 0
    hi: float = 0


_DAY_S = 86_400
_MAX_AGENTS = 1_000_000

# Every key, by dotted path.  The bounds keep what the run derives from a
# value in range: seconds in int32 fan keys and int64 arrays, agent ids
# numpy can seed, worker processes the machine can start.
SCHEMA: dict[str, Key] = {
    "gtfs_path": Key(_path),
    "synthetic_city": Key(_flag),
    "output_dir": Key(_path),
    "seed": Key(_integer, 0, 2**64 - 1),
    "service_date": Key(_date),
    "tau": Key(_number, 0, 10),
    "dwell_s": Key(_integer, 0, _DAY_S),
    "max_walk_km": Key(_number, 0, 100),
    "transfer_s": Key(_integer, 0, _DAY_S),
    "num_itineraries": Key(_integer, 1, 1000),
    "seat_capacity": Key(_integer, 1, 100),
    "workers": Key(_integer, 1, 256),
    "capacity_enforcement": Key(_flag),
    "meeting_point_route_types": Key(_integers, 0, 9999),
    "agents_path": Key(_path),
    "travel": Key(TravelModel),
    "travel.drive_speed_kmh": Key(_number, 1, 1000),
    "travel.walk_speed_kmh": Key(_number, 0.1, 100),
    "travel.circuity": Key(_number, 1, 10),
    "rules": Key(FeasibilityRules),
    "rules.max_wait_s": Key(_integer, 0, _DAY_S),
    "rules.max_walk_km": Key(_number, 0, 100),
    "rules.walk_time_bound": Key(_flag),
    "emissions": Key(EmissionModel),
    "emissions.grams_per_km": Key(_number, 0, 10_000),
    # seed and seat_capacity of a scenario are the top-level keys.
    "scenario": Key(ScenarioConfig),
    "scenario.rectangles": Key(_rectangles, 0, 1e6),
    "scenario.driver_density": Key(_number, 0, 1000),
    "scenario.rider_density": Key(_number, 0, 1000),
    "scenario.sim_window": Key(_window, 0, 2 * _DAY_S),
    "scenario.stats_window": Key(_window, 0, 2 * _DAY_S),
    "scenario.area_km2": Key(_number, 0.01, 1e6),
    "scenario.driver_count": Key(_integer, 0, _MAX_AGENTS),
    "scenario.rider_count": Key(_integer, 0, _MAX_AGENTS),
}


def _object(cls, raw, path: str = ""):
    """``cls`` built from the JSON object ``raw`` found at dotted ``path``.

    Its keys are the fields of ``cls`` that ``SCHEMA`` lists.  An absent
    key, or a null one whose default is None, keeps the field's default;
    a field without a default is required.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be an object, not {raw!r}")
    fields = [f for f in dataclasses.fields(cls) if f"{path}.{f.name}".lstrip(".") in SCHEMA]
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown)}")
    kwargs = {}
    for f in fields:
        key = f"{path}.{f.name}".lstrip(".")
        value = raw.get(f.name)
        if value is None and (f.name not in raw or f.default is None):
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{key} is required")
            continue
        kind, lo, hi = SCHEMA[key]
        try:
            kwargs[f.name] = _object(kind, value, key) if isinstance(kind, type) else kind(value, lo, hi)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}") from None
    return cls(**kwargs)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply flag overrides on top."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSON or UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if overrides and isinstance(raw, dict):
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = _object(RunConfig, raw)

    if cfg.gtfs_path is None and not cfg.synthetic_city:
        raise ConfigError("either gtfs_path or synthetic_city is required")
    if cfg.scenario is not None:
        sc = cfg.scenario = dataclasses.replace(
            cfg.scenario, seed=cfg.seed, seat_capacity=cfg.seat_capacity
        )
        sim, stats = sc.sim_window, sc.stats_window
        if not (sim.start <= stats.start and stats.end <= sim.end):
            raise ConfigError(
                "scenario.stats_window must lie inside scenario.sim_window "
                f"{format_gtfs_time(sim.start)}-{format_gtfs_time(sim.end)}"
            )
        for kind, count in zip(("driver", "rider"), sc.agent_counts()):
            if count > _MAX_AGENTS:
                raise ConfigError(
                    f"scenario.{kind}_density gives {count} {kind}s over the sim window, "
                    f"more than {_MAX_AGENTS}"
                )
    return cfg

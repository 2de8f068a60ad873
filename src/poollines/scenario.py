"""Synthetic demand: agents sampled over weighted rectangles.

Origins and destinations fall uniformly inside rectangles chosen with
probability proportional to their weight (area by default).  Departure
times are uniform over the simulation window; statistics are later
restricted to a narrower stats window.  Everything is driven by one
seed and per-agent substreams, so regeneration is order-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .drivers import DEFAULT_SEAT_CAPACITY, Driver, agent_streams
from .geo import GeoPoint
from .gtfs import CsvRows, _ascii_float, _ascii_int, format_coordinate, parse_gtfs_time, write_csv
from .matching import Rider

# Metres of latitude per degree, and of longitude per degree at the
# rectangle's mid latitude, via the spherical arc length.
_KM_PER_DEG = math.pi * 6371.0088 / 180.0


class ScenarioError(Exception):
    pass


T = TypeVar("T")


@dataclass(frozen=True)
class Rectangle:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    weight: float | None = None  # None: weight by area

    def __post_init__(self) -> None:
        if self.lat_min >= self.lat_max or self.lon_min >= self.lon_max:
            raise ScenarioError("rectangle has non-positive extent")
        if self.weight is not None and self.weight <= 0:
            raise ScenarioError("rectangle weight must be positive")

    @property
    def area_km2(self) -> float:
        mid = math.radians((self.lat_min + self.lat_max) / 2.0)
        return (
            (self.lat_max - self.lat_min)
            * _KM_PER_DEG
            * (self.lon_max - self.lon_min)
            * _KM_PER_DEG
            * math.cos(mid)
        )


@dataclass(frozen=True)
class Window:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ScenarioError("window must have positive length")

    @property
    def seconds(self) -> int:
        return self.end - self.start

    @property
    def hours(self) -> float:
        return self.seconds / 3600.0

    def contains(self, t: int) -> bool:
        return self.start <= t < self.end

    @classmethod
    def from_texts(cls, start: str, end: str) -> "Window":
        return cls(parse_gtfs_time(start), parse_gtfs_time(end))


@dataclass(frozen=True)
class ScenarioConfig:
    rectangles: tuple[Rectangle, ...]
    driver_density: float = 0.0  # drivers per km^2 per hour
    rider_density: float = 0.0
    sim_window: Window = field(default_factory=lambda: Window.from_texts("10:30:00", "11:30:00"))
    stats_window: Window = field(default_factory=lambda: Window.from_texts("10:45:00", "11:15:00"))
    seed: int = 0
    area_km2: float | None = None  # None: sum of rectangle areas
    driver_count: int | None = None  # explicit overrides beat the density formula
    rider_count: int | None = None
    seat_capacity: int = DEFAULT_SEAT_CAPACITY

    def __post_init__(self) -> None:
        if not self.rectangles:
            raise ScenarioError("at least one rectangle is required")
        if self.driver_density < 0 or self.rider_density < 0:
            raise ScenarioError("densities must be non-negative")

    @property
    def effective_area_km2(self) -> float:
        if self.area_km2 is not None:
            return self.area_km2
        return sum(r.area_km2 for r in self.rectangles)

    def agent_counts(self) -> tuple[int, int]:
        """Drivers and riders to sample: each explicit count, else its
        density's over the area and the sim window."""
        area, hours = self.effective_area_km2, self.sim_window.hours
        drivers, riders = self.driver_count, self.rider_count
        return (
            agent_count(self.driver_density, area, hours) if drivers is None else drivers,
            agent_count(self.rider_density, area, hours) if riders is None else riders,
        )


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    drivers: tuple[Driver, ...]
    riders: tuple[Rider, ...]


def round_half_down(x: float) -> int:
    """Nearest integer, with exact halves rounding down."""
    return math.ceil(x - 0.5)


def agent_count(density: float, area_km2: float, hours: float) -> int:
    return max(0, round_half_down(density * area_km2 * hours))


def _weights(rectangles: tuple[Rectangle, ...]) -> list[float]:
    weights = [r.weight if r.weight is not None else r.area_km2 for r in rectangles]
    total = sum(weights)
    return [w / total for w in weights]


def sample_point(
    rectangles: tuple[Rectangle, ...], rng: np.random.Generator,
    weights: list[float] | None = None,
) -> GeoPoint:
    """A uniform point from a weight-chosen rectangle."""
    if weights is None:
        weights = _weights(rectangles)
    u = rng.random()
    cumulative = 0.0
    chosen = rectangles[-1]
    for r, w in zip(rectangles, weights):
        cumulative += w
        if u < cumulative:
            chosen = r
            break
    lat = chosen.lat_min + rng.random() * (chosen.lat_max - chosen.lat_min)
    lon = chosen.lon_min + rng.random() * (chosen.lon_max - chosen.lon_min)
    return GeoPoint(lat, lon)


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Sample drivers and riders per the config.

    Each agent draws from the stream ``default_rng([seed, tag, id])``
    starts (tag 0 for drivers, 1 for riders), so an agent's draw does not
    depend on how many others there are; the streams of each kind are
    seeded in one :func:`~poollines.drivers.agent_streams`.  Drivers
    declare at the start of the simulation window.
    """
    n_drivers, n_riders = cfg.agent_counts()
    weights = _weights(cfg.rectangles)

    def trips(tag: int, count: int) -> Iterator[tuple[int, GeoPoint, GeoPoint, int]]:
        ids = range(1, count + 1)
        for i, rng in zip(ids, agent_streams([cfg.seed, tag], ids)):
            origin = sample_point(cfg.rectangles, rng, weights)
            destination = sample_point(cfg.rectangles, rng, weights)
            yield i, origin, destination, int(rng.integers(cfg.sim_window.start, cfg.sim_window.end))

    drivers = tuple(
        Driver(
            driver_id=i,
            origin=origin,
            destination=destination,
            departure_time=departure,
            declaration_time=cfg.sim_window.start,
            seat_capacity=cfg.seat_capacity,
        )
        for i, origin, destination, departure in trips(0, n_drivers)
    )
    riders = tuple(Rider(*trip) for trip in trips(1, n_riders))
    return Scenario(cfg, drivers, riders)


_AGENT_HEADER = ["kind", "id", "origin_lat", "origin_lon", "destination_lat", "destination_lon", "departure_s"]


def write_agents(path: str | Path, scenario: Scenario) -> None:
    """Agents file: one row per driver and rider, coordinates lossless."""
    agents = [("driver", d.driver_id, d) for d in scenario.drivers]
    agents += [("rider", r.rider_id, r) for r in scenario.riders]
    write_csv(
        path,
        _AGENT_HEADER,
        (
            [
                kind, agent_id,
                format_coordinate(a.origin.lat), format_coordinate(a.origin.lon),
                format_coordinate(a.destination.lat), format_coordinate(a.destination.lon),
                a.departure_time,
            ]
            for kind, agent_id, a in agents
        ),
    )


def read_csv(path: str | Path, header: list[str], parse: Callable[[list[str]], T]) -> tuple[T, ...]:
    """``parse(cells)`` of every non-blank row of a CSV file, in file order.

    ``cells`` are the row's values in ``header`` order, stripped, and ""
    where the row is too short.  The file is streamed through
    :class:`~poollines.gtfs.CsvRows`, as a feed table is, and closed
    whether the read returns or raises.  Bytes that are not UTF-8, text
    the CSV reader rejects, a column the file lacks and a ValueError
    from ``parse`` raise :class:`ScenarioError` naming the file and line.
    """
    def fault(line: int, reason: str) -> ScenarioError:
        return ScenarioError(f"{path}:{line}: {reason}")

    with CsvRows(Path(path).open("rb"), "utf-8", fault) as rows:
        missing = [key for key in header if key not in rows.columns]
        if missing:
            raise fault(1, f"missing column {missing[0]!r}")
        index = [rows.columns[key] for key in header]
        records = []
        for line, row in rows:
            try:
                records.append(parse([row[i].strip() if i < len(row) else "" for i in index]))
            except ValueError as exc:
                raise fault(line, str(exc)) from None
    return tuple(records)


def read_agents(
    path: str | Path, declaration_time: int, seat_capacity: int = DEFAULT_SEAT_CAPACITY
) -> tuple[tuple[Driver, ...], tuple[Rider, ...]]:
    """Load an agents file.

    Declaration time and seat capacity are not stored in the file; they
    come from the run configuration.  A missing column, a blank or
    non-numeric cell, an unknown kind, a driver or rider id given twice
    and bytes that are not UTF-8 raise :class:`ScenarioError` naming the
    file and line.
    """
    seen: set[tuple[str, int]] = set()

    def agent(cells: list[str]) -> Driver | Rider:
        a = _agent(cells, declaration_time, seat_capacity)
        key = (cells[0], a.driver_id if isinstance(a, Driver) else a.rider_id)
        if key in seen:
            raise ValueError(f"repeated {key[0]} id {key[1]}")
        seen.add(key)
        return a

    agents = read_csv(path, _AGENT_HEADER, agent)
    return (
        tuple(a for a in agents if isinstance(a, Driver)),
        tuple(a for a in agents if isinstance(a, Rider)),
    )


def _agent(cells: list[str], declaration_time: int, seat_capacity: int) -> Driver | Rider:
    """One row of an agents file; a ValueError names what is wrong with it."""
    for key, value in zip(_AGENT_HEADER, cells):
        if value == "":
            raise ValueError(f"missing value for {key!r}")
    kind, agent_id, olat, olon, dlat, dlon, departure_text = cells
    if kind not in ("driver", "rider"):
        raise ValueError(f"unknown agent kind {kind!r}")
    origin = GeoPoint(_ascii_float(olat), _ascii_float(olon))
    destination = GeoPoint(_ascii_float(dlat), _ascii_float(dlon))
    departure = _ascii_int(departure_text)
    if kind == "rider":
        return Rider(_ascii_int(agent_id), origin, destination, departure)
    return Driver(
        driver_id=_ascii_int(agent_id),
        origin=origin,
        destination=destination,
        departure_time=departure,
        declaration_time=min(declaration_time, departure),
        seat_capacity=seat_capacity,
    )

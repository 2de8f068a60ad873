"""Driver journeys: a declared car trip, optionally bent through pick-up points.

A journey starts as the straight origin-to-destination drive.  Up to two
stops from the meeting point set are then inserted, one near the origin
and one near the destination, each kept only while the cumulative length
stays within the detour budget ``tau`` of the baseline drive.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geo import EARTH_RADIUS_KM, GeoPoint, TravelModel, drive_seconds, haversine_km, road_km
from .gtfs import ROUTE_TYPE_SUBWAY, Stop, Timetable

DEFAULT_TAU = 0.15
DEFAULT_DWELL_S = 60

# Most distances held at once by MeetingPointSet.nearest_many: query
# points are taken in blocks of about this many (point, stop) pairs.
_NEAREST_BLOCK_CELLS = 1 << 16
# Stops whose vectorised distance is this close to the block minimum are
# re-ranked with the scalar haversine, so rounding differences between
# numpy and math cannot change which stop wins.
_NEAREST_REL_TOL = 1e-9


class EmptyMeetingPointSet(Exception):
    """No stop in the feed qualifies as a meeting point."""


@dataclass(frozen=True)
class Driver:
    """A car trip offered for pooling."""

    driver_id: int
    origin: GeoPoint
    destination: GeoPoint
    departure_time: int
    declaration_time: int
    seat_capacity: int = 4

    def __post_init__(self) -> None:
        if self.driver_id < 0:
            raise ValueError("driver_id must be non-negative")
        if self.declaration_time > self.departure_time:
            raise ValueError("declared after departure")
        if self.seat_capacity < 1:
            raise ValueError("seat_capacity must be >= 1")


@dataclass(frozen=True)
class JourneyStopTime:
    """One timed calling point of a driver journey.

    ``stop_ref`` is the feed stop id for meeting points and None for the
    driver's own origin and destination.  Intermediate points hold the
    vehicle for the dwell, so departure > arrival there; at the two ends
    departure == arrival.
    """

    location: GeoPoint
    stop_ref: str | None
    arrival: int
    departure: int


@dataclass(frozen=True)
class DriverJourney:
    driver_id: int
    stoptimes: tuple[JourneyStopTime, ...]
    baseline_km: float
    length_km: float

    def __post_init__(self) -> None:
        if not 2 <= len(self.stoptimes) <= 4:
            raise ValueError("a journey has between 2 and 4 stoptimes")

    @property
    def detour_km(self) -> float:
        return self.length_km - self.baseline_km

    @property
    def detour_ratio(self) -> float:
        if self.baseline_km == 0:
            return 0.0
        return self.detour_km / self.baseline_km


@dataclass(frozen=True)
class MeetingPointSet:
    """Stops where drivers may pick up or drop off riders."""

    stops: tuple[Stop, ...]

    def __post_init__(self) -> None:
        if not self.stops:
            raise EmptyMeetingPointSet("meeting point set is empty")

    def nearest_many(self, points: Sequence[GeoPoint]) -> list[Stop]:
        """For each point, the stop closest to it by great-circle distance.

        Distance ties resolve to the smaller stop_id.  The answer is the
        scalar rule ``min(stops, key=(haversine_km, stop_id))``: one numpy
        pass over blocks of points finds the nearest distance, and the
        stops within a relative 1e-9 of it are ranked by that rule.
        """
        by_id, lat_r, lon_r = self._by_id
        out: list[Stop] = []
        block = max(1, _NEAREST_BLOCK_CELLS // len(by_id))
        for start in range(0, len(points), block):
            chunk = points[start:start + block]
            plat = np.radians(np.array([p.lat for p in chunk]))[:, None]
            plon = np.radians(np.array([p.lon for p in chunk]))[:, None]
            h = (
                np.sin((lat_r - plat) / 2.0) ** 2
                + np.cos(plat) * np.cos(lat_r) * np.sin((lon_r - plon) / 2.0) ** 2
            )
            dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
            near = dist <= dist.min(axis=1, keepdims=True) * (1.0 + _NEAREST_REL_TOL)
            first = np.argmax(near, axis=1)
            for row in np.flatnonzero(near.sum(axis=1) > 1).tolist():
                first[row] = min(
                    np.flatnonzero(near[row]).tolist(),
                    key=lambda k: (haversine_km(chunk[row], by_id[k].position), k),
                )
            out.extend(by_id[k] for k in first.tolist())
        return out

    @cached_property
    def _by_id(self) -> tuple[tuple[Stop, ...], np.ndarray, np.ndarray]:
        """The stops sorted by stop_id, with their radian coordinates."""
        by_id = tuple(sorted(self.stops, key=lambda s: s.stop_id))
        lat_r = np.radians(np.array([s.position.lat for s in by_id]))
        lon_r = np.radians(np.array([s.position.lon for s in by_id]))
        return by_id, lat_r, lon_r


def select_meeting_points(
    t: Timetable, route_types: tuple[int, ...] = (ROUTE_TYPE_SUBWAY,)
) -> MeetingPointSet:
    """All stops served by at least one route of the given types.

    Raises :class:`EmptyMeetingPointSet` when nothing matches.
    """
    wanted = {
        route_id for route_id, route in t.routes.items() if route.route_type in route_types
    }
    stop_ids: set[str] = set()
    for trip in t.trips.values():
        if trip.route_id not in wanted:
            continue
        for st in t.stoptimes.get(trip.trip_id, ()):
            stop_ids.add(st.stop_id)
    if not stop_ids:
        raise EmptyMeetingPointSet(
            f"no stop is served by a route of type {sorted(route_types)}"
        )
    return MeetingPointSet(tuple(t.stops[sid] for sid in sorted(stop_ids)))


def _path_km(locations: list[GeoPoint], model: TravelModel) -> float:
    return sum(road_km(a, b, model) for a, b in zip(locations, locations[1:]))


def _timed(
    driver: Driver,
    locations: list[GeoPoint],
    refs: list[str | None],
    model: TravelModel,
    dwell_s: int,
) -> tuple[JourneyStopTime, ...]:
    """Assign arrival/departure times along the path, dwelling at middle stops."""
    out = [JourneyStopTime(locations[0], refs[0], driver.departure_time, driver.departure_time)]
    for i in range(1, len(locations)):
        arrival = out[-1].departure + drive_seconds(locations[i - 1], locations[i], model)
        dwell = dwell_s if i < len(locations) - 1 else 0
        out.append(JourneyStopTime(locations[i], refs[i], arrival, arrival + dwell))
    return tuple(out)


def _journey(
    driver: Driver,
    near_origin: Stop,
    near_destination: Stop,
    model: TravelModel,
    tau: float,
    dwell_s: int,
    rng: np.random.Generator,
) -> DriverJourney:
    """Build the journey for one driver from its two candidate meeting points.

    ``near_origin`` is the meeting point nearest the origin,
    ``near_destination`` the one nearest the destination.  A fair coin
    from ``rng`` decides which side is tried first; each insertion is
    kept only if the total length stays within ``tau`` of the baseline.
    When both sides pick the same point, a single insertion is attempted.
    """
    baseline = road_km(driver.origin, driver.destination, model)
    locations = [driver.origin, driver.destination]
    refs: list[str | None] = [None, None]

    if baseline > 0:
        origin_first = bool(rng.random() < 0.5)
        sides = ("origin", "destination") if origin_first else ("destination", "origin")
        if near_origin.stop_id == near_destination.stop_id:
            sides = sides[:1]
        for side in sides:
            stop = near_origin if side == "origin" else near_destination
            index = 1 if side == "origin" else len(locations) - 1
            candidate = locations[:index] + [stop.position] + locations[index:]
            if (_path_km(candidate, model) - baseline) / baseline <= tau:
                locations = candidate
                refs.insert(index, stop.stop_id)

    return DriverJourney(
        driver_id=driver.driver_id,
        stoptimes=_timed(driver, locations, refs, model, dwell_s),
        baseline_km=baseline,
        length_km=_path_km(locations, model),
    )


def compute_driver_journeys(
    drivers: list[Driver],
    points: MeetingPointSet,
    model: TravelModel,
    tau: float = DEFAULT_TAU,
    dwell_s: int = DEFAULT_DWELL_S,
    seed: int = 0,
) -> list[DriverJourney]:
    """Journeys for a batch of drivers, one independent stream per driver.

    Each driver draws from ``default_rng([seed, driver_id])`` so results
    do not depend on iteration order.  The nearest meeting points of all
    origins and destinations are found in one :meth:`~MeetingPointSet.nearest_many`.
    """
    near = points.nearest_many([d.origin for d in drivers] + [d.destination for d in drivers])
    return [
        _journey(d, o, e, model, tau, dwell_s, np.random.default_rng([seed, d.driver_id]))
        for d, o, e in zip(drivers, near, near[len(drivers):])
    ]


def prune_journey(j: DriverJourney, used_stoptimes: set[int]) -> DriverJourney:
    """Drop intermediate stoptimes nobody uses.

    Endpoints always survive.  Retained stoptimes keep their original
    times; the length is re-measured along the shortened path.
    """
    keep = [0] + sorted(
        i for i in used_stoptimes if 0 < i < len(j.stoptimes) - 1
    ) + [len(j.stoptimes) - 1]
    stoptimes = tuple(j.stoptimes[i] for i in keep)
    if len(stoptimes) == 2:
        length = j.baseline_km
    else:
        # Road length scales linearly with great-circle length, so the
        # shortened path can be re-measured without knowing the circuity.
        original = [st.location for st in j.stoptimes]
        kept = [st.location for st in stoptimes]
        hav_original = sum(haversine_km(a, b) for a, b in zip(original, original[1:]))
        hav_kept = sum(haversine_km(a, b) for a, b in zip(kept, kept[1:]))
        length = j.length_km if hav_original == 0 else j.length_km * (hav_kept / hav_original)
    return DriverJourney(
        driver_id=j.driver_id,
        stoptimes=stoptimes,
        baseline_km=j.baseline_km,
        length_km=length,
    )

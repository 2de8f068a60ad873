"""Turning driver journeys into single-trip GTFS lines.

Each driver becomes one route with exactly one trip: a bus that passes
only once.  Naming is load-bearing, downstream consumers recognise
carpool legs purely by the reserved trip id prefix.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date as _date
from typing import Mapping

from .drivers import DriverJourney
from .gtfs import (
    ROUTE_TYPE_BUS,
    CalendarDateRow,
    GtfsStopTime,
    Route,
    Stop,
    Timetable,
    Trip,
)

POOL_TRIP_PREFIX = "1162238700"
POOL_SERVICE_ID = "POOLLINES"
_ROUTE_NAME = "route of carpooler number {driver_id}"
_ORIGIN_STOP = "DRIVER_origin_{driver_id}"
_DESTINATION_STOP = "DRIVER_destination_{driver_id}"


class InjectionError(Exception):
    """Base class for journey-to-feed conversion problems."""


class DuplicateDriverId(InjectionError):
    def __init__(self, driver_id: int):
        super().__init__(f"driver id {driver_id} appears more than once")
        self.driver_id = driver_id


class IdCollision(InjectionError):
    def __init__(self, kind: str, value: str):
        super().__init__(f"{kind} id {value!r} already exists in the feed")
        self.kind = kind
        self.value = value


class StopIdCollision(IdCollision):
    def __init__(self, value: str):
        super().__init__("stop", value)


def pool_trip_id(driver_id: int) -> str:
    return f"{POOL_TRIP_PREFIX}{driver_id}"


def pool_route_name(driver_id: int) -> str:
    return _ROUTE_NAME.format(driver_id=driver_id)


def origin_stop_id(driver_id: int) -> str:
    return _ORIGIN_STOP.format(driver_id=driver_id)


def destination_stop_id(driver_id: int) -> str:
    return _DESTINATION_STOP.format(driver_id=driver_id)


def is_poolline_trip(trip_id: str) -> bool:
    # Prefix plus a decimal driver id; anything else is a regular trip.
    suffix = trip_id[len(POOL_TRIP_PREFIX):]
    return trip_id.startswith(POOL_TRIP_PREFIX) and suffix.isdigit()


def driver_id_of_trip(trip_id: str) -> int:
    if not is_poolline_trip(trip_id):
        raise ValueError(f"not a poolline trip id: {trip_id!r}")
    return int(trip_id[len(POOL_TRIP_PREFIX):])


@dataclass(frozen=True)
class PoolLine:
    """The GTFS footprint of one driver journey."""

    route: Route
    trip: Trip
    new_stops: tuple[Stop, ...]
    stoptimes: tuple[GtfsStopTime, ...]


def build_poolline(journey: DriverJourney, service_id: str = POOL_SERVICE_ID) -> PoolLine:
    """Encode one journey as a route, a trip, two fresh stops and stoptimes.

    Intermediate stoptimes reference existing meeting point stops; the
    two endpoints get synthetic DRIVER_ stops at the driver's door.
    """
    driver_id = journey.driver_id
    route = Route(
        route_id=pool_route_name(driver_id),
        name=pool_route_name(driver_id),
        route_type=ROUTE_TYPE_BUS,
    )
    trip = Trip(trip_id=pool_trip_id(driver_id), route_id=route.route_id, service_id=service_id)

    first = journey.stoptimes[0]
    last = journey.stoptimes[-1]
    new_stops = (
        Stop(origin_stop_id(driver_id), origin_stop_id(driver_id), first.location),
        Stop(destination_stop_id(driver_id), destination_stop_id(driver_id), last.location),
    )

    stoptimes = []
    for sequence, st in enumerate(journey.stoptimes):
        if sequence == 0:
            stop_id = new_stops[0].stop_id
        elif sequence == len(journey.stoptimes) - 1:
            stop_id = new_stops[1].stop_id
        else:
            if st.stop_ref is None:
                raise InjectionError(
                    f"journey of driver {driver_id} has an intermediate stoptime "
                    "without a stop reference"
                )
            stop_id = st.stop_ref
        stoptimes.append(
            GtfsStopTime(trip.trip_id, stop_id, st.arrival, st.departure, sequence)
        )
    return PoolLine(route, trip, new_stops, tuple(stoptimes))


def check_poollines_have_journeys(
    t: Timetable, journeys: Mapping[int, DriverJourney]
) -> None:
    """Reject a feed with a poolline trip whose driver has no journey.

    Matching reads a journey for every carpool leg, so such a trip (for
    instance one the input feed already carried) cannot be simulated.
    """
    for trip_id in t.trips:
        if is_poolline_trip(trip_id) and driver_id_of_trip(trip_id) not in journeys:
            raise InjectionError(
                f"poolline trip {trip_id!r} is in the feed but driver "
                f"{driver_id_of_trip(trip_id)} has no journey in this scenario"
            )


def inject_poollines(
    t: Timetable,
    journeys: list[DriverJourney],
    service_date: str | _date | None = None,
) -> Timetable:
    """Return a new timetable with one PoolLine added per journey.

    The input timetable is untouched.  Injected trips run under a
    dedicated service; when the feed carries calendar data and a date is
    given, that service is activated for that single date only, keeping
    the lines out of every other day.
    """
    seen: set[int] = set()
    for j in journeys:
        if j.driver_id in seen:
            raise DuplicateDriverId(j.driver_id)
        seen.add(j.driver_id)

    stops = dict(t.stops)
    routes = dict(t.routes)
    trips = dict(t.trips)
    stoptimes = dict(t.stoptimes)

    for j in journeys:
        line = build_poolline(j)
        for stop in line.new_stops:
            if stop.stop_id in stops:
                raise StopIdCollision(stop.stop_id)
            stops[stop.stop_id] = stop
        if line.route.route_id in routes:
            raise IdCollision("route", line.route.route_id)
        if line.trip.trip_id in trips:
            raise IdCollision("trip", line.trip.trip_id)
        for st in line.stoptimes[1:-1]:
            if st.stop_id not in stops:
                raise InjectionError(
                    f"journey of driver {j.driver_id} references unknown stop {st.stop_id!r}"
                )
        routes[line.route.route_id] = line.route
        trips[line.trip.trip_id] = line.trip
        stoptimes[line.trip.trip_id] = line.stoptimes

    calendar_dates = t.calendar_dates
    if journeys and service_date is not None and (t.calendar or t.calendar_dates):
        if isinstance(service_date, str):
            service_date = _date.fromisoformat(service_date)
        day = int(service_date.strftime("%Y%m%d"))
        row = CalendarDateRow(POOL_SERVICE_ID, day, 1)
        if row not in calendar_dates:
            calendar_dates = tuple(
                sorted(
                    calendar_dates + (row,),
                    key=lambda r: (r.service_id, r.date, r.exception_type),
                )
            )

    return replace(
        t,
        stops={k: stops[k] for k in sorted(stops)},
        routes={k: routes[k] for k in sorted(routes)},
        trips={k: trips[k] for k in sorted(trips)},
        stoptimes={k: stoptimes[k] for k in sorted(stoptimes)},
        calendar_dates=calendar_dates,
    )

"""Assigning riders to itineraries and policing seat capacity.

A rider takes the first feasible itinerary the planner offers, in the
planner's own order, so the fastest acceptable journey wins.  Capacity
is enforced afterwards: a driver whose car would ever hold more riders
than seats is voided together with everyone who used that driver.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .drivers import DriverJourney
from .geo import GeoPoint, TravelModel, walk_seconds
from .injection import destination_stop_id, driver_id_of_trip, origin_stop_id
from .planner import (
    DEFAULT_MAX_WALK_KM,
    DEFAULT_NUM_ITINERARIES,
    Itinerary,
    Planner,
    PlanMode,
    PlanRequest,
)

DEFAULT_MAX_WAIT_S = 2700


class RiderMode(str, Enum):
    UNSERVED = "unserved"
    FOOT = "foot"
    CARPOOLING = "carpooling"
    MULTI_CARPOOLING = "multi_carpooling"
    TRANSIT = "transit"
    MULTIMODAL = "multimodal"


@dataclass(frozen=True)
class Rider:
    rider_id: int
    origin: GeoPoint
    destination: GeoPoint
    departure_time: int

    def __post_init__(self) -> None:
        if self.rider_id < 0:
            raise ValueError("rider_id must be non-negative")
        if self.departure_time < 0:
            raise ValueError("departure_time must be non-negative")


@dataclass(frozen=True)
class FeasibilityRules:
    """Acceptance limits for a rider journey.

    ``walk_time_bound`` additionally rejects journeys that take longer
    door to door than simply walking the whole way.
    """

    max_wait_s: int = DEFAULT_MAX_WAIT_S
    max_walk_km: float = DEFAULT_MAX_WALK_KM
    walk_time_bound: bool = True


@dataclass(frozen=True)
class RiderOutcome:
    rider_id: int
    mode: RiderMode
    itinerary: Itinerary | None
    drivers_used: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if (self.mode is RiderMode.UNSERVED) != (self.itinerary is None):
            raise ValueError("unserved outcomes and only they lack an itinerary")


def is_feasible(it: Itinerary, r: Rider, rules: FeasibilityRules, model: TravelModel) -> bool:
    if it.total_wait_s > rules.max_wait_s:
        return False
    if it.total_walk_km > rules.max_walk_km:
        return False
    if rules.walk_time_bound:
        if it.arrive - r.departure_time > walk_seconds(r.origin, r.destination, model):
            return False
    return True


def classify(it: Itinerary) -> RiderMode:
    pools = len(it.carpool_legs)
    transit = len(it.transit_legs)
    if pools and transit:
        return RiderMode.MULTIMODAL
    if pools == 1:
        return RiderMode.CARPOOLING
    if pools >= 2:
        return RiderMode.MULTI_CARPOOLING
    if transit:
        return RiderMode.TRANSIT
    return RiderMode.FOOT


def drivers_used(it: Itinerary) -> frozenset[int]:
    return frozenset(driver_id_of_trip(leg.trip_id) for leg in it.carpool_legs)


def resolve_rider(
    planner: Planner,
    r: Rider,
    rules: FeasibilityRules,
    mode: PlanMode = PlanMode.TRANSIT,
    num_itineraries: int = DEFAULT_NUM_ITINERARIES,
) -> RiderOutcome:
    """First feasible itinerary for the rider, or an unserved outcome.

    Alternatives are evaluated lazily in the planner's order, so the
    chosen journey is the same as scanning the full list of them.
    """
    req = PlanRequest(
        origin=r.origin,
        destination=r.destination,
        departure=r.departure_time,
        mode=mode,
        num_itineraries=num_itineraries,
    )
    for it in planner.iter_itineraries(req):
        if is_feasible(it, r, rules, planner.model):
            return RiderOutcome(r.rider_id, classify(it), it, drivers_used(it))
    return RiderOutcome(r.rider_id, RiderMode.UNSERVED, None)


def better_outcome(a: RiderOutcome, b: RiderOutcome) -> RiderOutcome:
    """The preferable of two resolutions for the same rider.

    Earlier arrival wins; ties go to fewer ride legs, then less
    walking, then to ``a``.
    """
    if a.mode is RiderMode.UNSERVED:
        return b
    if b.mode is RiderMode.UNSERVED:
        return a
    key_a = (a.itinerary.arrive, len(a.itinerary.ride_legs), a.itinerary.total_walk_km)
    key_b = (b.itinerary.arrive, len(b.itinerary.ride_legs), b.itinerary.total_walk_km)
    return b if key_b < key_a else a


def journey_stop_indices(j: DriverJourney) -> dict[str, int]:
    """Map every stop id of the injected line back to its journey index."""
    out = {origin_stop_id(j.driver_id): 0, destination_stop_id(j.driver_id): len(j.stoptimes) - 1}
    for i, st in enumerate(j.stoptimes):
        if st.stop_ref is not None:
            out[st.stop_ref] = i
    return out


def boardings_by_driver(
    outcomes: Iterable[RiderOutcome], journeys: Mapping[int, DriverJourney]
) -> dict[int, list[tuple[int, int]]]:
    """Per boarded driver, each ride leg's (board, alight) journey indices.

    Legs are listed in outcome order; a driver nobody boards has no key.
    """
    index_cache: dict[int, dict[str, int]] = {}
    pairs: dict[int, list[tuple[int, int]]] = {}
    for o in outcomes:
        if o.itinerary is None:
            continue
        for leg in o.itinerary.carpool_legs:
            d = driver_id_of_trip(leg.trip_id)
            if d not in index_cache:
                index_cache[d] = journey_stop_indices(journeys[d])
            idx = index_cache[d]
            pairs.setdefault(d, []).append((idx[leg.from_stop], idx[leg.to_stop]))
    return pairs


def max_onboard(j: DriverJourney, boardings: list[tuple[int, int]]) -> int:
    """Most riders simultaneously in the car over the journey's segments."""
    segments = len(j.stoptimes) - 1
    counts = [0] * segments
    for board, alight in boardings:
        for i in range(board, alight):
            counts[i] += 1
    return max(counts, default=0)


def enforce_capacity(
    outcomes: list[RiderOutcome],
    journeys: Mapping[int, DriverJourney],
    capacities: Mapping[int, int],
) -> tuple[list[RiderOutcome], frozenset[int]]:
    """Void overloaded drivers and unseat every rider who used them.

    A single simultaneous pass: overloads are judged on the incoming
    outcomes, then all affected riders become unserved at once.  Riders
    not touching a voided driver keep their outcome object unchanged.
    """
    pairs = boardings_by_driver(outcomes, journeys)
    voided = frozenset(
        d for d, p in pairs.items() if max_onboard(journeys[d], p) > capacities[d]
    )
    if not voided:
        return list(outcomes), voided
    adjusted = []
    for o in outcomes:
        if o.drivers_used & voided:
            adjusted.append(RiderOutcome(o.rider_id, RiderMode.UNSERVED, None))
        else:
            adjusted.append(o)
    return adjusted, voided


"""Driver journeys: a declared car trip, optionally bent through pick-up points.

A journey starts as the straight origin-to-destination drive.  Up to two
stops from the meeting point set are then inserted, one near the origin
and one near the destination, each kept only while the cumulative length
stays within the detour budget ``tau`` of the baseline drive.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geo import EARTH_RADIUS_KM, GeoPoint, TravelModel, drive_seconds, haversine_km, road_km
from .gtfs import ROUTE_TYPE_SUBWAY, Stop, Timetable

DEFAULT_TAU = 0.15
DEFAULT_DWELL_S = 60
DEFAULT_SEAT_CAPACITY = 4

# Most distances held at once by MeetingPointSet.nearest_many: query
# points are taken in blocks of about this many (point, stop) pairs.
_NEAREST_BLOCK_CELLS = 1 << 16
# Stops whose vectorised distance is this close to the block minimum are
# re-ranked with the scalar haversine, so rounding differences between
# numpy and math cannot change which stop wins.
_NEAREST_REL_TOL = 1e-9

# SeedSequence's hash and mix constants and PCG64's multiplier, as numpy
# fixes them (NEP 19 keeps both streams stable across numpy versions).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


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
    seat_capacity: int = DEFAULT_SEAT_CAPACITY

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


def _words(ints: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each int as SeedSequence assembles it: little-endian 32-bit words, 0 as one word.

    Returns uint32 columns, column w holding every int's word w (0 past
    its last), and each int's word count.  A negative int raises
    ValueError, as numpy does; shifting alone would never end it, since
    ``-1 >> 32`` is -1.
    """
    rest = np.array(ints, dtype=object)
    if (rest < 0).any():
        raise ValueError("expected non-negative integer")
    columns = [(rest & _MASK32).astype(np.uint32)]
    count = np.ones(len(rest), dtype=np.int64)
    rest = rest >> 32
    while rest.any():
        count += rest != 0
        columns.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
    return columns, count


def _seed_words(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(8)`` for each column ``e`` of ``entropy``.

    ``entropy`` is uint32 of shape (words, agents).  The hash constants
    evolve the same way whatever the data, so each step of numpy's
    pool mixing is one uint32 operation over all columns.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def agent_streams(prefix: Sequence[int], ids: Sequence[int]) -> Iterator[np.random.Generator]:
    """Per id, a generator in the state ``np.random.default_rng([*prefix, id])`` starts in.

    ``default_rng`` hashes its entropy with ``SeedSequence`` and seeds
    ``PCG64`` from four of its uint64 words.  Here the hashing runs in
    numpy over all ids of one entropy length, the ``PCG64`` seeding
    (``pcg_setseq_128_srandom_r``) in Python ints, and each state is set
    on one reused ``PCG64``, so the draws are numpy's own and equal the
    per-agent generator's bit for bit.  The same generator object is
    yielded every time: it is valid only until the next one is yielded.
    A negative int raises ValueError here, as numpy does, before
    anything is yielded.
    """
    columns, count = _words(prefix)
    head = [columns[w][k] for k in range(len(prefix)) for w in range(count[k])]
    columns, count = _words(ids)
    states: list[tuple[int, int]] = [(0, 0)] * len(count)
    for length in np.unique(count).tolist():
        positions = np.flatnonzero(count == length)
        entropy = np.empty((len(head) + length, len(positions)), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head):] = [c[positions] for c in columns[:length]]
        state = [w.astype(np.uint64) for w in _seed_words(entropy)]
        high, low, inc_high, inc_low = (
            (state[i] | state[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)
        )
        # pcg_setseq_128_srandom_r: inc = 2 * seq + 1, then two steps
        # (state * mult + inc) around adding the initial state to 0.
        for k, hi, lo, inc_hi, inc_lo in zip(positions.tolist(), high, low, inc_high, inc_low):
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            states[k] = (((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128, inc)
    return _set_each(states)


def _set_each(states: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """One Generator, its PCG64 set to each (state, inc) in turn."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def compute_driver_journeys(
    drivers: list[Driver],
    points: MeetingPointSet,
    model: TravelModel,
    tau: float = DEFAULT_TAU,
    dwell_s: int = DEFAULT_DWELL_S,
    seed: int = 0,
) -> list[DriverJourney]:
    """Journeys for a batch of drivers, one independent stream per driver.

    Each driver draws from the stream ``default_rng([seed, driver_id])``
    starts, so results do not depend on iteration order; the streams of
    the whole batch are seeded in one :func:`agent_streams`.  The nearest
    meeting points of all origins and destinations are found in one
    :meth:`~MeetingPointSet.nearest_many`.
    """
    near = points.nearest_many([d.origin for d in drivers] + [d.destination for d in drivers])
    streams = agent_streams([seed], [d.driver_id for d in drivers])
    return [
        _journey(d, o, e, model, tau, dwell_s, rng)
        for d, o, e, rng in zip(drivers, near, near[len(drivers):], streams)
    ]


def pruned_length_km(j: DriverJourney, boardings: Iterable[tuple[int, int]]) -> float:
    """The journey's length once intermediate calling points nobody uses are dropped.

    ``boardings`` holds the (board, alight) journey indices of the
    driver's riders.  With no intermediate calling point in use the car
    drives straight, ``baseline_km``; otherwise the length is re-measured
    along the endpoints and the calling points in use.
    """
    last = len(j.stoptimes) - 1
    used = sorted({i for pair in boardings for i in pair if 0 < i < last})
    if not used:
        return j.baseline_km
    # Road length scales linearly with great-circle length, so the
    # shortened path can be re-measured without knowing the circuity.
    original = [st.location for st in j.stoptimes]
    kept = [original[i] for i in (0, *used, last)]
    hav_original = sum(haversine_km(a, b) for a, b in zip(original, original[1:]))
    hav_kept = sum(haversine_km(a, b) for a, b in zip(kept, kept[1:]))
    return j.length_km if hav_original == 0 else j.length_km * (hav_kept / hav_original)

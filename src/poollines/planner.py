"""Time-dependent multimodal journey planning over a timetable.

The engine is a connection scan: every stoptime-to-stoptime hop in the
feed becomes one connection, the connections are sorted by departure,
and a single forward pass relaxes earliest arrivals.  Carpool trips are
ordinary connections here; nothing downstream of the feed treats them
specially except leg labelling.

Movement off the timetable follows the shared travel model: direct
walks between the request endpoints, access/egress walks to stops
within ``max_walk_km`` road-kilometres, and stop-to-stop footpaths.
Changing vehicles at one stop costs ``transfer_s`` seconds; a footpath
transfer needs no buffer beyond its own walking time.

The scan, the footpaths each mode keeps and how they are built, how one
solve seeds the next, and a request's set-up are described on
:class:`Planner`.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    TravelModel,
    haversine_km_to_point,
    road_km,
    walk_seconds,
)
from .gtfs import Timetable
from .injection import is_poolline_trip

DEFAULT_MAX_WALK_KM = 2.5
DEFAULT_TRANSFER_S = 60
DEFAULT_NUM_ITINERARIES = 10

_INF = math.inf


class PlanMode(str, Enum):
    TRANSIT = "TRANSIT"            # every trip in the feed, carpool included
    TRANSIT_NO_POOL = "TRANSIT_NO_POOL"  # timetabled service only
    POOL_ONLY = "POOL_ONLY"        # carpool trips only


@dataclass(frozen=True)
class PlanRequest:
    origin: GeoPoint
    destination: GeoPoint
    departure: int
    mode: PlanMode = PlanMode.TRANSIT
    num_itineraries: int = DEFAULT_NUM_ITINERARIES

    def __post_init__(self) -> None:
        if self.departure < 0:
            raise ValueError("departure must be non-negative seconds")
        if self.num_itineraries < 1:
            raise ValueError("num_itineraries must be >= 1")


@dataclass(frozen=True)
class Leg:
    """One contiguous movement: a walk or a ride on a single trip."""

    kind: str  # "walk" | "transit" | "carpool"
    start: int
    end: int
    distance_km: float
    from_point: GeoPoint
    to_point: GeoPoint
    trip_id: str | None = None
    from_stop: str | None = None
    to_stop: str | None = None

    @property
    def duration_s(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Itinerary:
    legs: tuple[Leg, ...]
    depart: int
    arrive: int
    total_walk_km: float
    total_wait_s: int

    @property
    def ride_legs(self) -> tuple[Leg, ...]:
        return tuple(leg for leg in self.legs if leg.kind != "walk")

    @property
    def carpool_legs(self) -> tuple[Leg, ...]:
        return tuple(leg for leg in self.legs if leg.kind == "carpool")

    @property
    def transit_legs(self) -> tuple[Leg, ...]:
        return tuple(leg for leg in self.legs if leg.kind == "transit")


@dataclass(frozen=True)
class FootpathSet:
    """Directed stop-to-stop walking links in CSR layout.

    ``stop_ids`` fixes the stop indexing; for source stop i the targets
    are ``targets[starts[i]:starts[i+1]]``, sorted, with matching walk
    seconds and kilometres.  :func:`build_footpaths` without arrival and
    departure times returns a symmetric set; with them, only the links
    some arrival can use (see :func:`_usable_links`).  A
    :class:`Planner` holds no such set: its ``footpaths`` is a view
    rebuilt from its fan tables.
    """

    stop_ids: tuple[str, ...]
    starts: np.ndarray
    targets: np.ndarray
    seconds: np.ndarray
    km: np.ndarray


def _usable_links(
    source: np.ndarray,
    target: np.ndarray,
    seconds: np.ndarray,
    first_arrival: np.ndarray,
    last_departure: np.ndarray,
) -> np.ndarray:
    """Which links u→v some arrival can use: walked from the first
    arrival at u, they end by the last departure from v.  A stop nothing
    arrives at has first arrival infinity; one nothing leaves has last
    departure minus infinity."""
    return first_arrival[source] + seconds <= last_departure[target]


def _unit_vectors(lat_r, lon_r, xp=np) -> tuple:
    """(x, y, z) on the unit sphere of radian latitudes and longitudes:
    arrays through numpy, or one point's floats through ``xp=math``."""
    cos_lat = xp.cos(lat_r)
    return cos_lat * xp.cos(lon_r), cos_lat * xp.sin(lon_r), xp.sin(lat_r)


def _walk_chord(model: TravelModel, max_walk_km: float) -> float:
    """The unit-sphere chord of the widest walkable angle.  The margin
    covers the rounding of the chords a KD-tree over unit vectors
    measures, so every pair in walking range is within it."""
    angle = min(math.pi, max(0.0, max_walk_km / model.circuity / EARTH_RADIUS_KM))
    return 2.0 * math.sin(angle / 2.0) * (1.0 + 1e-9) + 1e-12


def _walk_seconds_vec(road: np.ndarray, model: TravelModel) -> np.ndarray:
    raw = road * 3600.0 / model.walk_speed_kmh
    return np.maximum(0.0, np.ceil(raw - 1e-9))


# Source stops per KD query of the footpath build.  A block's candidate
# pairs, the build's working memory, grow with it and not with the feed.
_FOOTPATH_BLOCK = 128


def build_footpaths(
    t: Timetable,
    model: TravelModel,
    max_walk_km: float = DEFAULT_MAX_WALK_KM,
    first_arrival: np.ndarray | None = None,
    last_departure: np.ndarray | None = None,
) -> FootpathSet:
    """Walking links between pairs of stops within the road-km cap.

    Without times the set is symmetric.  With ``first_arrival`` and
    ``last_departure``, one time per sorted stop id, it holds only the
    links :func:`_usable_links` passes.  A :class:`Planner` reads the
    set once, into its fan tables, and keeps no reference to it.

    The sources go ``_FOOTPATH_BLOCK`` at a time.  A KD-tree over the
    block's unit vectors is queried against one over the targets' for
    the pairs within the walking chord (:func:`_walk_chord`); exact
    great-circle distances make the cut, so the links are those of the
    quadratic scan at any latitude; then come the time rule and the
    sort.  Neither the candidate pairs nor the links the rule drops
    outlive their block.
    A pair's distance is computed from its lower-indexed stop, so both
    directions of a link carry the same bits.
    """
    stop_ids = tuple(sorted(t.stops))
    n = len(stop_ids)
    starts = np.zeros(n + 1, dtype=np.int64)
    if n == 0 or max_walk_km <= 0:
        empty = np.zeros(0)
        return FootpathSet(stop_ids, starts, empty.astype(np.int64), empty, empty)
    if first_arrival is None:
        first_arrival, last_departure = np.zeros(n), np.full(n, _INF)

    lat_r = np.radians([t.stops[s].position.lat for s in stop_ids])
    lon_r = np.radians([t.stops[s].position.lon for s in stop_ids])
    xyz = np.column_stack(_unit_vectors(lat_r, lon_r))
    chord = _walk_chord(model, max_walk_km)
    src = np.flatnonzero(first_arrival < _INF)
    dst = np.flatnonzero(last_departure > -_INF)
    dst_tree = cKDTree(xyz[dst])
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for k in range(0, len(src), _FOOTPATH_BLOCK):
        block = src[k : k + _FOOTPATH_BLOCK]
        pairs = cKDTree(xyz[block]).sparse_distance_matrix(dst_tree, chord, output_type="ndarray")
        a, b = block[pairs["i"]], dst[pairs["j"]]
        del pairs
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        h = (
            np.sin((lat_r[hi] - lat_r[lo]) / 2.0) ** 2
            + np.cos(lat_r[lo]) * np.cos(lat_r[hi]) * np.sin((lon_r[hi] - lon_r[lo]) / 2.0) ** 2
        )
        del lo, hi
        road = model.circuity * (2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h)))
        keep = (road <= max_walk_km) & (a != b)
        a, b, road = a[keep], b[keep], road[keep]
        # Through int64, so a zero-length link gets 0.0 seconds, not ceil's -0.0.
        secs = _walk_seconds_vec(road, model).astype(np.int64).astype(np.float64)
        keep = _usable_links(a, b, secs, first_arrival, last_departure)
        a, b, secs, road = a[keep], b[keep], secs[keep], road[keep]
        order = np.argsort(a * n + b)
        starts[1:] += np.bincount(a, minlength=n)
        parts.append((b[order], secs[order], road[order]))

    np.cumsum(starts, out=starts)
    targets, secs, road = (np.concatenate(column) for column in zip(*parts))
    return FootpathSet(stop_ids, starts, targets, secs, road)


@dataclass(frozen=True)
class _StopWalks:
    """The stops within the walking cap of one endpoint.

    ``stops`` holds their indices, ascending, with the walk seconds and
    road km of each.
    """

    stops: np.ndarray
    seconds: np.ndarray
    km: np.ndarray

    def position(self, stop: int) -> int | None:
        """Where ``stop`` is in ``stops``, or None when it is out of range."""
        k = int(np.searchsorted(self.stops, stop))
        if k < len(self.stops) and self.stops[k] == stop:
            return k
        return None


class _FanTable(NamedTuple):
    """The footpaths one mode keeps, in CSR layout, as the scan relaxes them.

    For source stop i the links are ``[starts[i], starts[i+1])``, with
    4-byte targets and keys and float walk seconds, in two parts split
    at ``split[i]``.  The first part leads to the stops the mode leaves
    exactly once, and its key is the walk seconds less that departure:
    a walk begun at ``at`` reaches the target by then exactly when the
    key is at most ``-at``.  The second part leads to the other stops,
    and its key is the walk seconds: a walk begun at ``at`` ends by a
    time ``limit`` exactly when the key is at most ``limit - at``.  Keys
    ascend within each part.
    """

    starts: list
    split: list
    targets: array
    seconds: array
    key: array


class _Scan(NamedTuple):
    """What one solve read: a record that seeds a more restricted solve.

    ``live`` holds, in scan order, the connections whose trip was
    boarded when the scan read them; ``stop`` is the final scan limit,
    so the scan read every connection of its window departing by then
    and none later.
    """

    live: list
    stop: float


@dataclass(frozen=True)
class _RequestLinks:
    """The per-request inputs of a solve, built once for all alternatives.

    ``access`` and ``egress`` hold only the stops within walking range
    of the origin and of the destination; both are non-empty.  The scan
    reads three dense lists, one entry per stop, filled in at those
    stops alone: ``egress_s`` is the egress walk (infinity beyond the
    cap), and ``reach`` and ``foot_prev`` are the initial boarding
    labels (the access arrivals) and their sources (-1 the origin, -2
    none), which each solve copies.  ``first_board`` is the earliest
    access arrival and ``min_egress`` the shortest egress walk.
    """

    access: _StopWalks
    egress: _StopWalks
    egress_s: list
    reach: list
    foot_prev: list
    first_board: float
    min_egress: float


class Planner:
    """Prepared search structures for one timetable and travel model.

    A mode M keeps the footpath u→v with walk w only when some arrival
    of M can use it: some connection of M arrives at u, some connection
    of M leaves v, and M's first arrival at u plus w is no later than
    M's last departure from v (:func:`_usable_links`).  The planner
    sorts its connections first and then builds just TRANSIT's links
    with :func:`build_footpaths`, or takes a ``footpaths`` argument;
    each mode cuts the links with its own times.  A restricted mode's
    first arrivals are no earlier and its last departures no later than
    TRANSIT's, so TRANSIT keeps the union of the three modes' links.

    Dropping the other links changes no answer.  A relaxation of u→v
    happens at some arrival ``at`` of M at u, no earlier than M's first
    arrival there, so a dropped link only ever offers v a label later
    than every departure of M from v.  Such a label decides no
    boarding, which compares a departure from v with v's label.  A kept
    link writes a label no later than v's last departure under the same
    condition, ``cand < reach[v]``, whether a dropped label is there or
    not: the dropped label is later than ``cand``, and the label without
    it is no earlier.  The same holds for a vehicle label.  So every
    label no later than v's last departure is the same with and without
    the dropped links, and :meth:`_reconstruct` reads ``reach`` and
    ``foot_prev`` only at a boarding stop, against a label no later than
    the boarding time.  The best arrival, the limit, every boarding,
    every :class:`_Scan` record and every itinerary stay those of
    relaxing every link from where M arrives to where M departs.
    Removing links from a fan also keeps its keys sorted, so both
    bisections below still cut where they did.

    The links live only in the fan tables, one :class:`_FanTable` per
    mode, with the road km of TRANSIT's links beside its table; the
    ``footpaths`` property rebuilds a :class:`FootpathSet` from them.
    By the argument above, a label later than the target's
    last departure, or than the scan limit, is never boarded from:
    nothing departing after the limit is scanned, and the limit only
    falls.  So a relaxation reads each part of a fan only up to that
    bound, found by bisection.

    A stop's boarding label is the minimum of its access arrival, its
    vehicle arrival plus ``transfer_s`` and its footpath arrivals; a
    footpath label, and the stop it came from, is written only when it
    lowers that minimum.  A solve scans the connections departing from
    the earliest access arrival on, and stops at the first departure
    after the best arrival so far less the shortest egress walk: a ride
    from there arrives strictly later.  This assumes that no hop arrives
    before it departs, which :func:`~poollines.gtfs.parse_gtfs` enforces.

    A solve records its scan (:class:`_Scan`): the connections whose
    trip was boarded when it read them, and the limit where it stopped.
    Take a second solve of the same request whose usable trips are a
    subset of the first one's.  Connection by connection, its vehicle
    arrivals, best arrival and limit are no earlier than the first's,
    and so is each boarding label no later than the first's limit, by
    induction over the scan: it rides only connections the first rode,
    and a footpath label it writes by the first's limit comes from an
    arrival no earlier than one the first relaxed the same link from.
    So it boards no trip the first had not boarded by then, and stops
    no earlier.
    Seeded with the first's record, it reads only those connections,
    then the connections departing after the first's limit.  Each
    alternative bans one trip more than the one before, and
    ``TRANSIT_NO_POOL`` and ``POOL_ONLY`` are ``TRANSIT`` with the
    other service's trips banned; so the planner keeps the first
    ``TRANSIT`` scan of the request beside its set-up, and seeds a
    restricted mode's first solve with it, read for the mode's trips.

    A request's set-up costs time in the stops within walking range of
    its endpoints, not in the stops of the feed.  The build puts the
    stops' unit vectors (cos φ cos λ, cos φ sin λ, sin φ) in a KD-tree
    and fixes the chord of the widest walkable great-circle angle, with
    a small margin.  Per endpoint, a ball query of that chord finds the
    candidates, and ``circuity`` times the great-circle distance, within
    ``max_walk_km``, makes the exact cut.  Unit vectors keep the
    prefilter exact at any feed extent.  That set-up does not depend on
    the mode, so the planner keeps the last request's, keyed by origin,
    destination and departure: the modes of one rider, asked back to
    back, share it.  The road km along a stop sequence is summed the
    first time a reconstruction rides a trip that calls at it.
    """

    def __init__(
        self,
        timetable: Timetable,
        model: TravelModel,
        max_walk_km: float = DEFAULT_MAX_WALK_KM,
        transfer_s: int = DEFAULT_TRANSFER_S,
        footpaths: FootpathSet | None = None,
    ):
        self.timetable = timetable
        self.model = model
        self.max_walk_km = max_walk_km
        self.transfer_s = transfer_s

        self._stop_ids = (
            tuple(sorted(timetable.stops)) if footpaths is None else footpaths.stop_ids
        )
        self._stop_index = {sid: i for i, sid in enumerate(self._stop_ids)}
        self._positions = [timetable.stops[sid].position for sid in self._stop_ids]
        self._lat_r = np.radians(np.array([p.lat for p in self._positions]))
        self._lon_r = np.radians(np.array([p.lon for p in self._positions]))
        self._stop_tree = cKDTree(np.column_stack(_unit_vectors(self._lat_r, self._lon_r)))
        self._walk_chord = _walk_chord(model, max_walk_km)
        # (origin, destination, departure), the links and the first
        # TRANSIT scan of the last request.
        self._last_links: list = [None, None, None]

        self._trip_ids: list[str] = []
        self._trip_index: dict[str, int] = {}
        self._pool_flags: list[bool] = []
        # Per trip, its stop sequence as an index into ``_stop_sequences``.
        # Trips that call at the same stops share one cumulative road km
        # list, summed when a reconstruction first rides one of them.
        self._trip_sequence: list[int] = []
        sequences: dict[tuple[int, ...], int] = {}

        # One row per hop, trip by trip: departure time, arrival time,
        # trip, position in the trip, departure stop, arrival stop.
        columns: tuple[list[int], ...] = ([], [], [], [], [], [])
        dep_t, arr_t, c_trip, c_pos, dep_s, arr_s = columns
        for trip_id in sorted(timetable.stoptimes):
            sts = timetable.stoptimes[trip_id]
            if len(sts) < 2:
                continue
            ti = len(self._trip_ids)
            self._trip_ids.append(trip_id)
            self._trip_index[trip_id] = ti
            self._pool_flags.append(is_poolline_trip(trip_id))
            stops = [self._stop_index[st.stop_id] for st in sts]
            self._trip_sequence.append(sequences.setdefault(tuple(stops), len(sequences)))
            hops = len(sts) - 1
            dep_t.extend([st.departure for st in sts[:-1]])
            arr_t.extend([st.arrival for st in sts[1:]])
            c_trip.extend([ti] * hops)
            c_pos.extend(range(hops))
            dep_s.extend(stops[:-1])
            arr_s.extend(stops[1:])

        self._stop_sequences = list(sequences)
        self._sequence_cum_km: list[list[float] | None] = [None] * len(sequences)

        # Scan order: by departure, then arrival, trip and position.  A hop
        # is unique by (trip, position), so this is the order of a sort of
        # the (departure, arrival, trip, position) tuples.
        dep_t, arr_t, c_trip, c_pos, dep_s, arr_s = (
            np.array(column, dtype=np.int64) for column in columns
        )
        order = np.lexsort((c_pos, c_trip, arr_t, dep_t))
        dep_t, arr_t, c_trip, c_pos, dep_s, arr_s = (
            key[order] for key in (dep_t, arr_t, c_trip, c_pos, dep_s, arr_s)
        )
        self._c_dep_t = dep_t.tolist()
        self._c_arr_t = arr_t.tolist()
        self._c_trip = c_trip.tolist()
        self._c_pos = c_pos.tolist()
        self._c_dep_s = dep_s.tolist()
        self._c_arr_s = arr_s.tolist()

        # Per mode, the connections it may use, in scan order, and their
        # departure times.  The scan bisects a list of them: a float
        # searched in an int64 array would cast the whole array.  And
        # each stop's first arrival and last departure in the mode: a link
        # is in the mode's table only when _usable_links passes it with
        # these.  TRANSIT's rule is the union of the three.
        pool = np.array(self._pool_flags, dtype=bool)[c_trip]
        mode_rows = {
            PlanMode.TRANSIT: np.arange(len(dep_t)),
            PlanMode.TRANSIT_NO_POOL: np.flatnonzero(~pool),
            PlanMode.POOL_ONLY: np.flatnonzero(pool),
        }
        n = len(self._stop_ids)
        self._mode_conns = {}
        mode_times = {}
        for mode, rows in mode_rows.items():
            conns = range(len(dep_t)) if mode is PlanMode.TRANSIT else rows.tolist()
            times = self._c_dep_t if mode is PlanMode.TRANSIT else [self._c_dep_t[ci] for ci in conns]
            self._mode_conns[mode] = (conns, times)
            first = np.full(n, _INF)
            np.minimum.at(first, arr_s[rows], arr_t[rows])
            last = np.full(n, -_INF)
            np.maximum.at(last, dep_s[rows], dep_t[rows])
            mode_times[mode] = (first, last)
        # Per mode, the links it keeps (see _FanTable), and the road km of
        # TRANSIT's in the order of its table.
        fp = footpaths
        if fp is None:
            fp = build_footpaths(timetable, model, max_walk_km, *mode_times[PlanMode.TRANSIT])
        source = np.repeat(np.arange(n, dtype=np.int64), np.diff(fp.starts))
        # Walk seconds are whole, so the keys are exact integers.
        walk = fp.seconds.astype(np.int64)
        self._fans: dict[PlanMode, _FanTable] = {}
        for mode, rows in mode_rows.items():
            first, last = mode_times[mode]
            links = np.flatnonzero(_usable_links(source, fp.targets, fp.seconds, first, last))
            target = fp.targets[links]
            once = (np.bincount(dep_s[rows], minlength=n) == 1)[target]
            key = walk[links] - np.where(once, last[target], 0.0).astype(np.int64)
            lo = int(key.min(initial=0))
            span = int(key.max(initial=0)) - lo + 1
            order = np.argsort((2 * source[links] + ~once) * span + (key - lo), kind="stable")
            links, once, key = links[order], once[order], key[order]
            starts = np.zeros(n + 1, dtype=np.int64)
            starts[1:] = np.cumsum(np.bincount(source[links], minlength=n))
            split = starts[:-1] + np.bincount(source[links[once]], minlength=n)
            self._fans[mode] = _FanTable(
                starts.tolist(),
                split.tolist(),
                array("i", fp.targets[links].astype(np.int32).tobytes()),
                array("d", fp.seconds[links].astype(np.float64, copy=False).tobytes()),
                array("i", key.astype(np.int32).tobytes()),
            )
            if mode is PlanMode.TRANSIT:
                self._transit_km = array("d", fp.km[links].astype(np.float64, copy=False).tobytes())

    @property
    def footpaths(self) -> FootpathSet:
        """TRANSIT's links, the union of the three modes', rebuilt from its
        fan table on every read; the planner itself never reads it."""
        fan = self._fans[PlanMode.TRANSIT]
        starts = np.array(fan.starts, dtype=np.int64)
        source = np.repeat(np.arange(len(self._stop_ids), dtype=np.int64), np.diff(starts))
        targets = np.array(fan.targets, dtype=np.int64)
        order = np.lexsort((targets, source))  # each source's links by target
        seconds, km = (np.array(a, dtype=np.float64)[order] for a in (fan.seconds, self._transit_km))
        return FootpathSet(self._stop_ids, starts, targets[order], seconds, km)

    # ---- helpers ----------------------------------------------------

    def _stop_walks(self, point: GeoPoint) -> _StopWalks:
        """The stops within the walking cap of a request endpoint."""
        near = self._stop_tree.query_ball_point(
            _unit_vectors(math.radians(point.lat), math.radians(point.lon), math), self._walk_chord
        )
        stops = np.array(near, dtype=np.int64)
        stops.sort()
        road = self.model.circuity * haversine_km_to_point(
            self._lat_r[stops], self._lon_r[stops], point
        )
        keep = road <= self.max_walk_km
        road = road[keep]
        return _StopWalks(stops[keep], _walk_seconds_vec(road, self.model), road)

    def _trip_km(self, trip_index: int) -> list[float]:
        """Cumulative road km at each stop of a trip, from its first stop."""
        sequence = self._trip_sequence[trip_index]
        cum = self._sequence_cum_km[sequence]
        if cum is None:
            positions = [self._positions[i] for i in self._stop_sequences[sequence]]
            cum = [0.0]
            for a, b in zip(positions, positions[1:]):
                cum.append(cum[-1] + road_km(a, b, self.model))
            self._sequence_cum_km[sequence] = cum
        return cum

    def _footpath_seconds_km(self, from_idx: int, to_idx: int) -> tuple[int, float]:
        """A link's walk seconds and road km, from TRANSIT's fan table,
        which holds every link a solve of any mode relaxes."""
        fan = self._fans[PlanMode.TRANSIT]
        k = fan.targets.index(to_idx, fan.starts[from_idx], fan.starts[from_idx + 1])
        return int(fan.seconds[k]), self._transit_km[k]

    def _leg_kind(self, trip_index: int) -> str:
        return "carpool" if self._pool_flags[trip_index] else "transit"

    def _walk_only(self, req: PlanRequest) -> Itinerary:
        km = road_km(req.origin, req.destination, self.model)
        secs = walk_seconds(req.origin, req.destination, self.model)
        leg = Leg(
            kind="walk",
            start=req.departure,
            end=req.departure + secs,
            distance_km=km,
            from_point=req.origin,
            to_point=req.destination,
        )
        return Itinerary((leg,), req.departure, req.departure + secs, km, 0)

    # ---- the scan ---------------------------------------------------

    def _request_links(self, req: PlanRequest) -> _RequestLinks | None:
        """Access and egress walks of a request, shared by its alternatives.

        None when no stop is within walking reach of both endpoints, so
        the request can only walk.  The last request's links are kept:
        they do not depend on the mode, and a rider's modes are solved
        back to back.
        """
        key = (req.origin, req.destination, req.departure)
        if self._last_links[0] != key:
            self._last_links = [key, self._new_request_links(req), None]
        return self._last_links[1]

    def _new_request_links(self, req: PlanRequest) -> _RequestLinks | None:
        access = self._stop_walks(req.origin)
        if not len(access.stops):
            return None
        egress = self._stop_walks(req.destination)
        if not len(egress.stops):
            return None
        n = len(self._stop_ids)
        egress_s = [_INF] * n
        for stop, secs in zip(egress.stops.tolist(), egress.seconds.tolist()):
            egress_s[stop] = secs
        boards = req.departure + access.seconds
        reach = [_INF] * n
        foot_prev = [-2] * n
        for stop, at in zip(access.stops.tolist(), boards.tolist()):
            reach[stop] = at
            foot_prev[stop] = -1
        return _RequestLinks(
            access,
            egress,
            egress_s,
            reach,
            foot_prev,
            first_board=float(boards.min()),
            min_egress=float(egress.seconds.min()),
        )

    def _solve(
        self,
        req: PlanRequest,
        banned: Iterable[int],
        links: _RequestLinks | None,
        seed: _Scan | None = None,
    ) -> tuple[Itinerary, _Scan | None]:
        """Earliest arrival without the trips whose indices are in ``banned``.

        Returns the itinerary and the solve's :class:`_Scan` (None for a
        request that can only walk).  ``seed`` is the scan of a solve of
        the same request whose usable trips include all of this one's,
        its connections cut to this mode's trips.  The solve reads the
        seed's live connections, then those departing after the seed's
        limit, and gets the answer and the record of a full scan (see
        :class:`Planner`).  Without a seed it scans the whole window.
        """
        direct = self._walk_only(req)
        if links is None:
            return direct, None

        n = len(self._stop_ids)
        best = direct.arrive
        best_stop = -1
        best_egress = _INF
        egress = links.egress_s
        min_egress = links.min_egress
        limit = best - min_egress

        reach = links.reach.copy()
        foot_prev = links.foot_prev.copy()
        arr_veh = [_INF] * n
        veh_conn = [-1] * n
        n_trips = len(self._trip_ids)
        # Per trip: 0 not boarded yet, 1 boarded, 2 banned.
        trip_state = bytearray(n_trips)
        for ti in banned:
            trip_state[ti] = 2
        board_conn = [-1] * n_trips
        live: list[int] = []
        read_live = live.append

        dw = self.transfer_s
        c_dep_s = self._c_dep_s
        c_dep_t = self._c_dep_t
        c_arr_s = self._c_arr_s
        c_arr_t = self._c_arr_t
        c_trip = self._c_trip
        fan_starts, fan_split, fan_targets, fan_seconds, fan_key = self._fans[req.mode]

        conns, times = self._mode_conns[req.mode]
        lo = bisect_left(times, links.first_board)
        hi = bisect_right(times, limit)
        if seed is None:
            order = conns[lo:hi]
        else:
            order = chain(seed.live, conns[max(lo, bisect_right(times, seed.stop)):hi])
        for ci in order:
            t0 = c_dep_t[ci]
            if t0 > limit:
                break
            ti = c_trip[ci]
            state = trip_state[ti]
            if state != 1:
                if state or t0 < reach[c_dep_s[ci]]:
                    continue
                trip_state[ti] = 1
                board_conn[ti] = ci
            read_live(ci)
            at = c_arr_t[ci]
            sa = c_arr_s[ci]
            if at < arr_veh[sa]:
                arr_veh[sa] = at
                veh_conn[sa] = ci
                if at + dw < reach[sa]:
                    reach[sa] = at + dw
                e = egress[sa]
                if e != _INF:
                    cand = at + e
                    # Strict improvement, or an equal-time arrival with less
                    # egress walking; the direct walk keeps ties it already holds.
                    if cand < best or (cand == best and best_stop >= 0 and e < best_egress):
                        best = int(cand)
                        best_stop = sa
                        best_egress = e
                        limit = best - min_egress
                # Relax the links to stops the mode leaves once whose walk
                # ends by that departure, then the others whose walk ends
                # by the limit.  Each part's first key is checked before
                # bisecting.
                a = fan_starts[sa]
                m = fan_split[sa]
                if a < m and fan_key[a] <= -at:
                    b = bisect_right(fan_key, -at, a, m)
                    for v, secs in zip(fan_targets[a:b], fan_seconds[a:b]):
                        cand = at + secs
                        if cand < reach[v]:
                            reach[v] = cand
                            foot_prev[v] = sa
                b = fan_starts[sa + 1]
                if m < b and fan_key[m] <= limit - at:
                    b = bisect_right(fan_key, limit - at, m, b)
                    for v, secs in zip(fan_targets[m:b], fan_seconds[m:b]):
                        cand = at + secs
                        if cand < reach[v]:
                            reach[v] = cand
                            foot_prev[v] = sa

        scan = _Scan(live, limit)
        if best_stop < 0:
            return direct, scan
        return self._reconstruct(
            req, best, best_stop, links, reach, foot_prev, arr_veh, veh_conn, board_conn
        ), scan

    def _reconstruct(
        self, req, best, best_stop, links, reach, foot_prev, arr_veh, veh_conn, board_conn,
    ) -> Itinerary:
        dep = req.departure
        dw = self.transfer_s
        access = links.access
        egress_s = links.egress_s
        legs_rev: list[Leg] = []
        legs_rev.append(
            Leg(
                kind="walk",
                start=int(arr_veh[best_stop]),
                end=int(arr_veh[best_stop] + egress_s[best_stop]),
                distance_km=float(links.egress.km[links.egress.position(best_stop)]),
                from_point=self._positions[best_stop],
                to_point=req.destination,
                from_stop=self._stop_ids[best_stop],
            )
        )
        stop = best_stop
        while True:
            ci = veh_conn[stop]
            ti = self._c_trip[ci]
            bi = board_conn[ti]
            sb = self._c_dep_s[bi]
            tb = self._c_dep_t[bi]
            cum = self._trip_km(ti)
            km = cum[self._c_pos[ci] + 1] - cum[self._c_pos[bi]]
            legs_rev.append(
                Leg(
                    kind=self._leg_kind(ti),
                    start=tb,
                    end=int(self._c_arr_t[ci]),
                    distance_km=km,
                    from_point=self._positions[sb],
                    to_point=self._positions[self._c_arr_s[ci]],
                    trip_id=self._trip_ids[ti],
                    from_stop=self._stop_ids[sb],
                    to_stop=self._stop_ids[self._c_arr_s[ci]],
                )
            )
            # How was the boarding stop reached?  Prefer walking straight
            # from the origin, then a same-stop change, then a footpath.
            # A change is from a vehicle scanned before the boarding; a
            # later one may be this trip's own return to sb.
            k = access.position(sb)
            if k is not None and dep + access.seconds[k] <= tb:
                legs_rev.append(
                    Leg(
                        kind="walk",
                        start=dep,
                        end=dep + int(access.seconds[k]),
                        distance_km=float(access.km[k]),
                        from_point=req.origin,
                        to_point=self._positions[sb],
                        to_stop=self._stop_ids[sb],
                    )
                )
                break
            if 0 <= veh_conn[sb] < bi and arr_veh[sb] + dw <= tb:
                stop = sb
                continue
            # Both failed, so a footpath reached sb by tb; foot_prev holds
            # the first stop whose walk gave sb its earliest footpath arrival.
            q = foot_prev[sb]
            if q < 0 or reach[sb] > tb:
                raise AssertionError("inconsistent labels during reconstruction")
            walk_s, walk_km = self._footpath_seconds_km(q, sb)
            legs_rev.append(
                Leg(
                    kind="walk",
                    start=int(arr_veh[q]),
                    end=int(arr_veh[q]) + walk_s,
                    distance_km=walk_km,
                    from_point=self._positions[q],
                    to_point=self._positions[sb],
                    from_stop=self._stop_ids[q],
                    to_stop=self._stop_ids[sb],
                )
            )
            stop = q

        legs = legs_rev[::-1]
        walk_km_total = sum(l.distance_km for l in legs if l.kind == "walk")
        durations = sum(l.duration_s for l in legs)
        return Itinerary(
            legs=tuple(legs),
            depart=dep,
            arrive=best,
            total_walk_km=walk_km_total,
            total_wait_s=best - dep - durations,
        )

    # ---- public API -------------------------------------------------

    def earliest_arrival(self, req: PlanRequest) -> Itinerary:
        """The fastest itinerary for the request.

        A direct walk is always available, so this never fails on a
        connected plane.
        """
        return self._first_solve(req, self._request_links(req))[0]

    def iter_itineraries(self, req: PlanRequest):
        """Yield alternatives lazily, best first.

        Each round bans the first ride trip of the previous result and
        re-solves, seeded with the previous solve's scan; a walk-only
        itinerary closes the list as the final fallback.  At most
        ``req.num_itineraries`` results.  No result repeats an earlier
        one: each later alternative rides none of the banned trips, so it
        differs from every earlier one, which rode its own first ride
        trip, and the closing walk rides nothing.
        """
        links = self._request_links(req)
        it, scan = self._first_solve(req, links)
        banned: set[int] = set()
        count = 0
        while rides := it.ride_legs:
            yield it
            count += 1
            if count == req.num_itineraries:
                return
            banned.add(self._trip_index[rides[0].trip_id])
            it, scan = self._solve(req, banned, links, scan)
        yield self._walk_only(req)

    def _first_solve(
        self, req: PlanRequest, links: _RequestLinks | None
    ) -> tuple[Itinerary, _Scan | None]:
        """The request's solve with no trip banned, and its scan.

        A mode's trips are a subset of TRANSIT's, so the solve is seeded
        with the request's first TRANSIT scan, read for the mode's trips,
        when the planner holds it; a TRANSIT scan is kept for the other
        modes.  ``links`` are the request's, just looked up.
        """
        transit = self._last_links[2]
        if transit is not None and req.mode is not PlanMode.TRANSIT:
            pool = req.mode is PlanMode.POOL_ONLY
            flags = self._pool_flags
            c_trip = self._c_trip
            live = [ci for ci in transit.live if flags[c_trip[ci]] == pool]
            transit = _Scan(live, transit.stop)
        it, scan = self._solve(req, (), links, transit)
        if req.mode is PlanMode.TRANSIT:
            self._last_links[2] = scan
        return it, scan

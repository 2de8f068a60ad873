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

A request may also cap the road km a journey walks in all
(``PlanRequest.max_walk_km``).  The alternatives of
:meth:`Planner.iter_itineraries` enforce that cap inside the scan: each
is the earliest journey whose walk fits it, found by one scan whose
labels are Pareto sets of (arrival, walk km), as in the multi-criteria
connection scan (Dibbelt et al.) and McRAPTOR (Delling, Pajor &
Werneck, 2012).  Banning a trip never shortens a walk, so the ban loop
of the alternatives is left only for a rule the scan does not know:
the rider's wait.

The scan, the footpaths each mode keeps and how they are built, how one
solve seeds the next, and a request's set-up are described on
:class:`Planner`.  Stops within walking range of a stop or a point are
found by a chord index over unit vectors (:class:`_ChordIndex`), in
numpy alone.
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
    # The most road km a journey may walk in all, access, footpaths and
    # egress together; infinity puts no limit on it.
    max_walk_km: float = _INF

    def __post_init__(self) -> None:
        if self.departure < 0:
            raise ValueError("departure must be non-negative seconds")
        if self.num_itineraries < 1:
            raise ValueError("num_itineraries must be >= 1")
        if not self.max_walk_km >= 0:
            raise ValueError("max_walk_km must be a non-negative number")


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
    covers the rounding of the chords :class:`_ChordIndex` measures, so
    every pair in walking range is within it."""
    angle = min(math.pi, max(0.0, max_walk_km / model.circuity / EARTH_RADIUS_KM))
    return 2.0 * math.sin(angle / 2.0) * (1.0 + 1e-9) + 1e-12


# Points of one row that :meth:`_ChordIndex.pairs` tests against the
# same slices.  A run's slices widen with its extent along the row, and
# each run costs a few numpy calls.
_PAIR_RUN = 32


class _ChordIndex:
    """Unit vectors laid out to find those within a chord of a point.

    The points, one a row, are cut into rows ``reach`` wide along the
    axis where they spread widest, and ``order`` sorts them by row and
    then along the second widest axis.  A pair whose squared chord,
    summed as ``(dx² + dy²) + dz²``, is at most ``chord²`` differs by
    less than ``reach`` along every axis, rounding included.  So the
    points within the chord of p lie in the rows that p ± ``reach``
    along the widest axis touches, at most three, and in each within
    ``reach`` of p along the second: one contiguous slice of ``order``
    a row.
    """

    def __init__(self, xyz: np.ndarray, chord: float):
        self._chord2 = chord * chord
        self._reach = chord * (1.0 + 1e-9) + 1e-15
        by_axis = np.ascontiguousarray(xyz.T)
        spread = by_axis.max(axis=1) - by_axis.min(axis=1) if len(xyz) else np.zeros(3)
        self._v, self._u = np.argsort(spread, kind="stable")[1:].tolist()
        self._u0 = float(by_axis[self._u].min()) if len(xyz) else 0.0
        self.order = self.sort(xyz)
        # The coordinates by axis, in index order.
        self._xyz = by_axis.take(self.order, axis=1)
        rows = self._rows_of(self._xyz[self._u])
        edges = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(rows)]
        # Each row's range of index positions.
        self._row_span = {rows[lo]: (lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi}
        self._vs = self._xyz[self._v].tolist()

    def _rows_of(self, u: np.ndarray) -> np.ndarray:
        return np.floor((u - self._u0) / self._reach).astype(np.int64)

    def sort(self, xyz: np.ndarray) -> np.ndarray:
        """The permutation that puts the points ``xyz`` in index order."""
        order = np.argsort(xyz[:, self._v], kind="stable")
        return order[np.argsort(self._rows_of(xyz[order, self._u]), kind="stable")]

    def _slices(self, u_lo: float, u_hi: float, v_lo: float, v_hi: float) -> list:
        """Ranges of index positions, one a row, of the points within
        ``reach`` of the box [u_lo, u_hi] × [v_lo, v_hi] along both axes.
        The rows are :meth:`_rows_of`'s arithmetic in Python floats."""
        vs, reach, u0 = self._vs, self._reach, self._u0
        first = math.floor((u_lo - reach - u0) / reach)
        last = math.floor((u_hi + reach - u0) / reach)
        slices = []
        for row in range(first, last + 1):
            if row in self._row_span:
                a, b = self._row_span[row]
                slices.append(
                    (bisect_left(vs, v_lo - reach, a, b), bisect_right(vs, v_hi + reach, a, b))
                )
        return slices

    def near(self, p: tuple) -> np.ndarray:
        """Every point within the chord of unit vector ``p``, once, among
        others within ``reach`` of it along the two axes."""
        u, v = p[self._u], p[self._v]
        slices = self._slices(u, u, v, v)
        return np.concatenate([self.order[a:b] for a, b in slices] or [self.order[:0]])

    def pairs(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (i, j) with point j within the chord of ``xyz[i]``, once
        each.  The points go in runs of at most ``_PAIR_RUN`` consecutive
        ones of one row, each against the points near its bounding box:
        in index order, a run reads three short slices."""
        if not len(xyz):
            return self.order[:0], self.order[:0]
        u, v = xyz[:, self._u], xyz[:, self._v]
        edges = [0, *(np.flatnonzero(np.diff(self._rows_of(u))) + 1).tolist(), len(xyz)]
        runs = [k for lo, hi in zip(edges, edges[1:]) for k in range(lo, hi, _PAIR_RUN)]
        bounds = (f.reduceat(c, runs).tolist() for c in (u, v) for f in (np.minimum, np.maximum))
        found_i, found_j = [self.order[:0]], [self.order[:0]]
        for *box, lo, hi in zip(*bounds, runs, [*runs[1:], len(xyz)]):
            slices = self._slices(*box)
            if not slices:
                continue
            d = xyz[lo:hi, :, None] - np.concatenate([self._xyz[:, a:b] for a, b in slices], axis=1)
            d *= d
            i, k = np.nonzero(np.add.reduce(d, axis=1) <= self._chord2)
            found_i.append(i + lo)
            found_j.append(np.concatenate([self.order[a:b] for a, b in slices])[k])
        return np.concatenate(found_i), np.concatenate(found_j)


def _walk_seconds_vec(road: np.ndarray, model: TravelModel) -> np.ndarray:
    raw = road * 3600.0 / model.walk_speed_kmh
    return np.maximum(0.0, np.ceil(raw - 1e-9))


# Source stops per block of the footpath build, taken in the order of
# the targets' chord index.  A block's candidate pairs, the build's
# working memory, grow with it and not with the feed.
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

    The targets' unit vectors go into a :class:`_ChordIndex` of the
    walking chord (:func:`_walk_chord`).  The sources, sorted into its
    order so that a block's sources lie close together, go through
    :meth:`_ChordIndex.pairs` ``_FOOTPATH_BLOCK`` at a time for the
    pairs within the chord.  Exact great-circle distances make the cut,
    so the links are those of the quadratic scan at any latitude; then
    come the time rule and the sort.  Neither the candidate pairs nor
    the links the rule drops outlive their block.  Each source's links
    are contiguous in its block's part, so one gather puts them in
    source order at the end.
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
    cos_lat = np.cos(lat_r)
    src = np.flatnonzero(first_arrival < _INF)
    dst = np.flatnonzero(last_departure > -_INF)
    index = _ChordIndex(xyz[dst], _walk_chord(model, max_walk_km))
    src = src[index.sort(xyz[src])]
    # Where each source's links begin in the concatenated parts.
    first = np.zeros(n, dtype=np.int64)
    done = 0
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for k in range(0, len(src), _FOOTPATH_BLOCK):
        block = src[k : k + _FOOTPATH_BLOCK]
        i, j = index.pairs(xyz[block])
        a, b = block[i], dst[j]
        del i, j
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        h = (
            np.sin((lat_r[hi] - lat_r[lo]) / 2.0) ** 2
            + cos_lat[lo] * cos_lat[hi] * np.sin((lon_r[hi] - lon_r[lo]) / 2.0) ** 2
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
        a = a[order]
        head = np.flatnonzero(np.diff(a, prepend=-1))
        first[a[head]] = done + head
        done += len(a)
        starts[1:] += np.bincount(a, minlength=n)
        parts.append((b[order], secs[order], road[order]))

    np.cumsum(starts, out=starts)
    gather = np.repeat(first - starts[:-1], np.diff(starts))
    gather += np.arange(done)
    targets, secs, road = (np.concatenate(column)[gather] for column in zip(*parts))
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
    4-byte targets and keys and float walk seconds and road km, in two
    parts split
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
    km: array
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
    none), which each solve copies.  ``access_km`` and ``egress_km``
    map those stops to their walk's road km.  ``first_board`` is the
    earliest access arrival, and ``min_egress`` and ``min_egress_km``
    the shortest egress walk in seconds and in km.
    """

    access: _StopWalks
    egress: _StopWalks
    egress_s: list
    reach: list
    foot_prev: list
    access_km: dict
    egress_km: dict
    first_board: float
    min_egress: float
    min_egress_km: float


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
    ``TRANSIT`` scan of the request beside its set-up, one per walk
    budget and one for the single-criterion scan, and seeds a
    restricted mode's first solve of the same kind with it, read for
    the mode's trips.

    The walk-budgeted scan (:meth:`_solve_within`) seeds the same way.
    Under the same budget, each label of the second solve by the first's
    limit is dominated, earlier and walking no more, by a label of the
    first, and each trip rides on with no less walk; a label's walk
    only grows along a journey, so a label the first prunes for its walk
    the second prunes too.  So the second boards no trip the first had
    not boarded by then, and stops no earlier.  The arrivals that
    :meth:`_solve_within` skips as dominated would only add labels that
    are dominated too, so skipping them changes no label or answer.

    A request's set-up costs time in the stops within walking range of
    its endpoints, not in the stops of the feed.  The build puts the
    stops' unit vectors (cos φ cos λ, cos φ sin λ, sin φ) in a
    :class:`_ChordIndex` of the chord of the widest walkable great-circle
    angle, with a small margin.  Per endpoint, the index hands over the
    stops of at most three short slices, every stop within that chord
    among them, and ``circuity`` times the great-circle distance, within
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
        xyz = np.column_stack(_unit_vectors(self._lat_r, self._lon_r))
        self._chord_index = _ChordIndex(xyz, _walk_chord(model, max_walk_km))
        # (origin, destination, departure), the links and the first
        # TRANSIT scans of the last request, keyed by walk budget (None
        # for the single-criterion scan).
        self._last_links: list = [None, None, {}]

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
        # Per mode, the links it keeps (see _FanTable).
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
                array("d", fp.km[links].astype(np.float64, copy=False).tobytes()),
                array("i", key.astype(np.int32).tobytes()),
            )

    @property
    def footpaths(self) -> FootpathSet:
        """TRANSIT's links, the union of the three modes', rebuilt from its
        fan table on every read; the planner itself never reads it."""
        fan = self._fans[PlanMode.TRANSIT]
        starts = np.array(fan.starts, dtype=np.int64)
        source = np.repeat(np.arange(len(self._stop_ids), dtype=np.int64), np.diff(starts))
        targets = np.array(fan.targets, dtype=np.int64)
        order = np.lexsort((targets, source))  # each source's links by target
        seconds, km = (np.array(a, dtype=np.float64)[order] for a in (fan.seconds, fan.km))
        return FootpathSet(self._stop_ids, starts, targets[order], seconds, km)

    # ---- helpers ----------------------------------------------------

    def _stop_walks(self, point: GeoPoint) -> _StopWalks:
        """The stops within the walking cap of a request endpoint."""
        stops = self._chord_index.near(
            _unit_vectors(math.radians(point.lat), math.radians(point.lon), math)
        )
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
        return int(fan.seconds[k]), fan.km[k]

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
            self._last_links = [key, self._new_request_links(req), {}]
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
            dict(zip(access.stops.tolist(), access.km.tolist())),
            dict(zip(egress.stops.tolist(), egress.km.tolist())),
            first_board=float(boards.min()),
            min_egress=float(egress.seconds.min()),
            min_egress_km=float(egress.km.min()),
        )

    def _solve(
        self,
        req: PlanRequest,
        links: _RequestLinks | None,
        seed: _Scan | None = None,
    ) -> tuple[Itinerary, _Scan | None]:
        """Earliest arrival, whatever it walks.

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
        # Per trip: 0 not boarded yet, 1 boarded.
        trip_state = bytearray(n_trips)
        board_conn = [-1] * n_trips
        live: list[int] = []
        read_live = live.append

        dw = self.transfer_s
        c_dep_s = self._c_dep_s
        c_dep_t = self._c_dep_t
        c_arr_s = self._c_arr_s
        c_arr_t = self._c_arr_t
        c_trip = self._c_trip
        fan_starts, fan_split, fan_targets, fan_seconds, _, fan_key = self._fans[req.mode]

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
            if not trip_state[ti]:
                if t0 < reach[c_dep_s[ci]]:
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
        legs_rev = [self._egress_leg(req, links, best_stop, arr_veh[best_stop])]
        stop = best_stop
        while True:
            ci = veh_conn[stop]
            bi = board_conn[self._c_trip[ci]]
            legs_rev.append(self._ride_leg(bi, ci))
            sb = self._c_dep_s[bi]
            tb = self._c_dep_t[bi]
            # How was the boarding stop reached?  Prefer walking straight
            # from the origin, then a same-stop change, then a footpath.
            # A change is from a vehicle scanned before the boarding; a
            # later one may be this trip's own return to sb.
            k = access.position(sb)
            if k is not None and dep + access.seconds[k] <= tb:
                legs_rev.append(self._access_leg(req, links, sb))
                break
            if 0 <= veh_conn[sb] < bi and arr_veh[sb] + dw <= tb:
                stop = sb
                continue
            # Both failed, so a footpath reached sb by tb; foot_prev holds
            # the first stop whose walk gave sb its earliest footpath arrival.
            q = foot_prev[sb]
            if q < 0 or reach[sb] > tb:
                raise AssertionError("inconsistent labels during reconstruction")
            legs_rev.append(self._footpath_leg(q, sb, int(arr_veh[q])))
            stop = q
        return self._itinerary(req, best, legs_rev)

    def _solve_within(
        self,
        req: PlanRequest,
        banned: Iterable[int],
        links: _RequestLinks | None,
        seed: _Scan | None = None,
    ) -> tuple[Itinerary, _Scan | None]:
        """The earliest arrival whose walk fits ``req.max_walk_km``,
        without the trips whose indices are in ``banned``.

        Returns and takes a seed as :meth:`_solve` does.  Each stop holds
        the Pareto set of its boarding labels, (time, walk km): the
        earliest inline, the others, once there are any, in a bag sorted
        by time, so by falling walk.  Each trip rides on with the least
        walk of any of its boardings so far.  A label is kept only when
        its walk plus the shortest egress walk fits the budget, and an
        arrival counts only when its walk plus its egress walk does, as
        :func:`~poollines.matching.is_feasible` sums them.  Each label
        carries its provenance: None for an access walk, or the ride that
        reached it, ``(connection, (boarding connection, provenance of
        the boarding label))``; the itinerary is rebuilt from it.
        """
        direct = self._walk_only(req)
        if links is None:
            return direct, None

        budget = req.max_walk_km
        n = len(self._stop_ids)
        best = direct.arrive
        best_stop = -1
        best_egress = _INF
        best_ride = None
        egress = links.egress_s
        egress_km = links.egress_km
        min_egress = links.min_egress
        min_egress_km = links.min_egress_km
        limit = best - min_egress

        reach = links.reach.copy()
        reach_km = [_INF] * n
        for s, km in links.access_km.items():
            if km + min_egress_km > budget:
                reach[s] = _INF
            else:
                reach_km[s] = km
        prov: list = [None] * n
        bags: list = [None] * n

        def add(v: int, t: float, km: float, p: tuple) -> None:
            """Put the label (t, km) at stop v unless a label there
            dominates it, and drop the labels it dominates."""
            bag = bags[v]
            if bag is None:
                t1 = reach[v]
                km1 = reach_km[v]
                if t >= t1 and km >= km1:
                    return
                if t <= t1 and km <= km1:
                    reach[v] = t
                    reach_km[v] = km
                    prov[v] = p
                    return
                bags[v] = bag = ([t1], [km1], [prov[v]])
            times, kms, provs = bag
            i = bisect_right(times, t)
            if i and kms[i - 1] <= km:
                return
            j = i - 1 if i and times[i - 1] == t else i
            k = j
            while k < len(kms) and kms[k] >= km:
                k += 1
            times[j:k] = (t,)
            kms[j:k] = (km,)
            provs[j:k] = (p,)
            if not j:
                reach[v] = t
                reach_km[v] = km
                prov[v] = p

        # Two vehicle arrivals of each stop, the earliest and the least
        # walked.  An arrival one of them dominates would add only labels
        # that are dominated too, so it is skipped.
        veh_t = [_INF] * n
        veh_t_km = [_INF] * n
        veh_km = [_INF] * n
        veh_km_t = [_INF] * n
        n_trips = len(self._trip_ids)
        # Per trip, the least walk of its boardings (-1 when banned) and
        # that boarding: its connection and its label's provenance.
        trip_km = [_INF] * n_trips
        for ti in banned:
            trip_km[ti] = -1.0
        trip_board: list = [None] * n_trips
        live: list[int] = []
        read_live = live.append

        dw = self.transfer_s
        c_dep_s = self._c_dep_s
        c_dep_t = self._c_dep_t
        c_arr_s = self._c_arr_s
        c_arr_t = self._c_arr_t
        c_trip = self._c_trip
        fan_starts, fan_split, fan_targets, fan_seconds, fan_km, fan_key = self._fans[req.mode]

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
            w = trip_km[ti]
            s = c_dep_s[ci]
            # Board, or ride on with less walk, from the least walked
            # label at s by t0.  A walk of 0 cannot fall, and a banned
            # trip's is -1.
            if t0 >= reach[s] and w > 0.0:
                bag = bags[s]
                if bag is None:
                    km = reach_km[s]
                    p = prov[s]
                else:
                    k = bisect_right(bag[0], t0) - 1
                    km = bag[1][k]
                    p = bag[2][k]
                if km < w:
                    trip_km[ti] = w = km
                    trip_board[ti] = (ci, p)
            if not 0.0 <= w < _INF:
                continue
            read_live(ci)
            at = c_arr_t[ci]
            sa = c_arr_s[ci]
            if (at >= veh_t[sa] and w >= veh_t_km[sa]) or (w >= veh_km[sa] and at >= veh_km_t[sa]):
                continue
            if at <= veh_t[sa]:
                veh_t[sa] = at
                veh_t_km[sa] = w
            if w <= veh_km[sa]:
                veh_km[sa] = w
                veh_km_t[sa] = at
            ride = (ci, trip_board[ti])
            cand = at + dw
            if cand < reach[sa] or w < reach_km[sa]:
                add(sa, cand, w, ride)
            e = egress[sa]
            if e != _INF:
                cand = at + e
                if (
                    cand < best or (cand == best and best_stop >= 0 and e < best_egress)
                ) and w + egress_km[sa] <= budget:
                    best = int(cand)
                    best_stop = sa
                    best_egress = e
                    best_ride = ride
                    limit = best - min_egress
            # The links of _solve, each label kept as add keeps it.
            a = fan_starts[sa]
            m = fan_split[sa]
            if a < m and fan_key[a] <= -at:
                b = bisect_right(fan_key, -at, a, m)
                for v, secs, km in zip(fan_targets[a:b], fan_seconds[a:b], fan_km[a:b]):
                    cand = at + secs
                    km = w + km
                    if (cand < reach[v] or km < reach_km[v]) and km + min_egress_km <= budget:
                        add(v, cand, km, ride)
            b = fan_starts[sa + 1]
            if m < b and fan_key[m] <= limit - at:
                b = bisect_right(fan_key, limit - at, m, b)
                for v, secs, km in zip(fan_targets[m:b], fan_seconds[m:b], fan_km[m:b]):
                    cand = at + secs
                    km = w + km
                    if (cand < reach[v] or km < reach_km[v]) and km + min_egress_km <= budget:
                        add(v, cand, km, ride)

        scan = _Scan(live, limit)
        if best_ride is None:
            return direct, scan
        return self._rebuild(req, best, best_stop, best_ride, links), scan

    def _rebuild(self, req, best, best_stop, ride, links) -> Itinerary:
        """The itinerary of a ride's provenance (see :meth:`_solve_within`)."""
        legs_rev = [self._egress_leg(req, links, best_stop, self._c_arr_t[ride[0]])]
        while True:
            ci, (bi, p) = ride
            legs_rev.append(self._ride_leg(bi, ci))
            sb = self._c_dep_s[bi]
            if p is None:
                legs_rev.append(self._access_leg(req, links, sb))
                break
            q = self._c_arr_s[p[0]]
            if q != sb:
                legs_rev.append(self._footpath_leg(q, sb, self._c_arr_t[p[0]]))
            ride = p
        return self._itinerary(req, best, legs_rev)

    def _ride_leg(self, bi: int, ci: int) -> Leg:
        """The ride on one trip from connection ``bi`` to ``ci``."""
        ti = self._c_trip[bi]
        sb = self._c_dep_s[bi]
        sa = self._c_arr_s[ci]
        cum = self._trip_km(ti)
        return Leg(
            kind=self._leg_kind(ti),
            start=self._c_dep_t[bi],
            end=int(self._c_arr_t[ci]),
            distance_km=cum[self._c_pos[ci] + 1] - cum[self._c_pos[bi]],
            from_point=self._positions[sb],
            to_point=self._positions[sa],
            trip_id=self._trip_ids[ti],
            from_stop=self._stop_ids[sb],
            to_stop=self._stop_ids[sa],
        )

    def _access_leg(self, req: PlanRequest, links: _RequestLinks, stop: int) -> Leg:
        k = links.access.position(stop)
        return Leg(
            kind="walk",
            start=req.departure,
            end=req.departure + int(links.access.seconds[k]),
            distance_km=float(links.access.km[k]),
            from_point=req.origin,
            to_point=self._positions[stop],
            to_stop=self._stop_ids[stop],
        )

    def _footpath_leg(self, q: int, stop: int, start: int) -> Leg:
        walk_s, walk_km = self._footpath_seconds_km(q, stop)
        return Leg(
            kind="walk",
            start=start,
            end=start + walk_s,
            distance_km=walk_km,
            from_point=self._positions[q],
            to_point=self._positions[stop],
            from_stop=self._stop_ids[q],
            to_stop=self._stop_ids[stop],
        )

    def _egress_leg(self, req: PlanRequest, links: _RequestLinks, stop: int, start) -> Leg:
        return Leg(
            kind="walk",
            start=int(start),
            end=int(start + links.egress_s[stop]),
            distance_km=float(links.egress.km[links.egress.position(stop)]),
            from_point=self._positions[stop],
            to_point=req.destination,
            from_stop=self._stop_ids[stop],
        )

    def _itinerary(self, req: PlanRequest, best: int, legs_rev: list[Leg]) -> Itinerary:
        """The itinerary of legs listed last first, arriving at ``best``.
        Its walk is the walk legs' km summed in leg order."""
        legs = legs_rev[::-1]
        walk_km_total = sum(l.distance_km for l in legs if l.kind == "walk")
        durations = sum(l.duration_s for l in legs)
        return Itinerary(
            legs=tuple(legs),
            depart=req.departure,
            arrive=best,
            total_walk_km=walk_km_total,
            total_wait_s=best - req.departure - durations,
        )

    # ---- public API -------------------------------------------------

    def earliest_arrival(self, req: PlanRequest) -> Itinerary:
        """The fastest itinerary for the request whose walk fits
        ``req.max_walk_km``, or the direct walk when none beats it.

        A direct walk is always available, so this never fails on a
        connected plane.  With no walk budget it is the single-criterion
        scan of :meth:`_solve`.
        """
        within = req.max_walk_km != _INF
        return self._first_solve(req, self._request_links(req), within)[0]

    def iter_itineraries(self, req: PlanRequest):
        """Yield alternatives lazily, best first.

        Each is the earliest arrival whose walk fits ``req.max_walk_km``
        (:meth:`_solve_within`).  Each round bans the first ride trip of
        the previous result and re-solves, seeded with the previous
        solve's scan; a walk-only itinerary closes the list as the final
        fallback.  At most ``req.num_itineraries`` results.  No result
        repeats an earlier one: each later alternative rides none of the
        banned trips, so it differs from every earlier one, which rode
        its own first ride trip, and the closing walk rides nothing.
        """
        links = self._request_links(req)
        it, scan = self._first_solve(req, links, True)
        banned: set[int] = set()
        count = 0
        while rides := it.ride_legs:
            yield it
            count += 1
            if count == req.num_itineraries:
                return
            banned.add(self._trip_index[rides[0].trip_id])
            it, scan = self._solve_within(req, banned, links, scan)
        yield self._walk_only(req)

    def _first_solve(
        self, req: PlanRequest, links: _RequestLinks | None, within: bool
    ) -> tuple[Itinerary, _Scan | None]:
        """The request's solve with no trip banned, and its scan:
        :meth:`_solve_within` when ``within``, else :meth:`_solve`.

        A mode's trips are a subset of TRANSIT's, so the solve is seeded
        with the request's first TRANSIT scan of the same kind and walk
        budget, read for the mode's trips, when the planner holds it; a
        TRANSIT scan is kept for the other modes.  ``links`` are the
        request's, just looked up.
        """
        scans = self._last_links[2]
        kind = req.max_walk_km if within else None
        transit = scans.get(kind)
        if transit is not None and req.mode is not PlanMode.TRANSIT:
            pool = req.mode is PlanMode.POOL_ONLY
            flags = self._pool_flags
            c_trip = self._c_trip
            live = [ci for ci in transit.live if flags[c_trip[ci]] == pool]
            transit = _Scan(live, transit.stop)
        if within:
            it, scan = self._solve_within(req, (), links, transit)
        else:
            it, scan = self._solve(req, links, transit)
        if req.mode is PlanMode.TRANSIT:
            scans[kind] = scan
        return it, scan

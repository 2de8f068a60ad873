"""Independent reference implementations the tests check the package against.

The router oracle materialises the full time-event graph (one node per scheduled
departure and arrival) and computes reachability over explicit edges,
which is a different algorithm family from the connection scan in the
package, so shared bugs are unlikely.  :class:`ReferencePlanner` keeps
the package's earlier scan, which relaxed every footpath link and kept
footpath and vehicle labels apart, to pin full itineraries, tie-breaks
included.  :class:`WholeTextTable` and :func:`reference_read_csv` are
the CSV readers the package had before it streamed its files: each
decodes a whole file at once and runs ``csv.reader`` over
``io.StringIO`` of the text.  :func:`reference_parse_stoptimes` checks
every stop_times.txt row field by field, where the package resolves
most rows by lookups.  :func:`reference_generate_scenario` and
:func:`reference_driver_journeys` build one ``np.random.default_rng``
per agent, which the package seeds in bulk instead.
"""
from __future__ import annotations

import csv
import io
import math
import re
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

from poollines import gtfs
from poollines.drivers import Driver, DriverJourney, MeetingPointSet, _journey
from poollines.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    TravelModel,
    haversine_km,
    haversine_km_to_point,
)
from poollines.gtfs import (
    CalendarRow,
    DanglingReference,
    GtfsStopTime,
    MalformedRow,
    MissingFile,
    Route,
    Stop,
    Timetable,
    Trip,
    parse_gtfs_time,
)
from poollines.injection import pool_trip_id
from poollines.planner import (
    DEFAULT_MAX_WALK_KM,
    DEFAULT_TRANSFER_S,
    FootpathSet,
    Itinerary,
    Leg,
    Planner,
    PlanRequest,
)
from poollines.matching import Rider
from poollines.scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioError,
    _weights,
    agent_count,
    sample_point,
)

SPHERE_RADIUS_KM = 6371.0088


def reference_generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """:func:`poollines.scenario.generate_scenario` with one
    ``default_rng([seed, tag, id])`` built per agent (tag 0 for drivers,
    1 for riders)."""
    hours = cfg.sim_window.hours
    area = cfg.effective_area_km2
    counts = (
        cfg.driver_count if cfg.driver_count is not None else agent_count(cfg.driver_density, area, hours),
        cfg.rider_count if cfg.rider_count is not None else agent_count(cfg.rider_density, area, hours),
    )
    weights = _weights(cfg.rectangles)
    agents: tuple[list, list] = ([], [])
    for tag, count in enumerate(counts):
        for i in range(1, count + 1):
            rng = np.random.default_rng([cfg.seed, tag, i])
            origin = sample_point(cfg.rectangles, rng, weights)
            destination = sample_point(cfg.rectangles, rng, weights)
            departure = int(rng.integers(cfg.sim_window.start, cfg.sim_window.end))
            if tag == 0:
                agents[0].append(
                    Driver(i, origin, destination, departure, cfg.sim_window.start, cfg.seat_capacity)
                )
            else:
                agents[1].append(Rider(i, origin, destination, departure))
    return Scenario(cfg, tuple(agents[0]), tuple(agents[1]))


def reference_driver_journeys(
    drivers: list[Driver], points: MeetingPointSet, model: TravelModel,
    tau: float, dwell_s: int, seed: int,
) -> list[DriverJourney]:
    """:func:`poollines.drivers.compute_driver_journeys` with one
    ``default_rng([seed, driver_id])`` built per driver and the nearest
    meeting points found by :func:`reference_nearest`."""
    return [
        _journey(
            d, reference_nearest(points.stops, d.origin),
            reference_nearest(points.stops, d.destination),
            model, tau, dwell_s, np.random.default_rng([seed, d.driver_id]),
        )
        for d in drivers
    ]


def reference_haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance via the atan2 form of the sphere formula.

    Deliberately not the half-sine form the package uses; stable at all
    separations, so it doubles as the check for tiny distances.
    """
    p1 = math.radians(a.lat)
    p2 = math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return SPHERE_RADIUS_KM * math.atan2(y, x)


def reference_nearest(stops, point: GeoPoint) -> Stop:
    """The meeting-point rule as a scalar scan: the stop at the smallest
    great-circle distance, the smaller stop_id on a tie."""
    return min(stops, key=lambda s: (haversine_km(point, s.position), s.stop_id))


def reference_road_km(a: GeoPoint, b: GeoPoint, model: TravelModel) -> float:
    return model.circuity * reference_haversine_km(a, b)


def _ceil_seconds(km: float, speed_kmh: float) -> int:
    return max(0, math.ceil(km * 3600.0 / speed_kmh - 1e-9))


def reference_walk_seconds(a: GeoPoint, b: GeoPoint, model: TravelModel) -> int:
    return _ceil_seconds(reference_road_km(a, b, model), model.walk_speed_kmh)


def reference_drive_seconds(a: GeoPoint, b: GeoPoint, model: TravelModel) -> int:
    return _ceil_seconds(reference_road_km(a, b, model), model.drive_speed_kmh)


def reference_path_km(points: list[GeoPoint], model: TravelModel) -> float:
    return sum(reference_road_km(a, b, model) for a, b in zip(points, points[1:]))


class OracleRouter:
    """Earliest arrival by closure over the materialised event graph.

    Events are the scheduled departures and arrivals of every hop.
    Timetable-only edges (stay on the vehicle, change at a stop after
    the buffer, walk a footpath link to a later departure) are listed
    explicitly up front; each query seeds the closure with departures
    walkable from the origin and reads off arrivals walkable to the
    destination.
    """

    def __init__(
        self,
        timetable: Timetable,
        model: TravelModel,
        footpath_links: list[tuple[str, str, int]],
        max_walk_km: float = 2.5,
        transfer_s: int = 60,
    ):
        self.model = model
        self.max_walk_km = max_walk_km
        self.stop_pos = {sid: s.position for sid, s in timetable.stops.items()}

        # Departure event: (trip_id, hop index i) leaving at stoptime i.
        # Arrival event: (trip_id, i) arriving at stoptime i, i >= 1.
        self.dep_events: list[tuple[str, int, str, int]] = []  # trip, i, stop, time
        self.arr_events: list[tuple[str, int, str, int]] = []
        for trip_id in sorted(timetable.stoptimes):
            sts = timetable.stoptimes[trip_id]
            if len(sts) < 2:
                continue
            for i, st in enumerate(sts):
                if i < len(sts) - 1:
                    self.dep_events.append((trip_id, i, st.stop_id, st.departure))
                if i > 0:
                    self.arr_events.append((trip_id, i, st.stop_id, st.arrival))

        deps_at: dict[str, list[int]] = {}
        for k, (_, _, stop, _) in enumerate(self.dep_events):
            deps_at.setdefault(stop, []).append(k)
        walk_from: dict[str, list[tuple[str, int]]] = {}
        for a, b, secs in footpath_links:
            walk_from.setdefault(a, []).append((b, secs))

        dep_index = {
            (trip, i): k for k, (trip, i, _, _) in enumerate(self.dep_events)
        }
        # arr_edges[j] lists departure events usable after arrival event j.
        self.arr_edges: list[list[int]] = []
        for trip, i, stop, t in self.arr_events:
            out: list[int] = []
            cont = dep_index.get((trip, i))
            if cont is not None:
                out.append(cont)
            for k in deps_at.get(stop, ()):
                if self.dep_events[k][3] >= t + transfer_s:
                    out.append(k)
            for other, secs in walk_from.get(stop, ()):
                for k in deps_at.get(other, ()):
                    if self.dep_events[k][3] >= t + secs:
                        out.append(k)
            self.arr_edges.append(sorted(set(out)))

        arr_index = {
            (trip, i): j for j, (trip, i, _, _) in enumerate(self.arr_events)
        }
        # dep_to_arr[k]: the arrival event the hop from departure k reaches.
        self.dep_to_arr = [
            arr_index[(trip, i + 1)] for trip, i, _, _ in self.dep_events
        ]

    def _endpoint_walk(self, point: GeoPoint, stop_id: str) -> int | None:
        km = reference_road_km(point, self.stop_pos[stop_id], self.model)
        if km > self.max_walk_km:
            return None
        return _ceil_seconds(km, self.model.walk_speed_kmh)

    def earliest_arrival(
        self,
        origin: GeoPoint,
        destination: GeoPoint,
        departure: int,
        allowed=None,
        banned: frozenset[str] = frozenset(),
    ) -> int:
        def usable(trip_id: str) -> bool:
            if trip_id in banned:
                return False
            return allowed is None or allowed(trip_id)

        best = departure + reference_walk_seconds(origin, destination, self.model)

        seed: list[int] = []
        access_cache: dict[str, int | None] = {}
        for k, (trip, _, stop, t) in enumerate(self.dep_events):
            if not usable(trip):
                continue
            if stop not in access_cache:
                access_cache[stop] = self._endpoint_walk(origin, stop)
            walk = access_cache[stop]
            if walk is not None and departure + walk <= t:
                seed.append(k)

        dep_reached = [False] * len(self.dep_events)
        arr_reached = [False] * len(self.arr_events)
        stack = list(seed)
        for k in seed:
            dep_reached[k] = True
        while stack:
            k = stack.pop()
            j = self.dep_to_arr[k]
            if arr_reached[j]:
                continue
            arr_reached[j] = True
            for k2 in self.arr_edges[j]:
                if not dep_reached[k2] and usable(self.dep_events[k2][0]):
                    dep_reached[k2] = True
                    stack.append(k2)

        egress_cache: dict[str, int | None] = {}
        for j, (trip, _, stop, t) in enumerate(self.arr_events):
            if not arr_reached[j]:
                continue
            if stop not in egress_cache:
                egress_cache[stop] = self._endpoint_walk(destination, stop)
            walk = egress_cache[stop]
            if walk is not None and t + walk < best:
                best = t + walk
        return best



class ReferencePlanner(Planner):
    """:class:`Planner` with the scan it had before the boarding label.

    The build is the package's, but for the footpaths: the scan reads
    every link from a stop some connection arrives at to one some
    connection leaves, as built by :func:`reference_build_footpaths`,
    not only the links some arrival can use; or exactly the
    ``footpaths`` it is given.  It keeps them as ``reference_footpaths``
    and looks a link up there by bisection, apart from the fan tables
    the package's planner holds.  The access and egress walks are
    computed to every stop, not to the stops a ball query finds, and the
    scan relaxes every footpath link of
    an improved arrival with a numpy mask, keeps a footpath label apart
    from the vehicle label, checks banned trips in a set and scans from
    the request's departure to the best arrival.  Its itineraries are
    the reference for the package's, leg for leg.
    """

    def __init__(
        self,
        timetable: Timetable,
        model: TravelModel,
        max_walk_km: float = DEFAULT_MAX_WALK_KM,
        transfer_s: int = DEFAULT_TRANSFER_S,
        footpaths: FootpathSet | None = None,
    ):
        super().__init__(timetable, model, max_walk_km, transfer_s, footpaths)
        if footpaths is None:
            footpaths = arriving_to_departing(
                timetable, reference_build_footpaths(timetable, model, max_walk_km)
            )
        self.reference_footpaths = footpaths

    def _footpath_seconds_km(self, from_idx: int, to_idx: int) -> tuple[int, float]:
        fp = self.reference_footpaths
        a, b = int(fp.starts[from_idx]), int(fp.starts[from_idx + 1])
        k = a + int(np.searchsorted(fp.targets[a:b], to_idx))
        if k >= b or int(fp.targets[k]) != to_idx:
            raise KeyError(f"no footpath between stop indices {from_idx} and {to_idx}")
        return int(fp.seconds[k]), float(fp.km[k])

    def _endpoint_links(self, point: GeoPoint) -> tuple[np.ndarray, np.ndarray]:
        """Walk seconds and km from a request endpoint to every stop.

        The dense computation the package had before its KD-tree ball
        query: one haversine over all stops, infinity beyond the cap.
        """
        hav = haversine_km_to_point(self._lat_r, self._lon_r, point)
        road = self.model.circuity * hav
        secs = np.maximum(0.0, np.ceil(road * 3600.0 / self.model.walk_speed_kmh - 1e-9))
        out_of_range = road > self.max_walk_km
        secs[out_of_range] = math.inf
        road = road.copy()
        road[out_of_range] = math.inf
        return secs, road

    def _request_links(self, req: PlanRequest) -> tuple[np.ndarray, ...] | None:
        """Access and egress walks of a request, shared by its alternatives.

        None when the feed has no stops, so the request can only walk.
        """
        if not self._stop_ids:
            return None
        return self._endpoint_links(req.origin) + self._endpoint_links(req.destination)

    def _solve(
        self,
        req: PlanRequest,
        banned: frozenset[int],
        links: tuple[np.ndarray, ...] | None,
        seed=None,
    ) -> tuple[Itinerary, None]:
        """The earliest arrival, and no scan record: ``seed`` is ignored,
        and every solve scans the whole window."""
        direct = self._walk_only(req)
        if links is None:
            return direct, None

        n = len(self._stop_ids)
        dep = req.departure
        best = direct.arrive
        best_stop = -1
        best_egress = math.inf
        access_s, access_km, egress_s, egress_km = links

        arr_foot = np.where(np.isfinite(access_s), dep + access_s, math.inf)
        foot_prev = np.full(n, -2, dtype=np.int64)
        foot_prev[np.isfinite(access_s)] = -1
        arr_veh = [math.inf] * n
        veh_conn = [-1] * n
        n_trips = len(self._trip_ids)
        boarded = bytearray(n_trips)
        board_conn = [-1] * n_trips

        dw = self.transfer_s
        c_dep_s = self._c_dep_s
        c_dep_t = self._c_dep_t
        c_arr_s = self._c_arr_s
        c_arr_t = self._c_arr_t
        c_trip = self._c_trip
        fp_starts = self.reference_footpaths.starts
        fp_targets = self.reference_footpaths.targets
        fp_seconds = self.reference_footpaths.seconds

        conns, times = self._mode_conns[req.mode]
        lo = int(np.searchsorted(times, dep, side="left"))
        for ci in conns[lo:]:
            t0 = c_dep_t[ci]
            if t0 > best:
                break
            ti = c_trip[ci]
            if ti in banned:
                continue
            if not boarded[ti]:
                s = c_dep_s[ci]
                if t0 >= arr_foot[s] or t0 >= arr_veh[s] + dw:
                    boarded[ti] = 1
                    board_conn[ti] = ci
                else:
                    continue
            at = c_arr_t[ci]
            sa = c_arr_s[ci]
            if at < arr_veh[sa]:
                arr_veh[sa] = at
                veh_conn[sa] = ci
                e = egress_s[sa]
                if e != math.inf:
                    cand = at + e
                    # Strict improvement, or an equal-time arrival with less
                    # egress walking; the direct walk keeps ties it already holds.
                    if cand < best or (cand == best and best_stop >= 0 and e < best_egress):
                        best = int(cand)
                        best_stop = sa
                        best_egress = e
                a = fp_starts[sa]
                b = fp_starts[sa + 1]
                if a != b:
                    idx = fp_targets[a:b]
                    cand_f = at + fp_seconds[a:b]
                    mask = cand_f < arr_foot[idx]
                    if mask.any():
                        hits = idx[mask]
                        arr_foot[hits] = cand_f[mask]
                        foot_prev[hits] = sa

        if best_stop < 0:
            return direct, None
        return self._reconstruct(
            req, best, best_stop, access_s, access_km, egress_s, egress_km,
            arr_foot, foot_prev, arr_veh, veh_conn, board_conn,
        ), None

    def _reconstruct(
        self, req, best, best_stop, access_s, access_km, egress_s, egress_km,
        arr_foot, foot_prev, arr_veh, veh_conn, board_conn,
    ) -> Itinerary:
        dep = req.departure
        dw = self.transfer_s
        legs_rev: list[Leg] = []
        legs_rev.append(
            Leg(
                kind="walk",
                start=int(arr_veh[best_stop]),
                end=int(arr_veh[best_stop] + egress_s[best_stop]),
                distance_km=float(egress_km[best_stop]),
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
            if access_s[sb] != math.inf and dep + access_s[sb] <= tb:
                legs_rev.append(
                    Leg(
                        kind="walk",
                        start=dep,
                        end=dep + int(access_s[sb]),
                        distance_km=float(access_km[sb]),
                        from_point=req.origin,
                        to_point=self._positions[sb],
                        to_stop=self._stop_ids[sb],
                    )
                )
                break
            if 0 <= veh_conn[sb] < bi and arr_veh[sb] + dw <= tb:
                stop = sb
                continue
            q = int(foot_prev[sb])
            if q < 0 or arr_foot[sb] > tb:
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


def footpaths_from_links(
    timetable: Timetable, links: list[tuple[str, str, int, float]]
) -> FootpathSet:
    """Build the CSR footpath structure from explicit directed links.

    ``links`` holds (from_stop, to_stop, seconds, km), in any order.
    """
    stop_ids = tuple(sorted(timetable.stops))
    index = {sid: i for i, sid in enumerate(stop_ids)}
    rows = sorted((index[a], index[b], s, km) for a, b, s, km in links)
    n = len(stop_ids)
    starts = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount([r[0] for r in rows], minlength=n) if rows else np.zeros(n, dtype=np.int64)
    starts[1:] = np.cumsum(counts)
    return FootpathSet(
        stop_ids=stop_ids,
        starts=starts,
        targets=np.array([r[1] for r in rows], dtype=np.int64),
        seconds=np.array([r[2] for r in rows], dtype=np.float64),
        km=np.array([r[3] for r in rows], dtype=np.float64),
    )


def footpath_links(fps: FootpathSet) -> list[tuple[str, str, float, float]]:
    """(from_stop, to_stop, seconds, km) for every directed link of the CSR arrays."""
    source = np.repeat(np.arange(len(fps.stop_ids)), np.diff(fps.starts))
    return [
        (fps.stop_ids[i], fps.stop_ids[j], s, km)
        for i, j, s, km in zip(
            source.tolist(), fps.targets.tolist(), fps.seconds.tolist(), fps.km.tolist()
        )
    ]


def arriving_to_departing(timetable: Timetable, fps: FootpathSet) -> FootpathSet:
    """The links of ``fps`` from a stop some hop of the timetable arrives
    at to a stop some hop leaves, whatever the times."""
    hops = [sts for sts in timetable.stoptimes.values() if len(sts) >= 2]
    arriving = {x.stop_id for sts in hops for x in sts[1:]}
    departing = {x.stop_id for sts in hops for x in sts[:-1]}
    return footpaths_from_links(
        timetable,
        [l for l in footpath_links(fps) if l[0] in arriving and l[1] in departing],
    )


def reference_build_footpaths(
    timetable: Timetable, model: TravelModel, max_walk_km: float = 2.5
) -> FootpathSet:
    """``build_footpaths`` the plain way: every pair of stops, as a Python
    list of link tuples, sorted.

    The same float arithmetic as the package, each pair computed from
    its lower-indexed stop, so the arrays must agree bit for bit; the
    package's KD-tree prefilter must drop no pair this keeps.
    """
    stop_ids = tuple(sorted(timetable.stops))
    n = len(stop_ids)
    starts = np.zeros(n + 1, dtype=np.int64)
    if n == 0 or max_walk_km <= 0:
        empty = np.zeros(0)
        return FootpathSet(stop_ids, starts, empty.astype(np.int64), empty, empty)

    lat_r = np.radians(np.array([timetable.stops[s].position.lat for s in stop_ids]))
    lon_r = np.radians(np.array([timetable.stops[s].position.lon for s in stop_ids]))
    a, b = np.triu_indices(n, 1)

    links: list[tuple[int, int, int, float]] = []
    if len(a):
        h = (
            np.sin((lat_r[b] - lat_r[a]) / 2.0) ** 2
            + np.cos(lat_r[a]) * np.cos(lat_r[b]) * np.sin((lon_r[b] - lon_r[a]) / 2.0) ** 2
        )
        road = model.circuity * (2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h)))
        keep = road <= max_walk_km
        raw = road[keep] * 3600.0 / model.walk_speed_kmh
        secs = np.maximum(0.0, np.ceil(raw - 1e-9)).astype(np.int64)
        for i, j, s, km in zip(a[keep], b[keep], secs, road[keep]):
            links.append((int(i), int(j), int(s), float(km)))
            links.append((int(j), int(i), int(s), float(km)))

    links.sort()
    counts = np.bincount([l[0] for l in links], minlength=n) if links else np.zeros(n, dtype=np.int64)
    starts[1:] = np.cumsum(counts)
    return FootpathSet(
        stop_ids,
        starts,
        np.array([l[1] for l in links], dtype=np.int64),
        np.array([l[2] for l in links], dtype=np.float64),
        np.array([l[3] for l in links], dtype=np.float64),
    )


def random_feed(rng: np.random.Generator, model: TravelModel):
    """A small random timetable plus symmetric footpath links.

    Hop times strictly increase, so no connection has zero duration;
    zero dwells at intermediate stops are allowed and exercised.  A
    quarter of the trips carry carpool trip ids.
    """
    n_stops = int(rng.integers(6, 16))
    stops = {}
    for i in range(n_stops):
        sid = f"S{i:02d}"
        stops[sid] = Stop(
            stop_id=sid,
            name=f"stop {i}",
            position=GeoPoint(
                45.0 + float(rng.uniform(0.0, 0.055)),
                -122.3 + float(rng.uniform(0.0, 0.078)),
            ),
        )
    stop_ids = sorted(stops)

    routes = {}
    trips = {}
    stoptimes = {}
    n_trips = int(rng.integers(3, 14))
    for ti in range(n_trips):
        if rng.random() < 0.25:
            trip_id = pool_trip_id(ti + 1)
            route_type = 3
        else:
            trip_id = f"T{ti:02d}"
            route_type = int(rng.choice([1, 3]))
        route_id = f"R{ti:02d}"
        routes[route_id] = Route(route_id=route_id, name=f"line {ti}", route_type=route_type)
        trips[trip_id] = Trip(trip_id=trip_id, route_id=route_id, service_id="ALL")
        length = int(rng.integers(2, 7))
        path = list(rng.choice(len(stop_ids), size=min(length, len(stop_ids)), replace=False))
        clock = int(rng.integers(8 * 3600, 10 * 3600))
        sts = []
        for seq, si in enumerate(path):
            arrival = clock
            if 0 < seq < len(path) - 1:
                clock += int(rng.integers(0, 121))
            departure = clock
            sts.append(
                GtfsStopTime(
                    trip_id=trip_id,
                    stop_id=stop_ids[int(si)],
                    arrival=arrival,
                    departure=departure,
                    stop_sequence=seq,
                )
            )
            clock += int(rng.integers(60, 900))
        stoptimes[trip_id] = tuple(sts)

    calendar = (
        CalendarRow(
            service_id="ALL",
            weekdays=(1,) * 7,
            start_date=20200101,
            end_date=20291231,
        ),
    )
    t = Timetable(
        stops=stops,
        routes=routes,
        trips=dict(sorted(trips.items())),
        stoptimes=dict(sorted(stoptimes.items())),
        calendar=calendar,
        calendar_dates=(),
        extra_files={},
    )

    links: list[tuple[str, str, int, float]] = []
    n_links = int(rng.integers(0, 11))
    seen = set()
    for _ in range(n_links):
        i, j = rng.choice(len(stop_ids), size=2, replace=False)
        a, b = stop_ids[int(min(i, j))], stop_ids[int(max(i, j))]
        if (a, b) in seen:
            continue
        seen.add((a, b))
        km = reference_road_km(stops[a].position, stops[b].position, model)
        if km > 2.5:
            continue
        secs = _ceil_seconds(km, model.walk_speed_kmh)
        links.append((a, b, secs, km))
        links.append((b, a, secs, km))
    return t, links


def random_endpoints(rng: np.random.Generator):
    origin = GeoPoint(
        45.0 + float(rng.uniform(-0.005, 0.06)),
        -122.3 + float(rng.uniform(-0.005, 0.083)),
    )
    destination = GeoPoint(
        45.0 + float(rng.uniform(-0.005, 0.06)),
        -122.3 + float(rng.uniform(-0.005, 0.083)),
    )
    departure = int(rng.integers(8 * 3600, int(10.5 * 3600)))
    return origin, destination, departure


class WholeTextTable:
    """The feed table reader of the package before it streamed: a reference.

    It reads the whole file as bytes, decodes them at once (``utf-8-sig``)
    and iterates ``csv.reader`` over ``io.StringIO`` of the text.  It has
    the interface of ``poollines.gtfs._Table``, so a parse can run on it
    in that class's place.
    """

    def __init__(self, source, name: str, required: bool):
        self.name = name
        raw = source.read_bytes(name)
        if raw is None and required:
            raise MissingFile(name)
        try:
            text = raw.decode("utf-8-sig") if raw else ""
        except UnicodeDecodeError as exc:
            line = exc.object[: exc.start].count(b"\n") + 1
            bad = exc.object[exc.start]
            raise MalformedRow(name, line, f"byte 0x{bad:02x} is not UTF-8") from None
        self._reader = csv.reader(io.StringIO(text))
        try:
            header = next(self._reader, [])
        except csv.Error as exc:
            raise self._unreadable(exc) from None
        self.header = header
        self.columns = {key.strip(): i for i, key in enumerate(header)}

    def _unreadable(self, exc: csv.Error) -> MalformedRow:
        reason = str(exc).split(" - ")[0]
        return MalformedRow(self.name, self._reader.line_num, f"unreadable CSV: {reason}")

    def __iter__(self):
        reader = self._reader
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except csv.Error as exc:
            raise self._unreadable(exc) from None

    def get(self, row: list[str], key: str) -> str:
        i = self.columns.get(key)
        return row[i].strip() if i is not None and i < len(row) else ""

    def need(self, row: list[str], key: str, line: int) -> str:
        value = self.get(row, key)
        if value == "":
            raise MalformedRow(self.name, line, f"missing value for {key!r}")
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def reference_parse_stoptimes(source, stops: dict, known_trips: dict, kept_trips: dict) -> dict:
    """``gtfs._parse_stoptimes`` with every row checked field by field: a reference.

    Each row's trip, stop, times and sequence are read by ``need``,
    stripped, and checked in that order, then departure against arrival;
    rows of trips not in ``kept_trips`` are dropped after their checks.
    A sequence is ASCII digits only, as the times' parts are: no sign,
    underscore or digit of another script.
    The table is read by ``gtfs._Table``, so a test can swap the reader.
    """
    grouped: dict = {}
    with gtfs._Table(source, "stop_times.txt", required=True) as table:
        for line, row in table:
            trip_id = table.need(row, "trip_id", line)
            if trip_id not in known_trips:
                raise DanglingReference("stop_times.txt", line, trip_id)
            stop_id = table.need(row, "stop_id", line)
            if stop_id not in stops:
                raise DanglingReference("stop_times.txt", line, stop_id)
            try:
                arrival = parse_gtfs_time(table.need(row, "arrival_time", line))
                departure = parse_gtfs_time(table.need(row, "departure_time", line))
                sequence_text = table.need(row, "stop_sequence", line)
                if not re.fullmatch("[0-9]+", sequence_text):
                    raise ValueError(f"invalid literal for int() with base 10: {sequence_text!r}")
                sequence = int(sequence_text)
            except ValueError as exc:
                raise MalformedRow("stop_times.txt", line, str(exc)) from None
            if departure < arrival:
                raise MalformedRow("stop_times.txt", line, "departure before arrival")
            if trip_id in kept_trips:
                rows, lines = grouped.setdefault(trip_id, ([], array("Q")))
                rows.append(GtfsStopTime(trip_id, stop_id, arrival, departure, sequence))
                lines.append(line)
    return grouped


def reference_read_csv(path: str | Path, header: list[str], parse: Callable[[list[str]], object]) -> tuple:
    """``scenario.read_csv`` as it was before it streamed: a reference.

    The whole file is read and decoded (plain ``utf-8``) at once, and
    ``csv.reader`` runs over ``io.StringIO`` of the text.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise ScenarioError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
    reader = csv.reader(io.StringIO(text))
    records = []
    try:
        column = {key.strip(): i for i, key in enumerate(next(reader, []))}
        missing = [key for key in header if key not in column]
        if missing:
            raise ScenarioError(f"{path}:1: missing column {missing[0]!r}")
        index = [column[key] for key in header]
        for row in reader:
            if row:
                records.append(parse([row[i].strip() if i < len(row) else "" for i in index]))
    except ValueError as exc:
        raise ScenarioError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:
        reason = str(exc).split(" - ")[0]
        raise ScenarioError(f"{path}:{reader.line_num}: unreadable CSV: {reason}") from None
    return tuple(records)

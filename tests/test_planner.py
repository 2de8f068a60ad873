import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poollines import planner as planner_module
from poollines.drivers import Driver, MeetingPointSet, compute_driver_journeys
from poollines.geo import GeoPoint, TravelModel, haversine_km_to_point, road_km, walk_seconds
from poollines.gtfs import GtfsStopTime, Route, Stop, Timetable, Trip
from poollines.injection import (
    destination_stop_id,
    inject_poollines,
    is_poolline_trip,
    origin_stop_id,
    pool_trip_id,
)
from poollines.planner import (
    FootpathSet,
    Itinerary,
    Planner,
    PlanMode,
    PlanRequest,
    _Scan,
    build_footpaths,
)

from oracles import (
    OracleRouter,
    ReferencePlanner,
    arriving_to_departing,
    footpath_links,
    footpaths_from_links,
    random_endpoints,
    random_feed,
    reference_build_footpaths,
    reference_road_km,
)

MODEL = TravelModel()

# A row of stops along latitude 45; neighbours 2.36 km apart so only
# deliberately placed pairs are within the 2.5 km walking cap.
P = GeoPoint(45.0, -122.30)
Q = GeoPoint(45.0, -122.27)
Q2 = GeoPoint(45.0, -122.268)  # 148 s walk from Q
R = GeoPoint(45.0, -122.24)


def make_timetable(stops, trips, route_types=None):
    """stops: {id: GeoPoint};  trips: {trip_id: [(stop_id, arr, dep), ...]}."""
    route_types = route_types or {}
    stop_objs = {sid: Stop(sid, sid.lower(), p) for sid, p in stops.items()}
    routes = {}
    trip_objs = {}
    stoptimes = {}
    for trip_id, calls in trips.items():
        route_id = f"R_{trip_id}"
        routes[route_id] = Route(route_id, route_id, route_types.get(trip_id, 3))
        trip_objs[trip_id] = Trip(trip_id, route_id, "ALL")
        stoptimes[trip_id] = tuple(
            GtfsStopTime(trip_id, sid, arr, dep, seq)
            for seq, (sid, arr, dep) in enumerate(calls)
        )
    return Timetable(stop_objs, routes, trip_objs, stoptimes, (), (), {})


def _ride_trips(it: Itinerary) -> list[str]:
    return [leg.trip_id for leg in it.ride_legs]


# ---- crafted transfer semantics -------------------------------------


def test_same_stop_change_needs_the_buffer():
    # T1 reaches Q at 1600.  T2 leaves Q at 1659, one second inside the
    # 60 s change buffer, so the slower T3 at 1660 is the connection.
    t = make_timetable(
        {"P": P, "Q": Q, "R": R},
        {
            "T1": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "T2": [("Q", 1659, 1659), ("R", 2000, 2000)],
            "T3": [("Q", 1660, 1660), ("R", 2400, 2400)],
        },
    )
    planner = Planner(t, MODEL)
    it = planner.earliest_arrival(PlanRequest(P, R, 1000))
    assert it.arrive == 2400
    assert _ride_trips(it) == ["T1", "T3"]


def test_same_stop_change_on_the_buffer_boundary():
    t = make_timetable(
        {"P": P, "Q": Q, "R": R},
        {
            "T1": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "T2": [("Q", 1660, 1660), ("R", 2000, 2000)],
        },
    )
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(P, R, 1000))
    assert it.arrive == 2000
    assert _ride_trips(it) == ["T1", "T2"]


def test_footpath_change_needs_no_buffer():
    # Walking Q to Q2 takes 148 s; a departure at exactly 1600 + 148 is
    # reachable, one second earlier is not.
    t = make_timetable(
        {"P": P, "Q": Q, "Q2": Q2, "R": R},
        {
            "T1": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "T4": [("Q2", 1748, 1748), ("R", 2600, 2600)],
            "T5": [("Q2", 1747, 1747), ("R", 2000, 2000)],
        },
    )
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(P, R, 1000))
    assert it.arrive == 2600
    assert _ride_trips(it) == ["T1", "T4"]
    walk_legs = [leg for leg in it.legs if leg.kind == "walk" and leg.from_stop == "Q"]
    assert walk_legs and walk_legs[0].duration_s == 148


def test_footpath_to_a_stop_left_before_the_arrival_is_not_ridden():
    # Q0 and Q1 stand where Q does, so both footpaths from Q take 0 s.
    # Q1's only departure leaves one second before A reaches Q, so the
    # scan cuts that link; Q0's leaves on the arrival, so it stays.
    t = make_timetable(
        {"P": P, "Q": Q, "Q0": Q, "Q1": Q, "R": R},
        {
            "A": [("P", 900, 900), ("Q", 1000, 1000)],
            "B": [("Q1", 999, 999), ("R", 1100, 1100)],
            "C": [("Q0", 1000, 1000), ("R", 1800, 1800)],
        },
    )
    req = PlanRequest(P, R, 880)
    for transfer_s in (0, 60):
        planner = Planner(t, MODEL, transfer_s=transfer_s)
        it = planner.earliest_arrival(req)
        assert _ride_trips(it) == ["A", "C"]
        assert it.arrive == 1800
        assert [(l.from_stop, l.to_stop, l.start, l.end) for l in it.legs if l.kind == "walk"][1] == (
            "Q", "Q0", 1000, 1000
        )
        reference = ReferencePlanner(t, MODEL, transfer_s=transfer_s)
        assert list(planner.iter_itineraries(req)) == list(reference.iter_itineraries(req))


def test_a_trip_back_at_its_boarding_stop_is_no_change_onto_itself():
    # U reaches Q at 1300, and Q2 is a 148 s walk on.  T leaves Q2 at
    # 1600, is back at Q2 at 1600 by way of D, and runs on to R.  With
    # no change buffer, T's own return to Q2 arrives by T's boarding but
    # is no change onto T: taking it as one loops forever, hence the 1 s
    # limit.
    d = GeoPoint(45.05, -122.268)
    t = make_timetable(
        {"A": P, "Q": Q, "Q2": Q2, "D": d, "R": R},
        {
            "U": [("A", 1000, 1000), ("Q", 1300, 1300)],
            "T": [("Q2", 1600, 1600), ("D", 1600, 1600), ("Q2", 1600, 1600), ("R", 2500, 2500)],
        },
    )
    req = PlanRequest(P, R, 900)

    def too_slow(*_):
        raise TimeoutError("earliest_arrival did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        it = Planner(t, MODEL, transfer_s=0).earliest_arrival(req)
        reference = ReferencePlanner(t, MODEL, transfer_s=0).earliest_arrival(req)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert it == reference
    assert it.arrive == 2500
    assert [(l.kind, l.from_stop, l.to_stop) for l in it.legs[1:-1]] == [
        ("transit", "A", "Q"), ("walk", "Q", "Q2"), ("transit", "Q2", "R"),
    ]


def test_equal_footpath_arrivals_keep_the_first_source():
    # A1 and A2 lie the same walk west and east of Q.  TA reaches A1 and
    # TB reaches A2 at 1000, so both walks reach Q at the same time; TA
    # is scanned first (it departs first), and the change walks from A1.
    a1, a2 = GeoPoint(45.0, -122.275), GeoPoint(45.0, -122.265)
    assert walk_seconds(a1, Q, MODEL) == walk_seconds(a2, Q, MODEL)
    t = make_timetable(
        {"P": P, "A1": a1, "A2": a2, "Q": Q, "R": R},
        {
            "TA": [("P", 900, 900), ("A1", 1000, 1000)],
            "TB": [("P", 950, 950), ("A2", 1000, 1000)],
            "TC": [("Q", 1500, 1500), ("R", 2000, 2000)],
        },
    )
    req = PlanRequest(P, R, 800)
    planner = Planner(t, MODEL)
    it = planner.earliest_arrival(req)
    assert _ride_trips(it) == ["TA", "TC"]
    assert [(l.from_stop, l.to_stop) for l in it.legs if l.kind == "walk"][1] == ("A1", "Q")
    reference = ReferencePlanner(t, MODEL)
    assert list(planner.iter_itineraries(req)) == list(reference.iter_itineraries(req))


def test_egress_tie_at_the_end_of_the_scan_window_goes_to_the_shorter_walk():
    # TX reaches X, a long walk from R.  TY leaves on the last second of
    # the scan window (the best arrival less the shortest egress walk)
    # and reaches Y, a short walk from R, at the same arrival at R
    # through a zero-duration hop.  The tie goes to the shorter walk.
    x, y = GeoPoint(45.0, -122.25), GeoPoint(45.0, -122.241)
    e_x, e_y = walk_seconds(x, R, MODEL), walk_seconds(y, R, MODEL)
    assert e_y < e_x
    best = 2000 + e_x
    t = make_timetable(
        {"P": P, "X": x, "Y": y},
        {
            "TX": [("P", 1000, 1000), ("X", 2000, 2000)],
            "TY": [("P", best - e_y, best - e_y), ("Y", best - e_y, best - e_y)],
        },
    )
    req = PlanRequest(P, R, 900)
    planner = Planner(t, MODEL)
    it = planner.earliest_arrival(req)
    assert it.arrive == best
    assert _ride_trips(it) == ["TY"]
    reference = ReferencePlanner(t, MODEL)
    assert list(planner.iter_itineraries(req)) == list(reference.iter_itineraries(req))


def test_footpath_label_on_the_scan_limit_is_boarded():
    # As above, TY leaves on the last second of the scan window and ties
    # TX's arrival with a shorter egress walk.  It leaves Y0, which only
    # a 0 s footpath from W reaches, exactly on that second; TZ leaves
    # Y0 later, so the link is cut at the limit, not at Y0's departure.
    x, y = GeoPoint(45.0, -122.25), GeoPoint(45.0, -122.241)
    g = GeoPoint(45.03, -122.27)  # out of walking range of P and R
    e_x, e_y = walk_seconds(x, R, MODEL), walk_seconds(y, R, MODEL)
    assert e_y < e_x
    best = 2000 + e_x
    limit = best - e_y
    t = make_timetable(
        {"P": P, "X": x, "Y": y, "W": g, "Y0": g},
        {
            "TX": [("P", 1000, 1000), ("X", 2000, 2000)],
            "TW": [("P", 1100, 1100), ("W", limit, limit)],
            "TY": [("Y0", limit, limit), ("Y", limit, limit)],
            "TZ": [("Y0", limit + 500, limit + 500), ("P", limit + 900, limit + 900)],
        },
    )
    req = PlanRequest(P, R, 900)
    planner = Planner(t, MODEL)
    it = planner.earliest_arrival(req)
    assert it.arrive == best
    assert _ride_trips(it) == ["TW", "TY"]
    reference = ReferencePlanner(t, MODEL)
    assert list(planner.iter_itineraries(req)) == list(reference.iter_itineraries(req))


def test_custom_transfer_buffer_is_honoured():
    t = make_timetable(
        {"P": P, "Q": Q, "R": R},
        {
            "T1": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "T2": [("Q", 1659, 1659), ("R", 2000, 2000)],
        },
    )
    relaxed = Planner(t, MODEL, transfer_s=59)
    assert relaxed.earliest_arrival(PlanRequest(P, R, 1000)).arrive == 2000


def test_cannot_board_before_departure_time():
    t = make_timetable(
        {"P": P, "R": R},
        {"T1": [("P", 999, 999), ("R", 1200, 1200)]},
    )
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(P, R, 1000))
    assert not it.ride_legs  # the 999 departure is gone, walk instead


# ---- walking --------------------------------------------------------


def test_direct_walk_when_no_service_helps():
    t = make_timetable({"P": P, "R": R}, {})
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(P, R, 1000))
    assert it.arrive == 1000 + 4416
    assert [leg.kind for leg in it.legs] == ["walk"]
    assert it.total_walk_km == pytest.approx(reference_road_km(P, R, MODEL), rel=1e-9)


def test_zero_length_request():
    t = make_timetable({"P": P}, {})
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(P, P, 500))
    assert it.arrive == it.depart == 500
    assert it.total_walk_km == 0.0


def test_tie_with_direct_walk_stays_on_foot():
    # B is one road-kilometre from A, a 720 s walk.  A bus arriving at
    # exactly the same second must not displace the walk.
    a = GeoPoint(45.0, -122.30)
    b = GeoPoint(45.0, -122.29021668419001)
    t = make_timetable(
        {"A": a, "B": b},
        {"BUS": [("A", 5100, 5100), ("B", 5720, 5720)]},
    )
    it = Planner(t, MODEL).earliest_arrival(PlanRequest(a, b, 5000))
    assert it.arrive == 5720
    assert not it.ride_legs

    t2 = make_timetable(
        {"A": a, "B": b},
        {"BUS": [("A", 5100, 5100), ("B", 5719, 5719)]},
    )
    it2 = Planner(t2, MODEL).earliest_arrival(PlanRequest(a, b, 5000))
    assert it2.arrive == 5719
    assert _ride_trips(it2) == ["BUS"]


# ---- plan modes -----------------------------------------------------


def test_each_mode_walks_to_the_stops_its_own_vehicles_leave():
    # A carpool and a bus both reach Q.  A short walk away, only a carpool
    # leaves Q2 and only a bus leaves Q3.
    q3 = GeoPoint(45.0, -122.272)
    t = make_timetable(
        {"P": P, "Q": Q, "Q2": Q2, "Q3": q3, "R": R},
        {
            "11622387001": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "11622387002": [("Q2", 1900, 1900), ("R", 2600, 2600)],
            "T1": [("P", 1000, 1000), ("Q", 1600, 1600)],
            "T2": [("Q3", 1900, 1900), ("R", 2700, 2700)],
        },
    )
    planner = Planner(t, MODEL)
    reference = ReferencePlanner(t, MODEL)
    want = {
        PlanMode.TRANSIT: (2600, "11622387002"),
        PlanMode.TRANSIT_NO_POOL: (2700, "T2"),
        PlanMode.POOL_ONLY: (2600, "11622387002"),
    }
    for mode, (arrive, last_trip) in want.items():
        req = PlanRequest(P, R, 900, mode=mode)
        it = planner.earliest_arrival(req)
        assert (it.arrive, _ride_trips(it)[-1]) == (arrive, last_trip)
        assert len(it.ride_legs) == 2
        assert list(planner.iter_itineraries(req)) == list(reference.iter_itineraries(req))


def _mode_fixture():
    return make_timetable(
        {"P": P, "R": R},
        {
            "11622387001": [("P", 5100, 5100), ("R", 5400, 5400)],
            "TR1": [("P", 5100, 5100), ("R", 5700, 5700)],
        },
    )


def test_modes_select_vehicle_classes():
    planner = Planner(_mode_fixture(), MODEL)
    full = planner.earliest_arrival(PlanRequest(P, R, 5000, mode=PlanMode.TRANSIT))
    assert full.arrive == 5400
    assert full.ride_legs[0].kind == "carpool"
    assert full.carpool_legs and not full.transit_legs

    timetabled = planner.earliest_arrival(
        PlanRequest(P, R, 5000, mode=PlanMode.TRANSIT_NO_POOL)
    )
    assert timetabled.arrive == 5700
    assert _ride_trips(timetabled) == ["TR1"]
    assert timetabled.ride_legs[0].kind == "transit"

    pool = planner.earliest_arrival(PlanRequest(P, R, 5000, mode=PlanMode.POOL_ONLY))
    assert _ride_trips(pool) == ["11622387001"]


# ---- alternatives ---------------------------------------------------


def test_alternatives_ban_the_first_trip():
    t = make_timetable(
        {"P": P, "R": R},
        {
            "FAST": [("P", 5100, 5100), ("R", 5400, 5400)],
            "SLOW": [("P", 5200, 5200), ("R", 6000, 6000)],
        },
    )
    plans = list(Planner(t, MODEL).iter_itineraries(PlanRequest(P, R, 5000)))
    assert [_ride_trips(it) for it in plans] == [["FAST"], ["SLOW"], []]
    assert [it.arrive for it in plans] == sorted(it.arrive for it in plans)


def test_single_useful_trip_gives_two_itineraries():
    t = make_timetable(
        {"P": P, "R": R},
        {"ONLY": [("P", 5100, 5100), ("R", 5400, 5400)]},
    )
    plans = list(Planner(t, MODEL).iter_itineraries(PlanRequest(P, R, 5000)))
    assert len(plans) == 2
    assert _ride_trips(plans[0]) == ["ONLY"]
    assert not plans[1].ride_legs


def test_num_itineraries_caps_the_list():
    t = make_timetable(
        {"P": P, "R": R},
        {"ONLY": [("P", 5100, 5100), ("R", 5400, 5400)]},
    )
    planner = Planner(t, MODEL)
    assert len(list(planner.iter_itineraries(PlanRequest(P, R, 5000, num_itineraries=1)))) == 1
    only = list(planner.iter_itineraries(PlanRequest(P, R, 5000, num_itineraries=1)))[0]
    assert _ride_trips(only) == ["ONLY"]


def test_no_service_yields_single_walk_plan():
    t = make_timetable({"P": P, "R": R}, {})
    plans = list(Planner(t, MODEL).iter_itineraries(PlanRequest(P, R, 5000)))
    assert len(plans) == 1
    assert not plans[0].ride_legs


# ---- random sweeps against the event-graph oracle -------------------


def test_matches_event_graph_oracle():
    checked = 0
    for feed_i in range(40):
        rng = np.random.default_rng([6060, feed_i])
        t, links = random_feed(rng, MODEL)
        planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
        oracle = OracleRouter(t, MODEL, [(a, b, s) for a, b, s, _ in links])
        for _ in range(10):
            org, dst, dep = random_endpoints(rng)
            for mode, allowed in (
                (PlanMode.TRANSIT, None),
                (PlanMode.TRANSIT_NO_POOL, lambda tid: not is_poolline_trip(tid)),
                (PlanMode.POOL_ONLY, is_poolline_trip),
            ):
                got = planner.earliest_arrival(PlanRequest(org, dst, dep, mode=mode))
                want = oracle.earliest_arrival(org, dst, dep, allowed=allowed)
                assert got.arrive == want
                checked += 1
    assert checked == 1200


def test_itinerary_structure_on_random_feeds():
    for feed_i in range(25):
        rng = np.random.default_rng([717, feed_i])
        t, links = random_feed(rng, MODEL)
        planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
        for _ in range(8):
            org, dst, dep = random_endpoints(rng)
            req = PlanRequest(org, dst, dep)
            plans = list(planner.iter_itineraries(req))
            assert 1 <= len(plans) <= req.num_itineraries
            walk_arrive = plans[-1].arrive if not plans[-1].ride_legs else None
            sigs = set()
            previous_arrive = None
            for it in plans:
                assert it.depart == dep
                assert it.legs[-1].end == it.arrive
                assert it.total_wait_s >= 0
                assert it.arrive - it.depart == sum(l.duration_s for l in it.legs) + it.total_wait_s
                for a, b in zip(it.legs, it.legs[1:]):
                    assert b.start >= a.end
                    assert b.from_point == a.to_point
                if previous_arrive is not None:
                    assert it.arrive >= previous_arrive
                previous_arrive = it.arrive
                sig = tuple((l.kind, l.trip_id, l.start, l.end) for l in it.legs)
                assert sig not in sigs
                sigs.add(sig)
                if walk_arrive is not None:
                    assert it.arrive <= walk_arrive
            assert plans[0].arrive == planner.earliest_arrival(req).arrive
            if len(plans) < req.num_itineraries:
                assert not plans[-1].ride_legs  # walk closes a short list


def test_leaving_later_never_arrives_earlier():
    for feed_i in range(20):
        rng = np.random.default_rng([888, feed_i])
        t, links = random_feed(rng, MODEL)
        planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
        for _ in range(6):
            org, dst, dep = random_endpoints(rng)
            delta = int(rng.integers(1, 1800))
            early = planner.earliest_arrival(PlanRequest(org, dst, dep))
            late = planner.earliest_arrival(PlanRequest(org, dst, dep + delta))
            assert late.arrive >= early.arrive


def test_more_service_never_hurts():
    for feed_i in range(15):
        rng = np.random.default_rng([999, feed_i])
        t, links = random_feed(rng, MODEL)
        if len(t.trips) < 2:
            continue
        kept = sorted(t.trips)[: len(t.trips) // 2]
        sub = Timetable(
            t.stops,
            t.routes,
            {k: t.trips[k] for k in kept},
            {k: t.stoptimes[k] for k in kept},
            t.calendar,
            t.calendar_dates,
            {},
        )
        full_planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
        sub_planner = Planner(sub, MODEL, footpaths=footpaths_from_links(sub, links))
        for _ in range(6):
            org, dst, dep = random_endpoints(rng)
            full = full_planner.earliest_arrival(PlanRequest(org, dst, dep))
            part = sub_planner.earliest_arrival(PlanRequest(org, dst, dep))
            assert full.arrive <= part.arrive


def test_planning_is_deterministic():
    rng = np.random.default_rng([31337, 0])
    t, links = random_feed(rng, MODEL)
    a = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
    b = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
    for _ in range(10):
        org, dst, dep = random_endpoints(rng)
        req = PlanRequest(org, dst, dep)
        assert list(a.iter_itineraries(req)) == list(b.iter_itineraries(req))


# ---- footpath construction ------------------------------------------


def test_footpaths_match_quadratic_scan():
    for case in range(10):
        rng = np.random.default_rng([2525, case])
        stops = {
            f"S{k:02d}": Stop(
                f"S{k:02d}",
                "s",
                GeoPoint(
                    45.0 + float(rng.uniform(0, 0.06)), -122.3 + float(rng.uniform(0, 0.09))
                ),
            )
            for k in range(40)
        }
        t = Timetable(stops, {}, {}, {}, (), (), {})
        fps = build_footpaths(t, MODEL, max_walk_km=2.5)

        expected = set()
        ids = sorted(stops)
        for i, sa in enumerate(ids):
            for j, sb in enumerate(ids):
                if i == j:
                    continue
                km = reference_road_km(stops[sa].position, stops[sb].position, MODEL)
                if km <= 2.5:
                    expected.add((sa, sb))
        links = footpath_links(fps)
        got = {(a, b) for a, b, _, _ in links}
        assert got == expected
        for a, b, secs, km in links:
            assert km <= 2.5
            assert km == pytest.approx(
                reference_road_km(stops[a].position, stops[b].position, MODEL), rel=1e-9
            )
            assert (b, a) in got  # symmetric


def test_footpath_cap_zero_means_no_links():
    rng = np.random.default_rng(4)
    stops = {
        f"S{k}": Stop(f"S{k}", "s", GeoPoint(45.0, -122.3 + 0.001 * k)) for k in range(5)
    }
    t = Timetable(stops, {}, {}, {}, (), (), {})
    assert len(build_footpaths(t, MODEL, max_walk_km=0.0).targets) == 0


def _stops(points) -> dict[str, Stop]:
    return {f"S{k:03d}": Stop(f"S{k:03d}", "s", GeoPoint(lat, lon)) for k, (lat, lon) in enumerate(points)}


@st.composite
def _stop_sets(draw):
    """Stops in a 5 km box, some of them repeated, plus a few far away."""
    near = st.tuples(st.floats(45.0, 45.045), st.floats(-122.3, -122.236))
    points = draw(st.lists(near, max_size=30))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    points += draw(st.lists(st.tuples(st.floats(46.0, 47.0), st.floats(-120.0, -119.0)), max_size=2))
    return _stops(points)


# Block sizes of the footpath build: one source a block, a few, and the
# package's, which covers every drawn stop set in one block.
_BLOCKS = st.sampled_from([1, 3, planner_module._FOOTPATH_BLOCK])


def _build_in_blocks(block: int, *args) -> FootpathSet:
    """``build_footpaths(*args)`` with ``block`` source stops per KD query."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner_module, "_FOOTPATH_BLOCK", block)
        return build_footpaths(*args)


@settings(deadline=None)
@given(stops=_stop_sets(), cap=st.sampled_from([0.0, 0.4, 2.5]), block=_BLOCKS)
@example(stops={}, cap=2.5, block=1)
# Two stops at one point (a zero-length link) and an isolated stop.
@example(stops=_stops([(45.01, -122.29), (45.01, -122.29), (46.5, -119.5)]), cap=2.5, block=1)
def test_footpaths_equal_the_tuple_sort_reference_bit_for_bit(stops, cap, block):
    t = Timetable(stops, {}, {}, {}, (), (), {})
    _assert_bit_identical(
        _build_in_blocks(block, t, MODEL, cap),
        reference_build_footpaths(t, MODEL, max_walk_km=cap),
    )


def test_footpaths_keep_walkable_links_on_a_feed_spanning_many_latitudes():
    # B lies 1.8 great-circle km due east of A at 60°N: 2.34 road km, under
    # the 2.5 km cap.  Ten stops near the equator put the feed's mean
    # latitude far south of A, where a flat projection there shrinks no
    # distance but stretches A-B past any fixed margin.
    lat, lon = 60.0, 10.0
    dlon = np.degrees(2 * np.arcsin(np.sin(1.8 / 2 / 6371.0088) / np.cos(np.radians(lat))))
    pair = [(lat, lon), (lat, lon + float(dlon))]
    south = [(0.1 * k, 10.0 + 5.0 * k) for k in range(10)]
    for points in (pair, pair + south):
        t = Timetable(_stops(points), {}, {}, {}, (), (), {})
        links = {(a, b): km for a, b, _, km in footpath_links(build_footpaths(t, MODEL))}
        assert set(links) >= {("S000", "S001"), ("S001", "S000")}
        assert links["S000", "S001"] == pytest.approx(2.34, abs=1e-6)
        _assert_bit_identical(build_footpaths(t, MODEL), reference_build_footpaths(t, MODEL))


def _assert_bit_identical(got: FootpathSet, want: FootpathSet) -> None:
    assert got.stop_ids == want.stop_ids
    for name in ("starts", "targets", "seconds", "km"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _usable(links, first: dict[str, int], last: dict[str, int]) -> list:
    """The links a→b some arrival can use, in plain Python: b's last
    departure is no earlier than a's first arrival plus the walk."""
    return [
        l for l in links
        if l[0] in first and l[1] in last and first[l[0]] + l[2] <= last[l[1]]
    ]


def _first_and_last(t: Timetable, allowed=None) -> tuple[dict[str, int], dict[str, int]]:
    """Each stop's first hop arrival and last hop departure, over the
    trips ``allowed`` passes (all without it)."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for trip_id, sts in t.stoptimes.items():
        if allowed is None or allowed(trip_id):
            for a, b in zip(sts, sts[1:]):
                first[b.stop_id] = min(first.get(b.stop_id, b.arrival), b.arrival)
                last[a.stop_id] = max(last.get(a.stop_id, a.departure), a.departure)
    return first, last


@settings(deadline=None)
@given(
    stops=_stop_sets(),
    cap=st.sampled_from([0.0, 0.4, 2.5]),
    times=st.lists(st.tuples(st.none() | st.integers(0, 900), st.none() | st.integers(0, 900)), max_size=40),
    block=_BLOCKS,
)
# Co-located stops: zero-length links both ways, usable exactly when the
# departure is on the arrival, and no link from a stop to itself.
@example(
    stops=_stops([(45.01, -122.29)] * 3 + [(45.011, -122.29), (46.5, -119.5)]),
    cap=2.5,
    times=[(100, 100), (100, 99), (None, 100), (0, None), (0, 900)],
    block=1,
)
@example(stops=_stops([(45.01, -122.29)] * 2), cap=0.4, times=[(5, None), (None, 5)], block=1)
def test_timed_footpaths_equal_the_reference_cut_by_the_rule_bit_for_bit(stops, cap, times, block):
    """(first arrival, last departure) per stop, None where nothing
    arrives or leaves; stops beyond the drawn times get (0, 900)."""
    t = Timetable(stops, {}, {}, {}, (), (), {})
    ids = sorted(stops)
    times = (times + [(0, 900)] * len(ids))[: len(ids)]
    first = {sid: a for sid, (a, _) in zip(ids, times) if a is not None}
    last = {sid: d for sid, (_, d) in zip(ids, times) if d is not None}
    first_arrival = np.array([np.inf if a is None else a for a, _ in times], dtype=np.float64)
    last_departure = np.array([-np.inf if d is None else d for _, d in times], dtype=np.float64)
    got = _build_in_blocks(block, t, MODEL, cap, first_arrival, last_departure)
    reference = footpath_links(reference_build_footpaths(t, MODEL, cap))
    _assert_bit_identical(got, footpaths_from_links(t, _usable(reference, first, last)))
    source = np.repeat(np.arange(len(stops)), np.diff(got.starts))
    assert not np.any(source == got.targets)
    zero = got.km == 0.0
    assert got.seconds[zero].tobytes() == np.zeros(int(zero.sum())).tobytes()


@settings(deadline=None, max_examples=60)
@given(feed_seed=st.integers(0, 2**32 - 1), copies=st.integers(0, 2))
def test_scan_order_equals_a_tuple_sort(feed_seed, copies):
    t, _ = random_feed(np.random.default_rng(feed_seed), MODEL)
    # Copies of every trip share its times, so departure and arrival ties
    # are broken by trip and position.
    stoptimes = dict(t.stoptimes)
    for k in range(copies):
        for trip_id, sts in t.stoptimes.items():
            copy_id = f"{trip_id}_copy{k}"
            stoptimes[copy_id] = tuple(
                GtfsStopTime(copy_id, x.stop_id, x.arrival, x.departure, x.stop_sequence) for x in sts
            )
    trips = {tid: Trip(tid, "R00", "ALL") for tid in stoptimes}
    t = Timetable(t.stops, t.routes, trips, stoptimes, t.calendar, (), {})
    planner = Planner(t, MODEL)

    index = {sid: i for i, sid in enumerate(sorted(t.stops))}
    rows = []
    ridden = [tid for tid in sorted(stoptimes) if len(stoptimes[tid]) >= 2]
    for ti, trip_id in enumerate(ridden):
        sts = stoptimes[trip_id]
        for pos, (a, b) in enumerate(zip(sts, sts[1:])):
            rows.append((a.departure, b.arrival, ti, pos, index[a.stop_id], index[b.stop_id]))
    rows.sort()
    want = [list(column) for column in zip(*rows)] if rows else [[]] * 6
    got = [planner._c_dep_t, planner._c_arr_t, planner._c_trip, planner._c_pos,
           planner._c_dep_s, planner._c_arr_s]
    assert got == want
    assert all(type(v) is int for column in got for v in column)

    usable = _usable(footpath_links(reference_build_footpaths(t, MODEL)), *_first_and_last(t))
    _assert_bit_identical(planner.footpaths, footpaths_from_links(t, usable))


_MODE_TRIPS = (
    (PlanMode.TRANSIT, None),
    (PlanMode.TRANSIT_NO_POOL, lambda tid: not is_poolline_trip(tid)),
    (PlanMode.POOL_ONLY, is_poolline_trip),
)


@settings(deadline=None, max_examples=60)
@given(feed_seed=st.integers(0, 2**32 - 1))
def test_planner_keeps_exactly_the_readable_footpaths(feed_seed):
    """A footpaths argument is cut to the links some arrival can use."""
    t, links = random_feed(np.random.default_rng(feed_seed), MODEL)
    planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
    assert footpath_links(planner.footpaths) == sorted(_usable(links, *_first_and_last(t)))


def test_planner_holds_its_links_only_in_the_fan_tables():
    """No FootpathSet is stored: ``footpaths`` is rebuilt on each read,
    and TRANSIT's departure times are the connection list itself."""
    t, links = random_feed(np.random.default_rng(3), MODEL)
    planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
    assert len(planner.footpaths.targets) > 0
    assert not any(isinstance(v, FootpathSet) for v in vars(planner).values())
    assert planner.footpaths is not planner.footpaths
    assert planner._mode_conns[PlanMode.TRANSIT][1] is planner._c_dep_t


@settings(deadline=None, max_examples=60)
@given(feed_seed=st.integers(0, 2**32 - 1), query_seed=st.integers(0, 2**32 - 1))
def test_every_mode_and_alternative_equals_the_oracle(feed_seed, query_seed):
    t, links = random_feed(np.random.default_rng(feed_seed), MODEL)
    planner = Planner(t, MODEL, footpaths=footpaths_from_links(t, links))
    oracle = OracleRouter(t, MODEL, [(a, b, s) for a, b, s, _ in links])
    org, dst, dep = random_endpoints(np.random.default_rng(query_seed))
    for mode, allowed in _MODE_TRIPS:
        req = PlanRequest(org, dst, dep, mode=mode)
        assert planner.earliest_arrival(req).arrive == oracle.earliest_arrival(
            org, dst, dep, allowed=allowed
        )
        # Each alternative is the earliest arrival without the trips banned so far.
        banned: set[str] = set()
        for it in planner.iter_itineraries(req):
            if not it.ride_legs:
                break
            assert it.arrive == oracle.earliest_arrival(
                org, dst, dep, allowed=allowed, banned=frozenset(banned)
            )
            banned.add(it.ride_legs[0].trip_id)


def _near_stop(rng: np.random.Generator, t: Timetable) -> GeoPoint:
    """A point within about 400 m of a random stop of the feed."""
    stop = t.stops[sorted(t.stops)[int(rng.integers(len(t.stops)))]].position
    return GeoPoint(
        stop.lat + float(rng.uniform(-0.004, 0.004)), stop.lon + float(rng.uniform(-0.004, 0.004))
    )


def _near_arrival(rng: np.random.Generator, t: Timetable, lo: int, hi: int) -> int:
    """A random stoptime arrival of the feed shifted by ``[lo, hi)`` seconds."""
    times = sorted(x.arrival for sts in t.stoptimes.values() for x in sts)
    return max(0, times[int(rng.integers(len(times)))] + int(rng.integers(lo, hi)))


def _feed_with_drivers(rng: np.random.Generator, drivers: int) -> Timetable:
    """A ``random_feed`` timetable with driver journeys injected as poollines.

    Every injected trip adds a ``DRIVER_origin_`` stop that exactly one
    connection leaves.  Drivers start near stops, around the times the
    feed's vehicles arrive, so footpaths lead to their origins both
    before and after they leave.  Meeting points are all the feed's
    stops, and a wide detour budget lets most journeys call at some.
    """
    t, _ = random_feed(rng, MODEL)
    agents = []
    for k in range(drivers):
        departure = _near_arrival(rng, t, -300, 900)
        agents.append(Driver(100 + k, _near_stop(rng, t), _near_stop(rng, t), departure, departure))
    points = MeetingPointSet(tuple(t.stops.values()))
    journeys = compute_driver_journeys(agents, points, MODEL, tau=1.0, seed=drivers)
    return inject_poollines(t, journeys)


def _leg_bits(plans: list[Itinerary]) -> list[tuple]:
    """Every field of every leg, with kilometres as exact bit patterns."""
    return [
        (
            it.depart, it.arrive, it.total_wait_s, it.total_walk_km.hex(),
            tuple(
                (l.kind, l.trip_id, l.from_stop, l.to_stop, l.start, l.end,
                 l.distance_km.hex(), l.from_point, l.to_point)
                for l in it.legs
            ),
        )
        for it in plans
    ]


@settings(deadline=None, max_examples=60)
@given(
    feed_seed=st.integers(0, 2**32 - 1),
    drivers=st.integers(0, 16),
    query_seed=st.integers(0, 2**32 - 1),
    transfer_s=st.sampled_from([0, 60]),
)
def test_every_mode_and_alternative_equals_the_reference_scan_leg_for_leg(
    feed_seed, drivers, query_seed, transfer_s
):
    """The reference scan relaxes every link from a stop a vehicle
    arrives at to one a vehicle leaves; the planner keeps only the links
    some arrival can use.  Dropping the others changes no itinerary."""
    t = _feed_with_drivers(np.random.default_rng(feed_seed), drivers)
    assert all(origin_stop_id(100 + k) in t.stops for k in range(drivers))
    planner = Planner(t, MODEL, transfer_s=transfer_s)
    unfiltered = arriving_to_departing(t, reference_build_footpaths(t, MODEL))
    reference = ReferencePlanner(t, MODEL, transfer_s=transfer_s, footpaths=unfiltered)
    assert set(footpath_links(planner.footpaths)) <= set(footpath_links(unfiltered))
    rng = np.random.default_rng(query_seed)
    for _ in range(3):
        org, dst = _near_stop(rng, t), _near_stop(rng, t)
        dep = _near_arrival(rng, t, -1200, 0)
        for mode in PlanMode:
            req = PlanRequest(org, dst, dep, mode=mode)
            got = list(planner.iter_itineraries(req))
            assert _leg_bits(got) == _leg_bits(list(reference.iter_itineraries(req)))


@settings(deadline=None, max_examples=60)
@given(feed_seed=st.integers(0, 2**32 - 1), drivers=st.integers(0, 16))
def test_each_mode_relaxes_exactly_the_links_to_stops_it_departs_from(feed_seed, drivers):
    """Each mode's fans hold the links some arrival of the mode can use:
    from a stop a trip of the mode reaches to one a trip of the mode
    leaves, by the mode's last departure from there.  TRANSIT's are the
    planner's footpaths.  A source's fan holds first the links to
    targets the mode leaves once, keyed by walk seconds less that
    departure, then the others, keyed by walk seconds; the keys ascend
    within each part."""
    t = _feed_with_drivers(np.random.default_rng(feed_seed), drivers)
    planner = Planner(t, MODEL)
    links = footpath_links(reference_build_footpaths(t, MODEL))
    for mode, allowed in _MODE_TRIPS:
        departures: dict[str, list[int]] = {}
        for trip_id, sts in t.stoptimes.items():
            if allowed is None or allowed(trip_id):
                for x in sts[:-1]:
                    departures.setdefault(x.stop_id, []).append(x.departure)
        fans = planner._fans[mode]
        assert len(fans.starts) == len(planner._stop_ids) + 1
        assert len(fans.split) == len(planner._stop_ids)
        got = []
        for i, sid in enumerate(planner._stop_ids):
            a, m, b = fans.starts[i], fans.split[i], fans.starts[i + 1]
            assert a <= m <= b
            for lo, hi, once in ((a, m, True), (m, b, False)):
                keys = fans.key[lo:hi].tolist()
                assert keys == sorted(keys)
                for v, secs, key in zip(fans.targets[lo:hi], fans.seconds[lo:hi], keys):
                    target = planner._stop_ids[v]
                    assert (len(departures[target]) == 1) == once
                    assert key == (secs - departures[target][0] if once else secs)
                    got.append((sid, target, secs))
        usable = _usable(links, *_first_and_last(t, allowed))
        assert sorted(got) == [(a, b, secs) for a, b, secs, _ in usable]
        if mode is PlanMode.TRANSIT:
            assert sorted(got) == [(a, b, secs) for a, b, secs, _ in footpath_links(planner.footpaths)]


def _commute_feed(drivers: int) -> Timetable:
    """Drivers as injected poollines, one hop each from ``DRIVER_origin_k``
    to ``DRIVER_destination_k``, all stops at random in a 6 km square.
    Every driver leaves between 7:00 and 7:15 and arrives from 7:30 on,
    so a destination has hundreds of origins in walking range, and none
    is left after anyone arrives."""
    rng = np.random.default_rng(5)
    stops, routes, trips, stoptimes = {}, {}, {}, {}
    for k in range(drivers):
        ends = (origin_stop_id(k), destination_stop_id(k))
        for sid in ends:
            lat = 45.0 + float(rng.uniform(0.0, 6.0 / 111.2))
            lon = -122.3 + float(rng.uniform(0.0, 6.0 / 78.7))
            stops[sid] = Stop(sid, sid, GeoPoint(lat, lon))
        trip_id = pool_trip_id(k)
        routes[f"R{k}"] = Route(f"R{k}", f"R{k}", 3)
        trips[trip_id] = Trip(trip_id, f"R{k}", "POOLLINES")
        leave = 7 * 3600 + int(rng.integers(0, 900))
        arrive = 7 * 3600 + 1800 + int(rng.integers(0, 1800))
        stoptimes[trip_id] = (
            GtfsStopTime(trip_id, ends[0], leave, leave, 0),
            GtfsStopTime(trip_id, ends[1], arrive, arrive, 1),
        )
    return Timetable(stops, routes, trips, stoptimes, (), (), {})


def test_planner_build_peaks_below_the_unfiltered_links_alone():
    """Traced by tracemalloc, building a planner on a commute feed takes
    less memory at its peak than the arrays of the links from where a
    vehicle arrives to where one leaves would, unfiltered: the build
    holds the candidate pairs of one block of sources at a time, and
    the links no arrival can use are never assembled."""
    t = _commute_feed(1000)
    full = build_footpaths(t, MODEL)
    destination = np.array([s.startswith("DRIVER_destination_") for s in full.stop_ids])
    source = np.repeat(np.arange(len(full.stop_ids)), np.diff(full.starts))
    unfiltered = int(np.count_nonzero(destination[source] & ~destination[full.targets]))
    # Targets, seconds and kilometres, eight bytes each, and the offsets.
    unfiltered_bytes = 24 * unfiltered + 8 * (len(full.stop_ids) + 1)
    del full, destination, source
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        planner = Planner(t, MODEL)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert unfiltered > 200_000
    assert peak < unfiltered_bytes
    assert len(planner.footpaths.targets) == 0


@settings(deadline=None, max_examples=60)
@given(
    feed_seed=st.integers(0, 2**32 - 1),
    drivers=st.integers(0, 16),
    query_seed=st.integers(0, 2**32 - 1),
    transfer_s=st.sampled_from([0, 60]),
)
def test_no_itinerary_arrives_after_the_direct_walk(feed_seed, drivers, query_seed, transfer_s):
    """Every alternative of every mode arrives no later than walking
    straight there: the scan never reads a label after that arrival
    less the shortest egress walk."""
    t = _feed_with_drivers(np.random.default_rng(feed_seed), drivers)
    planner = Planner(t, MODEL, transfer_s=transfer_s)
    rng = np.random.default_rng(query_seed)
    for _ in range(3):
        org, dst = _near_stop(rng, t), _near_stop(rng, t)
        dep = _near_arrival(rng, t, -1200, 0)
        walk = dep + walk_seconds(org, dst, MODEL)
        for mode in PlanMode:
            plans = list(planner.iter_itineraries(PlanRequest(org, dst, dep, mode=mode)))
            assert plans
            assert all(it.arrive <= walk for it in plans)


def _is_subsequence(part: list[int], whole: list[int]) -> bool:
    rest = iter(whole)
    return all(x in rest for x in part)


@settings(deadline=None, max_examples=60)
@given(
    feed_seed=st.integers(0, 2**32 - 1),
    drivers=st.integers(0, 16),
    query_seed=st.integers(0, 2**32 - 1),
)
def test_a_restricted_scan_boards_a_subsequence_of_its_seeds_connections(
    feed_seed, drivers, query_seed
):
    """Solved without a seed, each alternative boards, up to where the
    solve before it stopped, only connections that solve boarded, in
    order, and stops no earlier; so does each mode's first solve against
    the first TRANSIT solve, read for the mode's trips.  Seeded with
    that record, a solve gives the same itinerary and record."""
    t = _feed_with_drivers(np.random.default_rng(feed_seed), drivers)
    planner = Planner(t, MODEL)
    c_trip, dep_t = planner._c_trip, planner._c_dep_t
    rng = np.random.default_rng(query_seed)
    for _ in range(3):
        org, dst = _near_stop(rng, t), _near_stop(rng, t)
        req = PlanRequest(org, dst, _near_arrival(rng, t, -1200, 0))
        links = planner._request_links(req)
        if links is None:
            continue
        _, transit = planner._solve(req, (), links)
        for mode, allowed in _MODE_TRIPS:
            req = PlanRequest(org, dst, req.departure, mode=mode)
            usable = [
                ci for ci in transit.live
                if allowed is None or allowed(planner._trip_ids[c_trip[ci]])
            ]
            seed = _Scan(usable, transit.stop)
            banned: list[int] = []
            while len(banned) < 10:
                it, scan = planner._solve(req, banned, links)
                assert scan.stop >= seed.stop
                early = [ci for ci in scan.live if dep_t[ci] <= seed.stop]
                assert _is_subsequence(early, seed.live)
                assert planner._solve(req, banned, links, seed) == (it, scan)
                if not it.ride_legs:
                    break
                banned.append(planner._trip_index[it.ride_legs[0].trip_id])
                seed = scan


def test_interleaved_requests_equal_a_fresh_planner_each():
    """One planner asked about riders in turn, mode by mode, answers as a
    new planner per request does: no request reads another's set-up."""
    rides = 0
    for feed_seed in range(6):
        t = _feed_with_drivers(np.random.default_rng([77, feed_seed]), 8)
        rng = np.random.default_rng([78, feed_seed])
        a, b = (_along_a_trip(rng, t) for _ in range(2))
        riders = {
            "A": a,
            "B": b,
            "A later": (a[0], a[1], a[2] + 60),  # same endpoints, another departure
            "A to B": (a[0], b[1], a[2]),  # same origin and departure, another destination
            "B from A": (a[0], b[1], b[2]),
        }
        turns = [
            ("A", PlanMode.TRANSIT), ("B", PlanMode.TRANSIT), ("A", PlanMode.POOL_ONLY),
            ("A later", PlanMode.POOL_ONLY), ("B", PlanMode.TRANSIT_NO_POOL),
            ("A to B", PlanMode.TRANSIT), ("A", PlanMode.TRANSIT_NO_POOL),
            ("B from A", PlanMode.TRANSIT), ("A to B", PlanMode.POOL_ONLY),
            ("B", PlanMode.POOL_ONLY), ("A", PlanMode.TRANSIT),
            # One request's modes, seeded by its TRANSIT scan and not.
            ("A", PlanMode.TRANSIT_NO_POOL), ("A", PlanMode.POOL_ONLY),
            ("B from A", PlanMode.POOL_ONLY), ("B from A", PlanMode.TRANSIT_NO_POOL),
            ("B from A", PlanMode.TRANSIT), ("B from A", PlanMode.POOL_ONLY),
        ]
        shared = Planner(t, MODEL)
        for name, mode in turns:
            req = PlanRequest(*riders[name], mode=mode)
            fresh = Planner(t, MODEL)
            plans = list(shared.iter_itineraries(req))
            assert _leg_bits(plans) == _leg_bits(list(fresh.iter_itineraries(req))), (feed_seed, name, mode)
            assert _leg_bits([shared.earliest_arrival(req)]) == _leg_bits([fresh.earliest_arrival(req)])
            rides += bool(plans[0].ride_legs)
    assert rides >= 20


def _along_a_trip(rng: np.random.Generator, t: Timetable) -> tuple[GeoPoint, GeoPoint, int]:
    """Endpoints near the first and last stop of a random trip, leaving
    up to ten minutes before it does."""
    sts = t.stoptimes[sorted(t.stoptimes)[int(rng.integers(len(t.stoptimes)))]]
    near = [
        GeoPoint(p.lat + float(rng.uniform(-0.003, 0.003)), p.lon + float(rng.uniform(-0.003, 0.003)))
        for p in (t.stops[sts[0].stop_id].position, t.stops[sts[-1].stop_id].position)
    ]
    return near[0], near[1], max(0, sts[0].departure - int(rng.integers(0, 600)))


# ---- access and egress walks -----------------------------------------


@st.composite
def _walk_cases(draw):
    """Stops, two endpoints and a walking cap.

    Either a city: stops in a 5 km box plus a few far away, endpoints
    in and around the box, so some have no stop in range.  Or the
    globe: stops anywhere, endpoints on or near them, caps up to more
    than half the circumference.  Endpoints may sit on a stop.
    """
    if draw(st.booleans()):
        stops = draw(_stop_sets())
        box = st.builds(GeoPoint, st.floats(44.98, 45.07), st.floats(-122.33, -122.2))
        caps = st.sampled_from([0.0, 0.4, 2.5])
        shift = 0.01
    else:
        points = draw(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), max_size=30))
        stops = _stops(points)
        box = st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
        caps = st.sampled_from([2.5, 500.0, 5000.0, 40000.0])
        shift = 1.0
    if stops:
        on = st.sampled_from([s.position for s in stops.values()])
        near = on.flatmap(
            lambda p: st.builds(
                GeoPoint,
                st.floats(max(-90.0, p.lat - shift), min(90.0, p.lat + shift)),
                st.floats(max(-180.0, p.lon - shift), min(180.0, p.lon + shift)),
            )
        )
        box = st.one_of(box, on, near)
    return stops, draw(box), draw(box), draw(caps)


def _timetable_of(stops) -> Timetable:
    return Timetable(stops, {}, {}, {}, (), (), {})


def _assert_walks_equal_dense(walks, secs: np.ndarray, km: np.ndarray) -> None:
    finite = np.isfinite(secs)
    assert np.array_equal(np.isfinite(km), finite)
    assert walks.stops.dtype == np.int64
    assert walks.stops.tobytes() == np.flatnonzero(finite).astype(np.int64).tobytes()
    assert walks.seconds.tobytes() == secs[finite].tobytes()
    assert walks.km.tobytes() == km[finite].tobytes()


@settings(deadline=None)
@given(case=_walk_cases(), at_cap=st.integers(-1, 29))
@example(case=({}, P, R, 2.5), at_cap=-1)
@example(case=(_stops([(45.0, -122.3)]), P, R, 2.5), at_cap=-1)
@example(case=(_stops([(45.0, -122.3)]), P, P, 0.0), at_cap=-1)
@example(case=(_stops([(45.0, -122.3)]), R, P, 2.5), at_cap=0)
@example(case=(_stops([(45.0, -122.3), (-45.0, 57.7)]), P, P, 40000.0), at_cap=1)
def test_walks_in_range_equal_the_dense_reference_bit_for_bit(case, at_cap):
    """The sparse access and egress walks against a haversine to every stop.

    With ``at_cap`` naming a stop, the cap is set to the dense road
    distance from the origin to that stop, which puts it exactly on the
    cap.
    """
    stops, origin, destination, cap = case
    t = _timetable_of(stops)
    if 0 <= at_cap < len(stops):
        dense = ReferencePlanner(t, MODEL, max_walk_km=cap)
        cap = float(MODEL.circuity * haversine_km_to_point(dense._lat_r, dense._lon_r, origin)[at_cap])
    planner = Planner(t, MODEL, max_walk_km=cap)
    dense = ReferencePlanner(t, MODEL, max_walk_km=cap)
    if 0 <= at_cap < len(stops):
        assert at_cap in planner._stop_walks(origin).stops.tolist()
    walks = {}
    for point in (origin, destination):
        walks[point] = dense._endpoint_links(point)
        _assert_walks_equal_dense(planner._stop_walks(point), *walks[point])

    links = planner._request_links(PlanRequest(origin, destination, 30000))
    access_s, _ = walks[origin]
    egress_s, _ = walks[destination]
    walkable = np.isfinite(access_s)
    leavable = np.isfinite(egress_s)
    if not walkable.any() or not leavable.any():
        assert links is None
        return
    assert links.egress_s == egress_s.tolist()
    assert links.reach == np.where(walkable, 30000 + access_s, np.inf).tolist()
    assert links.foot_prev == np.where(walkable, -1, -2).tolist()
    assert links.first_board == float(30000 + access_s[walkable].min())
    assert links.min_egress == float(egress_s[leavable].min())


@settings(deadline=None, max_examples=30)
@given(feed_seed=st.integers(0, 2**32 - 1))
def test_trip_km_is_summed_on_first_use_hop_by_hop(feed_seed):
    t, _ = random_feed(np.random.default_rng(feed_seed), MODEL)
    # A later copy of every trip calls at the same stops.
    stoptimes = dict(t.stoptimes)
    for trip_id, sts in t.stoptimes.items():
        copy_id = f"{trip_id}_later"
        stoptimes[copy_id] = tuple(
            GtfsStopTime(copy_id, x.stop_id, x.arrival + 600, x.departure + 600, x.stop_sequence)
            for x in sts
        )
    trips = {tid: Trip(tid, "R00", "ALL") for tid in stoptimes}
    t = Timetable(t.stops, t.routes, trips, stoptimes, t.calendar, (), {})
    planner = Planner(t, MODEL)
    assert all(cum is None for cum in planner._sequence_cum_km)
    by_stops = {}
    for ti, trip_id in enumerate(planner._trip_ids):
        stops = tuple(x.stop_id for x in t.stoptimes[trip_id])
        positions = [t.stops[s].position for s in stops]
        want = [0.0]
        for a, b in zip(positions, positions[1:]):
            want.append(want[-1] + road_km(a, b, MODEL))
        got = planner._trip_km(ti)
        assert got == want
        assert got is by_stops.setdefault(stops, got)


# ---- request plumbing -----------------------------------------------


def test_request_validation():
    with pytest.raises(ValueError):
        PlanRequest(P, R, -1)
    with pytest.raises(ValueError):
        PlanRequest(P, R, 0, num_itineraries=0)

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poollines import drivers
from poollines.drivers import (
    Driver,
    DriverJourney,
    EmptyMeetingPointSet,
    JourneyStopTime,
    MeetingPointSet,
    agent_streams,
    compute_driver_journeys,
    pruned_length_km,
    select_meeting_points,
)
from poollines.geo import GeoPoint, TravelModel
from poollines.gtfs import GtfsStopTime, Route, Stop, Timetable, Trip

from oracles import (
    reference_driver_journeys,
    reference_nearest,
    reference_path_km,
    reference_road_km,
)

MODEL = TravelModel()

# One shared geometry: a 10.12 km baseline drive along the equator with
# meeting points placed at computed offsets.  All expected lengths below
# were frozen from the independent distance formulation.
ORG = GeoPoint(0.0, 0.0)
DST = GeoPoint(0.0, 0.07)
BASELINE_KM = 10.118752301251495


def _driver(driver_id=1, departure=36000, origin=ORG, destination=DST):
    return Driver(
        driver_id=driver_id,
        origin=origin,
        destination=destination,
        departure_time=departure,
        declaration_time=departure - 600,
    )


def _points(*pairs):
    return MeetingPointSet(
        tuple(Stop(sid, sid.lower(), GeoPoint(lat, lon)) for sid, lat, lon in pairs)
    )


def test_both_insertions_within_budget():
    points = _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=0)[0]
    assert [st.stop_ref for st in j.stoptimes] == [None, "MO", "MD", None]
    assert j.baseline_km == pytest.approx(BASELINE_KM, abs=1e-9)
    assert j.length_km == pytest.approx(10.221373823711144, abs=1e-9)
    assert j.detour_ratio == pytest.approx(0.01014171702245896, abs=1e-9)


def test_journey_timing_and_dwell():
    # Leg drive times for the accepted path are 168 s, 586 s, 168 s with
    # a 60 s dwell at each meeting point and none at the two ends.
    points = _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=0)[0]
    times = [(st.arrival, st.departure) for st in j.stoptimes]
    assert times == [(36000, 36000), (36168, 36228), (36814, 36874), (37042, 37042)]


def test_far_points_rejected():
    # Each candidate alone stretches the drive by 24%, over the budget.
    points = _points(("MO", 0.022, 0.0125), ("MD", 0.022, 0.0575))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=0)[0]
    assert len(j.stoptimes) == 2
    assert j.length_km == pytest.approx(BASELINE_KM, abs=1e-9)
    assert j.detour_ratio == 0.0


def test_budget_is_cumulative():
    # Either side alone costs 10.7%, so whichever is tried first is kept
    # and the second insertion would push the total to 16.9% and is
    # dropped.  The journey length is the same either way.
    points = _points(("MO", 0.0135, 0.0125), ("MD", 0.0135, 0.0575))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=3)[0]
    kept = [st.stop_ref for st in j.stoptimes if st.stop_ref]
    assert len(kept) == 1
    assert j.length_km == pytest.approx(11.1973959767484, abs=1e-9)
    assert 0.0 < j.detour_ratio <= 0.15


def test_insertion_order_is_a_fair_coin():
    # With the cumulative-budget geometry the surviving side reveals
    # which side was tried first.
    points = _points(("MO", 0.0135, 0.0125), ("MD", 0.0135, 0.0575))
    drivers = [_driver(driver_id=i) for i in range(1, 4001)]
    journeys = compute_driver_journeys(drivers, points, MODEL, seed=11)
    origin_first = sum(
        1 for j in journeys if any(st.stop_ref == "MO" for st in j.stoptimes)
    )
    assert abs(origin_first / len(journeys) - 0.5) <= 0.02


def test_shared_candidate_single_insertion():
    points = _points(("M", 0.004, 0.035))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=0)[0]
    assert [st.stop_ref for st in j.stoptimes] == [None, "M", None]
    assert j.length_km == pytest.approx(10.184619561713463, abs=1e-9)


def test_degenerate_drive_never_augmented():
    points = _points(("M", 0.0, 0.0))  # sits exactly on the driver
    d = _driver(origin=ORG, destination=ORG)
    j = compute_driver_journeys([d], points, MODEL, seed=0)[0]
    assert len(j.stoptimes) == 2
    assert j.baseline_km == 0.0
    assert j.detour_ratio == 0.0


def test_detour_budget_property():
    # Random drivers against random meeting point sets; the budget and
    # the structural rules must hold every time.
    rng = np.random.default_rng(2024)
    for case in range(300):
        stops = tuple(
            Stop(
                f"P{k:02d}",
                f"p{k}",
                GeoPoint(45.0 + float(rng.uniform(0, 0.18)), -122.3 + float(rng.uniform(0, 0.25))),
            )
            for k in range(int(rng.integers(1, 30)))
        )
        points = MeetingPointSet(stops)
        d = Driver(
            driver_id=case,
            origin=GeoPoint(45.0 + float(rng.uniform(0, 0.18)), -122.3 + float(rng.uniform(0, 0.25))),
            destination=GeoPoint(45.0 + float(rng.uniform(0, 0.18)), -122.3 + float(rng.uniform(0, 0.25))),
            departure_time=int(rng.integers(0, 86400)),
            declaration_time=0,
        )
        j = compute_driver_journeys([d], points, MODEL, seed=case)[0]
        assert 2 <= len(j.stoptimes) <= 4
        assert j.detour_ratio <= 0.15 + 1e-9
        assert j.baseline_km == pytest.approx(
            reference_road_km(d.origin, d.destination, MODEL), rel=1e-9
        )
        assert j.length_km == pytest.approx(
            reference_path_km([st.location for st in j.stoptimes], MODEL), rel=1e-9
        )
        assert j.length_km >= j.baseline_km - 1e-9
        first, last = j.stoptimes[0], j.stoptimes[-1]
        assert first.arrival == first.departure == d.departure_time
        assert last.arrival == last.departure
        for a, b in zip(j.stoptimes, j.stoptimes[1:]):
            assert b.arrival > a.departure or (a.location == b.location and b.arrival == a.departure)
        for st in j.stoptimes[1:-1]:
            assert st.departure - st.arrival == 60
            assert st.stop_ref is not None


def test_batch_is_order_independent():
    points = _points(("MO", 0.0135, 0.0125), ("MD", 0.0135, 0.0575))
    drivers = [_driver(driver_id=i) for i in range(1, 40)]
    forward = {j.driver_id: j for j in compute_driver_journeys(drivers, points, MODEL, seed=5)}
    backward = {
        j.driver_id: j
        for j in compute_driver_journeys(list(reversed(drivers)), points, MODEL, seed=5)
    }
    assert forward == backward
    again = {j.driver_id: j for j in compute_driver_journeys(drivers, points, MODEL, seed=5)}
    assert forward == again


def test_nearest_breaks_ties_by_stop_id():
    points = _points(("B", 0.0, 0.01), ("A", 0.0, -0.01))
    assert [s.stop_id for s in points.nearest_many([GeoPoint(0.0, 0.0)])] == ["A"]


@st.composite
def _nearest_cases(draw):
    """Meeting points in a 5 km box, listed out of stop_id order, some at
    one position (exact ties); query points anywhere in and around the
    box, some on a stop and some at the midpoint of two stops."""
    box = st.tuples(st.floats(45.0, 45.045), st.floats(-122.3, -122.236))
    positions = draw(st.lists(box, min_size=1, max_size=25))
    positions += draw(st.lists(st.sampled_from(positions), max_size=5))
    ids = draw(st.permutations([f"M{k:02d}" for k in range(len(positions))]))
    stops = tuple(Stop(sid, "m", GeoPoint(lat, lon)) for sid, (lat, lon) in zip(ids, positions))
    queries = draw(st.lists(st.tuples(st.floats(44.99, 45.055), st.floats(-122.31, -122.226)), max_size=30))
    queries += draw(st.lists(st.sampled_from(positions), max_size=5))
    pairs = st.tuples(st.sampled_from(positions), st.sampled_from(positions))
    queries += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in draw(st.lists(pairs, max_size=5))]
    return stops, [GeoPoint(lat, lon) for lat, lon in queries]


@settings(deadline=None)
@given(case=_nearest_cases(), block_cells=st.sampled_from([1, 7, 1 << 16]))
# Two stops mirrored about the query point: an exact distance tie.
@example(
    case=(
        (Stop("B", "b", GeoPoint(0.0, 0.01)), Stop("A", "a", GeoPoint(0.0, -0.01))),
        [GeoPoint(0.0, 0.0)],
    ),
    block_cells=1,
)
# Far apart, numpy's arcsin and math.asin round differently: here the scalar
# distances tie (so "A" wins) while the vectorised ones put "B" 1 ulp nearer.
@example(
    case=(
        (Stop("B", "b", GeoPoint(6.983778291519333, 10.0)), Stop("A", "a", GeoPoint(-6.983778291519334, 10.0))),
        [GeoPoint(0.0, 10.0)],
    ),
    block_cells=1 << 16,
)
def test_nearest_many_equals_the_scalar_rule(case, block_cells):
    stops, queries = case
    points = MeetingPointSet(stops)
    with mock.patch.object(drivers, "_NEAREST_BLOCK_CELLS", block_cells):
        got = points.nearest_many(queries)
    assert got == [reference_nearest(stops, q) for q in queries]
    # One point at a time gives the same stops as the batch.
    assert [points.nearest_many([q])[0] for q in queries] == got


def test_batch_equals_one_journey_at_a_time():
    points = _points(("MO", 0.0135, 0.0125), ("MD", 0.0135, 0.0575), ("MX", -0.01, 0.03))
    rng = np.random.default_rng(8)
    batch = [
        _driver(
            driver_id=i,
            origin=GeoPoint(float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.01, 0.03))),
            destination=GeoPoint(float(rng.uniform(-0.02, 0.02)), float(rng.uniform(0.04, 0.08))),
        )
        for i in range(60)
    ]
    batch.append(_driver(driver_id=60, destination=ORG))  # no drive, no coin
    assert compute_driver_journeys(batch, points, MODEL, seed=3) == [
        compute_driver_journeys([d], points, MODEL, seed=3)[0]
        for d in batch
    ]


# ---- per-agent random streams -----------------------------------------

# The simulation window's departure range: the integers draw of an agent.
_SIM_START, _SIM_END = 37800, 41400


@settings(deadline=None)
@given(
    prefix=st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=2),
    ids=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**40 - 1)), max_size=12
    ),
)
@example(prefix=[1, 0], ids=[])
@example(prefix=[0], ids=[0, 0, 1, 2**32 - 1, 2**32, 2**32 - 1])
# A prefix of 2^64 and up, so one entropy holds more than the pool's four words.
@example(prefix=[2**64, 2**69 + 5], ids=[3, 2**39 + 1, 7, 2**64])
@example(prefix=[2**32, 1], ids=[2**64, 0, 2**64])
def test_agent_streams_equal_one_default_rng_per_id(prefix, ids):
    for i, rng in zip(ids, agent_streams(prefix, ids), strict=True):
        ref = np.random.default_rng([*prefix, i])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
        assert rng.random(3).tolist() == ref.random(3).tolist()
        assert rng.integers(_SIM_START, _SIM_END) == ref.integers(_SIM_START, _SIM_END)
        assert rng.random() == ref.random()


def test_agent_streams_accept_an_id_array_and_a_range():
    ids = np.arange(5, 9)
    expected = [np.random.default_rng([4, 1, i]).random() for i in ids.tolist()]
    assert [rng.random() for rng in agent_streams([4, 1], ids)] == expected
    assert [rng.random() for rng in agent_streams([4, 1], range(5, 9))] == expected


@pytest.mark.parametrize(
    "prefix, ids",
    [([-1], [1]), ([1, -(2**40)], [1]), ([1], [3, -1]), ([1], np.array([2, -1]))],
)
def test_agent_streams_reject_a_negative_int(prefix, ids):
    # A shift never ends the word split of a negative int (-1 >> 32 is -1).
    with pytest.raises(ValueError, match="non-negative"):
        agent_streams(prefix, ids)


@st.composite
def _driver_batches(draw):
    """Up to 25 drivers with distinct ids in a 10 km box, some standing still,
    and up to four meeting points in and around it."""
    coords = st.tuples(st.floats(44.98, 45.07), st.floats(-122.32, -122.2))
    ids = draw(st.lists(st.integers(0, 2**40), unique=True, max_size=25))
    batch = []
    for i in ids:
        origin = GeoPoint(*draw(coords))
        destination = origin if draw(st.booleans()) and draw(st.booleans()) else GeoPoint(*draw(coords))
        batch.append(_driver(driver_id=i, origin=origin, destination=destination))
    stops = draw(st.lists(coords, min_size=1, max_size=4))
    points = MeetingPointSet(
        tuple(Stop(f"M{k}", "m", GeoPoint(*c)) for k, c in enumerate(stops))
    )
    return batch, points


@settings(deadline=None, max_examples=50)
@given(
    case=_driver_batches(),
    tau=st.sampled_from([0.0, 0.15, 0.5]),
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**70)),
)
def test_journeys_equal_one_default_rng_per_driver(case, tau, seed):
    batch, points = case
    assert compute_driver_journeys(batch, points, MODEL, tau, 45, seed) == reference_driver_journeys(
        batch, points, MODEL, tau, 45, seed
    )


def test_meeting_points_come_from_rapid_transit_stops():
    stops = {
        "U1": Stop("U1", "under 1", GeoPoint(45.0, -122.3)),
        "U2": Stop("U2", "under 2", GeoPoint(45.01, -122.3)),
        "B1": Stop("B1", "bus 1", GeoPoint(45.02, -122.3)),
    }
    routes = {"SUB": Route("SUB", "metro", 1), "BUS": Route("BUS", "bus", 3)}
    trips = {"t1": Trip("t1", "SUB", "S"), "t2": Trip("t2", "BUS", "S")}
    stoptimes = {
        "t1": (
            GtfsStopTime("t1", "U1", 0, 0, 0),
            GtfsStopTime("t1", "U2", 60, 60, 1),
        ),
        "t2": (
            GtfsStopTime("t2", "B1", 0, 0, 0),
            GtfsStopTime("t2", "U1", 60, 60, 1),
        ),
    }
    t = Timetable(stops, routes, trips, stoptimes, (), (), {})
    assert {s.stop_id for s in select_meeting_points(t).stops} == {"U1", "U2"}
    assert {s.stop_id for s in select_meeting_points(t, route_types=(3,)).stops} == {"B1", "U1"}
    with pytest.raises(EmptyMeetingPointSet):
        select_meeting_points(t, route_types=(7,))


def test_prune_keeps_used_stops():
    points = _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575))
    j = compute_driver_journeys([_driver()], points, MODEL, seed=0)[0]
    assert len(j.stoptimes) == 4
    at = [st.location for st in j.stoptimes]

    # A rider boarding at MO and leaving at the destination keeps MO only.
    assert pruned_length_km(j, [(1, 3)]) == pytest.approx(
        reference_path_km([at[0], at[1], at[3]], MODEL), rel=1e-6
    )
    assert pruned_length_km(j, []) == j.baseline_km
    assert pruned_length_km(j, [(1, 2)]) == j.length_km
    assert pruned_length_km(j, [(1, 3), (0, 2)]) == j.length_km
    # Endpoints alone keep no calling point.
    assert pruned_length_km(j, [(0, 3)]) == j.baseline_km


def test_validation():
    with pytest.raises(ValueError):
        Driver(1, ORG, DST, departure_time=100, declaration_time=200)
    with pytest.raises(ValueError):
        Driver(-1, ORG, DST, departure_time=100, declaration_time=0)
    with pytest.raises(ValueError):
        Driver(1, ORG, DST, departure_time=100, declaration_time=0, seat_capacity=0)
    st = JourneyStopTime(ORG, None, 0, 0)
    with pytest.raises(ValueError):
        DriverJourney(1, (st,), 0.0, 0.0)
    with pytest.raises(ValueError):
        DriverJourney(1, (st,) * 5, 0.0, 0.0)
    with pytest.raises(EmptyMeetingPointSet):
        MeetingPointSet(())

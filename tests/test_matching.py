import pytest

from poollines.drivers import compute_driver_journeys, pruned_length_km
from poollines.geo import GeoPoint, TravelModel, walk_seconds
from poollines.injection import pool_trip_id
from poollines.matching import (
    FeasibilityRules,
    Rider,
    RiderMode,
    RiderOutcome,
    better_outcome,
    boardings_by_driver,
    classify,
    drivers_used,
    enforce_capacity,
    is_feasible,
    journey_stop_indices,
    max_onboard,
    resolve_rider,
)
from poollines.planner import Itinerary, Leg, Planner, PlanRequest

from test_drivers import _driver, _points
from test_planner import P, R, make_timetable

MODEL = TravelModel()
RULES = FeasibilityRules()


def _walk(start, end, km):
    return Leg("walk", start, end, km, P, R)


def _ride(kind, trip_id, start, end, from_stop=None, to_stop=None):
    return Leg(
        kind, start, end, 5.0, P, R, trip_id=trip_id, from_stop=from_stop, to_stop=to_stop
    )


def _itinerary(legs, depart, arrive, walk_km=0.0, wait_s=0):
    return Itinerary(tuple(legs), depart, arrive, walk_km, wait_s)


def _rider(rider_id=1, origin=P, destination=R, departure=1000):
    return Rider(rider_id, origin, destination, departure)


# ---- feasibility ----------------------------------------------------


def test_wait_budget_boundary():
    ok = _itinerary([_ride("transit", "T", 1000, 2000)], 1000, 4000, wait_s=2700)
    too_long = _itinerary([_ride("transit", "T", 1000, 2000)], 1000, 4000, wait_s=2701)
    r = _rider()
    assert is_feasible(ok, r, RULES, MODEL)
    assert not is_feasible(too_long, r, RULES, MODEL)


def test_forty_six_minute_wait_is_rejected():
    it = _itinerary([_ride("transit", "T", 1000, 2000)], 1000, 4000, wait_s=46 * 60)
    assert not is_feasible(it, _rider(), RULES, MODEL)


def test_walk_budget_boundary():
    r = _rider()
    at_cap = _itinerary([_walk(1000, 2000, 2.5)], 1000, 3000, walk_km=2.5)
    over = _itinerary([_walk(1000, 2000, 2.6)], 1000, 3000, walk_km=2.6)
    assert is_feasible(at_cap, r, RULES, MODEL)
    assert not is_feasible(over, r, RULES, MODEL)


def test_slower_than_walking_is_rejected():
    r = _rider()
    limit = walk_seconds(r.origin, r.destination, MODEL)  # 4416 s for this pair
    assert limit == 4416
    at_limit = _itinerary([_ride("transit", "T", 1000, 1000 + limit)], 1000, 1000 + limit)
    beyond = _itinerary([_ride("transit", "T", 1000, 1001 + limit)], 1000, 1001 + limit)
    assert is_feasible(at_limit, r, RULES, MODEL)
    assert not is_feasible(beyond, r, RULES, MODEL)
    lax = FeasibilityRules(walk_time_bound=False)
    assert is_feasible(beyond, r, lax, MODEL)


# ---- classification -------------------------------------------------


def test_mode_classification():
    pool7 = pool_trip_id(7)
    pool12 = pool_trip_id(12)
    cases = [
        ([_walk(0, 100, 0.5)], RiderMode.FOOT),
        ([_ride("transit", "T1", 0, 100)], RiderMode.TRANSIT),
        ([_ride("transit", "T1", 0, 100), _ride("transit", "T2", 200, 300)], RiderMode.TRANSIT),
        ([_ride("carpool", pool7, 0, 100)], RiderMode.CARPOOLING),
        ([_walk(0, 50, 0.2), _ride("carpool", pool7, 60, 100)], RiderMode.CARPOOLING),
        ([_ride("carpool", pool7, 0, 100), _ride("carpool", pool12, 200, 300)], RiderMode.MULTI_CARPOOLING),
        ([_ride("carpool", pool7, 0, 100), _ride("transit", "T1", 200, 300)], RiderMode.MULTIMODAL),
    ]
    for legs, want in cases:
        assert classify(_itinerary(legs, 0, legs[-1].end)) is want


def test_drivers_used_reads_carpool_legs():
    it = _itinerary(
        [
            _ride("carpool", pool_trip_id(7), 0, 100),
            _ride("transit", "T1", 150, 200),
            _ride("carpool", pool_trip_id(12), 250, 300),
        ],
        0,
        300,
    )
    assert drivers_used(it) == frozenset({7, 12})


def test_outcome_invariant():
    with pytest.raises(ValueError):
        RiderOutcome(1, RiderMode.UNSERVED, _itinerary([_walk(0, 1, 0.1)], 0, 1))
    with pytest.raises(ValueError):
        RiderOutcome(1, RiderMode.FOOT, None)


# ---- choosing between resolutions -----------------------------------


def test_better_outcome_prefers_service_then_arrival():
    unserved = RiderOutcome(1, RiderMode.UNSERVED, None)
    slow = RiderOutcome(
        1, RiderMode.TRANSIT, _itinerary([_ride("transit", "T", 0, 900)], 0, 900)
    )
    fast = RiderOutcome(
        1, RiderMode.TRANSIT, _itinerary([_ride("transit", "T", 0, 800)], 0, 800)
    )
    assert better_outcome(unserved, slow) is slow
    assert better_outcome(slow, unserved) is slow
    assert better_outcome(slow, fast) is fast
    assert better_outcome(fast, slow) is fast
    assert better_outcome(unserved, unserved) is unserved


def test_better_outcome_tie_breaks():
    one_ride = RiderOutcome(
        1, RiderMode.TRANSIT, _itinerary([_ride("transit", "T", 0, 800)], 0, 800)
    )
    two_rides = RiderOutcome(
        1,
        RiderMode.TRANSIT,
        _itinerary(
            [_ride("transit", "T", 0, 400), _ride("transit", "U", 500, 800)], 0, 800
        ),
    )
    assert better_outcome(two_rides, one_ride) is one_ride

    dry = RiderOutcome(
        1, RiderMode.TRANSIT, _itinerary([_ride("transit", "T", 0, 800)], 0, 800, walk_km=0.1)
    )
    soggy = RiderOutcome(
        1, RiderMode.TRANSIT, _itinerary([_ride("transit", "T", 0, 800)], 0, 800, walk_km=0.9)
    )
    assert better_outcome(soggy, dry) is dry
    # Full tie keeps the first argument.
    assert better_outcome(soggy, soggy) is soggy


# ---- resolving against a real planner -------------------------------


def test_rider_takes_first_feasible_alternative():
    # FAST would mean a 2800 s wait, over the 2700 s budget; the rider
    # falls through to SLOW.
    t = make_timetable(
        {"P": P, "R": R},
        {
            "FAST": [("P", 3800, 3800), ("R", 4000, 4000)],
            "SLOW": [("P", 1200, 1200), ("R", 4800, 4800)],
        },
    )
    out = resolve_rider(Planner(t, MODEL), _rider(), RULES)
    assert out.mode is RiderMode.TRANSIT
    assert [leg.trip_id for leg in out.itinerary.ride_legs] == ["SLOW"]
    assert out.drivers_used == frozenset()


class _CountingPlanner(Planner):
    """Counts its walk-budgeted solves and the itineraries it yields."""

    solves = 0
    yields = 0

    def _solve_within(self, *args):
        self.solves += 1
        return super()._solve_within(*args)

    def iter_itineraries(self, req):
        for it in super().iter_itineraries(req):
            self.yields += 1
            yield it


def test_rider_takes_the_earliest_journey_within_the_walk_budget_in_one_scan():
    # FAST arrives first, but walks 1.64 km from P to A and 1.02 km from
    # Z to R, 2.66 km in all, over the 2.5 km budget.  SLOW calls at P
    # and R and walks nothing.  The search itself passes over FAST: one
    # scan, one itinerary.
    a, z = GeoPoint(45.0, -122.284), GeoPoint(45.0, -122.25)
    t = make_timetable(
        {"P": P, "A": a, "Z": z, "R": R},
        {
            "FAST": [("A", 2200, 2200), ("Z", 2500, 2500)],
            "SLOW": [("P", 2500, 2500), ("R", 3500, 3500)],
        },
    )
    planner = _CountingPlanner(t, MODEL)
    fast = planner.earliest_arrival(PlanRequest(P, R, 1000))
    assert [leg.trip_id for leg in fast.ride_legs] == ["FAST"]
    assert fast.total_walk_km > RULES.max_walk_km
    out = resolve_rider(planner, _rider(), RULES)
    assert out.mode is RiderMode.TRANSIT
    assert [leg.trip_id for leg in out.itinerary.ride_legs] == ["SLOW"]
    assert out.itinerary.arrive == 3500
    assert (planner.solves, planner.yields) == (1, 1)


def test_rider_unserved_when_nothing_feasible():
    t = make_timetable({"P": P, "R": R}, {})  # walking 6.1 km busts the walk cap
    out = resolve_rider(Planner(t, MODEL), _rider(), RULES)
    assert out.mode is RiderMode.UNSERVED
    assert out.itinerary is None


def test_short_trip_resolves_on_foot():
    t = make_timetable({"P": P, "R": R}, {})
    near = GeoPoint(45.0, -122.299)
    out = resolve_rider(Planner(t, MODEL), _rider(origin=P, destination=near), RULES)
    assert out.mode is RiderMode.FOOT


def test_rider_rides_a_poolline():
    t = make_timetable(
        {"P": P, "R": R},
        {pool_trip_id(3): [("P", 1100, 1100), ("R", 1500, 1500)]},
    )
    out = resolve_rider(Planner(t, MODEL), _rider(), RULES)
    assert out.mode is RiderMode.CARPOOLING
    assert out.drivers_used == frozenset({3})


# ---- capacity -------------------------------------------------------


def _journey7():
    points = _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575))
    return compute_driver_journeys([_driver(driver_id=7)], points, MODEL, seed=0)[0]


def _pool_outcome(rider_id, driver_id, from_stop, to_stop):
    it = _itinerary(
        [_ride("carpool", pool_trip_id(driver_id), 0, 100, from_stop, to_stop)], 0, 100
    )
    return RiderOutcome(rider_id, RiderMode.CARPOOLING, it, frozenset({driver_id}))


def test_journey_stop_indices():
    j = _journey7()
    assert journey_stop_indices(j) == {
        "DRIVER_origin_7": 0,
        "MO": 1,
        "MD": 2,
        "DRIVER_destination_7": 3,
    }


def test_max_onboard_counts_overlap_only():
    j = _journey7()
    assert max_onboard(j, []) == 0
    assert max_onboard(j, [(1, 2), (1, 2), (1, 2)]) == 3
    # Back-to-back segments never overlap.
    assert max_onboard(j, [(0, 1), (1, 2), (2, 3)]) == 1
    assert max_onboard(j, [(0, 2), (1, 3)]) == 2
    assert max_onboard(j, [(0, 3)] * 5) == 5


def test_capacity_voids_overloaded_driver():
    j = {7: _journey7()}
    capacities = {7: 4}
    outcomes = [_pool_outcome(i, 7, "MO", "MD") for i in range(5)]
    adjusted, voided = enforce_capacity(outcomes, j, capacities)
    assert voided == frozenset({7})
    assert all(o.mode is RiderMode.UNSERVED for o in adjusted)

    four = outcomes[:4]
    adjusted, voided = enforce_capacity(four, j, capacities)
    assert voided == frozenset()
    assert adjusted == four
    assert all(a is b for a, b in zip(adjusted, four))  # untouched objects


def test_capacity_ignores_disjoint_segments():
    j = {7: _journey7()}
    outcomes = [_pool_outcome(i, 7, "DRIVER_origin_7", "MO") for i in range(4)] + [
        _pool_outcome(10 + i, 7, "MD", "DRIVER_destination_7") for i in range(4)
    ]
    adjusted, voided = enforce_capacity(outcomes, j, {7: 4})
    assert voided == frozenset()
    assert adjusted == outcomes


def test_capacity_is_a_single_pass():
    # Driver 7 is overloaded; the rider who also used driver 8 becomes
    # unserved, but driver 8 itself is never re-judged or voided.
    j = {7: _journey7(), 8: _journey7()}
    j[8] = compute_driver_journeys(
        [_driver(driver_id=8)],
        _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575)),
        MODEL,
        seed=0,
    )[0]
    mixed = RiderOutcome(
        99,
        RiderMode.MULTI_CARPOOLING,
        _itinerary(
            [
                _ride("carpool", pool_trip_id(7), 0, 100, "MO", "MD"),
                _ride("carpool", pool_trip_id(8), 200, 300, "MO", "MD"),
            ],
            0,
            300,
        ),
        frozenset({7, 8}),
    )
    outcomes = [_pool_outcome(i, 7, "MO", "MD") for i in range(5)] + [mixed]
    adjusted, voided = enforce_capacity(outcomes, j, {7: 4, 8: 4})
    assert voided == frozenset({7})
    assert adjusted[-1].mode is RiderMode.UNSERVED
    survivors = [o for o in adjusted if o.mode is not RiderMode.UNSERVED]
    assert survivors == []


def test_endpoint_boardings_leave_the_baseline():
    journeys = {7: _journey7(), 9: _journey7()}
    j = journeys[7]
    outcomes = [
        _pool_outcome(1, 7, "DRIVER_origin_7", "DRIVER_destination_7"),
        _pool_outcome(2, 7, "DRIVER_origin_7", "MO"),
    ]
    boardings = boardings_by_driver(outcomes, journeys)
    assert boardings == {7: [(0, 3), (0, 1)]}
    assert pruned_length_km(j, boardings[7][:1]) == j.baseline_km
    assert pruned_length_km(j, boardings[7]) > j.baseline_km


def test_rider_validation():
    with pytest.raises(ValueError):
        Rider(-1, P, R, 100)
    with pytest.raises(ValueError):
        Rider(1, P, R, -5)

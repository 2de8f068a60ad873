import math

import pytest

from poollines.drivers import (
    DriverJourney,
    JourneyStopTime,
    compute_driver_journeys,
    select_meeting_points,
)
from poollines.geo import EARTH_RADIUS_KM, GeoPoint, TravelModel, road_km
from poollines.gtfs import with_service_date
from poollines.injection import inject_poollines, pool_trip_id
from poollines.matching import (
    FeasibilityRules,
    Rider,
    RiderMode,
    RiderOutcome,
    drivers_used,
    resolve_rider,
)
from poollines.planner import Itinerary, Leg, Planner, PlanMode, PlanRequest
from poollines.scenario import ScenarioConfig, Window, generate_scenario
from poollines import simulation
from poollines.simulation import (
    EmissionModel,
    SimulationReport,
    SystemVariant,
    detour_histograms,
    modal_split,
    occupancy_histogram,
    run_comparison,
    run_variant,
    vkt_and_co2,
)
from poollines.synthetic import (
    CITY_SERVICE_DATE,
    build_synthetic_city,
    city_rectangles,
)

MODEL = TravelModel()
RULES = FeasibilityRules()
STATS = Window.from_texts("10:45:00", "11:15:00")


# ---- histogram and split arithmetic ---------------------------------


def _stub_journey(driver_id, baseline, length):
    p = GeoPoint(45.0, -122.3)
    st = JourneyStopTime(p, None, 0, 0)
    return DriverJourney(driver_id, (st, st), baseline, length)


def _walk_it(depart, arrive, km=0.1):
    leg = Leg("walk", depart, arrive, km, GeoPoint(45, -122.3), GeoPoint(45, -122.29))
    return Itinerary((leg,), depart, arrive, km, 0)


def _outcome(rider_id, mode=RiderMode.FOOT, depart=39000, arrive=39600, drivers=frozenset()):
    if mode is RiderMode.UNSERVED:
        return RiderOutcome(rider_id, mode, None)
    return RiderOutcome(rider_id, mode, _walk_it(depart, arrive), drivers)


def _rider(rider_id, departure=39000):
    return Rider(rider_id, GeoPoint(45.0, -122.3), GeoPoint(45.01, -122.29), departure)


def test_modal_split_percentages():
    pairs = [
        (_rider(1), _outcome(1, RiderMode.FOOT)),
        (_rider(2), _outcome(2, RiderMode.FOOT)),
        (_rider(3), _outcome(3, RiderMode.UNSERVED)),
        (_rider(4), _outcome(4, RiderMode.TRANSIT)),
    ]
    split = modal_split(pairs)
    assert split["foot"] == 50.0
    assert split["unserved"] == 25.0
    assert split["transit"] == 25.0
    assert split["carpooling"] == 0.0
    assert set(split) == {m.value for m in RiderMode}
    assert sum(split.values()) == pytest.approx(100.0)


def test_modal_split_empty_window():
    assert all(v == 0.0 for v in modal_split([]).values())


def test_occupancy_histogram_counts_idle_drivers():
    from test_matching import _journey7, _pool_outcome

    journeys = {7: _journey7(), 8: _journey7(), 9: _journey7()}
    outcomes = [
        _pool_outcome(1, 7, "MO", "MD"),
        _pool_outcome(2, 7, "MO", "MD"),
        _pool_outcome(3, 8, "MO", "MD"),
    ]
    assert occupancy_histogram(outcomes, journeys) == {0: 1, 1: 1, 2: 1}
    assert occupancy_histogram([], journeys) == {0: 3}


def test_detour_ratio_bins():
    # Detours sit away from the 5 and 10 percent edges (products like
    # 100 * 1.05 carry float noise); the budget edge itself is probed
    # with a 1e-9 margin on either side.
    detours = [0.0, 3.0, 4.9, 6.0, 9.0, 11.0, 14.999999, 15.0000002, 30.0]
    journeys = {
        i: _stub_journey(i, 100.0, 100.0 + d) for i, d in enumerate(detours)
    }
    ratio_hist, _ = detour_histograms(journeys)
    assert ratio_hist == {
        "0%": 1,
        "0-5%": 2,
        "5-10%": 2,
        "10-15%": 2,
        ">15%": 2,
    }


def test_detour_km_bins():
    journeys = {
        i: _stub_journey(i, 100.0, 100.0 + km)
        for i, km in enumerate([0.0, 0.4, 0.6, 5.4, 5.6, 10.2, 12.0, 15.4, 15.6])
    }
    _, km_hist = detour_histograms(journeys)
    assert km_hist == {
        "0 km": 2,       # 0.0 and 0.4 round to zero
        "1-5 km": 2,     # 0.6 and 5.4
        "6-10 km": 2,    # 5.6 and 10.2
        "11-15 km": 2,   # 12.0 and 15.4
        ">15 km": 1,     # 15.6
    }


# ---- the savings formula --------------------------------------------


def _report(variant, riders, outcomes, journeys=None):
    return SimulationReport(
        variant=variant,
        outcomes=tuple(outcomes),
        riders=tuple(riders),
        stats_window=STATS,
        pruned_journeys=journeys or {},
        voided_drivers=frozenset(),
    )


def _long_od_rider(rider_id, km):
    # A meridian displacement whose road distance is exactly km.
    dlat = math.degrees(km / 1.3 / EARTH_RADIUS_KM)
    return Rider(rider_id, GeoPoint(0.0, 8.0), GeoPoint(dlat, 8.0), 39000)


def test_co2_rate_for_a_known_saving():
    # One rider gained, 6392 road km, no carrying drivers: over a half
    # hour window at 97 g/km that is 1240.048 kg per hour.
    rider = _long_od_rider(1, 6392.0)
    current = _report(SystemVariant.CURRENT, [rider], [_outcome(1, RiderMode.UNSERVED)])
    integrated = _report(
        SystemVariant.INTEGRATED, [rider], [_outcome(1, RiderMode.TRANSIT)]
    )
    vkt, co2 = vkt_and_co2(current, integrated, {}, MODEL, EmissionModel())
    assert vkt == pytest.approx(6392.0, abs=1e-6)
    assert co2 == pytest.approx(1240.048, abs=1e-4)
    assert abs(co2 - 1240.0) <= 1.0


def test_savings_subtract_carrier_detours():
    rider = _long_od_rider(1, 100.0)
    pool_leg = Leg(
        "carpool", 39000, 39600, 5.0, rider.origin, rider.destination,
        trip_id=pool_trip_id(5), from_stop="A", to_stop="B",
    )
    it = Itinerary((pool_leg,), 39000, 39600, 0.0, 0)
    served = RiderOutcome(1, RiderMode.CARPOOLING, it, drivers_used(it))
    current = _report(SystemVariant.CURRENT, [rider], [_outcome(1, RiderMode.UNSERVED)])
    integrated = _report(SystemVariant.INTEGRATED, [rider], [served])
    journeys = {5: _stub_journey(5, 40.0, 42.5)}  # 2.5 km of detour
    vkt, co2 = vkt_and_co2(current, integrated, journeys, MODEL, EmissionModel())
    assert vkt == pytest.approx(100.0 - 2.5, abs=1e-6)
    assert co2 == pytest.approx(vkt * 97.0 / 1000.0 / 0.5, rel=1e-12)


def test_no_gain_no_savings():
    rider = _long_od_rider(1, 50.0)
    served = [_outcome(1, RiderMode.TRANSIT)]
    current = _report(SystemVariant.CURRENT, [rider], served)
    integrated = _report(SystemVariant.INTEGRATED, [rider], served)
    vkt, co2 = vkt_and_co2(current, integrated, {}, MODEL, EmissionModel())
    assert vkt == 0.0
    assert co2 == 0.0


def test_riders_outside_the_stats_window_do_not_count():
    rider = _long_od_rider(1, 80.0)
    rider = Rider(1, rider.origin, rider.destination, STATS.end)  # just outside
    current = _report(SystemVariant.CURRENT, [rider], [_outcome(1, RiderMode.UNSERVED)])
    integrated = _report(
        SystemVariant.INTEGRATED,
        [rider],
        [RiderOutcome(1, RiderMode.TRANSIT, _walk_it(STATS.end, STATS.end + 600))],
    )
    vkt, _ = vkt_and_co2(current, integrated, {}, MODEL, EmissionModel())
    assert vkt == 0.0


# ---- report bookkeeping ---------------------------------------------


def test_report_window_helpers():
    riders = [_rider(1, 39000), _rider(2, STATS.start - 1), _rider(3, 40000)]
    outcomes = [
        _outcome(1, RiderMode.TRANSIT, depart=39000),
        _outcome(2, RiderMode.TRANSIT, depart=STATS.start - 1),
        _outcome(3, RiderMode.UNSERVED),
    ]
    report = _report(SystemVariant.INTEGRATED, riders, outcomes)
    # The pipeline fills modal_split from the window pairs; do the same.
    report.modal_split = modal_split(report.stats_pairs())
    assert [r.rider_id for r, _ in report.stats_pairs()] == [1, 3]
    assert report.served_ids() == frozenset({1})
    assert report.unserved_share() == pytest.approx(50.0)


# ---- end to end on the synthetic city -------------------------------


@pytest.fixture(scope="module")
def small_world():
    city = with_service_date(build_synthetic_city(), CITY_SERVICE_DATE)
    cfg = ScenarioConfig(
        rectangles=city_rectangles(),
        driver_density=0.0,
        rider_density=0.0,
        driver_count=90,
        rider_count=150,
        seed=9,
        area_km2=400.0,
    )
    scenario = generate_scenario(cfg)
    points = select_meeting_points(city)
    journeys = {
        j.driver_id: j
        for j in compute_driver_journeys(list(scenario.drivers), points, MODEL, seed=cfg.seed)
    }
    augmented = inject_poollines(city, list(journeys.values()), CITY_SERVICE_DATE)
    planner = Planner(augmented, MODEL)
    return city, scenario, journeys, planner


def test_three_variants_compare_sensibly(small_world):
    _, scenario, journeys, planner = small_world
    result = run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        capacity_enforcement=False,
    )
    nc = result.reports[SystemVariant.NO_CARPOOLING]
    cu = result.reports[SystemVariant.CURRENT]
    ig = result.reports[SystemVariant.INTEGRATED]

    for report in (nc, cu, ig):
        assert len(report.outcomes) == len(scenario.riders)
        assert sum(report.modal_split.values()) == pytest.approx(100.0)

    # No pool modes without pooling; no mixed journeys in CURRENT.
    assert nc.modal_split["carpooling"] == 0.0
    assert nc.modal_split["multi_carpooling"] == 0.0
    assert nc.modal_split["multimodal"] == 0.0
    assert cu.modal_split["multimodal"] == 0.0

    assert nc.served_ids() <= cu.served_ids() <= ig.served_ids()
    assert nc.unserved_share() >= cu.unserved_share() >= ig.unserved_share()

    assert result.vkt_saved_km is not None
    assert result.vkt_saved_km >= 0.0
    assert ig.vkt_saved_km == result.vkt_saved_km
    assert result.co2_saved_kg_per_hour == pytest.approx(
        result.vkt_saved_km * 97.0 / 1000.0 / ig.stats_window.hours
    )


def test_no_carpooling_equals_planning_on_the_bare_feed(small_world):
    # Pool stops are unreachable when pool trips are filtered out, so
    # resolving against the augmented feed must reproduce the bare one.
    city, scenario, journeys, planner = small_world
    bare = Planner(city, MODEL)
    report = run_variant(
        scenario, SystemVariant.NO_CARPOOLING, planner, journeys, RULES
    )
    for rider, outcome in zip(scenario.riders, report.outcomes):
        expected = resolve_rider(bare, rider, RULES, mode=PlanMode.TRANSIT_NO_POOL)
        assert outcome.mode is expected.mode
        assert outcome.drivers_used == frozenset()
        if expected.itinerary is None:
            assert outcome.itinerary is None
        else:
            assert outcome.itinerary.arrive == expected.itinerary.arrive
            assert outcome.itinerary.total_walk_km == expected.itinerary.total_walk_km
            assert len(outcome.itinerary.legs) == len(expected.itinerary.legs)


def test_capacity_enforcement_strands_riders_consistently(small_world):
    _, scenario, journeys, planner = small_world
    relaxed = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES,
        capacity_enforcement=False,
    )
    strict = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES,
        capacity_enforcement=True,
    )
    assert relaxed.voided_drivers == frozenset()
    for o in strict.outcomes:
        assert not (o.drivers_used & strict.voided_drivers)
    assert strict.served_ids() <= relaxed.served_ids()
    # Voiding can only shrink service.
    assert strict.unserved_share() >= relaxed.unserved_share()


def test_parallel_resolution_matches_serial(small_world):
    _, scenario, journeys, planner = small_world
    serial = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES, workers=1
    )
    parallel = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES, workers=3
    )
    assert serial.outcomes == parallel.outcomes
    assert serial.modal_split == parallel.modal_split
    assert serial.occupancy_hist == parallel.occupancy_hist


def test_comparison_is_deterministic(small_world):
    _, scenario, journeys, planner = small_world
    a = run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        variants=(SystemVariant.CURRENT, SystemVariant.INTEGRATED),
    )
    b = run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        variants=(SystemVariant.CURRENT, SystemVariant.INTEGRATED),
    )
    assert a.vkt_saved_km == b.vkt_saved_km
    for v in a.reports:
        assert a.reports[v].outcomes == b.reports[v].outcomes


@pytest.mark.parametrize(
    "variants, modes",
    [
        (tuple(SystemVariant), 3),
        ((SystemVariant.CURRENT,), 2),
        ((SystemVariant.NO_CARPOOLING,), 1),
    ],
)
def test_comparison_solves_each_rider_mode_once(small_world, monkeypatch, variants, modes):
    _, scenario, journeys, planner = small_world
    calls: list[tuple[int, PlanMode]] = []

    def counting(planner, rider, rules, mode=PlanMode.TRANSIT, *args):
        calls.append((rider.rider_id, mode))
        return resolve_rider(planner, rider, rules, mode, *args)

    monkeypatch.setattr(simulation, "resolve_rider", counting)
    run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        variants=variants, workers=1,
    )
    assert len(calls) == modes * len(scenario.riders)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("workers", [1, 3])
def test_comparison_equals_variants_run_alone(small_world, workers):
    _, scenario, journeys, planner = small_world
    assert len(scenario.riders) > 32  # so that workers=3 forks
    result = run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        capacity_enforcement=True, workers=workers,
    )
    for v in SystemVariant:
        alone = run_variant(
            scenario, v, planner, journeys, RULES,
            capacity_enforcement=True, workers=workers,
        )
        shared = result.reports[v]
        assert shared.outcomes == alone.outcomes
        assert shared.voided_drivers == alone.voided_drivers
        assert shared.modal_split == alone.modal_split
        assert shared.occupancy_hist == alone.occupancy_hist
        assert shared.detour_ratio_hist == alone.detour_ratio_hist
        assert shared.detour_km_hist == alone.detour_km_hist

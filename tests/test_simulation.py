import pytest

from poollines.drivers import compute_driver_journeys, select_meeting_points
from poollines.geo import TravelModel
from poollines.gtfs import with_service_date
from poollines.injection import inject_poollines
from poollines.matching import FeasibilityRules, resolve_rider
from poollines.planner import Planner, PlanMode
from poollines.scenario import ScenarioConfig, generate_scenario
from poollines import simulation
from poollines.reports import report_summary, served_ids
from poollines.simulation import (
    EmissionModel,
    SimulationResult,
    SystemVariant,
    run_comparison,
    run_variant,
)
from poollines.synthetic import (
    CITY_SERVICE_DATE,
    build_synthetic_city,
    city_rectangles,
)

MODEL = TravelModel()
RULES = FeasibilityRules()


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


def _served(scenario, report):
    return served_ids(report.outcomes, scenario.riders, scenario.config.stats_window)


def _figures(scenario, journeys, report):
    """The report.json figures of one variant run alone."""
    result = SimulationResult(scenario, {report.variant: report}, journeys, MODEL, EmissionModel())
    return report_summary(result)["variants"][report.variant.value]


def test_three_variants_compare_sensibly(small_world):
    _, scenario, journeys, planner = small_world
    result = run_comparison(
        scenario, planner, journeys, RULES, MODEL, EmissionModel(),
        capacity_enforcement=False,
    )
    summary = report_summary(result)
    nc, cu, ig = (summary["variants"][v.value]["modal_split_pct"] for v in SystemVariant)

    for report in result.reports.values():
        assert len(report.outcomes) == len(scenario.riders)
    for split in (nc, cu, ig):
        assert sum(split.values()) == pytest.approx(100.0)

    # No pool modes without pooling; no mixed journeys in CURRENT.
    assert nc["carpooling"] == 0.0
    assert nc["multi_carpooling"] == 0.0
    assert nc["multimodal"] == 0.0
    assert cu["multimodal"] == 0.0

    served = [_served(scenario, result.reports[v]) for v in SystemVariant]
    assert served[0] <= served[1] <= served[2]
    assert nc["unserved"] >= cu["unserved"] >= ig["unserved"]

    assert summary["vkt_saved_km"] is not None
    assert summary["vkt_saved_km"] >= 0.0
    assert summary["co2_saved_kg_per_hour"] == pytest.approx(
        summary["vkt_saved_km"] * 97.0 / 1000.0 / scenario.config.stats_window.hours
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
    assert _served(scenario, strict) <= _served(scenario, relaxed)
    # Voiding can only shrink service.
    unserved = [
        _figures(scenario, journeys, r)["modal_split_pct"]["unserved"] for r in (strict, relaxed)
    ]
    assert unserved[0] >= unserved[1]


def test_parallel_resolution_matches_serial(small_world):
    _, scenario, journeys, planner = small_world
    serial = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES, workers=1
    )
    parallel = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES, workers=3
    )
    assert serial.outcomes == parallel.outcomes
    assert _figures(scenario, journeys, serial) == _figures(scenario, journeys, parallel)


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
    assert report_summary(a) == report_summary(b)
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
        assert shared.boardings == alone.boardings
        assert _figures(scenario, journeys, shared) == _figures(scenario, journeys, alone)
    # Some driver is boarded in one variant and left alone in another.
    boarded = [set(r.boardings) for r in result.reports.values()]
    assert set.union(*boarded) and set.union(*boarded) != set.intersection(*boarded)

"""The shipped guarantees, one test per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one verdict line
per criterion.  The ten-seed scenario sweep and the full-scale run are
session fixtures, so the whole suite stays in the minutes range.
"""
import json
import time
from statistics import fmean, median

import numpy as np
import pytest

from oracles import OracleRouter, footpaths_from_links, random_endpoints, random_feed
from test_gtfs import _timetables_equal
from test_reports import _long_od_rider, _outcome, _savings

from poollines.cli import main
from poollines.drivers import compute_driver_journeys, select_meeting_points
from poollines.geo import TravelModel
from poollines.gtfs import parse_gtfs, with_service_date, write_gtfs
from poollines.injection import inject_poollines, is_poolline_trip
from poollines.matching import FeasibilityRules, RiderMode
from poollines.planner import Planner, PlanRequest
from poollines.reports import report_summary, served_ids
from poollines.scenario import ScenarioConfig, generate_scenario
from poollines.simulation import EmissionModel, SystemVariant, run_comparison, run_variant
from poollines.synthetic import CITY_SERVICE_DATE, build_synthetic_city, city_rectangles

MODEL = TravelModel()
RULES = FeasibilityRules()

# The reference densities, scaled down to keep ten seeded runs fast.
DENSITY_SCALE = 0.25
DRIVER_DENSITY = 4.8 * DENSITY_SCALE
RIDER_DENSITY = 8.3 * DENSITY_SCALE
SWEEP_SEEDS = tuple(range(1, 11))
WORKERS = 4


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {num} {name}{tail}"


def _city_and_points():
    city = with_service_date(build_synthetic_city(), CITY_SERVICE_DATE)
    return city, select_meeting_points(city)


def _city_config(seed, **kwargs):
    return ScenarioConfig(
        rectangles=city_rectangles(),
        driver_density=kwargs.pop("driver_density", 0.0),
        rider_density=kwargs.pop("rider_density", 0.0),
        seed=seed,
        area_km2=400.0,
        **kwargs,
    )


# ---- 1: routing correctness -----------------------------------------


def test_criterion_1_planner_equals_the_event_graph_oracle():
    start = time.perf_counter()
    checked = 0
    for feed_i in range(200):
        rng = np.random.default_rng([777, feed_i])
        timetable, links = random_feed(rng, MODEL)
        planner = Planner(timetable, MODEL, footpaths=footpaths_from_links(timetable, links))
        oracle = OracleRouter(timetable, MODEL, [(a, b, s) for a, b, s, _ in links])
        for _ in range(20):
            org, dst, dep = random_endpoints(rng)
            got = planner.earliest_arrival(PlanRequest(org, dst, dep))
            want = oracle.earliest_arrival(org, dst, dep)
            assert got.arrive == want, f"feed {feed_i}: {got.arrive} != {want}"
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 4000 and elapsed < 60.0
    _verdict(
        1,
        "planner equals the event-graph oracle",
        ok,
        f"{checked}/4000 exact integer-second matches in {elapsed:.1f}s, budget 60s",
    )


# ---- 2: detour budget -----------------------------------------------


def test_criterion_2_detour_budget_never_exceeded():
    city, points = _city_and_points()
    cfg = _city_config(4242, driver_count=10_000, rider_count=0)
    scenario = generate_scenario(cfg)
    journeys = compute_driver_journeys(list(scenario.drivers), points, MODEL, seed=cfg.seed)
    violations = sum(1 for j in journeys if j.detour_ratio > 0.15 + 1e-9)
    worst = max(j.detour_ratio for j in journeys)
    ok = len(journeys) == 10_000 and violations == 0
    _verdict(
        2,
        "accepted detours stay within the 15% budget",
        ok,
        f"{len(journeys)} drivers, {violations} violations, worst ratio {worst:.9f}",
    )


# ---- 3: feed interoperability ---------------------------------------


def test_criterion_3_injection_round_trip_and_naming(tmp_path):
    city, points = _city_and_points()
    cfg = _city_config(33, driver_count=100, rider_count=0)
    scenario = generate_scenario(cfg)
    journeys = compute_driver_journeys(list(scenario.drivers), points, MODEL, seed=cfg.seed)
    augmented = inject_poollines(city, journeys, CITY_SERVICE_DATE)
    write_gtfs(augmented, tmp_path / "feed")
    parsed = parse_gtfs(tmp_path / "feed")

    same = _timetables_equal(parsed, augmented)
    naming = True
    for j in journeys:
        k = j.driver_id
        route_id = f"route of carpooler number {k}"
        trip = parsed.trips.get(f"1162238700{k}")
        route = parsed.routes.get(route_id)
        naming = naming and trip is not None and trip.route_id == route_id
        naming = naming and route is not None and route.name == route_id
        naming = naming and f"DRIVER_origin_{k}" in parsed.stops
        naming = naming and f"DRIVER_destination_{k}" in parsed.stops
    count = sum(1 for t in parsed.trips if is_poolline_trip(t))
    ok = same and naming and count == 100
    _verdict(
        3,
        "poolline injection survives a write/parse round trip",
        ok,
        f"{count} poollines, fields equal: {same}, naming exact: {naming}",
    )


# ---- 4-6: the three-system comparison -------------------------------


@pytest.fixture(scope="session")
def scenario_sweep():
    city, points = _city_and_points()
    results = []
    for seed in SWEEP_SEEDS:
        cfg = _city_config(
            seed, driver_density=DRIVER_DENSITY, rider_density=RIDER_DENSITY
        )
        scenario = generate_scenario(cfg)
        journeys = {
            j.driver_id: j
            for j in compute_driver_journeys(list(scenario.drivers), points, MODEL, seed=seed)
        }
        augmented = inject_poollines(
            city, [journeys[d] for d in sorted(journeys)], CITY_SERVICE_DATE
        )
        planner = Planner(augmented, MODEL)
        results.append(
            run_comparison(
                scenario, planner, journeys, RULES, MODEL, EmissionModel(),
                capacity_enforcement=False, workers=WORKERS,
            )
        )
    return results


def _served(result):
    """Stats-window riders served by NO_CARPOOLING, CURRENT and INTEGRATED."""
    window = result.scenario.config.stats_window
    return tuple(
        served_ids(result.reports[v].outcomes, result.scenario.riders, window)
        for v in SystemVariant
    )


def _figures(result):
    """The report.json figures of NO_CARPOOLING, CURRENT and INTEGRATED."""
    summary = report_summary(result)
    return tuple(summary["variants"][v.value] for v in SystemVariant)


def test_criterion_4_served_set_inclusion(scenario_sweep):
    ok = True
    for result in scenario_sweep:
        nc, cu, ig = _served(result)
        ok = ok and nc <= cu <= ig
    _verdict(
        4,
        "served sets nest across the three systems",
        ok,
        f"{len(scenario_sweep)} seeds at 25% densities, capacity enforcement off",
    )


def test_criterion_5_unserved_share_strictly_decreases(scenario_sweep):
    ok = True
    gains = []
    for result in scenario_sweep:
        nc, cu, ig = (f["modal_split_pct"]["unserved"] for f in _figures(result))
        ok = ok and nc > cu > ig
        _, served_cu, served_ig = _served(result)
        ok = ok and len(served_ig) > len(served_cu)
        gains.append(100.0 * (len(served_ig) - len(served_cu)) / len(served_cu))
    _verdict(
        5,
        "unserved share strictly drops at each integration step",
        ok,
        f"integrated serves {fmean(gains):.1f}% more riders than current on average",
    )


def _multi_rider_share(figures):
    hist = figures["occupancy_hist"]
    total = sum(hist.values())
    multi = sum(v for k, v in hist.items() if int(k) >= 2)
    return 100.0 * multi / total if total else 0.0


def test_criterion_6_multi_rider_occupancy_does_not_drop(scenario_sweep):
    figures = [_figures(r) for r in scenario_sweep]
    current = fmean(_multi_rider_share(f[1]) for f in figures)
    integrated = fmean(_multi_rider_share(f[2]) for f in figures)
    ok = integrated >= current
    _verdict(
        6,
        "share of drivers carrying 2+ riders holds up under integration",
        ok,
        f"mean over seeds: integrated {integrated:.2f}% vs current {current:.2f}%",
    )


# ---- 7: emission arithmetic -----------------------------------------


def test_criterion_7_co2_rate_for_a_known_saving():
    rider = _long_od_rider(1, 6392.0)
    vkt, co2 = _savings(
        [rider], [_outcome(1, RiderMode.UNSERVED)], [_outcome(1, RiderMode.TRANSIT)]
    )
    ok = abs(vkt - 6392.0) <= 1e-6 and abs(co2 - 1240.0) <= 1.0
    _verdict(
        7,
        "co2 savings rate arithmetic",
        ok,
        f"6392 km over a 30-minute window: {co2:.3f} kg/h, expected 1240 +/- 1",
    )


# ---- 8: full-scale performance --------------------------------------


@pytest.fixture(scope="session")
def full_scale_run():
    city, points = _city_and_points()
    cfg = _city_config(1, driver_count=2848, rider_count=5498)
    scenario = generate_scenario(cfg)
    start = time.perf_counter()
    journeys = {
        j.driver_id: j
        for j in compute_driver_journeys(list(scenario.drivers), points, MODEL, seed=cfg.seed)
    }
    augmented = inject_poollines(
        city, [journeys[d] for d in sorted(journeys)], CITY_SERVICE_DATE
    )
    planner = Planner(augmented, MODEL)
    report = run_variant(
        scenario, SystemVariant.INTEGRATED, planner, journeys, RULES, workers=WORKERS
    )
    elapsed = time.perf_counter() - start
    return scenario, planner, report, elapsed


def test_criterion_8_full_scale_run_time_and_query_latency(full_scale_run):
    scenario, planner, report, elapsed = full_scale_run
    assert len(report.outcomes) == 5498

    rng = np.random.default_rng(505)
    riders = rng.choice(len(scenario.riders), size=200, replace=False)
    samples = []
    for i in riders:
        r = scenario.riders[int(i)]
        req = PlanRequest(r.origin, r.destination, r.departure_time)
        tick = time.perf_counter()
        planner.earliest_arrival(req)
        samples.append(time.perf_counter() - tick)
    query_ms = 1000.0 * median(samples)
    ok = elapsed < 300.0 and query_ms < 20.0
    _verdict(
        8,
        "full-scale integrated run and query latency",
        ok,
        f"2848 drivers + 5498 riders in {elapsed:.1f}s (budget 300s), "
        f"median query {query_ms:.2f} ms (budget 20 ms)",
    )


# ---- 9: determinism -------------------------------------------------


def test_criterion_9_identical_runs_are_byte_identical(tmp_path):
    config = {
        "synthetic_city": True,
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
        "workers": WORKERS,
        "scenario": {
            "rectangles": "city",
            "driver_count": 60,
            "rider_count": 120,
            "area_km2": 400.0,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for run in ("run_a", "run_b"):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / run)]) == 0
    files_a = sorted(p.name for p in (tmp_path / "run_a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "run_b").iterdir())
    same = files_a == files_b and all(
        (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()
        for name in files_a
    )
    _verdict(
        9,
        "two identical simulate runs write byte-identical outputs",
        same,
        f"{len(files_a)} files compared",
    )

"""The run records and the one summariser every aggregate comes from.

No planner runs here: records are built from hand-made outcomes and
journeys, or drawn by hypothesis, and summarised directly.
"""
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poollines.drivers import Driver
from poollines.geo import EARTH_RADIUS_KM, GeoPoint, TravelModel
from poollines.injection import pool_trip_id
from poollines.matching import Rider, RiderMode, RiderOutcome, boardings_by_driver, drivers_used
from poollines.planner import Itinerary, Leg
from poollines.reports import (
    JourneyRecord,
    OutcomeRecord,
    RunRecords,
    journey_records,
    outcome_records,
    read_records,
    served_ids,
    summarise,
    write_report,
    write_tables,
)
from poollines.scenario import Scenario, ScenarioConfig, Window, write_agents
from poollines.simulation import EmissionModel, SimulationReport, SystemVariant
from poollines.synthetic import city_rectangles

MODEL = TravelModel()
STATS = Window.from_texts("10:45:00", "11:15:00")
CURRENT, INTEGRATED = SystemVariant.CURRENT, SystemVariant.INTEGRATED


def _walk_it(depart, arrive, km=0.1):
    leg = Leg("walk", depart, arrive, km, GeoPoint(45, -122.3), GeoPoint(45, -122.29))
    return Itinerary((leg,), depart, arrive, km, 0)


def _outcome(rider_id, mode=RiderMode.FOOT, depart=39000, arrive=39600, drivers=frozenset()):
    if mode is RiderMode.UNSERVED:
        return RiderOutcome(rider_id, mode, None)
    return RiderOutcome(rider_id, mode, _walk_it(depart, arrive), drivers)


def _rider(rider_id, departure=39000):
    return Rider(rider_id, GeoPoint(45.0, -122.3), GeoPoint(45.01, -122.29), departure)


def _long_od_rider(rider_id, km):
    # A meridian displacement whose road distance is exactly km.
    dlat = math.degrees(km / 1.3 / EARTH_RADIUS_KM)
    return Rider(rider_id, GeoPoint(0.0, 8.0), GeoPoint(dlat, 8.0), 39000)


def _summary(riders, outcomes, journeys=None):
    """Summarise rider outcomes per variant, with journey records per variant."""
    journeys = journeys or {}
    records = RunRecords(
        tuple(riders),
        {v: outcome_records(o) for v, o in outcomes.items()},
        {v: tuple(journeys.get(v, ())) for v in outcomes},
    )
    return summarise(records, STATS, MODEL, EmissionModel())


def _savings(riders, current, integrated, journeys=()):
    summary = _summary(riders, {CURRENT: current, INTEGRATED: integrated}, {INTEGRATED: journeys})
    return summary["vkt_saved_km"], summary["co2_saved_kg_per_hour"]


def _pruned(driver_id, baseline, length):
    """A journey record whose pruned length is ``length``."""
    return JourneyRecord(driver_id, baseline, length, length, 0, False)


# ---- modal split, served set, occupancy, detours ---------------------


def test_modal_split_percentages():
    riders = [_rider(i) for i in (1, 2, 3, 4)]
    outcomes = [
        _outcome(1, RiderMode.FOOT),
        _outcome(2, RiderMode.FOOT),
        _outcome(3, RiderMode.UNSERVED),
        _outcome(4, RiderMode.TRANSIT),
    ]
    split = _summary(riders, {INTEGRATED: outcomes})["variants"]["integrated"]["modal_split_pct"]
    assert split["foot"] == 50.0
    assert split["unserved"] == 25.0
    assert split["transit"] == 25.0
    assert split["carpooling"] == 0.0
    assert set(split) == {m.value for m in RiderMode}
    assert sum(split.values()) == pytest.approx(100.0)


def test_modal_split_empty_window():
    split = _summary([], {INTEGRATED: []})["variants"]["integrated"]["modal_split_pct"]
    assert split == {m.value: None for m in RiderMode}


def test_occupancy_histogram_counts_idle_drivers():
    from test_matching import _journey7, _pool_outcome

    journeys = {7: _journey7(), 8: _journey7(), 9: _journey7()}
    outcomes = [
        _pool_outcome(1, 7, "MO", "MD"),
        _pool_outcome(2, 7, "MO", "MD"),
        _pool_outcome(3, 8, "MO", "MD"),
    ]

    def histogram(outcomes):
        report = SimulationReport(
            INTEGRATED, tuple(outcomes), boardings_by_driver(outcomes, journeys), frozenset()
        )
        summary = _summary(
            [_rider(i) for i in (1, 2, 3)],
            {INTEGRATED: outcomes},
            {INTEGRATED: journey_records(report, journeys)},
        )
        return {int(k): n for k, n in summary["variants"]["integrated"]["occupancy_hist"].items()}

    assert histogram(outcomes) == {0: 1, 1: 1, 2: 1}
    assert histogram([]) == {0: 3}


def _detour_hists(detours):
    journeys = [_pruned(i, 100.0, 100.0 + d) for i, d in enumerate(detours)]
    figures = _summary([], {INTEGRATED: []}, {INTEGRATED: journeys})["variants"]["integrated"]
    return figures["detour_ratio_hist"], figures["detour_km_hist"]


def test_detour_ratio_bins():
    # Detours sit away from the 5 and 10 percent edges (products like
    # 100 * 1.05 carry float noise); the budget edge itself is probed
    # with a 1e-9 margin on either side.
    ratio_hist, _ = _detour_hists([0.0, 3.0, 4.9, 6.0, 9.0, 11.0, 14.999999, 15.0000002, 30.0])
    assert ratio_hist == {
        "0%": 1,
        "0-5%": 2,
        "5-10%": 2,
        "10-15%": 2,
        ">15%": 2,
    }


def test_detour_km_bins():
    _, km_hist = _detour_hists([0.0, 0.4, 0.6, 5.4, 5.6, 10.2, 12.0, 15.4, 15.6])
    assert km_hist == {
        "0 km": 2,       # 0.0 and 0.4 round to zero
        "1-5 km": 2,     # 0.6 and 5.4
        "6-10 km": 2,    # 5.6 and 10.2
        "11-15 km": 2,   # 12.0 and 15.4
        ">15 km": 1,     # 15.6
    }


def test_report_window_helpers():
    riders = [_rider(1, 39000), _rider(2, STATS.start - 1), _rider(3, 40000)]
    outcomes = [
        _outcome(1, RiderMode.TRANSIT, depart=39000),
        _outcome(2, RiderMode.TRANSIT, depart=STATS.start - 1),
        _outcome(3, RiderMode.UNSERVED),
    ]
    figures = _summary(riders, {INTEGRATED: outcomes})["variants"]["integrated"]
    assert figures["riders_total"] == 3
    assert figures["riders_in_stats_window"] == 2
    assert served_ids(outcomes, riders, STATS) == frozenset({1})
    assert served_ids(outcome_records(outcomes), riders, STATS) == frozenset({1})
    assert figures["modal_split_pct"]["unserved"] == pytest.approx(50.0)


# ---- the savings formula --------------------------------------------


def test_co2_rate_for_a_known_saving():
    # One rider gained, 6392 road km, no carrying drivers: over a half
    # hour window at 97 g/km that is 1240.048 kg per hour.
    rider = _long_od_rider(1, 6392.0)
    vkt, co2 = _savings(
        [rider], [_outcome(1, RiderMode.UNSERVED)], [_outcome(1, RiderMode.TRANSIT)]
    )
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
    vkt, co2 = _savings(
        [rider], [_outcome(1, RiderMode.UNSERVED)], [served],
        [_pruned(5, 40.0, 42.5)],  # 2.5 km of detour
    )
    assert vkt == pytest.approx(100.0 - 2.5, abs=1e-6)
    assert co2 == pytest.approx(vkt * 97.0 / 1000.0 / 0.5, rel=1e-12)


def test_no_gain_no_savings():
    rider = _long_od_rider(1, 50.0)
    served = [_outcome(1, RiderMode.TRANSIT)]
    vkt, co2 = _savings([rider], served, served)
    assert vkt == 0.0
    assert co2 == 0.0


def test_riders_outside_the_stats_window_do_not_count():
    rider = _long_od_rider(1, 80.0)
    rider = Rider(1, rider.origin, rider.destination, STATS.end)  # just outside
    vkt, _ = _savings(
        [rider],
        [_outcome(1, RiderMode.UNSERVED)],
        [RiderOutcome(1, RiderMode.TRANSIT, _walk_it(STATS.end, STATS.end + 600))],
    )
    assert vkt == 0.0


def test_savings_need_both_current_and_integrated():
    rider = _long_od_rider(1, 50.0)
    summary = _summary([rider], {INTEGRATED: [_outcome(1, RiderMode.TRANSIT)]})
    assert summary["vkt_saved_km"] is None
    assert summary["co2_saved_kg_per_hour"] is None


# ---- records written and read back ----------------------------------


def test_records_of_a_comparison_are_typed():
    from test_matching import _journey7, _pool_outcome

    journeys = {7: _journey7()}
    outcomes = (_pool_outcome(1, 7, "MO", "MD"), _outcome(2, RiderMode.UNSERVED))
    report = SimulationReport(INTEGRATED, outcomes, {7: [(1, 2)]}, frozenset({7}))
    assert outcome_records(outcomes) == (
        OutcomeRecord(1, RiderMode.CARPOOLING, 0, 100, 0.0, 0, (7,)),
        OutcomeRecord(2, RiderMode.UNSERVED, None, None, None, None, ()),
    )
    j = journeys[7]
    assert journey_records(report, journeys) == (
        JourneyRecord(7, j.baseline_km, j.length_km, j.length_km, 1, True),
    )


_km = st.floats(0.0, 1e4, allow_nan=False)


@st.composite
def _run_records(draw):
    """Riders in and out of the stats window, and records of any variants."""
    rider_ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12))
    riders = tuple(
        Rider(
            rider_id,
            GeoPoint(draw(st.floats(-89.0, 89.0)), draw(st.floats(-179.0, 179.0))),
            GeoPoint(draw(st.floats(-89.0, 89.0)), draw(st.floats(-179.0, 179.0))),
            draw(st.integers(STATS.start - 1800, STATS.end + 1800)),
        )
        for rider_id in rider_ids
    )
    driver_ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=8))
    variants = draw(st.lists(st.sampled_from(list(SystemVariant)), unique=True))
    outcomes, journeys = {}, {}
    for variant in variants:
        rows = []
        for rider in riders:
            mode = draw(st.sampled_from(list(RiderMode)))
            if mode is RiderMode.UNSERVED:
                rows.append(OutcomeRecord(rider.rider_id, mode, None, None, None, None, ()))
                continue
            depart = draw(st.integers(0, 10**5))
            used = draw(st.lists(st.sampled_from(driver_ids), unique=True)) if driver_ids else []
            rows.append(
                OutcomeRecord(
                    rider.rider_id, mode, depart, depart + draw(st.integers(0, 10**4)),
                    draw(_km), draw(st.integers(0, 10**4)), tuple(sorted(used)),
                )
            )
        outcomes[variant] = tuple(rows)
        journeys[variant] = tuple(
            JourneyRecord(
                d, draw(_km), draw(_km), draw(_km), draw(st.integers(0, 8)), draw(st.booleans())
            )
            for d in sorted(driver_ids)
        )
    return RunRecords(riders, outcomes, journeys)


@settings(deadline=None, max_examples=60)
@given(records=_run_records())
def test_records_survive_the_files_and_summarise_identically(records):
    summary = summarise(records, STATS, MODEL, EmissionModel())
    # agents.csv holds the drivers of the journey tables; their trips are not read back.
    driver_ids = sorted({j.driver_id for table in records.journeys.values() for j in table})
    home = GeoPoint(45.0, -122.3)
    drivers = tuple(Driver(d, home, home, 0, 0) for d in driver_ids)
    scenario = Scenario(ScenarioConfig(city_rectangles(), 0.0, 0.0), drivers, records.riders)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        write_agents(outdir / "agents.csv", scenario)
        write_tables(outdir, records, summary)
        write_report(outdir, summary)
        back = read_records(outdir)
        assert back == records
        again = summarise(back, STATS, MODEL, EmissionModel())
        assert again == summary
        written = (outdir / "report.json").read_text(encoding="utf-8")
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == written

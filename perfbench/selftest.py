#!/usr/bin/env python3
"""Shows that every output check of the benchmark rejects a wrong result.

    python3 perfbench/selftest.py

Runs one small scenario on the synthetic city through the pipeline,
confirms the clean outputs pass every check, then corrupts one thing at
a time (a ride leg moved a minute earlier, a walk leg shortened, an
overloaded car, ...) and confirms the matching check reports it.
Exits 1 if the clean run fails a check or a corruption goes unnoticed.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

OUT = run.OUT / "selftest"
CONFIG = {
    "synthetic_city": True,
    "seed": 7,
    "workers": 1,
    "scenario": {"rectangles": "city", "driver_count": 400, "rider_count": 300, "area_km2": 400.0},
}


def _shift(leg, start: int, end: int):
    return dataclasses.replace(leg, start=leg.start + start, end=leg.end + end)


def _with_leg(outcome, index: int, leg):
    legs = list(outcome.itinerary.legs)
    legs[index] = leg
    return dataclasses.replace(outcome, itinerary=dataclasses.replace(outcome.itinerary, legs=tuple(legs)))


def main() -> int:
    api = run._program()
    ck = api.checks
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    (OUT / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    cfg = api.load_config(OUT / "config.json")

    timetable = api.with_service_date(api.build_synthetic_city(), cfg.service_date)
    scenario = api.generate_scenario(cfg.scenario)
    points = api.select_meeting_points(timetable, cfg.meeting_point_route_types)
    journeys = {
        j.driver_id: j
        for j in api.compute_driver_journeys(
            list(scenario.drivers), points, cfg.travel, cfg.tau, cfg.dwell_s, cfg.seed
        )
    }
    augmented = api.inject_poollines(timetable, [journeys[d] for d in sorted(journeys)], cfg.service_date)
    planner = api.Planner(augmented, cfg.travel, cfg.max_walk_km, cfg.transfer_s)
    result = api.run_comparison(
        scenario, planner, journeys, cfg.rules, cfg.travel, cfg.emissions, workers=1
    )
    outdir = OUT / "run"
    api.write_outputs(outdir, scenario, result)

    net = ck.Network(timetable, journeys)
    riders = {r.rider_id: r for r in scenario.riders}
    seats = {d.driver_id: d.seat_capacity for d in scenario.drivers}
    report = result.reports[api.SystemVariant.INTEGRATED]
    window = cfg.scenario.stats_window
    probes = [
        (req, planner.earliest_arrival(req))
        for req in (
            api.PlanRequest(r.origin, r.destination, r.departure_time) for r in scenario.riders[:20]
        )
    ]

    def outcomes(rep):
        return ck.outcome_problems(rep, riders, net, cfg)

    def metrics(directory):
        recomputed = api.recompute_metrics(directory, window, cfg.travel, cfg.emissions)
        return ck.metrics_problems(directory, api.report_summary(result), recomputed)

    clean = {
        "outcomes": sum((outcomes(r) for r in result.reports.values()), []),
        "capacity": sum((ck.capacity_problems(r, net, seats) for r in result.reports.values()), []),
        "detour": ck.detour_problems(journeys, cfg),
        "metrics": metrics(outdir),
        "probes": ck.probe_problems(planner, probes, net, cfg, api.CHECK_MODES),
        "oracle": ck.oracle_problems(planner, probes, cfg),
    }
    failed = False
    for name, problems in clean.items():
        print(f"clean {name}: {'pass' if not problems else problems[:3]}")
        failed = failed or bool(problems)

    served = [o for o in report.outcomes if o.itinerary is not None]
    ride_i, ride_o = next(
        (i, o) for i, o in enumerate(report.outcomes)
        if o.itinerary is not None and o.itinerary.ride_legs
    )
    ride_k = next(k for k, leg in enumerate(ride_o.itinerary.legs) if leg.kind != "walk")
    walk_i, walk_o, walk_k = next(
        (i, o, k) for i, o in enumerate(report.outcomes) if o.itinerary is not None
        for k, leg in enumerate(o.itinerary.legs) if leg.kind == "walk" and leg.end - leg.start > 60
    )
    pool_o = next(o for o in served if o.itinerary.carpool_legs)
    pool_d = ck.pool_driver(pool_o.itinerary.carpool_legs[0].trip_id)

    def corrupted(index, outcome, **changes):
        rows = list(report.outcomes)
        rows[index] = outcome
        return dataclasses.replace(report, outcomes=tuple(rows), **changes)

    # Five riders in one four-seat car, on the same carpool itinerary.
    crowd = list(report.outcomes)
    for k in range(5):
        crowd[k] = dataclasses.replace(pool_o, rider_id=crowd[k].rider_id)
    overloaded = dataclasses.replace(report, outcomes=tuple(crowd))

    far = dict(journeys)
    j = far[pool_d]
    bent = list(j.stoptimes)
    if len(bent) == 2:
        bent.insert(1, bent[0])
    start = bent[0].location
    bent[1] = dataclasses.replace(
        bent[1], location=api.GeoPoint(start.lat + 0.2, start.lon)
    )
    far[pool_d] = dataclasses.replace(j, stoptimes=tuple(bent))

    tampered = OUT / "tampered"
    shutil.copytree(outdir, tampered)
    table = tampered / "outcomes_integrated.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if ",unserved," not in line and i)
    fields = lines[row].split(",")
    lines[row] = ",".join([fields[0], "unserved", "", "", "", "", ""])
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")

    req, it = next((q, i) for q, i in probes if i.ride_legs)
    walk_arrival = req.departure + ck.reference_walk_seconds(req.origin, req.destination, cfg.travel)
    late = [(req, dataclasses.replace(it, arrive=walk_arrival + 60))]
    early = [(req, dataclasses.replace(it, arrive=it.arrive - 60))]

    feed_dir = OUT / "metro_gtfs"
    written = api.metro.write_metro_feed(feed_dir, 7)
    stop_times = feed_dir / "stop_times.txt"
    rows = stop_times.read_text(encoding="utf-8").splitlines()
    drop = next(i for i, line in enumerate(rows) if "_WEEKDAY_" in line and line.endswith(",1"))
    stop_times.write_text("\n".join(rows[:drop] + rows[drop + 1:]) + "\n", encoding="utf-8")

    served_sets = ck.served_sets(result, riders, window)
    kept = served_sets["current"] & served_sets["integrated"]
    shrunk = dict(served_sets, integrated=served_sets["integrated"] - {min(kept)})

    def breakers(served):
        return ck.breaker_problems(
            result, served, scenario, planner, journeys, cfg, api.simulation.run_variant
        )

    clean_breakers = breakers(served_sets)
    print(f"clean breakers: {'pass' if not clean_breakers else clean_breakers[:3]}")
    failed = failed or bool(clean_breakers)

    cases = {
        "ride leg one minute earlier": outcomes(
            corrupted(ride_i, _with_leg(ride_o, ride_k, _shift(ride_o.itinerary.legs[ride_k], -60, -60)))
        ),
        "walk leg shortened by a minute": outcomes(
            corrupted(walk_i, _with_leg(walk_o, walk_k, _shift(walk_o.itinerary.legs[walk_k], 0, -60)))
        ),
        "wrong modal category": outcomes(
            corrupted(ride_i, dataclasses.replace(ride_o, mode=api.RiderMode.FOOT))
        ),
        "five riders in a four-seat car": ck.capacity_problems(overloaded, net, seats),
        "served rider on a voided driver": ck.capacity_problems(
            dataclasses.replace(report, voided_drivers=frozenset({pool_d})), net, seats
        ),
        "driver detour beyond tau": ck.detour_problems(far, cfg),
        "outcome table edited after the run": metrics(tampered),
        "probe later than the direct walk": ck.probe_problems(planner, late, net, cfg, api.CHECK_MODES),
        "probe earlier than the oracle allows": ck.oracle_problems(planner, early, cfg),
        "stop_times row lost in parsing": ck.feed_count_problems(
            api.parse_gtfs(feed_dir, api.metro.SERVICE_DATE), written
        ),
        "integrated system drops a current rider": sorted(
            ck.nesting_breakers(shrunk) - ck.nesting_breakers(served_sets)
        ),
        "a breaker no voided driver explains": breakers(shrunk),
    }
    for name, problems in cases.items():
        print(f"{'caught' if problems else 'MISSED'}: {name}" + (f" -> {problems[0]}" if problems else ""))
        failed = failed or not problems
    shutil.rmtree(OUT, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

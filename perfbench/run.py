#!/usr/bin/env python3
"""Benchmark of the ``poollines simulate`` pipeline on three fixed workloads.

    python3 perfbench/run.py --workload city_full --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One round runs what ``poollines simulate`` runs, in the order
``cli.cmd_simulate`` runs it: feed, scenario, driver journeys,
injection, planner, ``run_comparison`` for all three variants with one
worker, and ``write_outputs``.  A run repeats whole rounds for about
``--seconds`` and reports medians over them.  Between the steps of a
round the benchmark sends probe queries to ``Planner.earliest_arrival``
(TRANSIT), so the probes are spread through the run.  Each timed step is
scaled by a speed gauge read around it (see ``_gauge``), so that the
host's speed swings do not show as changes of the program.  Every round
is checked by ``checks.py``; riders that break served-set nesting count
as failed operations.

The pipeline inputs of a workload are fixed; ``--seed`` orders the
riders the probes ask about.  ``--trace 1`` makes the traced run that
gives the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fixed hashing and single-threaded numeric libraries; set before numpy loads.
_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

PROBES = 150  # probe requests of a round; every round asks new ones
PROBE_POINTS = 3  # after the planner is built, after the comparison, after writing
WORKLOAD_NAMES = ("city_full", "quarter_one_seat", "metro_feed")
# The speed gauge: a fixed loop, timed before and after every timed step.
# A step's time is reported at the speed where the loop takes GAUGE_S: it
# is multiplied by GAUGE_S over the mean of the two readings around it.
GAUGE_LOOPS = 16_000
GAUGE_S = 0.010


@dataclass(frozen=True)
class Workload:
    config: dict  # what ``poollines simulate --config`` would read
    probe_pool: int  # riders of the same scenario the probes are drawn from
    oracle_queries: int  # probes compared with the event-graph oracle
    metro_seed: int | None = None  # seed of the generated metro feed


def _workloads(metro) -> dict[str, Workload]:
    return {
        # The criterion-8 supply with its first 30 riders: dense network,
        # footpath build and relaxation dominate.
        "city_full": Workload(
            config={
                "synthetic_city": True,
                "seed": 1,
                "workers": 1,
                "scenario": {
                    "rectangles": "city",
                    "area_km2": 400.0,
                    "driver_count": 2848,
                    "rider_count": 30,
                },
            },
            probe_pool=5498,
            oracle_queries=20,
        ),
        # Quarter-density drivers of acceptance seed 1, one seat each, and the
        # first 100 riders: a sparse network where capacity voiding breaks
        # nesting (rider 92).
        "quarter_one_seat": Workload(
            config={
                "synthetic_city": True,
                "seed": 1,
                "workers": 1,
                "seat_capacity": 1,
                "scenario": {
                    "rectangles": "city",
                    "area_km2": 400.0,
                    "driver_density": 1.2,
                    "rider_count": 100,
                },
            },
            probe_pool=2000,
            oracle_queries=20,
        ),
        # A generated metro feed read back through parse_gtfs: parsing is
        # most of set-up, the transit scan most of each query.  The event-graph
        # oracle would need about 10^8 edge tests here, so it is not used.
        "metro_feed": Workload(
            config={
                "gtfs_path": str(OUT / "metro_gtfs"),
                "service_date": metro.SERVICE_DATE,
                "seed": 7,
                "workers": 1,
                "scenario": {
                    "rectangles": metro.demand_rectangles(),
                    "driver_count": 500,
                    "rider_count": 20,
                },
            },
            probe_pool=2000,
            oracle_queries=0,
            metro_seed=7,
        ),
    }


@dataclass
class Round:
    """One pass through the pipeline, its probes and its checks."""

    setup_s: float
    compare_s: float
    write_s: float
    scales: list[float]  # gauge factor per step: setup, probes, comparison, probes, write, probes
    riders: int
    served_integrated: int
    breakers: int
    latencies_ms: list[list[float]]  # per probe point, one per request asked there
    probes: list  # (request, TRANSIT itinerary), in the order asked
    planner: object
    problems: list[str]
    late_check: Callable[[], list[str]] | None  # run after the traced wrappers are removed


def _gauge(np) -> float:
    """Seconds for a fixed mix of interpreter and small numpy work.

    Lists, comparisons and short array slices, as a connection scan uses
    them, but none of the program's code: a change to the program leaves
    the gauge as it is.
    """
    values = np.linspace(0.0, 1.0, 4096)
    floor = np.full(4096, 0.75)
    best = [2.0] * 256
    start = time.perf_counter()
    for i in range(GAUGE_LOOPS):
        k = i & 255
        v = (i * 7919 % 4093) / 4093.0
        if v < best[k]:
            best[k] = v
        if not i & 7:
            lo = k * 16
            cand = values[lo : lo + 16] + v
            mask = cand < floor[lo : lo + 16]
            if mask.any():
                floor[lo : lo + 16][mask] = cand[mask]
    return time.perf_counter() - start


def _probe(planner, requests, tracer, api, results) -> list[float]:
    """Ask each request in TRANSIT mode; its latency in ms, in order."""
    latencies = []
    for req in requests:
        if tracer.active:
            for mode in api.CHECK_MODES:
                with tracer.span(f"planner.query.{mode.value}"):
                    planner.earliest_arrival(replace(req, mode=mode))
        with tracer.span("planner.query.TRANSIT"):
            start = time.perf_counter()
            it = planner.earliest_arrival(req)
            latencies.append(1000.0 * (time.perf_counter() - start))
        results.append((req, it))
    return latencies


def _setup(api, cfg, tracer):
    """Feed load until the planner is built, as ``cmd_simulate`` does it."""
    with tracer.span("gtfs.load"):
        if cfg.synthetic_city:
            timetable = api.with_service_date(api.build_synthetic_city(), cfg.service_date)
        else:
            timetable = api.parse_gtfs(cfg.gtfs_path, cfg.service_date)
    with tracer.span("scenario.generate"):
        scenario = api.generate_scenario(cfg.scenario)
    with tracer.span("drivers.journeys"):
        points = api.select_meeting_points(timetable, cfg.meeting_point_route_types)
        journeys = {
            j.driver_id: j
            for j in api.compute_driver_journeys(
                list(scenario.drivers), points, cfg.travel, cfg.tau, cfg.dwell_s, cfg.seed
            )
        }
    with tracer.span("injection.inject"):
        augmented = api.inject_poollines(
            timetable, [journeys[d] for d in sorted(journeys)], cfg.service_date
        )
    if tracer.active:
        with tracer.span("planner.footpaths"):
            footpaths = api.build_footpaths(augmented, cfg.travel, cfg.max_walk_km)
        with tracer.span("planner.connections"):
            planner = api.Planner(
                augmented, cfg.travel, cfg.max_walk_km, cfg.transfer_s, footpaths=footpaths
            )
    else:
        planner = api.Planner(augmented, cfg.travel, cfg.max_walk_km, cfg.transfer_s)
    return timetable, scenario, journeys, planner


def _run_round(api, cfg, requests, tracer, outdir: Path, expect_feed, first: bool) -> Round:
    """One round; the first is checked in full, the others against it."""
    latencies: list[list[float]] = []
    probes: list = []
    batches = [requests[i::PROBE_POINTS] for i in range(PROBE_POINTS)]

    gauges = [_gauge(api.np)]
    t0 = time.perf_counter()
    timetable, scenario, journeys, planner = _setup(api, cfg, tracer)
    t1 = time.perf_counter()
    gauges.append(_gauge(api.np))
    latencies.append(_probe(planner, batches[0], tracer, api, probes))
    gauges.append(_gauge(api.np))
    t2 = time.perf_counter()
    with tracer.span("simulation.compare"):
        result = api.run_comparison(
            scenario,
            planner,
            journeys,
            cfg.rules,
            cfg.travel,
            cfg.emissions,
            variants=tuple(api.SystemVariant),
            num_itineraries=cfg.num_itineraries,
            capacity_enforcement=cfg.capacity_enforcement,
            workers=cfg.effective_workers(),
        )
    t3 = time.perf_counter()
    gauges.append(_gauge(api.np))
    latencies.append(_probe(planner, batches[1], tracer, api, probes))
    gauges.append(_gauge(api.np))
    t4 = time.perf_counter()
    with tracer.span("reports.write"):
        api.write_outputs(outdir, scenario, result)
    t5 = time.perf_counter()
    gauges.append(_gauge(api.np))
    latencies.append(_probe(planner, batches[2], tracer, api, probes))
    gauges.append(_gauge(api.np))

    # Everything below is outside the timed steps.
    ck = api.checks
    riders_by_id = {r.rider_id: r for r in scenario.riders}
    served = ck.served_sets(result, riders_by_id, cfg.scenario.stats_window)
    breakers = ck.nesting_breakers(served)
    if tracer.active:
        fp = planner.footpaths
        tracer.count("footpath_links", len(fp.targets))
        tracer.count("footpath_links_unused", _unused_links(api.np, fp))
        tracer.count("riders", len(scenario.riders))
    with tracer.span("reports.recompute"):
        recomputed = api.recompute_metrics(
            outdir, cfg.scenario.stats_window, cfg.travel, cfg.emissions
        )
    problems = ck.metrics_problems(outdir, api.report_summary(result), recomputed)
    net = ck.Network(timetable, journeys)
    if first:
        seats = {d.driver_id: d.seat_capacity for d in scenario.drivers}
        problems += ck.detour_problems(journeys, cfg)
        for report in result.reports.values():
            problems += ck.outcome_problems(report, riders_by_id, net, cfg)
            problems += ck.capacity_problems(report, net, seats)
        if expect_feed is not None:
            problems += ck.feed_count_problems(timetable, expect_feed)
        problems += ck.probe_problems(planner, probes, net, cfg, api.CHECK_MODES)
    else:
        # The pipeline inputs repeat, so its outputs must: the first round was
        # checked in full.  New probes are checked against the direct walk.
        if not _same_files(outdir.parent / "round0", outdir):
            problems.append(f"{outdir.name} wrote other files than round0")
        shutil.rmtree(outdir)
        problems += ck.probe_problems(planner, probes, net, cfg, ())
    return Round(
        setup_s=t1 - t0,
        compare_s=t3 - t2,
        write_s=t5 - t4,
        scales=[2.0 * GAUGE_S / (a + b) for a, b in zip(gauges, gauges[1:])],
        riders=len(scenario.riders),
        served_integrated=len(served["integrated"]),
        breakers=len(breakers),
        latencies_ms=latencies,
        probes=probes,
        planner=planner,
        problems=problems,
        late_check=lambda: ck.breaker_problems(
            result, served, scenario, planner, journeys, cfg, api.simulation.run_variant
        )
        if breakers
        else [],
    )


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(x.name for x in a.iterdir())
    return names == sorted(x.name for x in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def _program():
    """The program's entry points, imported from the checkout's src/.

    Also the test oracles from tests/ and the benchmark's own modules.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import numpy as np

    import checks
    import metro
    import tracing
    from poollines import simulation
    from poollines.config import load_config
    from poollines.drivers import compute_driver_journeys, select_meeting_points
    from poollines.geo import GeoPoint
    from poollines.gtfs import parse_gtfs, with_service_date
    from poollines.injection import inject_poollines
    from poollines.matching import RiderMode
    from poollines.planner import Planner, PlanMode, PlanRequest, build_footpaths
    from poollines.reports import recompute_metrics, report_summary, write_outputs
    from poollines.scenario import generate_scenario
    from poollines.simulation import SystemVariant, run_comparison
    from poollines.synthetic import build_synthetic_city

    api = types.SimpleNamespace(**locals())
    api.CHECK_MODES = (PlanMode.TRANSIT_NO_POOL, PlanMode.POOL_ONLY)
    return api


def _unused_links(np, fp) -> int:
    """Links leaving a DRIVER_origin_ stop or entering a DRIVER_destination_ stop."""
    origin = np.array([s.startswith("DRIVER_origin_") for s in fp.stop_ids], dtype=bool)
    dest = np.array([s.startswith("DRIVER_destination_") for s in fp.stop_ids], dtype=bool)
    source = np.repeat(np.arange(len(fp.stop_ids)), np.diff(fp.starts))
    return int(np.count_nonzero(origin[source] | dest[fp.targets]))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    api = _program()
    workload = _workloads(api.metro)[name]
    tracer = api.tracing.Tracer() if traced else api.tracing.NullTracer()
    base = OUT / name / f"seed{seed}{'-trace' if traced else ''}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    expect_feed = None
    if workload.metro_seed is not None:
        shutil.rmtree(OUT / "metro_gtfs", ignore_errors=True)
        expect_feed = api.metro.write_metro_feed(OUT / "metro_gtfs", workload.metro_seed)
    path = base / "config.json"
    path.write_text(json.dumps(workload.config), encoding="utf-8")
    cfg = api.load_config(path)
    pool = api.generate_scenario(replace(cfg.scenario, rider_count=workload.probe_pool)).riders
    order = api.np.random.default_rng(seed).permutation(len(pool)).tolist()

    def requests(k: int) -> list:
        """Round k's probes: the next PROBES riders of the pool in the seed's order."""
        return [
            api.PlanRequest(r.origin, r.destination, r.departure_time)
            for r in (pool[order[(k * PROBES + j) % len(pool)]] for j in range(PROBES))
        ]

    undo = (
        api.tracing.instrument(tracer, api.simulation, api.Planner, api.PlanMode.TRANSIT)
        if traced
        else []
    )
    rounds: list[Round] = []
    problems: list[str] = []
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            round_start = time.perf_counter()
            k = len(rounds)
            r = _run_round(
                api, cfg, requests(k), tracer, base / f"round{k}", expect_feed, not rounds
            )
            problems += r.problems
            print(
                f"{name} round {k}: set-up {r.setup_s:.3f} s, comparison {r.compare_s:.3f} s, "
                f"write {r.write_s:.3f} s, probe median "
                f"{statistics.median(x for batch in r.latencies_ms for x in batch):.3f} ms",
                file=sys.stderr,
            )
            rounds.append(r)
            now = time.perf_counter()
            # Stop when more than half of another round would run past --seconds.
            if now - start + (now - round_start) / 2 > seconds:
                break
            # Free the planner before the next round builds its own.
            r.planner = r.probes = r.late_check = None
    finally:
        api.tracing.restore(undo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = rounds[-1]
    # Rounds write identical files, so the last round's breakers are every round's.
    problems += last.late_check()
    if workload.oracle_queries:
        problems += api.checks.oracle_problems(last.planner, last.probes[: workload.oracle_queries], cfg)

    n = len(rounds)
    raw = _timings(rounds, scaled=False)
    print(f"{name} unscaled: " + json.dumps(raw), file=sys.stderr)
    measured = {
        **_timings(rounds, scaled=True),
        "peak_rss_mb": peak_rss_mb,
        "served_integrated": rounds[0].served_integrated,
    }
    if traced:
        measured = _layer_metrics(tracer, n, measured["wall_s"])
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        _print_self_times(tracer, n)
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r.riders + PROBES for r in rounds),
        "failed": sum(r.breakers for r in rounds),
        "rounds": n,
        "measured": measured,
    }


def _timings(rounds: list[Round], scaled: bool) -> dict[str, float]:
    """The timed end-to-end metrics: medians over rounds, percentiles over probes."""
    def k(r: Round, step: int) -> float:
        return r.scales[step] if scaled else 1.0

    setup = [r.setup_s * k(r, 0) for r in rounds]
    compare = [r.compare_s * k(r, 2) for r in rounds]
    wall = [s + c + r.write_s * k(r, 4) for r, s, c in zip(rounds, setup, compare)]
    latencies = [
        x * k(r, 1 + 2 * point)
        for r in rounds
        for point, batch in enumerate(r.latencies_ms)
        for x in batch
    ]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall),
        "riders_per_s": rounds[0].riders / statistics.median(compare),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": statistics.quantiles(latencies, n=10)[-1],
    }


def _layer_metrics(tracer, rounds: int, wall_s: float) -> dict[str, float]:
    out: dict[str, float] = {"trace.wall_s": wall_s}
    c = tracer.counts
    per_round = {
        "gtfs.load_s": "gtfs.load",
        "scenario.generate_s": "scenario.generate",
        "drivers.journeys_s": "drivers.journeys",
        "injection.inject_s": "injection.inject",
        "planner.footpaths_s": "planner.footpaths",
        "planner.connections_s": "planner.connections",
        "matching.capacity_s": "matching.capacity",
        "reports.write_s": "reports.write",
        "reports.recompute_s": "reports.recompute",
    }
    for variant in ("no_carpooling", "current", "integrated"):
        per_round[f"simulation.variant_s.{variant}"] = f"simulation.variant.{variant}"
    for metric, span in per_round.items():
        total = tracer.total(span)
        if total is not None:
            out[metric] = total / rounds
    if c.get("footpath_links"):
        out["planner.footpath_links"] = c["footpath_links"] / rounds
        out["planner.footpath_links_unused"] = c["footpath_links_unused"] / c["footpath_links"]
    resolves = 0.0
    for mode in ("TRANSIT", "TRANSIT_NO_POOL", "POOL_ONLY"):
        queries = tracer.durations(f"planner.query.{mode}")
        if queries:
            out[f"planner.query_ms.{mode}"] = 1000.0 * statistics.median(queries)
        count = c.get(f"resolves.{mode}", 0)
        if count:
            resolves += count
            out[f"matching.resolve_ms.{mode}"] = 1000.0 * tracer.total(f"matching.resolve.{mode}") / count
            out[f"matching.alternatives.{mode}"] = c.get(f"alternatives.{mode}", 0) / count
    if resolves:
        out["simulation.resolves_per_rider"] = resolves / c["riders"]
    if "voided_riders" in c:
        out["matching.voided_riders"] = c["voided_riders"] / rounds
    return out


def _print_self_times(tracer, rounds: int) -> None:
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
    print(f"self time per round over {rounds} round(s):", file=sys.stderr)
    for name, (calls, total, own) in rows:
        print(
            f"  {name:36s} {calls / rounds:9.0f} calls {total / rounds:9.3f} s "
            f"total {own / rounds:9.3f} s self",
            file=sys.stderr,
        )


def _declared_metrics(traced: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]


def _run_one(args) -> int:
    if any(os.environ.get(k) != v for k, v in _ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **_ENV},
        )
    declared = _declared_metrics(bool(args.trace))
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: the program or its test oracles cannot be imported: {exc}", file=sys.stderr)
        return 2
    for p in run["problems"][:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if len(run["problems"]) > 20:
        print(f"... and {len(run['problems']) - 20} more", file=sys.stderr)
    metrics = {
        name: {"value": run["measured"][name], "unit": unit}
        for name, unit in declared
        if name in run["measured"]
    }
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:38s} {m['value']:14.4f} {m['unit']}")
    print(
        f"{args.workload:14s} rounds {run['rounds']}, attempted {run['attempted']}, "
        f"failed {run['failed']}, correct {run['correct']}"
    )
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "poollines").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())

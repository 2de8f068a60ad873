"""Command line entry points.

Four subcommands cover the pipeline: ``generate`` samples agents,
``inject`` writes the augmented feed, ``simulate`` runs the system
comparison end to end, and ``metrics`` rebuilds aggregates from a
finished run's files; it writes a missing report.json and refuses to
overwrite one that differs from them.  Exit codes: 0 on success, 1 for
configuration problems, 2 for data problems.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .drivers import EmptyMeetingPointSet, compute_driver_journeys, select_meeting_points
from .gtfs import GtfsError, Timetable, parse_gtfs, with_service_date, write_gtfs
from .injection import InjectionError, check_poollines_have_journeys, inject_poollines
from .planner import Planner
from .reports import (
    ReportMismatch,
    check_report,
    recompute_metrics,
    write_outputs,
    write_report,
)
from .scenario import Scenario, ScenarioError, generate_scenario, read_agents
from .simulation import SystemVariant, run_comparison

_DATA_ERRORS = (
    GtfsError, InjectionError, ScenarioError, EmptyMeetingPointSet, ReportMismatch, OSError
)


def _load_timetable(cfg: RunConfig) -> Timetable:
    if cfg.synthetic_city:
        from .synthetic import build_synthetic_city

        return with_service_date(build_synthetic_city(), cfg.service_date)
    return parse_gtfs(cfg.gtfs_path, cfg.service_date)


def _load_scenario(cfg: RunConfig, agents_path: str | None) -> Scenario:
    if cfg.scenario is None:
        raise ConfigError("a scenario block is required for this command")
    path = agents_path or cfg.agents_path
    if path:
        drivers, riders = read_agents(
            path, cfg.scenario.sim_window.start, cfg.seat_capacity
        )
        return Scenario(cfg.scenario, drivers, riders)
    return generate_scenario(cfg.scenario)


def _journeys(cfg: RunConfig, timetable: Timetable, scenario: Scenario):
    points = select_meeting_points(timetable, cfg.meeting_point_route_types)
    journeys = compute_driver_journeys(
        list(scenario.drivers), points, cfg.travel, cfg.tau, cfg.dwell_s, cfg.seed
    )
    return {j.driver_id: j for j in journeys}


def cmd_generate(cfg: RunConfig, out: str | None) -> int:
    from .scenario import write_agents

    scenario = _load_scenario(cfg, agents_path=None)
    path = Path(out) if out else Path(cfg.output_dir) / "agents.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_agents(path, scenario)
    print(f"wrote {len(scenario.drivers)} drivers and {len(scenario.riders)} riders to {path}")
    return 0


def cmd_inject(cfg: RunConfig, agents: str | None, out: str | None) -> int:
    timetable = _load_timetable(cfg)
    scenario = _load_scenario(cfg, agents)
    journeys = _journeys(cfg, timetable, scenario)
    augmented = inject_poollines(
        timetable, [journeys[d] for d in sorted(journeys)], cfg.service_date
    )
    outdir = Path(out) if out else Path(cfg.output_dir) / "augmented_feed"
    write_gtfs(augmented, outdir)
    print(f"wrote augmented feed with {len(journeys)} poollines to {outdir}")
    return 0


def cmd_simulate(cfg: RunConfig, agents: str | None, out: str | None, variant: str) -> int:
    timetable = _load_timetable(cfg)
    scenario = _load_scenario(cfg, agents)
    journeys = _journeys(cfg, timetable, scenario)
    augmented = inject_poollines(
        timetable, [journeys[d] for d in sorted(journeys)], cfg.service_date
    )
    check_poollines_have_journeys(augmented, journeys)
    planner = Planner(augmented, cfg.travel, cfg.max_walk_km, cfg.transfer_s)

    if variant == "all":
        variants = tuple(SystemVariant)
    else:
        variants = (SystemVariant(variant),)
    result = run_comparison(
        scenario,
        planner,
        journeys,
        cfg.rules,
        cfg.travel,
        cfg.emissions,
        variants=variants,
        num_itineraries=cfg.num_itineraries,
        capacity_enforcement=cfg.capacity_enforcement,
        workers=cfg.effective_workers(),
    )
    outdir = Path(out) if out else Path(cfg.output_dir)
    summary = write_outputs(outdir, scenario, result)
    for v, figures in summary["variants"].items():
        if not figures["riders_in_stats_window"]:
            print(f"{v}: no riders in the stats window")
            continue
        unserved = figures["modal_split_pct"]["unserved"]
        print(f"{v}: unserved {unserved:.1f}% of stats-window riders")
    if summary["vkt_saved_km"] is not None:
        print(
            f"vkt saved {summary['vkt_saved_km']:.1f} km, "
            f"co2 saved {summary['co2_saved_kg_per_hour']:.1f} kg/h"
        )
    print(f"outputs in {outdir}")
    return 0


def cmd_metrics(cfg: RunConfig, directory: str | None) -> int:
    if cfg.scenario is None:
        raise ConfigError("a scenario block is required to locate the stats window")
    outdir = Path(directory) if directory else Path(cfg.output_dir)
    if not (outdir / "agents.csv").is_file():
        raise FileNotFoundError(f"no simulation outputs under {outdir}")
    summary = recompute_metrics(
        outdir, cfg.scenario.stats_window, cfg.travel, cfg.emissions
    )
    check_report(outdir, summary)
    write_report(outdir, summary)
    print(f"rewrote metrics in {outdir / 'report.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poollines",
        description="Carpool trips as single-trip transit lines: feed tools and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")

    p_generate = sub.add_parser("generate", help="sample a demand scenario to an agents file")
    common(p_generate)
    p_generate.add_argument("--out", default=None, help="agents file path")

    p_inject = sub.add_parser("inject", help="write the feed augmented with poollines")
    common(p_inject)
    p_inject.add_argument("--agents", default=None, help="agents file to load")
    p_inject.add_argument("--out", default=None, help="output feed directory")

    p_simulate = sub.add_parser("simulate", help="run the system comparison")
    common(p_simulate)
    p_simulate.add_argument("--agents", default=None, help="agents file to load")
    p_simulate.add_argument("--out", default=None, help="output directory")
    p_simulate.add_argument(
        "--variant",
        default="all",
        choices=["all"] + [v.value for v in SystemVariant],
        help="which system variant to run",
    )

    p_metrics = sub.add_parser("metrics", help="recompute metrics from run outputs")
    common(p_metrics)
    p_metrics.add_argument("--dir", default=None, help="directory of a finished run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "workers": args.workers}
        cfg = load_config(args.config, overrides)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "inject":
            return cmd_inject(cfg, args.agents, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.agents, args.out, args.variant)
        if args.command == "metrics":
            return cmd_metrics(cfg, args.dir)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run records, the files written from them, and every aggregate of a run.

A run is summarised from plain records: the riders, and per variant one
outcome record per rider and one journey record per driver.  ``simulate``
builds the records once, writes the tables from them and summarises
them into report.json; ``metrics`` reads the same records back from
the tables and summarises them with the same function, no replanning.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .drivers import DriverJourney, pruned_length_km
from .geo import TravelModel, road_km
from .gtfs import write_csv
from .matching import Rider, RiderMode, RiderOutcome, max_onboard
from .scenario import Scenario, ScenarioError, Window, read_agents, read_csv, write_agents
from .simulation import EmissionModel, SimulationReport, SimulationResult, SystemVariant


class OutcomeRecord(NamedTuple):
    """One rider's row of ``outcomes_<variant>.csv``; None is an empty cell."""

    rider_id: int
    mode: RiderMode
    depart: int | None
    arrive: int | None
    walk_km: float | None
    wait_s: int | None
    driver_ids: tuple[int, ...]


class JourneyRecord(NamedTuple):
    """One driver's row of ``journeys_<variant>.csv``."""

    driver_id: int
    baseline_km: float
    length_km: float
    pruned_length_km: float
    occupancy: int
    voided: bool


@dataclass(frozen=True)
class RunRecords:
    riders: tuple[Rider, ...]
    outcomes: dict[SystemVariant, tuple[OutcomeRecord, ...]]
    journeys: dict[SystemVariant, tuple[JourneyRecord, ...]]


_OUTCOME_HEADER = list(OutcomeRecord._fields)
_JOURNEY_HEADER = list(JourneyRecord._fields)
# Every variant writes one file of each of these, ``<prefix>_<variant>.csv``.
_VARIANT_FILES = ("outcomes", "journeys", "occupancy", "detour_ratio", "detour_km")
# Detour bins: each but the last holds the values up to its top, inclusive.
_RATIO_BINS = ("0%", "0-5%", "5-10%", "10-15%", ">15%")
_RATIO_TOPS = (0.0, 0.05, 0.10, 0.15 + 1e-9)
_KM_BINS = ("0 km", "1-5 km", "6-10 km", "11-15 km", ">15 km")
_KM_TOPS = (0, 5, 10, 15)


# ---- records from a comparison --------------------------------------

def outcome_records(outcomes: Iterable[RiderOutcome]) -> tuple[OutcomeRecord, ...]:
    records = []
    for o in outcomes:
        it = o.itinerary
        if it is None:
            records.append(OutcomeRecord(o.rider_id, o.mode, None, None, None, None, ()))
        else:
            records.append(
                OutcomeRecord(
                    o.rider_id, o.mode, it.depart, it.arrive, it.total_walk_km,
                    it.total_wait_s, tuple(sorted(o.drivers_used)),
                )
            )
    return tuple(records)


def journey_records(
    report: SimulationReport, journeys: Mapping[int, DriverJourney]
) -> tuple[JourneyRecord, ...]:
    """Per driver, in id order: lengths, the peak load over the full journey, voiding.

    Both the pruned length and the peak load come from the report's
    boardings.  A driver nobody boards drives its baseline with a peak
    load of 0.
    """
    boardings = report.boardings
    return tuple(
        JourneyRecord(
            d, j.baseline_km, j.length_km, pruned_length_km(j, boardings.get(d, ())),
            max_onboard(j, boardings[d]) if d in boardings else 0, d in report.voided_drivers,
        )
        for d, j in sorted(journeys.items())
    )


def run_records(result: SimulationResult) -> RunRecords:
    return RunRecords(
        result.scenario.riders,
        {v: outcome_records(r.outcomes) for v, r in result.reports.items()},
        {v: journey_records(r, result.journeys) for v, r in result.reports.items()},
    )


# ---- the aggregates -------------------------------------------------

def served_ids(outcomes: Iterable, riders: Iterable[Rider], window: Window) -> frozenset[int]:
    """Riders departing inside ``window`` whose outcome is served.

    ``outcomes`` may be outcome records or rider outcomes.
    """
    departure = {r.rider_id: r.departure_time for r in riders}
    return frozenset(
        o.rider_id
        for o in outcomes
        if o.mode is not RiderMode.UNSERVED and window.contains(departure[o.rider_id])
    )


def _detour_bins(journeys: Iterable[JourneyRecord]) -> tuple[dict[str, int], dict[str, int]]:
    """Effective detour distributions: relative and in rounded kilometres."""
    ratio_hist = {b: 0 for b in _RATIO_BINS}
    km_hist = {b: 0 for b in _KM_BINS}
    for j in journeys:
        detour = j.pruned_length_km - j.baseline_km
        ratio = detour / j.baseline_km if j.baseline_km else 0.0
        ratio_hist[_RATIO_BINS[bisect_left(_RATIO_TOPS, ratio)]] += 1
        km_hist[_KM_BINS[bisect_left(_KM_TOPS, round(detour))]] += 1
    return ratio_hist, km_hist


def summarise(
    records: RunRecords, stats_window: Window, model: TravelModel, em: EmissionModel
) -> dict:
    """Every aggregate of a run, as report.json holds it.

    Modal shares and served sets count only riders departing inside the
    stats window; occupancy, detours and voiding count every driver.
    A stats window with no rider has no modal split: each share is None,
    null in report.json and an empty cell in modal_split.csv.
    The car kilometres avoided by integration count riders served by
    INTEGRATED but stranded in CURRENT: their forgone private car trips,
    minus the effective detours of the drivers who carried them.  The
    CO2 rate is normalised per hour of the stats window.
    """
    riders = {r.rider_id: r for r in records.riders}
    summary: dict = {"variants": {}}
    for variant, outcomes in records.outcomes.items():
        journeys = records.journeys[variant]
        in_window = [
            o for o in outcomes if stats_window.contains(riders[o.rider_id].departure_time)
        ]
        modes = Counter(o.mode for o in in_window)
        occupancy = Counter(j.occupancy for j in journeys)
        ratio_hist, km_hist = _detour_bins(journeys)
        summary["variants"][variant.value] = {
            "riders_total": len(outcomes),
            "riders_in_stats_window": len(in_window),
            "modal_split_pct": {
                m.value: 100.0 * modes[m] / len(in_window) if in_window else None
                for m in RiderMode
            },
            "occupancy_hist": {str(k): n for k, n in sorted(occupancy.items())},
            "detour_ratio_hist": ratio_hist,
            "detour_km_hist": km_hist,
            "voided_drivers": [j.driver_id for j in journeys if j.voided],
        }

    summary["vkt_saved_km"] = None
    summary["co2_saved_kg_per_hour"] = None
    current = records.outcomes.get(SystemVariant.CURRENT)
    integrated = records.outcomes.get(SystemVariant.INTEGRATED)
    if current is not None and integrated is not None:
        gained = served_ids(integrated, records.riders, stats_window)
        gained -= served_ids(current, records.riders, stats_window)
        carried_by = {o.rider_id: o.driver_ids for o in integrated}
        vkt = 0.0
        carriers: set[int] = set()
        for rider_id in sorted(gained):
            vkt += road_km(riders[rider_id].origin, riders[rider_id].destination, model)
            carriers.update(carried_by[rider_id])
        detour = {
            j.driver_id: j.pruned_length_km - j.baseline_km
            for j in records.journeys[SystemVariant.INTEGRATED]
        }
        vkt_saved = vkt - sum(detour[d] for d in sorted(carriers))
        summary["vkt_saved_km"] = vkt_saved
        summary["co2_saved_kg_per_hour"] = vkt_saved * em.grams_per_km / 1000.0 / stats_window.hours
    return summary


def report_summary(result: SimulationResult) -> dict:
    """The aggregate numbers of a run as one JSON-ready mapping."""
    return summarise(
        run_records(result), result.scenario.config.stats_window, result.model, result.emissions
    )


# ---- files ----------------------------------------------------------

def _cell(value):
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    if isinstance(value, RiderMode):
        return value.value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def _write_table(path: Path, header: list[str], rows: Iterable) -> None:
    """A CSV file of ``rows``, each cell written as :func:`_cell` gives it."""
    write_csv(path, header, ([_cell(v) for v in row] for row in rows))


def write_report(outdir: str | Path, summary: dict) -> None:
    """report.json: the summary with sorted keys."""
    (Path(outdir) / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class ReportMismatch(ValueError):
    """An existing report.json disagrees with the summary of its run's tables."""


def check_report(outdir: str | Path, summary: dict) -> None:
    """Raise :class:`ReportMismatch` if report.json differs from ``summary``.

    The message names the first differing key in the file's sorted
    order, as a dotted path.  A missing report.json passes.
    """
    path = Path(outdir) / "report.json"
    if not path.is_file():
        return
    try:
        written = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ReportMismatch(f"{path}: unreadable: {exc}") from None
    key = _first_difference(written, json.loads(json.dumps(summary)), ())
    if key is not None:
        raise ReportMismatch(
            f"{path}: {'.'.join(key) or 'the top level'} differs from the summary of "
            "the run's tables under this config; left unchanged"
        )


def _first_difference(a, b, key: tuple[str, ...]) -> tuple[str, ...] | None:
    if isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(a.keys() | b.keys()):
            if name not in a or name not in b:
                return (*key, name)
            found = _first_difference(a[name], b[name], (*key, name))
            if found is not None:
                return found
        return None
    # Compared as JSON text, so a NaN equals itself.
    return None if json.dumps(a) == json.dumps(b) else key


def write_outputs(outdir: str | Path, scenario: Scenario, result: SimulationResult) -> dict:
    """Write a run directory and return the summary its report.json holds."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_agents(outdir / "agents.csv", scenario)
    records = run_records(result)
    summary = summarise(
        records, result.scenario.config.stats_window, result.model, result.emissions
    )
    write_tables(outdir, records, summary)
    write_report(outdir, summary)
    return summary


def write_tables(outdir: Path, records: RunRecords, summary: dict) -> None:
    """The record tables of each variant and the figure data of ``summary``.

    Files of a variant the records lack are removed, so that ``metrics``
    does not rebuild report.json from an earlier run's tables.
    """
    for variant in SystemVariant:
        if variant not in records.outcomes:
            for prefix in _VARIANT_FILES:
                (outdir / f"{prefix}_{variant.value}.csv").unlink(missing_ok=True)
    for variant, outcomes in records.outcomes.items():
        figures = summary["variants"][variant.value]
        _write_table(outdir / f"outcomes_{variant.value}.csv", _OUTCOME_HEADER, outcomes)
        _write_table(
            outdir / f"journeys_{variant.value}.csv", _JOURNEY_HEADER, records.journeys[variant]
        )
        _write_table(
            outdir / f"occupancy_{variant.value}.csv",
            ["occupancy", "drivers"],
            figures["occupancy_hist"].items(),
        )
        for name in ("detour_ratio", "detour_km"):
            _write_table(
                outdir / f"{name}_{variant.value}.csv",
                ["bin", "drivers"],
                figures[f"{name}_hist"].items(),
            )
    _write_table(
        outdir / "modal_split.csv",
        ["variant", "mode", "percent"],
        [
            [variant, mode, figures["modal_split_pct"][mode]]
            for variant, figures in summary["variants"].items()
            for mode in sorted(figures["modal_split_pct"])
        ],
    )


# ---- records from a run directory -----------------------------------

def _optional(parse, text: str):
    return parse(text) if text else None


def _km(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} km is not finite")
    return value


def _journey_record(cells: list[str]) -> JourneyRecord:
    driver_id, baseline, length, pruned, occupancy, voided = cells
    if voided not in ("0", "1"):
        raise ValueError(f"voided is {voided!r}, not 0 or 1")
    return JourneyRecord(
        int(driver_id), _km(baseline), _km(length), _km(pruned), int(occupancy), voided == "1"
    )


def _outcome_record(cells: list[str], driver_ids: set[int], journeys_file: str) -> OutcomeRecord:
    rider_id, mode, depart, arrive, walk_km, wait_s, drivers = cells
    record = OutcomeRecord(
        int(rider_id),
        RiderMode(mode),
        _optional(int, depart),
        _optional(int, arrive),
        _optional(_km, walk_km),
        _optional(int, wait_s),
        tuple(int(d) for d in drivers.split(";")) if drivers else (),
    )
    for d in record.driver_ids:
        if d not in driver_ids:
            raise ValueError(f"driver {d} is not in {journeys_file}")
    return record


def _one_row_each(path: Path, header: list[str], parse, kind: str, agent_ids: set[int]) -> tuple:
    """``read_csv`` of a table whose records, keyed by their first field,
    are one per ``kind`` of agents.csv, each exactly once."""
    seen: set[int] = set()

    def once(cells: list[str]):
        record = parse(cells)
        if record[0] not in agent_ids:
            raise ValueError(f"{kind} {record[0]} is not in agents.csv")
        if record[0] in seen:
            raise ValueError(f"repeated {kind} id {record[0]}")
        seen.add(record[0])
        return record

    records = read_csv(path, header, once)
    missing = agent_ids - seen
    if missing:
        raise ScenarioError(f"{path}: no row for {kind} {min(missing)} of agents.csv")
    return records


def read_records(outdir: str | Path) -> RunRecords:
    """The records a simulate run wrote to ``outdir``.

    A cell that does not parse, a mode that is not a rider mode, a rider
    or driver the other tables lack and a repeated rider or driver raise
    ``ScenarioError`` naming the file and line; an agents.csv rider or
    driver a table lacks raises one naming the file and the id.
    """
    outdir = Path(outdir)
    drivers, riders = read_agents(outdir / "agents.csv", 0)
    rider_ids = {r.rider_id for r in riders}
    agent_driver_ids = {d.driver_id for d in drivers}
    outcomes, journeys = {}, {}
    for variant in SystemVariant:
        path = outdir / f"outcomes_{variant.value}.csv"
        if not path.is_file():
            continue
        journeys_file = f"journeys_{variant.value}.csv"
        journeys[variant] = _one_row_each(
            outdir / journeys_file, _JOURNEY_HEADER, _journey_record, "driver", agent_driver_ids
        )
        driver_ids = {j.driver_id for j in journeys[variant]}
        outcomes[variant] = _one_row_each(
            path, _OUTCOME_HEADER, lambda cells: _outcome_record(cells, driver_ids, journeys_file),
            "rider", rider_ids,
        )
    return RunRecords(riders, outcomes, journeys)


def recompute_metrics(
    outdir: str | Path,
    stats_window: Window,
    model: TravelModel,
    em: EmissionModel,
) -> dict:
    """Rebuild report.json content from the files a simulate run wrote.

    Works purely on outcomes_*, journeys_* and agents.csv, so it can be
    re-run long after the planner state is gone.
    """
    return summarise(read_records(outdir), stats_window, model, em)

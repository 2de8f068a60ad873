"""Writing simulation outputs and recomputing metrics from them.

A completed run leaves a self-contained directory: the agents file,
per-variant rider outcomes and per-driver journey summaries, figure
data as plain CSV, and a machine-readable report.json.  The metrics
step rebuilds the aggregates from those files alone, no replanning.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

from .geo import GeoPoint, TravelModel, road_km
from .matching import RiderMode
from .scenario import Scenario, Window, write_agents
from .simulation import (
    EmissionModel,
    SimulationReport,
    SimulationResult,
    SystemVariant,
    _KM_BINS,
    _RATIO_BINS,
)

_OUTCOME_HEADER = ["rider_id", "mode", "depart", "arrive", "walk_km", "wait_s", "driver_ids"]
_JOURNEY_HEADER = ["driver_id", "baseline_km", "length_km", "pruned_length_km", "occupancy", "voided"]
# Every variant writes one file of each of these, ``<prefix>_<variant>.csv``.
_VARIANT_FILES = ("outcomes", "journeys", "occupancy", "detour_ratio", "detour_km")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _outcome_rows(report: SimulationReport) -> list[list]:
    rows = []
    for o in report.outcomes:
        if o.itinerary is None:
            rows.append([o.rider_id, o.mode.value, "", "", "", "", ""])
        else:
            rows.append(
                [
                    o.rider_id,
                    o.mode.value,
                    o.itinerary.depart,
                    o.itinerary.arrive,
                    repr(o.itinerary.total_walk_km),
                    o.itinerary.total_wait_s,
                    ";".join(str(d) for d in sorted(o.drivers_used)),
                ]
            )
    return rows


def _journey_rows(report: SimulationReport, result: SimulationResult) -> list[list]:
    from .matching import _boardings_by_driver, max_onboard

    boardings = _boardings_by_driver(report.outcomes, result.journeys)
    rows = []
    for d in sorted(result.journeys):
        full = result.journeys[d]
        pruned = report.pruned_journeys[d]
        rows.append(
            [
                d,
                repr(full.baseline_km),
                repr(full.length_km),
                repr(pruned.length_km),
                max_onboard(full, boardings.get(d, [])),
                int(d in report.voided_drivers),
            ]
        )
    return rows


def report_summary(result: SimulationResult) -> dict:
    """The aggregate numbers of a run as one JSON-ready mapping."""
    summary: dict = {"variants": {}}
    for variant, report in result.reports.items():
        summary["variants"][variant.value] = {
            "riders_total": len(report.riders),
            "riders_in_stats_window": len(report.stats_pairs()),
            "modal_split_pct": report.modal_split,
            "occupancy_hist": {str(k): v for k, v in report.occupancy_hist.items()},
            "detour_ratio_hist": report.detour_ratio_hist,
            "detour_km_hist": report.detour_km_hist,
            "voided_drivers": sorted(report.voided_drivers),
        }
    summary["vkt_saved_km"] = result.vkt_saved_km
    summary["co2_saved_kg_per_hour"] = result.co2_saved_kg_per_hour
    return summary


def write_outputs(outdir: str | Path, scenario: Scenario, result: SimulationResult) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_agents(outdir / "agents.csv", scenario)

    for variant, report in result.reports.items():
        _write_csv(outdir / f"outcomes_{variant.value}.csv", _OUTCOME_HEADER, _outcome_rows(report))
        _write_csv(outdir / f"journeys_{variant.value}.csv", _JOURNEY_HEADER, _journey_rows(report, result))
        _write_csv(
            outdir / f"occupancy_{variant.value}.csv",
            ["occupancy", "drivers"],
            [[k, v] for k, v in report.occupancy_hist.items()],
        )
        _write_csv(
            outdir / f"detour_ratio_{variant.value}.csv",
            ["bin", "drivers"],
            [[b, report.detour_ratio_hist[b]] for b in _RATIO_BINS],
        )
        _write_csv(
            outdir / f"detour_km_{variant.value}.csv",
            ["bin", "drivers"],
            [[b, report.detour_km_hist[b]] for b in _KM_BINS],
        )
    # A variant not run here must not leave files of an earlier run behind:
    # ``metrics`` would rebuild report.json from them.
    for variant in SystemVariant:
        if variant not in result.reports:
            for prefix in _VARIANT_FILES:
                (outdir / f"{prefix}_{variant.value}.csv").unlink(missing_ok=True)

    _write_csv(
        outdir / "modal_split.csv",
        ["variant", "mode", "percent"],
        [
            [variant.value, mode, repr(report.modal_split[mode])]
            for variant, report in result.reports.items()
            for mode in sorted(report.modal_split)
        ],
    )
    (outdir / "report.json").write_text(
        json.dumps(report_summary(result), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ---- metrics from saved outputs -------------------------------------

def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


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
    outdir = Path(outdir)
    agents = _read_csv(outdir / "agents.csv")
    rider_rows = {int(r["id"]): r for r in agents if r["kind"] == "rider"}

    summary: dict = {"variants": {}}
    outcome_tables: dict[str, list[dict[str, str]]] = {}
    journey_tables: dict[str, list[dict[str, str]]] = {}
    for variant in SystemVariant:
        path = outdir / f"outcomes_{variant.value}.csv"
        if not path.is_file():
            continue
        outcomes = _read_csv(path)
        journeys = _read_csv(outdir / f"journeys_{variant.value}.csv")
        outcome_tables[variant.value] = outcomes
        journey_tables[variant.value] = journeys

        in_window = [
            o for o in outcomes
            if stats_window.contains(int(rider_rows[int(o["rider_id"])]["departure_s"]))
        ]
        counts = {mode.value: 0 for mode in RiderMode}
        for o in in_window:
            counts[o["mode"]] += 1
        total = len(in_window)
        split = {
            k: (100.0 * v / total if total else 0.0) for k, v in counts.items()
        }

        occupancy: dict[str, int] = {}
        ratio_hist = {b: 0 for b in _RATIO_BINS}
        km_hist = {b: 0 for b in _KM_BINS}
        for j in journeys:
            occ = j["occupancy"]
            occupancy[occ] = occupancy.get(occ, 0) + 1
            baseline = float(j["baseline_km"])
            detour = float(j["pruned_length_km"]) - baseline
            ratio = detour / baseline if baseline else 0.0
            if ratio <= 0:
                ratio_hist["0%"] += 1
            elif ratio <= 0.05:
                ratio_hist["0-5%"] += 1
            elif ratio <= 0.10:
                ratio_hist["5-10%"] += 1
            elif ratio <= 0.15 + 1e-9:
                ratio_hist["10-15%"] += 1
            else:
                ratio_hist[">15%"] += 1
            km = round(detour)
            if km <= 0:
                km_hist["0 km"] += 1
            elif km <= 5:
                km_hist["1-5 km"] += 1
            elif km <= 10:
                km_hist["6-10 km"] += 1
            elif km <= 15:
                km_hist["11-15 km"] += 1
            else:
                km_hist[">15 km"] += 1

        summary["variants"][variant.value] = {
            "riders_total": len(outcomes),
            "riders_in_stats_window": total,
            "modal_split_pct": split,
            "occupancy_hist": {k: occupancy[k] for k in sorted(occupancy, key=int)},
            "detour_ratio_hist": ratio_hist,
            "detour_km_hist": km_hist,
            "voided_drivers": sorted(
                int(j["driver_id"]) for j in journeys if j["voided"] == "1"
            ),
        }

    summary["vkt_saved_km"] = None
    summary["co2_saved_kg_per_hour"] = None
    cur = outcome_tables.get(SystemVariant.CURRENT.value)
    integ = outcome_tables.get(SystemVariant.INTEGRATED.value)
    if cur is not None and integ is not None:
        def served(rows):
            out = set()
            for o in rows:
                rider = rider_rows[int(o["rider_id"])]
                if o["mode"] != RiderMode.UNSERVED.value and stats_window.contains(
                    int(rider["departure_s"])
                ):
                    out.add(int(o["rider_id"]))
            return out

        gained = served(integ) - served(cur)
        by_id = {int(o["rider_id"]): o for o in integ}
        vkt = 0.0
        carriers: set[int] = set()
        for rider_id in sorted(gained):
            row = rider_rows[rider_id]
            origin = GeoPoint(float(row["origin_lat"]), float(row["origin_lon"]))
            destination = GeoPoint(float(row["destination_lat"]), float(row["destination_lon"]))
            vkt += road_km(origin, destination, model)
            used = by_id[rider_id]["driver_ids"]
            if used:
                carriers |= {int(d) for d in used.split(";")}
        detours = {
            int(j["driver_id"]): float(j["pruned_length_km"]) - float(j["baseline_km"])
            for j in journey_tables[SystemVariant.INTEGRATED.value]
        }
        vkt_saved = vkt - sum(detours[d] for d in sorted(carriers))
        hours = stats_window.seconds / 3600.0
        summary["vkt_saved_km"] = vkt_saved
        summary["co2_saved_kg_per_hour"] = vkt_saved * em.grams_per_km / 1000.0 / hours

    return summary


def write_metrics(outdir: str | Path, summary: dict) -> None:
    outdir = Path(outdir)
    (outdir / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

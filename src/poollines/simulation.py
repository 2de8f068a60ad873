"""The three-system comparison and its headline metrics.

Variants share one augmented timetable and differ only in which trips
the planner may use: NO_CARPOOLING sees timetabled service alone,
CURRENT gives each rider the better of a pure-transit and a pure-pool
journey, INTEGRATED lets one journey mix both and keeps whichever
view serves the rider best.  Restricting modes on the augmented feed
is exactly equivalent to planning on the bare feed, so the variants
are comparable rider by rider.

A comparison solves each (rider, planner mode) once and builds every
variant from those outcomes: INTEGRATED's restricted arms reuse the
outcomes already solved for CURRENT and NO_CARPOOLING.  A solve is
deterministic, so sharing it changes no answer.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import multiprocessing

from .drivers import Driver, DriverJourney, prune_journey
from .geo import TravelModel, road_km
from .matching import (
    FeasibilityRules,
    Rider,
    RiderMode,
    RiderOutcome,
    better_outcome,
    collect_used_stoptimes,
    enforce_capacity,
    max_onboard,
    resolve_rider,
    _boardings_by_driver,
)
from .planner import Planner, PlanMode
from .scenario import Scenario, Window

DEFAULT_GRAMS_PER_KM = 97.0


class SystemVariant(str, Enum):
    NO_CARPOOLING = "no_carpooling"
    CURRENT = "current"
    INTEGRATED = "integrated"


# How each variant combines the per-mode outcomes; ties go to the
# earlier arm.  A comparison solves each mode once for all variants, so
# INTEGRATED's restricted arms cost no extra solve.  INTEGRATED still
# needs them: the alternatives search diversifies by banning first ride
# trips, which can hide a feasible pure-transit journey behind
# pool-polluted prefixes, and the integrated system must never serve
# fewer riders than the split one.
_VARIANT_ARMS: dict[SystemVariant, tuple[PlanMode, ...]] = {
    SystemVariant.NO_CARPOOLING: (PlanMode.TRANSIT_NO_POOL,),
    SystemVariant.CURRENT: (PlanMode.TRANSIT_NO_POOL, PlanMode.POOL_ONLY),
    SystemVariant.INTEGRATED: (
        PlanMode.TRANSIT,
        PlanMode.TRANSIT_NO_POOL,
        PlanMode.POOL_ONLY,
    ),
}


@dataclass(frozen=True)
class EmissionModel:
    grams_per_km: float = DEFAULT_GRAMS_PER_KM


@dataclass
class SimulationReport:
    variant: SystemVariant
    outcomes: tuple[RiderOutcome, ...]
    riders: tuple[Rider, ...]
    stats_window: Window
    pruned_journeys: dict[int, DriverJourney]
    voided_drivers: frozenset[int]
    modal_split: dict[str, float] = field(default_factory=dict)
    occupancy_hist: dict[int, int] = field(default_factory=dict)
    detour_ratio_hist: dict[str, int] = field(default_factory=dict)
    detour_km_hist: dict[str, int] = field(default_factory=dict)
    vkt_saved_km: float | None = None
    co2_saved_kg_per_hour: float | None = None

    def stats_pairs(self) -> list[tuple[Rider, RiderOutcome]]:
        """Rider/outcome pairs restricted to the stats window."""
        return [
            (r, o)
            for r, o in zip(self.riders, self.outcomes)
            if self.stats_window.contains(r.departure_time)
        ]

    def served_ids(self) -> frozenset[int]:
        return frozenset(
            o.rider_id for _, o in self.stats_pairs() if o.mode is not RiderMode.UNSERVED
        )

    def unserved_share(self) -> float:
        return self.modal_split.get(RiderMode.UNSERVED.value, 0.0)


def modal_split(pairs: list[tuple[Rider, RiderOutcome]]) -> dict[str, float]:
    """Percentage of riders per mode; zero-filled for absent modes."""
    counts = {mode.value: 0 for mode in RiderMode}
    for _, o in pairs:
        counts[o.mode.value] += 1
    total = len(pairs)
    if total == 0:
        return {k: 0.0 for k in counts}
    return {k: 100.0 * v / total for k, v in counts.items()}


def occupancy_histogram(
    outcomes: Iterable[RiderOutcome], journeys: Mapping[int, DriverJourney]
) -> dict[int, int]:
    """Drivers per maximum simultaneous rider load, idle drivers at 0."""
    pairs = _boardings_by_driver(outcomes, journeys)
    hist: dict[int, int] = {}
    for d, j in journeys.items():
        load = max_onboard(j, pairs.get(d, []))
        hist[load] = hist.get(load, 0) + 1
    return dict(sorted(hist.items()))


_RATIO_BINS = ("0%", "0-5%", "5-10%", "10-15%", ">15%")
_KM_BINS = ("0 km", "1-5 km", "6-10 km", "11-15 km", ">15 km")


def detour_histograms(
    pruned: Mapping[int, DriverJourney]
) -> tuple[dict[str, int], dict[str, int]]:
    """Effective detour distributions: relative and in rounded kilometres."""
    ratio_hist = {b: 0 for b in _RATIO_BINS}
    km_hist = {b: 0 for b in _KM_BINS}
    for j in pruned.values():
        ratio = j.detour_ratio
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
        km = round(j.detour_km)
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
    return ratio_hist, km_hist


def vkt_and_co2(
    current_report: SimulationReport,
    integrated_report: SimulationReport,
    journeys: Mapping[int, DriverJourney],
    model: TravelModel,
    em: EmissionModel,
) -> tuple[float, float]:
    """Car kilometres avoided by integration, and the CO2 that buys.

    The gain counts riders served by INTEGRATED but stranded in
    CURRENT: their forgone private car trips, minus the effective
    detours of the drivers who actually carried them.  ``journeys``
    must be the INTEGRATED variant's pruned journeys.  The rate is
    normalised per hour of the stats window.
    """
    gained = integrated_report.served_ids() - current_report.served_ids()
    outcome_by_id = {o.rider_id: o for o in integrated_report.outcomes}
    rider_by_id = {r.rider_id: r for r in integrated_report.riders}

    vkt = 0.0
    carriers: set[int] = set()
    for rider_id in sorted(gained):
        rider = rider_by_id[rider_id]
        vkt += road_km(rider.origin, rider.destination, model)
        carriers |= outcome_by_id[rider_id].drivers_used
    detour = sum(journeys[d].detour_km for d in sorted(carriers))
    vkt_saved = vkt - detour

    hours = integrated_report.stats_window.seconds / 3600.0
    co2 = vkt_saved * em.grams_per_km / 1000.0 / hours
    return vkt_saved, co2


# ---- parallel rider resolution --------------------------------------

_STATE: dict | None = None


def _resolve_one(index: int) -> tuple[RiderOutcome, ...]:
    state = _STATE
    rider = state["riders"][index]
    return tuple(
        resolve_rider(
            state["planner"], rider, state["rules"], mode, state["num_itineraries"]
        )
        for mode in state["arms"]
    )


def _resolve_chunk(bounds: tuple[int, int]) -> list[tuple[RiderOutcome, ...]]:
    return [_resolve_one(i) for i in range(bounds[0], bounds[1])]


def _resolve_all(
    planner: Planner,
    riders: tuple[Rider, ...],
    rules: FeasibilityRules,
    arms: tuple[PlanMode, ...],
    num_itineraries: int,
    workers: int,
) -> dict[PlanMode, list[RiderOutcome]]:
    """Every rider's outcome under each of ``arms``, listed per mode."""
    global _STATE
    _STATE = {
        "planner": planner,
        "riders": riders,
        "rules": rules,
        "arms": arms,
        "num_itineraries": num_itineraries,
    }
    try:
        n = len(riders)
        if workers <= 1 or n < 32:
            rows = [_resolve_one(i) for i in range(n)]
        else:
            # Fork workers inherit _STATE; only chunk bounds travel over IPC.
            chunk = max(1, math.ceil(n / (workers * 4)))
            bounds = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                rows = [row for part in pool.map(_resolve_chunk, bounds) for row in part]
    finally:
        _STATE = None
    return {mode: [row[k] for row in rows] for k, mode in enumerate(arms)}


def run_variant(
    scenario: Scenario,
    variant: SystemVariant,
    planner: Planner,
    journeys: Mapping[int, DriverJourney],
    rules: FeasibilityRules,
    num_itineraries: int = 10,
    capacity_enforcement: bool = True,
    workers: int = 1,
    solved: Mapping[PlanMode, list[RiderOutcome]] | None = None,
) -> SimulationReport:
    """Resolve every rider under one variant and collect its metrics.

    ``solved`` holds every rider's outcome per planner mode, as a
    comparison shares them; without it the variant resolves its own
    arms.  All riders are resolved (they occupy seats and shape
    pruning); modal shares and served sets use only stats-window
    departures.
    """
    arms = _VARIANT_ARMS[variant]
    if solved is None:
        solved = _resolve_all(
            planner, scenario.riders, rules, arms, num_itineraries, workers
        )
    outcomes = [
        functools.reduce(better_outcome, pair) for pair in zip(*(solved[m] for m in arms))
    ]

    capacities = {d.driver_id: d.seat_capacity for d in scenario.drivers}
    if capacity_enforcement:
        outcomes, voided = enforce_capacity(outcomes, journeys, capacities)
    else:
        voided = frozenset()

    used = collect_used_stoptimes(outcomes, journeys)
    pruned = {d: prune_journey(j, used[d]) for d, j in journeys.items()}

    report = SimulationReport(
        variant=variant,
        outcomes=tuple(outcomes),
        riders=scenario.riders,
        stats_window=scenario.config.stats_window,
        pruned_journeys=pruned,
        voided_drivers=voided,
    )
    report.modal_split = modal_split(report.stats_pairs())
    report.occupancy_hist = occupancy_histogram(outcomes, journeys)
    report.detour_ratio_hist, report.detour_km_hist = detour_histograms(pruned)
    return report


@dataclass
class SimulationResult:
    reports: dict[SystemVariant, SimulationReport]
    journeys: dict[int, DriverJourney]
    vkt_saved_km: float | None = None
    co2_saved_kg_per_hour: float | None = None


def run_comparison(
    scenario: Scenario,
    planner: Planner,
    journeys: Mapping[int, DriverJourney],
    rules: FeasibilityRules,
    model: TravelModel,
    em: EmissionModel,
    variants: tuple[SystemVariant, ...] = tuple(SystemVariant),
    num_itineraries: int = 10,
    capacity_enforcement: bool = True,
    workers: int = 1,
) -> SimulationResult:
    """Run the requested variants and, when both sides exist, the savings.

    Each planner mode the variants need is solved once per rider.
    """
    modes = tuple(m for m in PlanMode if any(m in _VARIANT_ARMS[v] for v in variants))
    solved = _resolve_all(
        planner, scenario.riders, rules, modes, num_itineraries, workers
    )
    reports = {
        v: run_variant(
            scenario, v, planner, journeys, rules,
            num_itineraries=num_itineraries,
            capacity_enforcement=capacity_enforcement,
            workers=workers,
            solved=solved,
        )
        for v in variants
    }
    result = SimulationResult(reports=reports, journeys=dict(journeys))
    current = reports.get(SystemVariant.CURRENT)
    integrated = reports.get(SystemVariant.INTEGRATED)
    if current is not None and integrated is not None:
        vkt, co2 = vkt_and_co2(
            current, integrated, integrated.pruned_journeys, model, em
        )
        result.vkt_saved_km = vkt
        result.co2_saved_kg_per_hour = co2
        integrated.vkt_saved_km = vkt
        integrated.co2_saved_kg_per_hour = co2
    return result

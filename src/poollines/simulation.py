"""The three-system comparison.

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
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import multiprocessing

from .drivers import DriverJourney
from .geo import TravelModel
from .matching import (
    FeasibilityRules,
    Rider,
    RiderOutcome,
    better_outcome,
    boardings_by_driver,
    enforce_capacity,
    resolve_rider,
)
from .planner import DEFAULT_NUM_ITINERARIES, Planner, PlanMode
from .scenario import Scenario

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
    """One variant's final outcomes, in rider order, and their
    :func:`~poollines.matching.boardings_by_driver`: who rides which driver
    from which journey index to which.  Occupancy and pruned lengths come from it."""

    variant: SystemVariant
    outcomes: tuple[RiderOutcome, ...]
    boardings: dict[int, list[tuple[int, int]]]
    voided_drivers: frozenset[int]


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
    num_itineraries: int = DEFAULT_NUM_ITINERARIES,
    capacity_enforcement: bool = True,
    workers: int = 1,
    solved: Mapping[PlanMode, list[RiderOutcome]] | None = None,
) -> SimulationReport:
    """Resolve every rider under one variant, enforce seats and table the boardings.

    ``solved`` holds every rider's outcome per planner mode, as a
    comparison shares them; without it the variant resolves its own
    arms.  All riders are resolved: they occupy seats.
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

    return SimulationReport(
        variant, tuple(outcomes), boardings_by_driver(outcomes, journeys), voided
    )


@dataclass
class SimulationResult:
    """A comparison's variants, with what ``reports.report_summary`` needs to price them."""

    scenario: Scenario
    reports: dict[SystemVariant, SimulationReport]
    journeys: dict[int, DriverJourney]
    model: TravelModel
    emissions: EmissionModel


def run_comparison(
    scenario: Scenario,
    planner: Planner,
    journeys: Mapping[int, DriverJourney],
    rules: FeasibilityRules,
    model: TravelModel,
    em: EmissionModel,
    variants: tuple[SystemVariant, ...] = tuple(SystemVariant),
    num_itineraries: int = DEFAULT_NUM_ITINERARIES,
    capacity_enforcement: bool = True,
    workers: int = 1,
) -> SimulationResult:
    """Run the requested variants.

    Each planner mode the variants need is solved once per rider.  The
    metrics are left to ``reports``, outside the comparison.
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
    return SimulationResult(scenario, reports, dict(journeys), model, em)

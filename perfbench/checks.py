"""Checks of a run's outputs against computations made apart from the program.

Distances and walking times come from the reference formulas in
``tests/oracles.py`` (the atan2 form of the sphere distance, not the
package's half-sine form).  Ride legs are matched against stoptimes
rebuilt from the base timetable and the driver journeys, using the
paper's poolline naming, not against the program's injected feed.
Each ``*_problems`` function returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from oracles import (
    OracleRouter,
    reference_path_km,
    reference_road_km,
    reference_walk_seconds,
)

POOL_TRIP_PREFIX = "1162238700"  # poolline trip k is "1162238700k"
_TOL_KM = 1e-6


def pool_driver(trip_id: str) -> int | None:
    suffix = trip_id[len(POOL_TRIP_PREFIX):]
    if trip_id.startswith(POOL_TRIP_PREFIX) and suffix.isdigit():
        return int(suffix)
    return None


class Network:
    """Stoptimes and stop positions of the network a run planned on.

    Built from the base timetable plus, per driver journey, the
    poolline the paper defines: trip ``1162238700k`` calling at
    ``DRIVER_origin_k``, its meeting points and ``DRIVER_destination_k``.
    """

    def __init__(self, base, journeys) -> None:
        self.calls = {
            trip_id: [(st.stop_id, st.arrival, st.departure) for st in sts]
            for trip_id, sts in base.stoptimes.items()
        }
        self.position = {sid: stop.position for sid, stop in base.stops.items()}
        for d, j in journeys.items():
            ids = (
                [f"DRIVER_origin_{d}"]
                + [st.stop_ref for st in j.stoptimes[1:-1]]
                + [f"DRIVER_destination_{d}"]
            )
            self.calls[f"{POOL_TRIP_PREFIX}{d}"] = [
                (sid, st.arrival, st.departure) for sid, st in zip(ids, j.stoptimes)
            ]
            self.position[ids[0]] = j.stoptimes[0].location
            self.position[ids[-1]] = j.stoptimes[-1].location


def _ride_problems(leg, net: Network) -> list[str]:
    calls = net.calls.get(leg.trip_id)
    if calls is None:
        return [f"ride on unknown trip {leg.trip_id}"]
    out = []
    kind = "carpool" if pool_driver(leg.trip_id) is not None else "transit"
    if leg.kind != kind:
        out.append(f"trip {leg.trip_id} labelled {leg.kind}, is {kind}")
    boards = [i for i, (s, _, dep) in enumerate(calls) if s == leg.from_stop and dep == leg.start]
    alights = [i for i, (s, arr, _) in enumerate(calls) if s == leg.to_stop and arr == leg.end]
    if not any(i < j for i in boards for j in alights):
        out.append(
            f"ride on {leg.trip_id} {leg.from_stop}@{leg.start} -> {leg.to_stop}@{leg.end} "
            "matches no stoptimes of the trip"
        )
    if (
        net.position.get(leg.from_stop) != leg.from_point
        or net.position.get(leg.to_stop) != leg.to_point
    ):
        out.append(f"ride on {leg.trip_id} does not start and end at its stops")
    return out


def itinerary_problems(it, origin, destination, departure, net: Network, cfg, rules=None) -> list[str]:
    """Timetable, walking and chaining rules; feasibility rules if given."""
    legs = it.legs
    if not legs:
        return ["itinerary without legs"]
    out = []
    if it.depart != departure or legs[0].start < departure:
        out.append("itinerary leaves before the requested departure")
    if legs[0].from_point != origin or legs[-1].to_point != destination:
        out.append("itinerary does not join origin to destination")
    if it.arrive != legs[-1].end:
        out.append("itinerary arrival is not its last leg's end")
    walk_km = 0.0
    previous = None
    for leg in legs:
        if previous is not None:
            if leg.from_point != previous.to_point:
                out.append("consecutive legs do not meet")
            if leg.start < previous.end:
                out.append("a leg starts before the previous one ends")
            if (
                previous.kind != "walk"
                and leg.kind != "walk"
                and leg.start < previous.end + cfg.transfer_s
            ):
                out.append("a change at a stop is shorter than the transfer buffer")
        if leg.kind == "walk":
            km = reference_road_km(leg.from_point, leg.to_point, cfg.travel)
            need = reference_walk_seconds(leg.from_point, leg.to_point, cfg.travel)
            walk_km += km
            if leg.end - leg.start < need:
                out.append(f"walk of {km:.4f} km lasts {leg.end - leg.start} s, needs {need} s")
            if abs(leg.distance_km - km) > _TOL_KM:
                out.append(f"walk leg claims {leg.distance_km:.6f} km, is {km:.6f} km")
        else:
            out.extend(_ride_problems(leg, net))
        previous = leg
    wait = it.arrive - it.depart - sum(leg.end - leg.start for leg in legs)
    if wait != it.total_wait_s:
        out.append(f"itinerary claims {it.total_wait_s} s of waiting, has {wait} s")
    if abs(walk_km - it.total_walk_km) > _TOL_KM:
        out.append(f"itinerary claims {it.total_walk_km:.6f} walk km, has {walk_km:.6f}")
    if rules is not None:
        if wait > rules.max_wait_s:
            out.append(f"served with {wait} s of waiting, limit {rules.max_wait_s}")
        if walk_km > rules.max_walk_km + _TOL_KM:
            out.append(f"served with {walk_km:.3f} walk km, limit {rules.max_walk_km}")
        if rules.walk_time_bound and it.arrive - departure > reference_walk_seconds(
            origin, destination, cfg.travel
        ):
            out.append("served by a journey slower than walking")
    return out


def expected_mode(it) -> str:
    """The paper's modal categories, from the legs alone."""
    pools = sum(1 for leg in it.legs if leg.kind == "carpool")
    transit = sum(1 for leg in it.legs if leg.kind == "transit")
    if pools and transit:
        return "multimodal"
    if pools:
        return "carpooling" if pools == 1 else "multi_carpooling"
    return "transit" if transit else "foot"


def outcome_problems(report, riders_by_id, net: Network, cfg) -> list[str]:
    out = []
    for o in report.outcomes:
        it = o.itinerary
        if it is None:
            if o.mode.value != "unserved":
                out.append(f"rider {o.rider_id} is {o.mode.value} without an itinerary")
            continue
        r = riders_by_id[o.rider_id]
        found = itinerary_problems(
            it, r.origin, r.destination, r.departure_time, net, cfg, cfg.rules
        )
        if o.mode.value != expected_mode(it):
            found.append(f"mode {o.mode.value}, legs say {expected_mode(it)}")
        drivers = {pool_driver(leg.trip_id) for leg in it.legs if leg.kind == "carpool"}
        if set(o.drivers_used) != drivers:
            found.append("drivers_used differs from the carpool legs")
        out.extend(f"{report.variant.value} rider {o.rider_id}: {p}" for p in found)
    return out


def capacity_problems(report, net: Network, seats: dict[int, int]) -> list[str]:
    """No surviving driver ever carries more riders than seats."""
    out = []
    load: dict[int, list[int]] = {}
    for o in report.outcomes:
        if o.itinerary is None:
            continue
        for leg in o.itinerary.legs:
            if leg.kind != "carpool":
                continue
            d = pool_driver(leg.trip_id)
            if d in report.voided_drivers:
                out.append(f"{report.variant.value} rider {o.rider_id} rides voided driver {d}")
            stops = [c[0] for c in net.calls[leg.trip_id]]
            counts = load.setdefault(d, [0] * (len(stops) - 1))
            for k in range(stops.index(leg.from_stop), stops.index(leg.to_stop)):
                counts[k] += 1
    for d, counts in sorted(load.items()):
        if max(counts) > seats[d]:
            out.append(
                f"{report.variant.value} driver {d} carries {max(counts)} riders "
                f"with {seats[d]} seats"
            )
    return out


def detour_problems(journeys, cfg) -> list[str]:
    out = []
    for d, j in sorted(journeys.items()):
        points = [st.location for st in j.stoptimes]
        base = reference_road_km(points[0], points[-1], cfg.travel)
        if base > 0 and (reference_path_km(points, cfg.travel) - base) / base > cfg.tau + 1e-9:
            out.append(f"driver {d} detours more than tau={cfg.tau}")
    return out


def served_sets(result, riders_by_id, window) -> dict[str, set[int]]:
    """Stats-window riders with an itinerary, per variant."""
    return {
        v.value: {
            o.rider_id
            for o in report.outcomes
            if o.itinerary is not None
            and window.start <= riders_by_id[o.rider_id].departure_time < window.end
        }
        for v, report in result.reports.items()
    }


def nesting_breakers(served: dict[str, set[int]]) -> set[int]:
    """Riders a system serves that the next, more integrated one does not."""
    nc, cu, ig = served["no_carpooling"], served["current"], served["integrated"]
    return (nc - cu) | (cu - ig)


def breaker_problems(result, served, scenario, planner, journeys, cfg, run_variant) -> list[str]:
    """Every nesting breaker must be a rider that capacity voiding unseated.

    A breaker is served by one system and not by the next one.  It is
    explained only if, resolved alone under the next system with capacity
    enforcement off, it is served on a journey of a driver that system
    voided.
    """
    riders = {r.rider_id: r for r in scenario.riders}
    reports = {v.value: rep for v, rep in result.reports.items()}
    out = []
    for lower, upper in (("no_carpooling", "current"), ("current", "integrated")):
        report = reports[upper]
        for rider_id in sorted(served[lower] - served[upper]):
            alone = run_variant(
                replace(scenario, riders=(riders[rider_id],)), report.variant, planner,
                journeys, cfg.rules, num_itineraries=cfg.num_itineraries,
                capacity_enforcement=False, workers=1,
            ).outcomes[0]
            if alone.itinerary is None or not alone.drivers_used & report.voided_drivers:
                out.append(
                    f"rider {rider_id} is served by {lower}, not by {upper}, "
                    "and no voided driver explains it"
                )
    return out


def metrics_problems(outdir: Path, summary: dict, recomputed: dict) -> list[str]:
    """report.json, report_summary and recompute_metrics must agree."""
    want = json.loads(json.dumps(summary, sort_keys=True))
    written = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    out = []
    if written != want:
        out.append(f"{outdir / 'report.json'} differs from report_summary")
    if json.loads(json.dumps(recomputed, sort_keys=True)) != want:
        out.append(f"recompute_metrics on {outdir} differs from report_summary")
    return out


def probe_problems(planner, probes, net: Network, cfg, modes) -> list[str]:
    """TRANSIT is never later than a restricted mode or the direct walk.

    ``probes`` holds (request, TRANSIT itinerary) pairs; ``modes`` the
    two restricted plan modes.
    """
    out = []
    for req, it in probes:
        limits = [planner.earliest_arrival(replace(req, mode=m)).arrive for m in modes]
        limits.append(req.departure + reference_walk_seconds(req.origin, req.destination, cfg.travel))
        if it.arrive > min(limits):
            out.append(f"probe at {req.departure}: TRANSIT arrives {it.arrive}, another mode {min(limits)}")
        out.extend(
            f"probe at {req.departure}: {p}"
            for p in itinerary_problems(it, req.origin, req.destination, req.departure, net, cfg)
        )
    return out


def oracle_problems(planner, probes, cfg) -> list[str]:
    """Probe arrivals equal the event-graph oracle's, exactly.

    The oracle reads walking links only from stops where a vehicle
    arrives, so only those links are handed to it.
    """
    t = planner.timetable
    fp = planner.footpaths
    arriving = {st.stop_id for sts in t.stoptimes.values() for st in sts[1:]}
    links = []
    for i, sid in enumerate(fp.stop_ids):
        if sid in arriving:
            for k in range(int(fp.starts[i]), int(fp.starts[i + 1])):
                links.append((sid, fp.stop_ids[int(fp.targets[k])], int(fp.seconds[k])))
    oracle = OracleRouter(t, cfg.travel, links, cfg.max_walk_km, cfg.transfer_s)
    out = []
    for req, it in probes:
        want = oracle.earliest_arrival(req.origin, req.destination, req.departure)
        if it.arrive != want:
            out.append(f"probe at {req.departure}: planner {it.arrive}, oracle {want}")
    return out


def feed_count_problems(parsed, written: dict[str, int]) -> list[str]:
    got = {
        "stops": len(parsed.stops),
        "trips_on_date": len(parsed.trips),
        "stop_times_on_date": sum(len(sts) for sts in parsed.stoptimes.values()),
    }
    return [
        f"parsed {got[k]} {k}, generator wrote {written[k]}"
        for k in got
        if got[k] != written[k]
    ]

"""A metro-sized GTFS feed, written with the stdlib ``csv`` module.

The feed covers a 24 km square: two subway lines cross at the centre
and a bus grid (one line every 3 km each way, a stop every 400 m)
covers the whole square.  Weekday, Saturday and Sunday services differ
in headway, so a service-date filter keeps about half of the trips, as
on a real agency feed.  Stop positions and line offsets are jittered
from the seed.  The generator returns the counts it wrote, so a run
can check what the parser read back.
"""
from __future__ import annotations

import csv
import math
import random
from pathlib import Path

LAT0 = 45.40
LON0 = -122.85
SIZE_KM = 24.0
SERVICE_DATE = "2022-07-20"  # a Wednesday
_KM_PER_DEG = math.pi * 6371.0088 / 180.0
_KM_PER_DEG_LON = _KM_PER_DEG * math.cos(math.radians(LAT0 + SIZE_KM / 2.0 / _KM_PER_DEG))

# service -> (calendar weekday flags, subway headway s, bus headway s)
_SERVICES = {
    "WEEKDAY": ((1, 1, 1, 1, 1, 0, 0), 720, 2700),
    "SATURDAY": ((0, 0, 0, 0, 0, 1, 0), 900, 3600),
    "SUNDAY": ((0, 0, 0, 0, 0, 0, 1), 1200, 5400),
}
_FIRST_S = 6 * 3600
_LAST_S = 22 * 3600
_SUBWAY_SPACING_KM = 1.0
_BUS_SPACING_KM = 0.4
_BUS_LINE_SPACING_KM = 3.0
_SUBWAY_KMH = 40.0
_BUS_KMH = 18.0
_DWELL_S = 20


def point(x_km: float, y_km: float) -> tuple[float, float]:
    """Feed coordinates of a point given in square kilometres (x east, y north)."""
    return LAT0 + y_km / _KM_PER_DEG, LON0 + x_km / _KM_PER_DEG_LON


def demand_rectangles() -> list[list[float]]:
    """Scenario rectangles: a heavy 12 km centre inside the whole square."""
    lat_lo, lon_lo = point(0.0, 0.0)
    lat_hi, lon_hi = point(SIZE_KM, SIZE_KM)
    c_lat_lo, c_lon_lo = point(6.0, 6.0)
    c_lat_hi, c_lon_hi = point(18.0, 18.0)
    return [
        [lat_lo, lat_hi, lon_lo, lon_hi, 1.0],
        [c_lat_lo, c_lat_hi, c_lon_lo, c_lon_hi, 1.0],
    ]


def _lines(rng: random.Random) -> list[tuple[str, int, list[tuple[float, float]], float]]:
    """(line id, route_type, stop positions in km, speed km/h) per line."""
    lines = []
    n_sub = int(SIZE_KM / _SUBWAY_SPACING_KM)
    along = [(k + 0.5) * _SUBWAY_SPACING_KM for k in range(n_sub)]
    half = SIZE_KM / 2.0
    lines.append(("SUB_NS", 1, [(half, y) for y in along], _SUBWAY_KMH))
    lines.append(("SUB_EW", 1, [(x, half) for x in along], _SUBWAY_KMH))
    n_bus = int(SIZE_KM / _BUS_SPACING_KM)
    n_lines = int(SIZE_KM / _BUS_LINE_SPACING_KM)
    for k in range(n_lines):
        offset = (k + 0.5) * _BUS_LINE_SPACING_KM + rng.uniform(-0.3, 0.3)
        stops_ns, stops_ew = [], []
        for i in range(n_bus):
            a = (i + 0.5) * _BUS_SPACING_KM
            stops_ns.append((offset + rng.uniform(-0.05, 0.05), a + rng.uniform(-0.08, 0.08)))
            stops_ew.append((a + rng.uniform(-0.08, 0.08), offset + rng.uniform(-0.05, 0.05)))
        lines.append((f"BUS_NS{k}", 3, stops_ns, _BUS_KMH))
        lines.append((f"BUS_EW{k}", 3, stops_ew, _BUS_KMH))
    return lines


def _clock(seconds: int) -> str:
    h, rest = divmod(seconds, 3600)
    m, s = divmod(rest, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def _write(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_metro_feed(directory: str | Path, seed: int) -> dict[str, int]:
    """Write the feed and return the counts a service-date parse must see.

    Keys: ``stops``, ``trips_total``, ``stop_times_total``, and
    ``trips_on_date`` / ``stop_times_on_date`` for :data:`SERVICE_DATE`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    lines = _lines(rng)

    stop_rows, route_rows, trip_rows, st_rows = [], [], [], []
    counts = {"trips_on_date": 0, "stop_times_on_date": 0}
    for line_id, route_type, stops_km, kmh in lines:
        stop_ids = [f"{line_id}_{i:02d}" for i in range(len(stops_km))]
        for sid, (x, y) in zip(stop_ids, stops_km):
            lat, lon = point(x, y)
            stop_rows.append([sid, sid, repr(lat), repr(lon)])
        route_rows.append([line_id, line_id, f"line {line_id}", route_type])
        hops = [
            max(30, round(math.dist(a, b) * 1.3 / kmh * 3600.0))
            for a, b in zip(stops_km, stops_km[1:])
        ]
        phase = rng.randrange(0, 300)
        for service, (_, sub_headway, bus_headway) in _SERVICES.items():
            headway = sub_headway if route_type == 1 else bus_headway
            for direction in (0, 1):
                order = list(range(len(stop_ids)))
                legs = hops if direction == 0 else hops[::-1]
                if direction:
                    order.reverse()
                for start in range(_FIRST_S + phase, _LAST_S, headway):
                    trip_id = f"{line_id}_{service}_{direction}_{start}"
                    trip_rows.append([line_id, service, trip_id])
                    clock = start
                    for seq, i in enumerate(order):
                        dwell = _DWELL_S if 0 < seq < len(order) - 1 else 0
                        st_rows.append([trip_id, _clock(clock), _clock(clock + dwell), stop_ids[i], seq])
                        if seq < len(legs):
                            clock += dwell + legs[seq]
                    if service == "WEEKDAY":
                        counts["trips_on_date"] += 1
                        counts["stop_times_on_date"] += len(order)

    _write(directory / "stops.txt", ["stop_id", "stop_name", "stop_lat", "stop_lon"], stop_rows)
    _write(
        directory / "routes.txt",
        ["route_id", "route_short_name", "route_long_name", "route_type"],
        route_rows,
    )
    _write(directory / "trips.txt", ["route_id", "service_id", "trip_id"], trip_rows)
    _write(
        directory / "stop_times.txt",
        ["trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"],
        st_rows,
    )
    _write(
        directory / "calendar.txt",
        ["service_id", "monday", "tuesday", "wednesday", "thursday", "friday",
         "saturday", "sunday", "start_date", "end_date"],
        [[s, *flags, 20220101, 20221231] for s, (flags, _, _) in _SERVICES.items()],
    )
    counts.update(
        stops=len(stop_rows), trips_total=len(trip_rows), stop_times_total=len(st_rows)
    )
    return counts

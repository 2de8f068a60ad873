"""Lossless GTFS reading and writing for the four core tables.

Consumed tables: stops.txt, routes.txt, trips.txt, stop_times.txt, plus
calendar.txt / calendar_dates.txt when present (used only to restrict
trips to a service date).  Any other file in the feed is carried through
untouched as raw bytes.  Times are stored as integer seconds since
service midnight, so "25:10:00" is a valid 90600.
"""
from __future__ import annotations

import csv
import io
import zipfile
from dataclasses import dataclass, field, replace
from datetime import date as _date
from pathlib import Path

from .geo import GeoPoint

ROUTE_TYPE_TRAM = 0
ROUTE_TYPE_SUBWAY = 1
ROUTE_TYPE_RAIL = 2
ROUTE_TYPE_BUS = 3

_CORE_FILES = ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt")
_CALENDAR_FILES = ("calendar.txt", "calendar_dates.txt")
_WEEKDAY_COLUMNS = (
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday",
)


class GtfsError(Exception):
    """Base class for feed-level problems."""


class MissingFile(GtfsError):
    def __init__(self, filename: str):
        super().__init__(f"required feed file is missing: {filename}")
        self.filename = filename


class MalformedRow(GtfsError):
    def __init__(self, filename: str, line: int, reason: str):
        super().__init__(f"{filename}:{line}: {reason}")
        self.filename = filename
        self.line = line
        self.reason = reason


class DanglingReference(GtfsError):
    def __init__(self, filename: str, line: int, ref_id: str):
        super().__init__(f"{filename}:{line}: reference to unknown id {ref_id!r}")
        self.filename = filename
        self.line = line
        self.ref_id = ref_id


@dataclass(frozen=True)
class Stop:
    stop_id: str
    name: str
    position: GeoPoint


@dataclass(frozen=True)
class Route:
    route_id: str
    name: str
    route_type: int


@dataclass(frozen=True)
class Trip:
    trip_id: str
    route_id: str
    service_id: str


@dataclass(frozen=True)
class GtfsStopTime:
    trip_id: str
    stop_id: str
    arrival: int
    departure: int
    stop_sequence: int


@dataclass(frozen=True)
class CalendarRow:
    service_id: str
    weekdays: tuple[int, ...]  # monday..sunday flags
    start_date: int  # YYYYMMDD
    end_date: int


@dataclass(frozen=True)
class CalendarDateRow:
    service_id: str
    date: int  # YYYYMMDD
    exception_type: int  # 1 = added, 2 = removed


@dataclass(frozen=True)
class Timetable:
    """An in-memory feed.  Treat every container as immutable once built."""

    stops: dict[str, Stop] = field(default_factory=dict)
    routes: dict[str, Route] = field(default_factory=dict)
    trips: dict[str, Trip] = field(default_factory=dict)
    stoptimes: dict[str, tuple[GtfsStopTime, ...]] = field(default_factory=dict)
    calendar: tuple[CalendarRow, ...] = ()
    calendar_dates: tuple[CalendarDateRow, ...] = ()
    extra_files: dict[str, bytes] = field(default_factory=dict)


def parse_gtfs_time(text: str) -> int:
    """Parse HH:MM:SS into seconds since service midnight.

    Hours may exceed 23 for after-midnight service.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"bad GTFS time: {text!r}")
    try:
        h, m, s = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad GTFS time: {text!r}") from None
    if h < 0 or not 0 <= m < 60 or not 0 <= s < 60:
        raise ValueError(f"bad GTFS time: {text!r}")
    return h * 3600 + m * 60 + s


def format_gtfs_time(seconds: int) -> str:
    if seconds < 0:
        raise ValueError("GTFS times cannot be negative")
    h, rest = divmod(int(seconds), 3600)
    m, s = divmod(rest, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def format_coordinate(value: float) -> str:
    """Decimal form with at least 6 fractional digits that parses back exactly."""
    for precision in range(6, 18):
        text = f"{value:.{precision}f}"
        if float(text) == value:
            return text
    return repr(value)


def _service_date_int(service_date: str | _date) -> tuple[int, int]:
    """Return (YYYYMMDD, weekday index monday=0) for a date or ISO string."""
    if isinstance(service_date, str):
        service_date = _date.fromisoformat(service_date)
    return int(service_date.strftime("%Y%m%d")), service_date.weekday()


def service_active(t: Timetable, service_id: str, service_date: str | _date) -> bool:
    """Whether a service runs on the given date.

    Feeds without any calendar data treat every service as always active.
    """
    if not t.calendar and not t.calendar_dates:
        return True
    day_int, weekday = _service_date_int(service_date)
    active = False
    for row in t.calendar:
        if row.service_id == service_id and row.start_date <= day_int <= row.end_date:
            if row.weekdays[weekday]:
                active = True
            break
    for row in t.calendar_dates:
        if row.service_id == service_id and row.date == day_int:
            active = row.exception_type == 1
    return active


class _FeedSource:
    """Uniform access to a feed stored as a directory or a .zip archive."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._zip = None
        if self.path.is_file() and self.path.suffix == ".zip":
            self._zip = zipfile.ZipFile(self.path)
        elif not self.path.is_dir():
            raise MissingFile(str(self.path))

    def names(self) -> list[str]:
        if self._zip is not None:
            return [n for n in self._zip.namelist() if not n.endswith("/")]
        return sorted(p.name for p in self.path.iterdir() if p.is_file())

    def read_bytes(self, name: str) -> bytes | None:
        if self._zip is not None:
            try:
                return self._zip.read(name)
            except KeyError:
                return None
        p = self.path / name
        if not p.is_file():
            return None
        return p.read_bytes()

    def close(self) -> None:
        if self._zip is not None:
            self._zip.close()


def _rows(source: _FeedSource, name: str, required: bool) -> list[tuple[int, dict[str, str]]]:
    raw = source.read_bytes(name)
    if raw is None:
        if required:
            raise MissingFile(name)
        return []
    text = raw.decode("utf-8-sig")
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        cleaned = {
            (k.strip() if k else k): (v.strip() if isinstance(v, str) else v)
            for k, v in row.items()
            if k is not None
        }
        out.append((reader.line_num, cleaned))
    return out


def _need(row: dict[str, str], key: str, name: str, line: int) -> str:
    value = row.get(key)
    if value is None or value == "":
        raise MalformedRow(name, line, f"missing value for {key!r}")
    return value


def _parse_stops(source: _FeedSource) -> dict[str, Stop]:
    stops: dict[str, Stop] = {}
    for line, row in _rows(source, "stops.txt", required=True):
        stop_id = _need(row, "stop_id", "stops.txt", line)
        if stop_id in stops:
            raise MalformedRow("stops.txt", line, f"duplicate stop_id {stop_id!r}")
        try:
            lat = float(_need(row, "stop_lat", "stops.txt", line))
            lon = float(_need(row, "stop_lon", "stops.txt", line))
            position = GeoPoint(lat, lon)
        except ValueError as exc:
            raise MalformedRow("stops.txt", line, str(exc)) from None
        stops[stop_id] = Stop(stop_id, row.get("stop_name", ""), position)
    return stops


def _parse_routes(source: _FeedSource) -> dict[str, Route]:
    routes: dict[str, Route] = {}
    for line, row in _rows(source, "routes.txt", required=True):
        route_id = _need(row, "route_id", "routes.txt", line)
        if route_id in routes:
            raise MalformedRow("routes.txt", line, f"duplicate route_id {route_id!r}")
        try:
            route_type = int(_need(row, "route_type", "routes.txt", line))
        except ValueError:
            raise MalformedRow("routes.txt", line, "route_type is not an integer") from None
        name = row.get("route_long_name") or row.get("route_short_name") or ""
        routes[route_id] = Route(route_id, name, route_type)
    return routes


def _parse_trips(source: _FeedSource, routes: dict[str, Route]) -> dict[str, Trip]:
    trips: dict[str, Trip] = {}
    for line, row in _rows(source, "trips.txt", required=True):
        trip_id = _need(row, "trip_id", "trips.txt", line)
        if trip_id in trips:
            raise MalformedRow("trips.txt", line, f"duplicate trip_id {trip_id!r}")
        route_id = _need(row, "route_id", "trips.txt", line)
        if route_id not in routes:
            raise DanglingReference("trips.txt", line, route_id)
        trips[trip_id] = Trip(trip_id, route_id, row.get("service_id", ""))
    return trips


def _parse_stoptimes(
    source: _FeedSource,
    stops: dict[str, Stop],
    known_trips: set[str],
    kept_trips: set[str],
) -> dict[str, list[tuple[int, GtfsStopTime]]]:
    grouped: dict[str, list[tuple[int, GtfsStopTime]]] = {}
    for line, row in _rows(source, "stop_times.txt", required=True):
        trip_id = _need(row, "trip_id", "stop_times.txt", line)
        if trip_id not in known_trips:
            raise DanglingReference("stop_times.txt", line, trip_id)
        stop_id = _need(row, "stop_id", "stop_times.txt", line)
        if stop_id not in stops:
            raise DanglingReference("stop_times.txt", line, stop_id)
        try:
            arrival = parse_gtfs_time(_need(row, "arrival_time", "stop_times.txt", line))
            departure = parse_gtfs_time(_need(row, "departure_time", "stop_times.txt", line))
            sequence = int(_need(row, "stop_sequence", "stop_times.txt", line))
        except ValueError as exc:
            raise MalformedRow("stop_times.txt", line, str(exc)) from None
        if departure < arrival:
            raise MalformedRow("stop_times.txt", line, "departure before arrival")
        if trip_id not in kept_trips:
            continue  # trip filtered out by the service date
        grouped.setdefault(trip_id, []).append(
            (line, GtfsStopTime(trip_id, stop_id, arrival, departure, sequence))
        )
    return grouped


def _order_stoptimes(
    grouped: dict[str, list[tuple[int, GtfsStopTime]]]
) -> dict[str, tuple[GtfsStopTime, ...]]:
    ordered: dict[str, tuple[GtfsStopTime, ...]] = {}
    for trip_id in sorted(grouped):
        rows = sorted(grouped[trip_id], key=lambda pair: pair[1].stop_sequence)
        previous: GtfsStopTime | None = None
        for line, st in rows:
            if previous is not None:
                if st.stop_sequence == previous.stop_sequence:
                    raise MalformedRow(
                        "stop_times.txt", line,
                        f"duplicate stop_sequence {st.stop_sequence} in trip {trip_id!r}",
                    )
                if st.arrival < previous.departure:
                    raise MalformedRow(
                        "stop_times.txt", line,
                        f"arrival goes backwards in trip {trip_id!r}",
                    )
            previous = st
        ordered[trip_id] = tuple(st for _, st in rows)
    return ordered


def _parse_calendar(source: _FeedSource) -> tuple[CalendarRow, ...]:
    out = []
    for line, row in _rows(source, "calendar.txt", required=False):
        service_id = _need(row, "service_id", "calendar.txt", line)
        try:
            weekdays = tuple(int(_need(row, c, "calendar.txt", line)) for c in _WEEKDAY_COLUMNS)
            start = int(_need(row, "start_date", "calendar.txt", line))
            end = int(_need(row, "end_date", "calendar.txt", line))
        except ValueError as exc:
            raise MalformedRow("calendar.txt", line, str(exc)) from None
        out.append(CalendarRow(service_id, weekdays, start, end))
    return tuple(sorted(out, key=lambda r: r.service_id))


def _parse_calendar_dates(source: _FeedSource) -> tuple[CalendarDateRow, ...]:
    out = []
    for line, row in _rows(source, "calendar_dates.txt", required=False):
        service_id = _need(row, "service_id", "calendar_dates.txt", line)
        try:
            day = int(_need(row, "date", "calendar_dates.txt", line))
            kind = int(_need(row, "exception_type", "calendar_dates.txt", line))
        except ValueError as exc:
            raise MalformedRow("calendar_dates.txt", line, str(exc)) from None
        if kind not in (1, 2):
            raise MalformedRow("calendar_dates.txt", line, f"bad exception_type {kind}")
        out.append(CalendarDateRow(service_id, day, kind))
    return tuple(sorted(out, key=lambda r: (r.service_id, r.date, r.exception_type)))


def parse_gtfs(path: str | Path, service_date: str | _date | None = None) -> Timetable:
    """Load a feed from a directory or .zip archive.

    When ``service_date`` is given, trips whose service does not run on
    that date are dropped together with their stoptimes.  Rows that
    reference unknown ids raise :class:`DanglingReference` with the file
    and line of the offending row.
    """
    source = _FeedSource(path)
    try:
        stops = _parse_stops(source)
        routes = _parse_routes(source)
        trips = _parse_trips(source, routes)
        calendar = _parse_calendar(source)
        calendar_dates = _parse_calendar_dates(source)

        partial = Timetable(calendar=calendar, calendar_dates=calendar_dates)
        if service_date is None:
            kept = dict(trips)
        else:
            kept = {
                trip_id: trip
                for trip_id, trip in trips.items()
                if service_active(partial, trip.service_id, service_date)
            }
        grouped = _parse_stoptimes(source, stops, set(trips), set(kept))
        stoptimes = _order_stoptimes(grouped)
        for trip_id in kept:
            stoptimes.setdefault(trip_id, ())

        extra = {}
        for name in source.names():
            if name in _CORE_FILES or name in _CALENDAR_FILES:
                continue
            data = source.read_bytes(name)
            if data is not None:
                extra[name] = data

        return Timetable(
            stops={k: stops[k] for k in sorted(stops)},
            routes={k: routes[k] for k in sorted(routes)},
            trips={k: kept[k] for k in sorted(kept)},
            stoptimes={k: stoptimes[k] for k in sorted(stoptimes)},
            calendar=calendar,
            calendar_dates=calendar_dates,
            extra_files=extra,
        )
    finally:
        source.close()


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_gtfs(t: Timetable, directory: str | Path) -> None:
    """Write a feed to a directory, creating it if needed.

    Output is canonical: rows sorted by id (stoptimes by trip and
    sequence), times zero-padded, coordinates with enough digits to
    re-parse to the same float.  Unconsumed files are copied verbatim.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    _write_csv(
        directory / "stops.txt",
        ["stop_id", "stop_name", "stop_lat", "stop_lon"],
        [
            [s.stop_id, s.name, format_coordinate(s.position.lat), format_coordinate(s.position.lon)]
            for s in (t.stops[k] for k in sorted(t.stops))
        ],
    )
    _write_csv(
        directory / "routes.txt",
        ["route_id", "route_short_name", "route_long_name", "route_type"],
        [
            [r.route_id, "", r.name, str(r.route_type)]
            for r in (t.routes[k] for k in sorted(t.routes))
        ],
    )
    _write_csv(
        directory / "trips.txt",
        ["route_id", "service_id", "trip_id"],
        [
            [tr.route_id, tr.service_id, tr.trip_id]
            for tr in (t.trips[k] for k in sorted(t.trips))
        ],
    )
    stoptime_rows = []
    for trip_id in sorted(t.stoptimes):
        for st in t.stoptimes[trip_id]:
            stoptime_rows.append(
                [
                    st.trip_id,
                    format_gtfs_time(st.arrival),
                    format_gtfs_time(st.departure),
                    st.stop_id,
                    str(st.stop_sequence),
                ]
            )
    _write_csv(
        directory / "stop_times.txt",
        ["trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"],
        stoptime_rows,
    )
    if t.calendar:
        _write_csv(
            directory / "calendar.txt",
            ["service_id", *_WEEKDAY_COLUMNS, "start_date", "end_date"],
            [
                [row.service_id, *[str(d) for d in row.weekdays], str(row.start_date), str(row.end_date)]
                for row in t.calendar
            ],
        )
    if t.calendar_dates:
        _write_csv(
            directory / "calendar_dates.txt",
            ["service_id", "date", "exception_type"],
            [
                [row.service_id, str(row.date), str(row.exception_type)]
                for row in t.calendar_dates
            ],
        )
    for name, data in sorted(t.extra_files.items()):
        (directory / name).write_bytes(data)


def with_service_date(t: Timetable, service_date: str | _date) -> Timetable:
    """Return a copy keeping only trips active on the date."""
    kept = {
        trip_id: trip
        for trip_id, trip in t.trips.items()
        if service_active(t, trip.service_id, service_date)
    }
    return replace(
        t,
        trips=kept,
        stoptimes={trip_id: t.stoptimes.get(trip_id, ()) for trip_id in sorted(kept)},
    )

"""Lossless GTFS reading and writing for the four core tables.

Consumed tables: stops.txt, routes.txt, trips.txt, stop_times.txt, plus
calendar.txt / calendar_dates.txt when present (used only to restrict
trips to a service date).  Any other file in the feed is carried through
untouched as raw bytes.  Times are stored as integer seconds since
service midnight, so "25:10:00" is a valid 90600.

Every table, of a feed directory or of a .zip member, is streamed
through :class:`CsvRows`: the reader holds a few blocks of a file at a
time, never the whole file, and closes it whether it returns or raises.
The agents file and the run tables of :mod:`poollines.scenario` and
:mod:`poollines.reports` are read by the same class.
"""
from __future__ import annotations

import codecs
import csv
import functools
import io
import math
import operator
import sys
import zipfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import date as _date
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

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
_CHECK_BYTES = 1 << 16  # bytes per read of the UTF-8 check
_SECOND_TEXTS = {f":{s:02d}": s for s in range(60)}


@functools.cache
def _minute_texts() -> dict[str, int]:
    """The minute of the service day of each "H:MM" and "HH:MM", hours below 48.

    Through :class:`_SecondInts`, and with ``_SECOND_TEXTS`` (":SS" to
    the second), it reads a stop time by lookups; any other text goes
    through parse_gtfs_time.  Built on the first parse, so a process
    that reads no feed does not hold it.
    """
    return {
        **{f"{h}:{m:02d}": h * 60 + m for h in range(10) for m in range(60)},
        **{f"{h:02d}:{m:02d}": h * 60 + m for h in range(48) for m in range(60)},
    }


class _SecondInts(dict):
    """Minute text ("H:MM" or "HH:MM") to the 60 second-of-day ints of that
    minute, each list made on first use; a text of no minute is a KeyError.

    One per parse: stop times whose texts share a minute share int objects.
    """

    def __missing__(self, text: str) -> list[int]:
        start = _minute_texts()[text] * 60
        ints = self[text] = list(range(start, start + 60))
        return ints


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


class GtfsStopTime(NamedTuple):
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
    try:
        h, m, s = map(_ascii_int, text.strip().split(":"))
    except ValueError:  # a part not of digits, or not three parts
        raise ValueError(f"bad GTFS time: {text!r}") from None
    if m >= 60 or s >= 60:
        raise ValueError(f"bad GTFS time: {text!r}")
    return h * 3600 + m * 60 + s


def _ascii_int(text: str) -> int:
    """A non-negative integer in ASCII digits, as GTFS writes it; ``int``
    alone also takes a sign, underscores and other scripts' digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def _ascii_float(text: str) -> float:
    """A number in ASCII, as GTFS and agents.csv write coordinates;
    ``float`` alone also takes underscores and other scripts' digits."""
    if text.isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"could not convert string to float: {text!r}")


class _SequenceInts(dict):
    """stop_sequence text to its int by :func:`_ascii_int`, each text
    parsed on first use; one per parse."""

    def __missing__(self, text: str) -> int:
        value = self[text] = _ascii_int(text)
        return value


def format_gtfs_time(seconds: int) -> str:
    if seconds < 0:
        raise ValueError("GTFS times cannot be negative")
    h, rest = divmod(int(seconds), 3600)
    m, s = divmod(rest, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def format_coordinate(value: float) -> str:
    """Decimal form with at least 6 fractional digits that parses back exactly.

    That is the fewest places, from 6 to 17, whose fixed-point form
    parses back to ``value``; ``repr`` when none does.  The shortest
    round-trip digits, which ``repr`` gives, fix that number of places.
    """
    text = repr(value)
    if not math.isfinite(value):
        return text
    mantissa, _, exponent = text.partition("e")
    places = len(mantissa.partition(".")[2]) - int(exponent or 0)
    if places > 17:
        return text
    return f"{value:.{max(6, places)}f}"


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


def _trips_on(
    t: Timetable, trips: dict[str, Trip], service_date: str | _date
) -> dict[str, Trip]:
    """The trips whose service runs on the date, each service evaluated once."""
    services = dict.fromkeys(trip.service_id for trip in trips.values())
    active = {sid for sid in services if service_active(t, sid, service_date)}
    return {trip_id: trip for trip_id, trip in trips.items() if trip.service_id in active}


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

    def open(self, name: str) -> BinaryIO | None:
        """A binary stream of the file, which the caller closes; None if absent."""
        if self._zip is not None:
            try:
                return self._zip.open(name)
            except KeyError:
                return None
        p = self.path / name
        return p.open("rb") if p.is_file() else None

    def read_bytes(self, name: str) -> bytes | None:
        stream = self.open(name)
        if stream is None:
            return None
        with stream:
            return stream.read()

    def close(self) -> None:
        if self._zip is not None:
            self._zip.close()


class CsvRows:
    """The rows of one CSV byte stream, read a block at a time.

    Two passes over the stream, neither of which holds the whole file.
    The first checks that it is ``encoding`` text, 64 KB at a time, so a
    byte that is not UTF-8 is reported before any fault in the rows.
    The second rewinds and runs ``csv.reader`` over a text wrapper that
    splits lines at "\\n" only, as ``io.StringIO`` does: "\\r\\n" ends a
    row, a bare "\\r" outside quotes is unreadable, and a quoted cell may
    span lines.  Iterating yields each non-blank row with the physical
    line it ends on; ``reading()`` hands out the reader itself, for a
    loop that needs the line of only a few rows.  ``header`` is the
    first row and ``columns`` maps each stripped header name to its
    index (the last, if repeated).

    ``fault(line, reason)`` builds the exception raised for a byte that
    is not UTF-8 and for text the CSV reader rejects, so each caller
    keeps its own error type.  The object owns ``stream``: ``close()``,
    or leaving a ``with`` block, closes it, and so does a constructor
    that raises.
    """

    def __init__(self, stream: BinaryIO, encoding: str, fault: Callable[[int, str], Exception]):
        self._fault = fault
        self._stream: BinaryIO | io.TextIOWrapper = stream
        try:
            _check_utf8(stream, encoding, fault)
            stream.seek(0)
            self._stream = io.TextIOWrapper(stream, encoding=encoding, newline="\n")
            self._reader = csv.reader(self._stream)
            try:
                self.header = next(self._reader, [])
            except csv.Error as exc:
                raise self._unreadable(exc) from None
        except BaseException:
            self._stream.close()
            raise
        self.columns = {key.strip(): i for i, key in enumerate(self.header)}

    def _unreadable(self, exc: csv.Error) -> Exception:
        # The reader's advice after " - " is about opening files in Python.
        reason = str(exc).split(" - ")[0]
        return self._fault(self._reader.line_num, f"unreadable CSV: {reason}")

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        with self.reading() as reader:
            for row in reader:
                if row:
                    yield reader.line_num, row

    @contextmanager
    def reading(self) -> Iterator[Iterator[list[str]]]:
        """The CSV reader itself, for a loop that reads ``line_num`` only when
        it needs it.  It yields blank lines as empty rows; text it rejects
        inside the block raises ``fault`` at its line."""
        try:
            yield self._reader
        except csv.Error as exc:
            raise self._unreadable(exc) from None

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> CsvRows:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """A UTF-8 CSV file of ``header`` then ``rows``, as they are made; lines end in "\\n"."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _check_utf8(stream: BinaryIO, encoding: str, fault: Callable[[int, str], Exception]) -> None:
    """Raise ``fault(line, "byte 0x.. is not UTF-8")`` unless the stream is UTF-8.

    The check decodes a block at a time; only when it fails is the whole
    stream decoded at once, to name the line of the first bad byte.
    """
    decoder = codecs.getincrementaldecoder(encoding)()
    try:
        while block := stream.read(_CHECK_BYTES):
            decoder.decode(block)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        stream.seek(0)
        try:
            stream.read().decode(encoding)
        except UnicodeDecodeError as exc:
            line = exc.object[: exc.start].count(b"\n") + 1
            raise fault(line, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None
        raise


class _Table(CsvRows):
    """One feed table, with cell access by header name.

    A column the header lacks, or a row too short to reach, reads as "".
    A missing optional file reads as a table without rows.  Faults raise
    :class:`MalformedRow` at their line.
    """

    def __init__(self, source: _FeedSource, name: str, required: bool):
        stream = source.open(name)
        if stream is None:
            if required:
                raise MissingFile(name)
            stream = io.BytesIO()
        self.name = name
        super().__init__(stream, "utf-8-sig", lambda line, reason: MalformedRow(name, line, reason))

    def get(self, row: list[str], key: str) -> str:
        i = self.columns.get(key)
        return row[i].strip() if i is not None and i < len(row) else ""

    def need(self, row: list[str], key: str, line: int) -> str:
        value = self.get(row, key)
        if value == "":
            raise MalformedRow(self.name, line, f"missing value for {key!r}")
        return value


def _parse_stops(source: _FeedSource) -> dict[str, Stop]:
    stops: dict[str, Stop] = {}
    with _Table(source, "stops.txt", required=True) as table:
        for line, row in table:
            stop_id = table.need(row, "stop_id", line)
            if stop_id in stops:
                raise MalformedRow("stops.txt", line, f"duplicate stop_id {stop_id!r}")
            try:
                lat = _ascii_float(table.need(row, "stop_lat", line))
                lon = _ascii_float(table.need(row, "stop_lon", line))
                position = GeoPoint(lat, lon)
            except ValueError as exc:
                raise MalformedRow("stops.txt", line, str(exc)) from None
            stops[stop_id] = Stop(stop_id, table.get(row, "stop_name"), position)
    return stops


def _parse_routes(source: _FeedSource) -> dict[str, Route]:
    routes: dict[str, Route] = {}
    with _Table(source, "routes.txt", required=True) as table:
        for line, row in table:
            route_id = table.need(row, "route_id", line)
            if route_id in routes:
                raise MalformedRow("routes.txt", line, f"duplicate route_id {route_id!r}")
            try:
                route_type = _ascii_int(table.need(row, "route_type", line))
            except ValueError:
                raise MalformedRow("routes.txt", line, "route_type is not an integer") from None
            name = table.get(row, "route_long_name") or table.get(row, "route_short_name")
            routes[route_id] = Route(route_id, name, route_type)
    return routes


def _parse_trips(source: _FeedSource, routes: dict[str, Route]) -> dict[str, Trip]:
    trips: dict[str, Trip] = {}
    with _Table(source, "trips.txt", required=True) as table:
        for line, row in table:
            trip_id = table.need(row, "trip_id", line)
            if trip_id in trips:
                raise MalformedRow("trips.txt", line, f"duplicate trip_id {trip_id!r}")
            route_id = table.need(row, "route_id", line)
            if route_id not in routes:
                raise DanglingReference("trips.txt", line, route_id)
            trips[trip_id] = Trip(trip_id, route_id, table.get(row, "service_id"))
    return trips


def _parse_stoptimes(
    source: _FeedSource,
    stops: dict[str, Stop],
    known_trips: dict[str, Trip],
    kept_trips: dict[str, Trip],
) -> dict[str, tuple[list[GtfsStopTime], array]]:
    """Stoptimes of the kept trips, grouped by trip, with their lines.

    Each trip maps to its stoptimes in file order and an array of the
    lines they end on, which only a fault found later reads.  Every row
    is checked, kept or not, in one loop over the CSV reader.  The
    trip_id cell is looked up once per run of consecutive rows that
    share it, which gives the trip, whether the service date keeps it,
    and its group.  A row with a known stop, times in [H]H:MM:SS form
    and a sequence of ASCII digits is read with dict and list lookups:
    ids map to the feed's own strings, times sharing a minute text share
    int objects, and each sequence text is parsed once per parse.  Any
    row those lookups do not resolve goes through every check in order,
    so a fault reports the same reason at the same line whichever row it
    first appears on, in a trip that runs or not.  A column the header
    lacks gets an index no row reaches, so every row takes the checked
    path, which reads the column as "".
    """
    with _Table(source, "stop_times.txt", required=True) as table:
        keys = ("trip_id", "stop_id", "arrival_time", "departure_time", "stop_sequence")
        pick = operator.itemgetter(*(table.columns.get(key, sys.maxsize) for key in keys))
        trip_ids = {k: k for k in known_trips}
        stop_ids = {k: k for k in stops}
        clock = _SecondInts()
        sequences = _SequenceInts()
        seconds = _SECOND_TEXTS
        new = tuple.__new__  # skips the Python-level __new__ of a NamedTuple

        def checked(row: list[str], line: int) -> tuple[str, str, int, int, int]:
            trip_id = table.need(row, "trip_id", line)
            if trip_id not in trip_ids:
                raise DanglingReference("stop_times.txt", line, trip_id)
            stop_id = table.need(row, "stop_id", line)
            if stop_id not in stop_ids:
                raise DanglingReference("stop_times.txt", line, stop_id)
            try:
                arrival = parse_gtfs_time(table.need(row, "arrival_time", line))
                departure = parse_gtfs_time(table.need(row, "departure_time", line))
                sequence = _ascii_int(table.need(row, "stop_sequence", line))
            except ValueError as exc:
                raise MalformedRow("stop_times.txt", line, str(exc)) from None
            return trip_ids[trip_id], stop_ids[stop_id], arrival, departure, sequence

        grouped: dict[str, tuple[list[GtfsStopTime], array]] = {}

        def group_of(trip_id: str) -> tuple[list[GtfsStopTime], array] | None:
            if trip_id not in kept_trips:
                return None  # trip filtered out by the service date
            group = grouped.get(trip_id)
            if group is None:
                group = grouped[trip_id] = ([], array("Q"))
            return group

        run_text = run_trip = run_group = None  # the current run of one trip_id cell
        with table.reading() as reader:
            for row in reader:
                if not row:
                    continue
                try:
                    trip_text, stop_text, arrival_text, departure_text, sequence_text = pick(row)
                    if trip_text != run_text:
                        run_trip = trip_ids[trip_text]
                        run_group = group_of(run_trip)
                        run_text = trip_text
                    trip_id, group = run_trip, run_group
                    stop_id = stop_ids[stop_text]
                    arrival = clock[arrival_text[:-3]][seconds[arrival_text[-3:]]]
                    departure = clock[departure_text[:-3]][seconds[departure_text[-3:]]]
                    sequence = sequences[sequence_text]
                except (IndexError, KeyError, ValueError):
                    trip_id, stop_id, arrival, departure, sequence = checked(row, reader.line_num)
                    group = group_of(trip_id)
                if departure < arrival:
                    raise MalformedRow("stop_times.txt", reader.line_num, "departure before arrival")
                if group is not None:
                    group[0].append(new(GtfsStopTime, (trip_id, stop_id, arrival, departure, sequence)))
                    group[1].append(reader.line_num)
    return grouped


def _order_stoptimes(
    grouped: dict[str, tuple[list[GtfsStopTime], array]]
) -> dict[str, tuple[GtfsStopTime, ...]]:
    """Each trip's stoptimes by stop_sequence; empties ``grouped`` as it goes.

    A trip whose rows are already in order keeps them without a sort.
    """
    ordered: dict[str, tuple[GtfsStopTime, ...]] = {}
    for trip_id in sorted(grouped):
        rows, lines = grouped.pop(trip_id)
        sequences = [st.stop_sequence for st in rows]
        if any(map(operator.gt, sequences, sequences[1:])):
            order = sorted(range(len(rows)), key=sequences.__getitem__)
            rows = [rows[i] for i in order]
            lines = [lines[i] for i in order]
        for i in range(1, len(rows)):
            st, previous = rows[i], rows[i - 1]
            if st.stop_sequence == previous.stop_sequence:
                raise MalformedRow(
                    "stop_times.txt", lines[i],
                    f"duplicate stop_sequence {st.stop_sequence} in trip {trip_id!r}",
                )
            if st.arrival < previous.departure:
                raise MalformedRow(
                    "stop_times.txt", lines[i],
                    f"arrival goes backwards in trip {trip_id!r}",
                )
        ordered[trip_id] = tuple(rows)
    return ordered


def _parse_calendar(source: _FeedSource) -> tuple[CalendarRow, ...]:
    out = []
    with _Table(source, "calendar.txt", required=False) as table:
        for line, row in table:
            service_id = table.need(row, "service_id", line)
            try:
                weekdays = tuple(_ascii_int(table.need(row, c, line)) for c in _WEEKDAY_COLUMNS)
                start = _ascii_int(table.need(row, "start_date", line))
                end = _ascii_int(table.need(row, "end_date", line))
            except ValueError as exc:
                raise MalformedRow("calendar.txt", line, str(exc)) from None
            out.append(CalendarRow(service_id, weekdays, start, end))
    return tuple(sorted(out, key=lambda r: r.service_id))


def _parse_calendar_dates(source: _FeedSource) -> tuple[CalendarDateRow, ...]:
    out = []
    with _Table(source, "calendar_dates.txt", required=False) as table:
        for line, row in table:
            service_id = table.need(row, "service_id", line)
            try:
                day = _ascii_int(table.need(row, "date", line))
                kind = _ascii_int(table.need(row, "exception_type", line))
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

        if service_date is None:
            kept = dict(trips)
        else:
            partial = Timetable(calendar=calendar, calendar_dates=calendar_dates)
            kept = _trips_on(partial, trips, service_date)
        grouped = _parse_stoptimes(source, stops, trips, kept)
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


def write_gtfs(t: Timetable, directory: str | Path) -> None:
    """Write a feed to a directory, creating it if needed.

    Output is canonical: rows sorted by id (stoptimes by trip and
    sequence), times zero-padded, coordinates with enough digits to
    re-parse to the same float.  Unconsumed files are copied verbatim.
    Rows are made one at a time as the writer asks for them.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    write_csv(
        directory / "stops.txt",
        ["stop_id", "stop_name", "stop_lat", "stop_lon"],
        (
            [s.stop_id, s.name, format_coordinate(s.position.lat), format_coordinate(s.position.lon)]
            for s in (t.stops[k] for k in sorted(t.stops))
        ),
    )
    write_csv(
        directory / "routes.txt",
        ["route_id", "route_short_name", "route_long_name", "route_type"],
        (
            [r.route_id, "", r.name, str(r.route_type)]
            for r in (t.routes[k] for k in sorted(t.routes))
        ),
    )
    write_csv(
        directory / "trips.txt",
        ["route_id", "service_id", "trip_id"],
        (
            [tr.route_id, tr.service_id, tr.trip_id]
            for tr in (t.trips[k] for k in sorted(t.trips))
        ),
    )
    write_csv(
        directory / "stop_times.txt",
        ["trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"],
        (
            [
                st.trip_id,
                format_gtfs_time(st.arrival),
                format_gtfs_time(st.departure),
                st.stop_id,
                str(st.stop_sequence),
            ]
            for trip_id in sorted(t.stoptimes)
            for st in t.stoptimes[trip_id]
        ),
    )
    if t.calendar:
        write_csv(
            directory / "calendar.txt",
            ["service_id", *_WEEKDAY_COLUMNS, "start_date", "end_date"],
            (
                [row.service_id, *[str(d) for d in row.weekdays], str(row.start_date), str(row.end_date)]
                for row in t.calendar
            ),
        )
    if t.calendar_dates:
        write_csv(
            directory / "calendar_dates.txt",
            ["service_id", "date", "exception_type"],
            (
                [row.service_id, str(row.date), str(row.exception_type)]
                for row in t.calendar_dates
            ),
        )
    for name, data in sorted(t.extra_files.items()):
        (directory / name).write_bytes(data)


def with_service_date(t: Timetable, service_date: str | _date) -> Timetable:
    """Return a copy keeping only trips active on the date."""
    kept = _trips_on(t, t.trips, service_date)
    return replace(
        t,
        trips=kept,
        stoptimes={trip_id: t.stoptimes.get(trip_id, ()) for trip_id in sorted(kept)},
    )

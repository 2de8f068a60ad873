"""The streaming CSV reader against the whole-text readers it replaced.

``poollines.gtfs.CsvRows`` reads every feed table, the agents file and
the run tables a block at a time.  The references in ``oracles`` decode
a whole file at once and run ``csv.reader`` over ``io.StringIO``.  On
any file both give the same rows on the same lines, or the same first
error; the streaming reader also keeps no copy of the file and leaves
no file open.  ``parse_gtfs`` is compared with a parse on the
whole-text reader that checks each stop_times.txt row field by field,
with and without a service date that drops trips.
"""
import builtins
import gc
import io
import tempfile
import tracemalloc
import warnings
import zipfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poollines import gtfs
from poollines.geo import GeoPoint
from poollines.gtfs import (
    CalendarRow,
    DanglingReference,
    GtfsError,
    GtfsStopTime,
    MalformedRow,
    Route,
    Stop,
    Timetable,
    Trip,
    parse_gtfs,
    write_gtfs,
)
from poollines.scenario import ScenarioError, read_csv

from oracles import WholeTextTable, reference_parse_stoptimes, reference_read_csv
from test_gtfs import _ST_HEADER, _ST_ROWS, _tiny_timetable

_CHECK = gtfs._CHECK_BYTES  # the block size of the streaming reader's UTF-8 check


# ---- random files ------------------------------------------------------

_ODD_CELLS = st.text(alphabet=' ,"\n\r\x00\x85 é€😀ab', max_size=6)
_QUOTED = st.text(alphabet="ab \n\r,é", max_size=6).map(lambda t: '"' + t + '"')
_ENDINGS = st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"])


def _csv_bytes(header: str, rows, cells) -> st.SearchStrategy[bytes]:
    """UTF-8 CSV files of ``header`` and rows drawn from ``rows`` or built of
    ``cells``, with mixed line ends, blank lines, an optional BOM and an
    optional stray byte that is not UTF-8 (0xff, or a cut multi-byte
    character)."""
    built = st.lists(st.one_of(cells, _ODD_CELLS, _QUOTED), max_size=7).map(",".join)
    lines = st.lists(st.tuples(st.one_of(rows, rows, rows, built, st.just("")), _ENDINGS), max_size=12)

    def assemble(bom, lines, end, corrupt):
        text = header + end + "".join(line + ending for line, ending in lines)
        raw = text.encode("utf-8")
        if corrupt is not None:
            at, bad = corrupt
            at %= len(raw) + 1
            raw = raw[:at] + bad + raw[at:]
        return (b"\xef\xbb\xbf" if bom else b"") + raw

    bad = st.tuples(st.integers(0, 10**6), st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"]))
    corrupt = st.one_of(st.none(), st.none(), st.none(), bad)
    return st.builds(assemble, st.booleans(), lines, _ENDINGS, corrupt)


_ST_LINES = st.sampled_from(
    [
        *_ST_ROWS,
        "X1,08:03:20,08:04:20,NOWHERE,1",
        "ZZ,08:00:00,08:00:00,A,0",
        " X1 , 8:03:20 ,08:04:20 , B ,1",
        "X1,08:61:00,08:61:00,B,1",
        "X1,08:03:20,08:02:00,B,1",
        "X1,08:10:00,08:10:00,A,2",
        'X1,08:08:20,08:08:20,C,2,"two\nlines"',
        # Rows of a second trip, which runs on other days than X1.
        *(row.replace("X1", "W1") for row in _ST_ROWS),
        "W1,08:03:20,08:04:20,NOWHERE,1",
        "W1,08:03:20,08:02:00,B,1",
    ]
)
_ST_CELLS = st.sampled_from(["X1", "W1", "A", "B", "C", "08:00:00", "08:03:20", "8:04:20", "0", "1", "2", "1.5", ""])
_ST_FILES = st.sampled_from(
    [
        _ST_HEADER,
        _ST_HEADER + ",stop_headsign",
        "trip_id,arrival_time,departure_time,stop_id",
        " stop_id ,trip_id, departure_time,arrival_time,stop_sequence",
        "",
    ]
).flatmap(lambda header: _csv_bytes(header, _ST_LINES, _ST_CELLS))

_AGENT_LINES = st.sampled_from(["1,2,3", " 1 , 2 ,3", "1,bad,3", "1,2", '1,"2\n2",3'])
_AGENT_FILES = st.sampled_from(["a,b,c", " c , a,b", "a,b", "a,b,c,a", ""]).flatmap(
    lambda header: _csv_bytes(header, _AGENT_LINES, st.sampled_from(["1", "2", "bad", " 3 ", ""]))
)


# ---- helpers -----------------------------------------------------------


def _feed_dir(directory: Path, stop_times: bytes, timetable: Timetable | None = None) -> Path:
    write_gtfs(timetable or _tiny_timetable(), directory)
    (directory / "stop_times.txt").write_bytes(stop_times)
    return directory


def _two_service_timetable() -> Timetable:
    """The tiny feed plus trip W1, whose service runs on weekends only:
    2022-07-20 keeps X1 and drops W1, 2022-07-23 the other way round."""
    t = _tiny_timetable()
    trips = {**t.trips, "W1": Trip("W1", "R1", "WEEKENDS")}
    calendar = t.calendar + (CalendarRow("WEEKENDS", (0, 0, 0, 0, 0, 1, 1), 20220101, 20221231),)
    return Timetable(t.stops, t.routes, trips, t.stoptimes, calendar, (), {})


_SERVICE_DATES = (None, "2022-07-20", "2022-07-23")


def _zipped(feed: Path, archive: Path) -> Path:
    with zipfile.ZipFile(archive, "w") as zf:
        for f in sorted(feed.iterdir()):
            zf.write(f, f.name)
    return archive


def _table_outcome(table_class, feed: Path):
    """(header, rows read before any fault, (fault type, message) or None)."""
    source = gtfs._FeedSource(feed)
    header, rows = None, []
    try:
        with table_class(source, "stop_times.txt", required=True) as table:
            header = (table.header, table.columns)
            rows.extend(table)
    except GtfsError as exc:
        return header, rows, (type(exc), str(exc))
    finally:
        source.close()
    return header, rows, None


def _outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    try:
        return call()
    except (GtfsError, ScenarioError) as exc:
        return type(exc), str(exc)


def _reference_parse(path, service_date=None):
    """parse_gtfs on the whole-text table reader, each stop_times.txt row
    checked field by field."""
    with mock.patch.object(gtfs, "_Table", WholeTextTable), \
            mock.patch.object(gtfs, "_parse_stoptimes", reference_parse_stoptimes):
        return parse_gtfs(path, service_date)


def _cells(cells: list[str]) -> tuple[str, ...]:
    if "bad" in cells:
        raise ValueError(f"bad cell in {cells}")
    return tuple(cells)


# ---- the same rows, lines and first fault --------------------------------


@settings(max_examples=300)
@given(_ST_FILES)
def test_feed_table_reads_like_the_whole_text_reader(raw):
    with tempfile.TemporaryDirectory() as tmp:
        feed = _feed_dir(Path(tmp) / "feed", raw)
        expected = _table_outcome(WholeTextTable, feed)
        assert _table_outcome(gtfs._Table, feed) == expected
        assert _table_outcome(gtfs._Table, _zipped(feed, Path(tmp) / "feed.zip")) == expected


@settings(max_examples=150)
@given(_ST_FILES)
def test_feed_parses_like_it_did_on_the_whole_text_reader(raw):
    with tempfile.TemporaryDirectory() as tmp:
        feed = _feed_dir(Path(tmp) / "feed", raw)
        expected = _outcome(lambda: _reference_parse(feed))
        assert _outcome(lambda: parse_gtfs(feed)) == expected
        assert _outcome(lambda: parse_gtfs(_zipped(feed, Path(tmp) / "feed.zip"))) == expected
        # Every row is checked, also in trips the service date drops.
        feed = _feed_dir(Path(tmp) / "two", raw, _two_service_timetable())
        archive = _zipped(feed, Path(tmp) / "two.zip")
        for service_date in _SERVICE_DATES:
            expected = _outcome(lambda: _reference_parse(feed, service_date))
            assert _outcome(lambda: parse_gtfs(feed, service_date)) == expected
            assert _outcome(lambda: parse_gtfs(archive, service_date)) == expected


@settings(max_examples=300)
@given(_AGENT_FILES)
def test_read_csv_reads_like_the_whole_text_reader(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(raw)
        expected = _outcome(lambda: reference_read_csv(path, ["a", "b", "c"], _cells))
        assert _outcome(lambda: read_csv(path, ["a", "b", "c"], _cells)) == expected


def _straddling(head: bytes, row: str, tail: bytes) -> bytes:
    """``head``, then ``row`` padded with "x", then ``tail`` from the last
    byte of the first 64 KB check block on."""
    pad = _CHECK - 1 - len(head) - len(row.encode("utf-8"))
    return head + (row + "x" * pad).encode("utf-8") + tail


_REST = ("\n" + "\n".join(_ST_ROWS[1:]) + "\n").encode()


@pytest.mark.parametrize(
    "tail, message",
    [
        ("€".encode() + _REST, None),
        ("😀".encode() + _REST, None),
        # A character begun in the first block and broken in the second.
        (b"\xe2\xff" + _REST, "stop_times.txt:2: byte 0xe2 is not UTF-8"),
        # A file that ends inside a character begun in the first block.
        (b"\xe2\x82", "stop_times.txt:2: byte 0xe2 is not UTF-8"),
    ],
)
def test_multibyte_character_across_the_check_block_edge(tmp_path, tail, message):
    head = (_ST_HEADER + ",stop_headsign\n").encode()
    raw = _straddling(head, _ST_ROWS[0] + ",", tail)
    assert raw[_CHECK - 1:].startswith(tail)
    feed = _feed_dir(tmp_path / "feed", raw)
    got = _outcome(lambda: parse_gtfs(feed))
    assert got == _outcome(lambda: _reference_parse(feed))
    if message is None:
        assert got.stoptimes == _tiny_timetable().stoptimes
    else:
        assert got == (MalformedRow, message)


def test_read_csv_character_across_the_check_block_edge(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(_straddling(b"a,b,c\n", "1,2,", "€\n4,5,6\n".encode()))
    expected = (("1", "2", "x" * (_CHECK - 1 - 10) + "€"), ("4", "5", "6"))
    assert read_csv(path, ["a", "b", "c"], _cells) == expected
    path.write_bytes(_straddling(b"a,b,c\n", "1,2,", b"\xe2\x28\n"))
    assert _outcome(lambda: read_csv(path, ["a", "b", "c"], _cells)) == (
        ScenarioError, f"{path}:2: byte 0xe2 is not UTF-8"
    )


def _late_bad_byte(rows: list[str], blank_lines: int) -> bytes:
    """``rows``, then blank lines past the first check block, then a 0xff."""
    return ("\n".join(rows) + "\n" * blank_lines).encode() + b"\xff\n"


def test_bad_byte_beats_an_earlier_row_fault(tmp_path):
    # The row fault is on line 3; the bad byte, in a later block, on line 70,004.
    raw = _late_bad_byte([_ST_HEADER, _ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1"], 70_001)
    assert len(raw) > _CHECK
    feed = _feed_dir(tmp_path / "feed", raw)
    message = "stop_times.txt:70004: byte 0xff is not UTF-8"
    for path in (feed, _zipped(feed, tmp_path / "feed.zip")):
        assert _outcome(lambda: parse_gtfs(path)) == (MalformedRow, message)
    assert _outcome(lambda: _reference_parse(feed)) == (MalformedRow, message)

    table = tmp_path / "table.csv"
    table.write_bytes(_late_bad_byte(["a,b,c", "1,bad,3"], 70_001))
    expected = (ScenarioError, f"{table}:70003: byte 0xff is not UTF-8")
    assert _outcome(lambda: read_csv(table, ["a", "b", "c"], _cells)) == expected
    assert _outcome(lambda: reference_read_csv(table, ["a", "b", "c"], _cells)) == expected


@pytest.mark.parametrize(
    "raw, message",
    [
        ("\n".join([_ST_HEADER, *_ST_ROWS]).encode().replace(b"08:04:20", b"08:04:2\xff") + b"\n",
         "stop_times.txt:3: byte 0xff is not UTF-8"),
        ("\n".join([_ST_HEADER, _ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1"]).encode() + b"\n",
         "stop_times.txt:3: reference to unknown id 'NOWHERE'"),
        ("\n".join([_ST_HEADER, *_ST_ROWS]).encode() + b"\r" + _ST_ROWS[0].encode() + b"\r",
         "stop_times.txt:4: unreadable CSV: new-line character seen in unquoted field"),
    ],
)
def test_zip_feed_faults_name_file_and_line(tmp_path, raw, message):
    archive = _zipped(_feed_dir(tmp_path / "feed", raw), tmp_path / "feed.zip")
    with pytest.raises(GtfsError) as err:
        parse_gtfs(archive)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, fault",
    [
        (None, None),
        ("W1,08:03:20,08:04:20,NOWHERE,1", (DanglingReference, "reference to unknown id 'NOWHERE'")),
        ("W1,08:03:20,08:61:00,B,1", (MalformedRow, "bad GTFS time: '08:61:00'")),
        ("W1,08:03:20,08:02:00,B,1", (MalformedRow, "departure before arrival")),
        ("W1,08:03:20,08:04:20", (MalformedRow, "missing value for 'stop_id'")),
        ("W1,08:03:20,08:04:20,B,1.5", (MalformedRow, "invalid literal for int() with base 10: '1.5'")),
        # int() takes each of these; GTFS writes its integers in ASCII digits.
        ("W1,08:03:20,08:04:20,B,-1", (MalformedRow, "invalid literal for int() with base 10: '-1'")),
        ("W1,08:03:20,08:04:20,B,+1", (MalformedRow, "invalid literal for int() with base 10: '+1'")),
        ("W1,08:03:20,08:04:20,B,1_0", (MalformedRow, "invalid literal for int() with base 10: '1_0'")),
        ("W1,08:03:20,08:04:20,B,٣٣", (MalformedRow, "invalid literal for int() with base 10: '٣٣'")),
        ("W1,08:03:20,08:04:20,B, 1_0 ", (MalformedRow, "invalid literal for int() with base 10: '1_0'")),
        ("W1,+8:03:20,08:04:20,B,1", (MalformedRow, "bad GTFS time: '+8:03:20'")),
        ("W1,0_8:03:20,08:04:20,B,1", (MalformedRow, "bad GTFS time: '0_8:03:20'")),
        ("W1,08:03:20,08:04:٢٠,B,1", (MalformedRow, "bad GTFS time: '08:04:٢٠'")),
    ],
    ids=["no-fault", "unknown-stop", "bad-time", "departure-before-arrival", "short-row", "sequence",
         "sequence-sign", "sequence-plus", "sequence-underscore", "sequence-arabic-indic",
         "sequence-padded-underscore", "time-plus", "time-underscore", "time-arabic-indic"],
)
def test_fault_in_a_trip_that_does_not_run_names_its_line(tmp_path, row, fault):
    # Line 3 is W1's fault, or its valid row; the kept rows of X1 have padded cells.
    rows = [" X1 , 08:00:00 ,08:00:00, A ,0", row or "W1,08:00:00,08:00:00,A,0",
            "W1,08:03:20,08:04:20,B,1", "X1,8:03:20,08:04:20 , B , 1", _ST_ROWS[2]]
    raw = ("\n".join([_ST_HEADER, *rows]) + "\n").encode()
    feed = _feed_dir(tmp_path / "feed", raw, _two_service_timetable())
    for service_date in _SERVICE_DATES:
        got = _outcome(lambda: parse_gtfs(feed, service_date))
        assert got == _outcome(lambda: _reference_parse(feed, service_date))
        if fault is not None:
            assert got == (fault[0], f"stop_times.txt:3: {fault[1]}")
        elif service_date == "2022-07-20":
            assert got.stoptimes == _tiny_timetable().stoptimes
            assert list(got.trips) == ["X1"]



# ---- no copy of the file, no file left open ------------------------------


def _large_timetable(lines: int, stops: int, trips: int) -> Timetable:
    """Trips along ``lines`` lines of ``stops`` stops, with hop and dwell
    times in whole seconds, as an agency feed has them."""
    stop = {}
    routes, trip_table, stoptimes = {}, {}, {}
    for li in range(lines):
        route_id = f"L{li:02d}"
        routes[route_id] = Route(route_id, f"line {li}", 3)
        ids = [f"{route_id}_S{k:02d}" for k in range(stops)]
        for k, stop_id in enumerate(ids):
            stop[stop_id] = Stop(stop_id, f"stop {k}", GeoPoint(45.0 + 0.01 * li, -122.3 + 0.002 * k))
        hops = [60 + (li * 37 + k * 11) % 97 for k in range(stops)]
        for ti in range(trips):
            trip_id = f"{route_id}_T{ti:03d}"
            trip_table[trip_id] = Trip(trip_id, route_id, "ALL")
            clock = 6 * 3600 + ti * 571 + li * 13
            sts = []
            for k, stop_id in enumerate(ids):
                dwell = 0 if k in (0, stops - 1) else 20
                sts.append(GtfsStopTime(trip_id, stop_id, clock, clock + dwell, k))
                clock += dwell + hops[k]
            stoptimes[trip_id] = tuple(sts)
    return Timetable(stop, routes, trip_table, stoptimes, (), (), {})


def test_parse_keeps_no_copy_of_the_file(tmp_path):
    """The memory a parse frees again stays below the size of stop_times.txt.

    A whole-file read holds the bytes, their decoded text and the reader's
    own copy of it at once: several times the file.
    """
    write_gtfs(_large_timetable(lines=24, stops=30, trips=80), tmp_path / "feed")
    size = (tmp_path / "feed" / "stop_times.txt").stat().st_size
    assert size >= 2_000_000
    gc.collect()
    tracemalloc.start()
    try:
        kept = parse_gtfs(tmp_path / "feed")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(s) for s in kept.stoptimes.values()) == 24 * 30 * 80
    assert peak - current < size, f"peak {peak} B, kept {current} B, file {size} B"


@contextmanager
def _file_spy():
    """Every file object opened by path or as a zip member inside the block."""
    opened = []

    def spy(real):
        def open_and_record(*args, **kwargs):
            stream = real(*args, **kwargs)
            opened.append(stream)
            return stream
        return open_and_record

    with mock.patch("io.open", spy(io.open)), mock.patch("builtins.open", spy(builtins.open)), \
            mock.patch.object(zipfile.ZipFile, "open", spy(zipfile.ZipFile.open)):
        yield opened


def _open_after(call) -> tuple[list[str], list[str]]:
    """The files ``call`` left open, and the ResourceWarnings of files
    collected unclosed, whether ``call`` returned or raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with _file_spy() as opened:
            try:
                call()
            except (GtfsError, ScenarioError):
                pass
        left = [repr(f) for f in opened if not f.closed]
        del opened
        gc.collect()
    return left, [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


_GOOD = ("\n".join([_ST_HEADER, *_ST_ROWS]) + "\n").encode()


@pytest.mark.parametrize(
    "stop_times",
    [
        _GOOD,
        _GOOD + b"X1,08:10:00,08:10:00,NOWHERE,3\n",
        _GOOD + b"X1,08:10:00,08:10:00,A,2\n",
        _GOOD.replace(b"08:04:20", b"08:04:2\xff"),
        _GOOD.replace(b"\n", b"\r"),
        _GOOD + b'X1,"open quote\n',
        None,
    ],
    ids=[
        "valid",
        "row-fault",
        "fault-after-the-table-is-read",
        "not-utf8",
        "unreadable-header",
        "unreadable-row",
        "missing-after-three-tables",
    ],
)
def test_no_file_outlives_a_parse(tmp_path, stop_times):
    feed = _feed_dir(tmp_path / "feed", stop_times or b"")
    if stop_times is None:
        (feed / "stop_times.txt").unlink()
    (feed / "notes.txt").write_bytes(b"carried through\n")
    archive = _zipped(feed, tmp_path / "feed.zip")
    for path in (feed, archive):
        for service_date in (None, "2022-07-20"):
            assert _open_after(lambda: parse_gtfs(path, service_date)) == ([], [])


@pytest.mark.parametrize(
    "raw",
    [b"a,b,c\n1,2,3\n", b"a,b,c\n1,bad,3\n", b"a,b,c\n1,\xff,3\n", b"a,c\n1,3\n", b"a,b,c\r1,2,3\r"],
)
def test_no_file_outlives_read_csv(tmp_path, raw):
    path = tmp_path / "table.csv"
    path.write_bytes(raw)
    assert _open_after(lambda: read_csv(path, ["a", "b", "c"], _cells)) == ([], [])


def test_the_open_file_check_sees_a_file_left_open(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"a\n")
    left, warned = _open_after(lambda: open(path, "rb"))
    assert [f.startswith("<_io.BufferedReader") for f in left] == [True]
    assert [w.startswith("unclosed file <_io.BufferedReader") for w in warned] == [True]
    archive = _zipped(_feed_dir(tmp_path / "feed", _GOOD), tmp_path / "feed.zip")
    left, _ = _open_after(lambda: zipfile.ZipFile(archive).open("stop_times.txt"))
    assert len(left) == 2  # the archive's file and the member's stream

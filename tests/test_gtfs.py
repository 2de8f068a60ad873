import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poollines.geo import GeoPoint, TravelModel
from poollines.gtfs import (
    CalendarDateRow,
    CalendarRow,
    DanglingReference,
    GtfsStopTime,
    MalformedRow,
    MissingFile,
    Route,
    Stop,
    Timetable,
    Trip,
    format_coordinate,
    format_gtfs_time,
    parse_gtfs,
    parse_gtfs_time,
    service_active,
    with_service_date,
    write_gtfs,
)

from oracles import random_feed


def _tiny_timetable() -> Timetable:
    stops = {
        "A": Stop("A", "alpha", GeoPoint(45.0, -122.3)),
        "B": Stop("B", "beta", GeoPoint(45.01, -122.29)),
        "C": Stop("C", "gamma", GeoPoint(45.02, -122.28)),
    }
    routes = {"R1": Route("R1", "red line", 1)}
    trips = {"X1": Trip("X1", "R1", "WEEKDAYS")}
    stoptimes = {
        "X1": (
            GtfsStopTime("X1", "A", 28800, 28800, 0),
            GtfsStopTime("X1", "B", 29000, 29060, 1),
            GtfsStopTime("X1", "C", 29300, 29300, 2),
        )
    }
    calendar = (CalendarRow("WEEKDAYS", (1, 1, 1, 1, 1, 0, 0), 20220101, 20221231),)
    return Timetable(stops, routes, trips, stoptimes, calendar, (), {})


def _edit_file(directory: Path, name: str, fn) -> None:
    path = directory / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


# ---- times and coordinates ------------------------------------------


def test_parse_time_past_midnight():
    assert parse_gtfs_time("25:10:00") == 90600


def test_parse_time_examples():
    assert parse_gtfs_time("00:00:00") == 0
    assert parse_gtfs_time("08:05:30") == 29130
    assert parse_gtfs_time("9:05:00") == 32700  # unpadded hour is legal
    assert parse_gtfs_time(" 10:00:00 ") == 36000


def test_parse_time_rejects_garbage():
    for text in ("", "8:05", "aa:bb:cc", "08:61:00", "08:05:-1", "1:2:3:4"):
        with pytest.raises(ValueError):
            parse_gtfs_time(text)


def test_format_time_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(200):
        seconds = int(rng.integers(0, 30 * 3600))
        assert parse_gtfs_time(format_gtfs_time(seconds)) == seconds
    assert format_gtfs_time(90600) == "25:10:00"
    assert format_gtfs_time(0) == "00:00:00"
    with pytest.raises(ValueError):
        format_gtfs_time(-1)


def test_format_coordinate_parses_back_exactly():
    rng = np.random.default_rng(77)
    for _ in range(300):
        value = float(rng.uniform(-180, 180))
        text = format_coordinate(value)
        assert float(text) == value
        assert len(text.split(".")[1]) >= 6


def _format_coordinate_by_search(value: float) -> str:
    """The fewest places from 6 to 17 whose fixed-point form parses back, else repr."""
    for precision in range(6, 18):
        text = f"{value:.{precision}f}"
        if float(text) == value:
            return text
    return repr(value)


@given(
    st.one_of(
        st.floats(),
        st.floats(-180.0, 180.0),
        st.builds(lambda k, sign: sign * 2.0**k, st.integers(-1074, 1023), st.sampled_from([1.0, -1.0])),
        st.builds(round, st.floats(-180.0, 180.0), st.integers(0, 17)),
    )
)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1e300)
@example(1e-5)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
def test_format_coordinate_equals_the_search_over_precisions(value):
    assert format_coordinate(value) == _format_coordinate_by_search(value)


def test_stop_time_is_an_immutable_hashable_record():
    st = GtfsStopTime("X1", "A", 28800, 28860, 0)
    with pytest.raises(AttributeError):
        st.arrival = 0
    assert st.arrival == 28800
    same = GtfsStopTime("".join(["X", "1"]), "A", 28800, 28860, 0)
    assert same == st and same.trip_id is not st.trip_id
    assert hash(same) == hash(st)
    assert len({st, same, GtfsStopTime("X1", "A", 28800, 28860, 1)}) == 2
    assert GtfsStopTime._fields == ("trip_id", "stop_id", "arrival", "departure", "stop_sequence")


# ---- round trips ----------------------------------------------------


def _timetables_equal(a: Timetable, b: Timetable) -> bool:
    return (
        a.stops == b.stops
        and a.routes == b.routes
        and a.trips == b.trips
        and a.stoptimes == b.stoptimes
        and a.calendar == b.calendar
        and a.calendar_dates == b.calendar_dates
    )


def test_write_parse_round_trip_random_feeds(tmp_path):
    model = TravelModel()
    for i in range(15):
        rng = np.random.default_rng([808, i])
        t, _ = random_feed(rng, model)
        out = tmp_path / f"feed{i}"
        write_gtfs(t, out)
        back = parse_gtfs(out)
        assert _timetables_equal(t, back)


def test_write_is_deterministic(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "a")
    write_gtfs(t, tmp_path / "b")
    for name in ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt", "calendar.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_parse_write_is_idempotent(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "a")
    write_gtfs(parse_gtfs(tmp_path / "a"), tmp_path / "b")
    for name in ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt", "calendar.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_stoptime_row_order_does_not_matter(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: [lines[0]] + list(reversed(lines[1:])),
    )
    assert _timetables_equal(parse_gtfs(tmp_path / "feed"), t)


def test_times_past_midnight_survive_round_trip(tmp_path):
    t = _tiny_timetable()
    late = {
        "X1": (
            GtfsStopTime("X1", "A", 90000, 90000, 0),
            GtfsStopTime("X1", "B", 90600, 90600, 1),
        )
    }
    t = Timetable(t.stops, t.routes, t.trips, late, t.calendar, (), {})
    write_gtfs(t, tmp_path / "feed")
    text = (tmp_path / "feed" / "stop_times.txt").read_text()
    assert "25:10:00" in text
    assert parse_gtfs(tmp_path / "feed").stoptimes == late


def test_zip_archive_parses_like_directory(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    archive = tmp_path / "feed.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted((tmp_path / "feed").iterdir()):
            zf.write(path, path.name)
    assert _timetables_equal(parse_gtfs(archive), t)


def test_extra_files_pass_through(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    payload = b"shape_id,shape_pt_lat\nz,1\n"
    (tmp_path / "feed" / "shapes.txt").write_bytes(payload)
    back = parse_gtfs(tmp_path / "feed")
    assert back.extra_files == {"shapes.txt": payload}
    write_gtfs(back, tmp_path / "copy")
    assert (tmp_path / "copy" / "shapes.txt").read_bytes() == payload


def test_empty_timetable_round_trips(tmp_path):
    write_gtfs(Timetable(), tmp_path / "feed")
    back = parse_gtfs(tmp_path / "feed")
    assert not back.stops and not back.trips and not back.stoptimes


# ---- validation errors ----------------------------------------------


def test_missing_core_file(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    (tmp_path / "feed" / "stops.txt").unlink()
    with pytest.raises(MissingFile):
        parse_gtfs(tmp_path / "feed")


def test_duplicate_stop_id_reports_line(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(tmp_path / "feed", "stops.txt", lambda lines: lines + [lines[1]])
    with pytest.raises(MalformedRow) as err:
        parse_gtfs(tmp_path / "feed")
    assert "stops.txt" in str(err.value)
    assert "duplicate" in str(err.value)


def test_trip_with_unknown_route(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "trips.txt",
        lambda lines: [lines[0], "GHOST,WEEKDAYS,X1"],
    )
    with pytest.raises(DanglingReference) as err:
        parse_gtfs(tmp_path / "feed")
    assert "GHOST" in str(err.value)


def test_stoptime_with_unknown_stop(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: lines[:2] + [lines[2].replace(",B,", ",NOWHERE,")] + lines[3:],
    )
    with pytest.raises(DanglingReference) as err:
        parse_gtfs(tmp_path / "feed")
    assert "NOWHERE" in str(err.value)


def test_stoptime_with_unknown_trip(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: lines + ["ZZ,08:00:00,08:00:00,A,0"],
    )
    with pytest.raises(DanglingReference):
        parse_gtfs(tmp_path / "feed")


def test_departure_before_arrival_rejected(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: lines[:2]
        + [lines[2].replace("08:03:20,08:04:20", "08:03:20,08:02:00")]
        + lines[3:],
    )
    with pytest.raises(MalformedRow) as err:
        parse_gtfs(tmp_path / "feed")
    assert "departure before arrival" in str(err.value)


def test_duplicate_stop_sequence_rejected(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: lines + ["X1,08:10:00,08:10:00,A,2"],
    )
    with pytest.raises(MalformedRow) as err:
        parse_gtfs(tmp_path / "feed")
    assert "stop_sequence" in str(err.value)


def test_backwards_arrival_rejected(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "stop_times.txt",
        lambda lines: lines[:3] + ["X1,07:00:00,07:00:00,C,2"],
    )
    with pytest.raises(MalformedRow) as err:
        parse_gtfs(tmp_path / "feed")
    assert "backwards" in str(err.value)


def test_bad_route_type_rejected(tmp_path):
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    _edit_file(
        tmp_path / "feed",
        "routes.txt",
        lambda lines: [lines[0], lines[1].replace(",1", ",tram")],
    )
    with pytest.raises(MalformedRow):
        parse_gtfs(tmp_path / "feed")


# ---- service calendars ----------------------------------------------


def test_service_calendar_basics():
    t = _tiny_timetable()
    assert service_active(t, "WEEKDAYS", "2022-07-20")  # a Wednesday
    assert not service_active(t, "WEEKDAYS", "2022-07-23")  # a Saturday
    assert not service_active(t, "WEEKDAYS", "2023-01-02")  # outside range
    assert not service_active(t, "UNKNOWN", "2022-07-20")


def test_feed_without_calendar_always_runs():
    t = _tiny_timetable()
    bare = Timetable(t.stops, t.routes, t.trips, t.stoptimes, (), (), {})
    assert service_active(bare, "WEEKDAYS", "2022-07-23")
    assert with_service_date(bare, "2022-07-23").trips == bare.trips


def test_calendar_dates_override_calendar():
    t = _tiny_timetable()
    amended = Timetable(
        t.stops,
        t.routes,
        t.trips,
        t.stoptimes,
        t.calendar,
        (
            CalendarDateRow("WEEKDAYS", 20220720, 2),
            CalendarDateRow("WEEKDAYS", 20220723, 1),
        ),
        {},
    )
    assert not service_active(amended, "WEEKDAYS", "2022-07-20")
    assert service_active(amended, "WEEKDAYS", "2022-07-23")


def test_parse_with_service_date_drops_inactive_trips(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    active = parse_gtfs(tmp_path / "feed", service_date="2022-07-20")
    assert set(active.trips) == {"X1"}
    weekend = parse_gtfs(tmp_path / "feed", service_date="2022-07-23")
    assert weekend.trips == {}
    assert weekend.stoptimes == {}
    assert weekend.stops == t.stops  # stops survive the filter


def test_with_service_date_matches_filtered_parse(tmp_path):
    t = _tiny_timetable()
    write_gtfs(t, tmp_path / "feed")
    assert _timetables_equal(
        with_service_date(t, "2022-07-23"), parse_gtfs(tmp_path / "feed", "2022-07-23")
    )


def test_service_date_filter_evaluates_each_service_once(tmp_path, monkeypatch):
    t = _tiny_timetable()
    trips = {
        f"T{i:03d}": Trip(f"T{i:03d}", "R1", "WEEKDAYS" if i % 2 else "WEEKENDS")
        for i in range(200)
    }
    stoptimes = {
        trip_id: tuple(GtfsStopTime(trip_id, st.stop_id, st.arrival, st.departure, st.stop_sequence)
                       for st in t.stoptimes["X1"])
        for trip_id in trips
    }
    calendar = t.calendar + (CalendarRow("WEEKENDS", (0, 0, 0, 0, 0, 1, 1), 20220101, 20221231),)
    feed = Timetable(t.stops, t.routes, trips, stoptimes, calendar, (), {})
    write_gtfs(feed, tmp_path / "feed")

    calls = []

    def counting(timetable, service_id, service_date):
        calls.append(service_id)
        return service_active(timetable, service_id, service_date)

    monkeypatch.setattr("poollines.gtfs.service_active", counting)
    filtered = with_service_date(feed, "2022-07-20")
    assert sorted(calls) == ["WEEKDAYS", "WEEKENDS"]
    calls.clear()
    parsed = parse_gtfs(tmp_path / "feed", "2022-07-20")
    assert sorted(calls) == ["WEEKDAYS", "WEEKENDS"]
    assert list(filtered.trips) == list(parsed.trips) == [f"T{i:03d}" for i in range(1, 200, 2)]
    assert filtered.stoptimes == parsed.stoptimes


# ---- the feed reader: exact messages and physical line numbers ------

_ST_HEADER = "trip_id,arrival_time,departure_time,stop_id,stop_sequence"
_ST_ROWS = ("X1,08:00:00,08:00:00,A,0", "X1,08:03:20,08:04:20,B,1", "X1,08:08:20,08:08:20,C,2")


def _feed_with(tmp_path, name: str, text: str) -> Path:
    """The tiny feed with one file replaced by ``text`` (written as UTF-8 bytes)."""
    write_gtfs(_tiny_timetable(), tmp_path / "feed")
    (tmp_path / "feed" / name).write_bytes(text.encode("utf-8"))
    return tmp_path / "feed"


def _stop_times(*rows: str, header: str = _ST_HEADER, end: str = "\n") -> str:
    return end.join((header, *rows)) + end


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _stop_times("X1,08:00:00,08:00:00,A", header="trip_id,arrival_time,departure_time,stop_id"),
            "stop_times.txt:2: missing value for 'stop_sequence'",
        ),
        # A cell past the header's width is not the column the header lacks.
        (
            _stop_times("X1,08:00:00,08:00:00,A,0", header="trip_id,arrival_time,departure_time,stop_id"),
            "stop_times.txt:2: missing value for 'stop_sequence'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,,1", _ST_ROWS[2]),
            "stop_times.txt:3: missing value for 'stop_id'",
        ),
        (
            _stop_times(*_ST_ROWS, "ZZ,08:00:00,08:00:00,A,0"),
            "stop_times.txt:5: reference to unknown id 'ZZ'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1", _ST_ROWS[2]),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:61:00,08:61:00,B,1", _ST_ROWS[2]),
            "stop_times.txt:3: bad GTFS time: '08:61:00'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,B,1.5", _ST_ROWS[2]),
            "stop_times.txt:3: invalid literal for int() with base 10: '1.5'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:02:00,B,1", _ST_ROWS[2]),
            "stop_times.txt:3: departure before arrival",
        ),
        # A known time text on one row does not hide a bad one on the next.
        (
            _stop_times(_ST_ROWS[0], "X1,08:00:00,,B,1", _ST_ROWS[2]),
            "stop_times.txt:3: missing value for 'departure_time'",
        ),
        # Physical lines: a quoted cell over two lines, at the fault and before it.
        (
            _stop_times('X1,08:00:00,08:00:00,A,0,"north\nbound"', "X1,08:03:20,08:04:20,NOWHERE,1,x",
                        header=_ST_HEADER + ",stop_headsign"),
            "stop_times.txt:4: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times('X1,08:00:00,08:00:00,NOWHERE,0,"north\nbound"', header=_ST_HEADER + ",stop_headsign"),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        (
            "\ufeff" + _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1"),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1", end="\r\n"),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times(_ST_ROWS[0], "", "", "X1,08:03:20,08:04:20,NOWHERE,1"),
            "stop_times.txt:5: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times(_ST_ROWS[0], " X1 , 08:03:20 ,08:04:20 , NOWHERE ,1"),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        (
            _stop_times(_ST_ROWS[0], "X1,08:03:20,08:04:20,NOWHERE,1,extra,cells"),
            "stop_times.txt:3: reference to unknown id 'NOWHERE'",
        ),
        # Faults found after the rows are grouped keep their row's line.
        (
            _stop_times(*_ST_ROWS, "", "X1,08:10:00,08:10:00,A,2"),
            "stop_times.txt:6: duplicate stop_sequence 2 in trip 'X1'",
        ),
        # Bare carriage-return line ends: the whole file, or from line 3 on.
        (
            _stop_times(*_ST_ROWS, end="\r"),
            "stop_times.txt:1: unreadable CSV: new-line character seen in unquoted field",
        ),
        (
            _stop_times(_ST_ROWS[0]) + "\r".join(_ST_ROWS[1:]) + "\r",
            "stop_times.txt:3: unreadable CSV: new-line character seen in unquoted field",
        ),
    ],
)
def test_stop_times_faults_name_file_line_and_reason(tmp_path, text, message):
    feed = _feed_with(tmp_path, "stop_times.txt", text)
    with pytest.raises((MalformedRow, DanglingReference)) as err:
        parse_gtfs(feed)
    assert str(err.value) == message


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_bytes_that_are_not_utf8_name_file_and_line(tmp_path, bom):
    feed = _feed_with(tmp_path, "stop_times.txt", _stop_times(*_ST_ROWS))
    raw = (feed / "stop_times.txt").read_bytes().replace(b"08:04:20", b"08:04:2\xff")
    (feed / "stop_times.txt").write_bytes(bom + raw)
    with pytest.raises(MalformedRow) as err:
        parse_gtfs(feed)
    assert str(err.value) == "stop_times.txt:3: byte 0xff is not UTF-8"


@pytest.mark.parametrize(
    "text",
    [
        "\ufeff" + _stop_times(*_ST_ROWS),
        _stop_times(*_ST_ROWS, end="\r\n"),
        _stop_times(_ST_ROWS[0], "", _ST_ROWS[1], "", "", _ST_ROWS[2]),
        _stop_times(" X1 , 08:00:00,08:00:00 ,A, 0", " X1,8:03:20 ,08:04:20,B , 1", *_ST_ROWS[2:]),
        _stop_times(*(row + ",0,1" for row in _ST_ROWS), header=_ST_HEADER + ",pickup_type,drop_off_type"),
        _stop_times(*(row + ',"two\nlines"' for row in _ST_ROWS), header=_ST_HEADER + ",stop_headsign"),
        _stop_times(*(row + ",x,y" for row in _ST_ROWS)),
    ],
)
def test_stop_times_layouts_parse_to_the_same_timetable(tmp_path, text):
    feed = _feed_with(tmp_path, "stop_times.txt", text)
    assert _timetables_equal(parse_gtfs(feed), _tiny_timetable())


def test_faults_in_other_tables_name_file_line_and_reason(tmp_path):
    cases = [
        ("stops.txt", "stop_id,stop_name,stop_lat,stop_lon\nA,a,45.0,-122.3\n\nA,b,45.0,-122.3\n",
         "stops.txt:4: duplicate stop_id 'A'"),
        ("stops.txt", "stop_id,stop_name,stop_lat,stop_lon\nA,a,north,-122.3\n",
         "stops.txt:2: could not convert string to float: 'north'"),
        ("stops.txt", "stop_id,stop_name,stop_lat\nA,a,45.0\n",
         "stops.txt:2: missing value for 'stop_lon'"),
        ("routes.txt", "route_id,route_type\r\nR1,tram\r\n",
         "routes.txt:2: route_type is not an integer"),
        ("trips.txt", "\ufeffroute_id,service_id,trip_id\nR1,WEEKDAYS,X1\nGHOST,WEEKDAYS,X2\n",
         "trips.txt:3: reference to unknown id 'GHOST'"),
        ("calendar.txt",
         "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,start_date,end_date\n"
         "WEEKDAYS,1,1,1,1,1,0,0,20220101,\n",
         "calendar.txt:2: missing value for 'end_date'"),
        ("calendar_dates.txt", "service_id,date,exception_type\nWEEKDAYS,20220720,3\n",
         "calendar_dates.txt:2: bad exception_type 3"),
        # Integers are ASCII digits: int() would take each of these.
        ("routes.txt", "route_id,route_type\nR1,+1\n", "routes.txt:2: route_type is not an integer"),
        ("routes.txt", "route_id,route_type\nR1,١\n", "routes.txt:2: route_type is not an integer"),
        ("calendar.txt",
         "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,start_date,end_date\n"
         "WEEKDAYS,1,1,1,1,1,0,0,2022_01_01,20221231\n",
         "calendar.txt:2: invalid literal for int() with base 10: '2022_01_01'"),
        ("calendar_dates.txt", "service_id,date,exception_type\nWEEKDAYS,20220720,-2\n",
         "calendar_dates.txt:2: invalid literal for int() with base 10: '-2'"),
        # Coordinates are ASCII: float() would read 45.5 and -122.6.
        ("stops.txt", "stop_id,stop_name,stop_lat,stop_lon\nA,a,4_5.5,-122.3\n",
         "stops.txt:2: could not convert string to float: '4_5.5'"),
        ("stops.txt", "stop_id,stop_name,stop_lat,stop_lon\nA,a,45.0,-122.٦\n",
         "stops.txt:2: could not convert string to float: '-122.٦'"),
    ]
    for i, (name, text, message) in enumerate(cases):
        feed = _feed_with(tmp_path / str(i), name, text)
        with pytest.raises((MalformedRow, DanglingReference)) as err:
            parse_gtfs(feed)
        assert str(err.value) == message, name


def test_short_row_reads_as_blank_cells(tmp_path):
    # A row shorter than the header reads "" for the cells it lacks, as a
    # column missing from the header does.
    short = _feed_with(
        tmp_path / "short", "stops.txt",
        "stop_id,stop_lat,stop_lon,stop_name\nA,45.0,-122.3\nB,45.01,-122.29,beta\nC,45.02,-122.28,gamma\n",
    )
    stops = parse_gtfs(short).stops
    assert stops["A"].name == ""
    assert stops["B"].name == "beta"
    nameless = _feed_with(
        tmp_path / "nameless", "stops.txt",
        "stop_id,stop_lat,stop_lon\nA,45.0,-122.3\nB,45.01,-122.29\nC,45.02,-122.28\n",
    )
    assert parse_gtfs(nameless).stops["A"].name == ""


def test_cell_past_the_header_is_not_a_missing_column(tmp_path):
    feed = _feed_with(
        tmp_path, "stops.txt",
        "stop_id,stop_lat,stop_lon\nA,45.0,-122.3,surprise\nB,45.01,-122.29\nC,45.02,-122.28\n",
    )
    assert parse_gtfs(feed).stops["A"].name == ""


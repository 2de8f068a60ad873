import numpy as np
import pytest

from poollines.drivers import (
    Driver,
    MeetingPointSet,
    compute_driver_journeys,
)
from poollines.geo import GeoPoint, TravelModel
from poollines.gtfs import (
    ROUTE_TYPE_BUS,
    Stop,
    parse_gtfs,
    service_active,
    with_service_date,
    write_gtfs,
)
from poollines.injection import (
    POOL_SERVICE_ID,
    POOL_TRIP_PREFIX,
    DuplicateDriverId,
    IdCollision,
    StopIdCollision,
    build_poolline,
    destination_stop_id,
    driver_id_of_trip,
    inject_poollines,
    is_poolline_trip,
    origin_stop_id,
    pool_route_name,
    pool_trip_id,
)
from poollines.synthetic import build_synthetic_city

from test_drivers import _driver, _points

MODEL = TravelModel()


def _journey(driver_id=7):
    points = _points(("MO", 0.003, 0.0125), ("MD", 0.003, 0.0575))
    return compute_driver_journeys([_driver(driver_id=driver_id)], points, MODEL, seed=0)[0]


# ---- naming ---------------------------------------------------------


def test_reserved_names():
    assert pool_trip_id(7) == "11622387007"
    assert pool_trip_id(123) == "1162238700123"
    assert pool_route_name(7) == "route of carpooler number 7"
    assert origin_stop_id(7) == "DRIVER_origin_7"
    assert destination_stop_id(7) == "DRIVER_destination_7"


def test_trip_classifier_round_trips():
    for driver_id in (0, 1, 7, 123, 98765):
        trip_id = pool_trip_id(driver_id)
        assert is_poolline_trip(trip_id)
        assert driver_id_of_trip(trip_id) == driver_id
    assert not is_poolline_trip("T01")
    assert not is_poolline_trip("116223870")  # bare prefix is not enough
    assert not is_poolline_trip(POOL_TRIP_PREFIX + "x")


def test_route_type_is_bus_class():
    assert build_poolline(_journey(1)).route.route_type == ROUTE_TYPE_BUS == 3


# ---- building one line ----------------------------------------------


def test_poolline_structure():
    line = build_poolline(_journey(7))
    assert line.route.route_id == pool_route_name(7)
    assert line.route.name == "route of carpooler number 7"
    assert line.route.route_type == 3
    assert line.trip.trip_id == "11622387007"
    assert line.trip.route_id == line.route.route_id
    assert line.trip.service_id == POOL_SERVICE_ID
    assert [s.stop_id for s in line.new_stops] == ["DRIVER_origin_7", "DRIVER_destination_7"]
    assert [st.stop_id for st in line.stoptimes] == [
        "DRIVER_origin_7",
        "MO",
        "MD",
        "DRIVER_destination_7",
    ]
    assert [st.stop_sequence for st in line.stoptimes] == [0, 1, 2, 3]


def test_poolline_keeps_journey_times():
    j = _journey(9)
    line = build_poolline(j)
    assert [(st.arrival, st.departure) for st in line.stoptimes] == [
        (st.arrival, st.departure) for st in j.stoptimes
    ]
    assert line.new_stops[0].position == j.stoptimes[0].location
    assert line.new_stops[1].position == j.stoptimes[-1].location


# ---- injecting into a feed ------------------------------------------


def _city_journeys(n, seed=21):
    city = build_synthetic_city()
    from poollines.drivers import select_meeting_points

    points = select_meeting_points(city)
    rng = np.random.default_rng(seed)
    drivers = [
        Driver(
            driver_id=i + 1,
            origin=GeoPoint(45.0 + float(rng.uniform(0.02, 0.16)), -122.3 + float(rng.uniform(0.03, 0.22))),
            destination=GeoPoint(45.0 + float(rng.uniform(0.02, 0.16)), -122.3 + float(rng.uniform(0.03, 0.22))),
            departure_time=int(rng.integers(35000, 40000)),
            declaration_time=34200,
        )
        for i in range(n)
    ]
    return city, compute_driver_journeys(drivers, points, MODEL, seed=seed)


def test_injection_is_additive_and_pure():
    city, journeys = _city_journeys(12)
    before = (dict(city.stops), dict(city.routes), dict(city.trips))
    out = inject_poollines(city, journeys, service_date="2022-07-20")
    assert (dict(city.stops), dict(city.routes), dict(city.trips)) == before
    assert len(out.stops) == len(city.stops) + 2 * len(journeys)
    assert len(out.routes) == len(city.routes) + len(journeys)
    assert len(out.trips) == len(city.trips) + len(journeys)
    for j in journeys:
        trip_id = pool_trip_id(j.driver_id)
        assert trip_id in out.trips
        assert len(out.stoptimes[trip_id]) == len(j.stoptimes)
    for trip_id in city.trips:
        assert out.stoptimes[trip_id] == city.stoptimes[trip_id]


def test_injected_service_runs_only_that_day():
    city, journeys = _city_journeys(5)
    out = inject_poollines(city, journeys, service_date="2022-07-20")
    assert service_active(out, POOL_SERVICE_ID, "2022-07-20")
    assert not service_active(out, POOL_SERVICE_ID, "2022-07-21")
    trip_id = pool_trip_id(journeys[0].driver_id)
    assert trip_id in with_service_date(out, "2022-07-20").trips
    assert trip_id not in with_service_date(out, "2022-07-21").trips
    # The regular service is unaffected either day.
    assert len(with_service_date(out, "2022-07-21").trips) == len(city.trips)


def test_injection_round_trips_through_files(tmp_path):
    city, journeys = _city_journeys(8)
    out = inject_poollines(city, journeys, service_date="2022-07-20")
    write_gtfs(out, tmp_path / "feed")
    back = parse_gtfs(tmp_path / "feed")
    assert back.stops == out.stops
    assert back.routes == out.routes
    assert back.trips == out.trips
    assert back.stoptimes == out.stoptimes
    assert back.calendar_dates == out.calendar_dates


def test_empty_injection_changes_nothing():
    city, _ = _city_journeys(1)
    out = inject_poollines(city, [], service_date="2022-07-20")
    assert out.stops == city.stops
    assert out.trips == city.trips
    assert out.calendar_dates == city.calendar_dates


def test_duplicate_driver_rejected():
    _, journeys = _city_journeys(2)
    twice = [journeys[0], journeys[0]]
    with pytest.raises(DuplicateDriverId):
        inject_poollines(build_synthetic_city(), twice)


def test_stop_collision_rejected():
    city, journeys = _city_journeys(1)
    taken = Stop(
        origin_stop_id(journeys[0].driver_id), "squatter", GeoPoint(45.0, -122.3)
    )
    crowded = inject_poollines(city, [])
    crowded.stops[taken.stop_id] = taken
    with pytest.raises(StopIdCollision):
        inject_poollines(crowded, journeys)


def test_trip_collision_rejected():
    city, journeys = _city_journeys(2)
    once = inject_poollines(city, journeys[:1])
    with pytest.raises(IdCollision):
        inject_poollines(once, journeys[:1])


def test_injection_without_calendar_needs_no_exception_row():
    _, journeys = _city_journeys(3)
    from poollines.gtfs import Timetable

    city = build_synthetic_city()
    bare = Timetable(city.stops, city.routes, city.trips, city.stoptimes, (), (), {})
    out = inject_poollines(bare, journeys, service_date="2022-07-20")
    assert out.calendar_dates == ()
    assert service_active(out, POOL_SERVICE_ID, "2022-07-20")

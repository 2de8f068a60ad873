import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poollines.drivers import compute_driver_journeys, select_meeting_points
from poollines.geo import TravelModel
from poollines.scenario import (
    Rectangle,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    Window,
    agent_count,
    generate_scenario,
    read_agents,
    round_half_down,
    sample_point,
    write_agents,
)
from poollines.synthetic import CITY_AREA_KM2, build_synthetic_city, city_rectangles

from oracles import reference_generate_scenario

BOX = Rectangle(45.0, 45.1, -122.3, -122.2)


def _config(**kwargs):
    defaults = dict(rectangles=(BOX,), driver_density=1.0, rider_density=2.0, seed=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# ---- counting -------------------------------------------------------


def test_round_half_down():
    assert round_half_down(2.5) == 2
    assert round_half_down(3.5) == 3
    assert round_half_down(2.4999) == 2
    assert round_half_down(2.5001) == 3
    assert round_half_down(3.0) == 3
    assert round_half_down(-0.5) == -1
    assert round_half_down(0.49) == 0


def test_agent_count_formula():
    # density * area * hours, halves down: 8.3/km^2/h over 662.47 km^2
    # for one hour is 5498.501, so 5499; only exact halves round down.
    assert agent_count(8.3, 662.47, 1.0) == 5499
    assert agent_count(4.3, 662.47, 1.0) == 2849
    assert agent_count(1.0, 400.0, 1.0) == 400
    assert agent_count(1.0, 400.0, 0.5) == 200
    assert agent_count(0.0, 400.0, 1.0) == 0


def test_explicit_counts_beat_the_formula():
    cfg = _config(driver_count=7, rider_count=3)
    s = generate_scenario(cfg)
    assert len(s.drivers) == 7
    assert len(s.riders) == 3
    ids = [d.driver_id for d in s.drivers]
    assert ids == list(range(1, 8))


def test_area_override():
    cfg = _config(area_km2=662.47)
    assert cfg.effective_area_km2 == 662.47
    assert _config().effective_area_km2 == pytest.approx(BOX.area_km2)


# ---- geometry -------------------------------------------------------


def test_rectangle_area():
    # The 20 km synthetic city covers 400 km^2 by construction.
    assert sum(r.area_km2 for r in city_rectangles()) == pytest.approx(
        CITY_AREA_KM2, rel=0.01
    )
    assert BOX.area_km2 == pytest.approx(
        111.19508023 * 0.1 * 111.19508023 * 0.1 * np.cos(np.radians(45.05)), rel=1e-6
    )


def test_samples_stay_inside():
    rng = np.random.default_rng(6)
    rects = city_rectangles()
    for _ in range(2000):
        p = sample_point(rects, rng)
        assert any(
            r.lat_min <= p.lat <= r.lat_max and r.lon_min <= p.lon <= r.lon_max
            for r in rects
        )


def test_coordinates_are_uniform_inside_a_rectangle():
    rng = np.random.default_rng(42)
    lats = []
    lons = []
    for _ in range(10000):
        p = sample_point((BOX,), rng)
        lats.append(p.lat)
        lons.append(p.lon)
    for values, lo, hi in ((lats, 45.0, 45.1), (lons, -122.3, -122.2)):
        scaled = (np.array(values) - lo) / (hi - lo)
        assert stats.kstest(scaled, "uniform").pvalue > 0.01


def test_departures_are_uniform_over_the_window():
    cfg = _config(rider_count=10000, driver_count=0)
    s = generate_scenario(cfg)
    window = cfg.sim_window
    scaled = (
        np.array([r.departure_time for r in s.riders]) - window.start
    ) / window.seconds
    assert stats.kstest(scaled, "uniform").pvalue > 0.01
    assert all(window.contains(r.departure_time) for r in s.riders)


def test_rectangle_weights_drive_selection():
    # Two equal-size boxes, weights 3 and 1: about 75% of points should
    # land in the first.
    heavy = Rectangle(45.0, 45.1, -122.3, -122.2, weight=3.0)
    light = Rectangle(46.0, 46.1, -122.3, -122.2, weight=1.0)
    rng = np.random.default_rng(9)
    hits = sum(
        1 for _ in range(8000) if sample_point((heavy, light), rng).lat < 45.5
    )
    assert abs(hits / 8000 - 0.75) < 0.02


def test_unweighted_rectangles_fall_back_to_area():
    big = Rectangle(45.0, 45.2, -122.3, -122.2)  # twice the area
    small = Rectangle(46.0, 46.1, -122.3, -122.2)
    rng = np.random.default_rng(10)
    hits = sum(1 for _ in range(9000) if sample_point((big, small), rng).lat < 45.5)
    share = big.area_km2 / (big.area_km2 + small.area_km2)
    assert abs(hits / 9000 - share) < 0.02


# ---- determinism ----------------------------------------------------


def test_generation_is_deterministic():
    a = generate_scenario(_config(driver_count=50, rider_count=80))
    b = generate_scenario(_config(driver_count=50, rider_count=80))
    assert a == b


def test_seed_changes_the_draw():
    a = generate_scenario(_config(driver_count=50, rider_count=0, seed=1))
    b = generate_scenario(_config(driver_count=50, rider_count=0, seed=2))
    assert a.drivers != b.drivers


def test_agents_are_stable_under_count_growth():
    # Adding agents must not disturb the ones already drawn; each agent
    # has its own substream.
    small = generate_scenario(_config(driver_count=20, rider_count=20))
    large = generate_scenario(_config(driver_count=40, rider_count=40))
    assert large.drivers[:20] == small.drivers
    assert large.riders[:20] == small.riders


# sha256 of the agents file and of the driver journeys (as _journeys_text
# writes them) for 60 drivers and 120 riders on the synthetic city.  They
# pin the per-agent streams: a change of seeding, of draw order or of
# numpy's Generator draws changes them.
_GOLDEN = {
    7: (
        "455217f9ee6c69f2760e50fde8436be9e81386ff428b2c3f39979195be77b7b3",
        "38bec112f5d81749a0ea824cefe3106952215529914dc9960ff1b4e9d6bec61d",
    ),
    # Three seed words: a driver's entropy [seed, 0, id] is five words long.
    2**64 + 7: (
        "dc440d4b63015453f084332ffe74d7e7715076be02bcfb6b580722f01ec0dc92",
        "eb3208850cb9d3f54bd0bd745111f3edb0f6bd1422e4e45e4c2c91a9e54ec70e",
    ),
}


def _journeys_text(journeys) -> str:
    return "".join(
        f"{j.driver_id},{j.baseline_km!r},{j.length_km!r},"
        + ";".join(
            f"{s.location.lat!r},{s.location.lon!r},{s.stop_ref},{s.arrival},{s.departure}"
            for s in j.stoptimes
        )
        + "\n"
        for j in journeys
    )


@pytest.mark.parametrize("seed", sorted(_GOLDEN))
def test_agents_and_journeys_match_their_recorded_digests(tmp_path, seed):
    cfg = ScenarioConfig(
        rectangles=city_rectangles(), driver_density=0.0, rider_density=0.0, seed=seed,
        area_km2=400.0, driver_count=60, rider_count=120,
    )
    s = generate_scenario(cfg)
    write_agents(tmp_path / "agents.csv", s)
    points = select_meeting_points(build_synthetic_city())
    journeys = compute_driver_journeys(list(s.drivers), points, TravelModel(), seed=seed)
    assert (
        hashlib.sha256((tmp_path / "agents.csv").read_bytes()).hexdigest(),
        hashlib.sha256(_journeys_text(journeys).encode()).hexdigest(),
    ) == _GOLDEN[seed]


_RECTANGLES = st.lists(
    st.tuples(
        st.floats(44.0, 46.0), st.floats(0.001, 0.5), st.floats(-123.0, -121.0),
        st.floats(0.001, 0.5), st.none() | st.floats(0.1, 10.0),
    ).map(lambda t: Rectangle(t[0], t[0] + t[1], t[2], t[2] + t[3], t[4])),
    min_size=1,
    max_size=3,
)


@settings(deadline=None, max_examples=50)
@given(
    rectangles=_RECTANGLES,
    counts=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    density=st.floats(0.0, 0.2),
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**70)),
    seats=st.integers(1, 6),
    start=st.integers(0, 20 * 3600),
    length=st.integers(1, 4 * 3600),
)
def test_generation_equals_one_default_rng_per_agent(rectangles, counts, density, seed, seats, start, length):
    # Counts from the config, or (None) from the density formula.
    cfg = ScenarioConfig(
        rectangles=tuple(rectangles), driver_density=density, rider_density=2 * density,
        sim_window=Window(start, start + length), seed=seed,
        driver_count=counts[0] or None, rider_count=counts[1], seat_capacity=seats,
    )
    assert generate_scenario(cfg) == reference_generate_scenario(cfg)


def test_drivers_declare_at_window_start():
    s = generate_scenario(_config(driver_count=25, rider_count=0))
    for d in s.drivers:
        assert d.declaration_time == s.config.sim_window.start
        assert d.seat_capacity == 4
        assert s.config.sim_window.contains(d.departure_time)


# ---- agents files ---------------------------------------------------


def test_agents_file_round_trip(tmp_path):
    s = generate_scenario(_config(driver_count=30, rider_count=40))
    path = tmp_path / "agents.csv"
    write_agents(path, s)
    drivers, riders = read_agents(path, declaration_time=s.config.sim_window.start)
    assert drivers == s.drivers
    assert riders == s.riders


def test_agents_file_is_deterministic(tmp_path):
    s = generate_scenario(_config(driver_count=10, rider_count=10))
    write_agents(tmp_path / "a.csv", s)
    write_agents(tmp_path / "b.csv", s)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_agents_file_rejects_unknown_kind(tmp_path):
    path = tmp_path / "agents.csv"
    path.write_text(
        "kind,id,origin_lat,origin_lon,destination_lat,destination_lon,departure_s\n"
        "gremlin,1,45.0,-122.3,45.01,-122.29,38000\n"
    )
    with pytest.raises(ScenarioError):
        read_agents(path, declaration_time=0)


def test_declaration_never_after_departure(tmp_path):
    path = tmp_path / "agents.csv"
    path.write_text(
        "kind,id,origin_lat,origin_lon,destination_lat,destination_lon,departure_s\n"
        "driver,1,45.0,-122.3,45.01,-122.29,100\n"
    )
    drivers, _ = read_agents(path, declaration_time=37800)
    assert drivers[0].declaration_time == 100  # clamped to the departure


# ---- validation -----------------------------------------------------


def test_window_validation():
    with pytest.raises(ScenarioError):
        Window(100, 100)
    w = Window.from_texts("10:45:00", "11:15:00")
    assert (w.start, w.end) == (38700, 40500)
    assert w.hours == pytest.approx(0.5)
    assert w.contains(38700) and not w.contains(40500)


def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(rectangles=(), driver_density=1, rider_density=1)
    with pytest.raises(ScenarioError):
        _config(driver_density=-1)
    with pytest.raises(ScenarioError):
        Rectangle(45.1, 45.0, -122.3, -122.2)
    with pytest.raises(ScenarioError):
        Rectangle(45.0, 45.1, -122.3, -122.2, weight=0.0)

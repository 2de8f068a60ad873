"""End to end checks of the command line pipeline.

Each test drives ``main`` with real argv against a small synthetic-city
config, then inspects the files the commands leave behind.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poollines
from poollines import config
from poollines.cli import main
from poollines.config import SCHEMA, Key
from poollines.gtfs import parse_gtfs, write_gtfs
from poollines.injection import is_poolline_trip, pool_trip_id
from poollines.scenario import Window, read_agents
from poollines.synthetic import build_synthetic_city

SIM_START = Window.from_texts("09:30:00", "12:30:00").start


def _write_config(path, **overrides):
    cfg = {
        "synthetic_city": True,
        "output_dir": str(path.parent / "out"),
        "seed": 5,
        "workers": 1,
        "scenario": {
            "rectangles": "city",
            "driver_count": 25,
            "rider_count": 40,
            "sim_window": ["09:30:00", "12:30:00"],
            "stats_window": ["10:45:00", "11:15:00"],
            "area_km2": 400.0,
        },
    }
    for key, value in overrides.items():
        if value is _DROP:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


_DROP = object()


def _tree_bytes(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One finished simulate run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_config(root / "config.json")
    rc = main(["simulate", "--config", str(cfg), "--out", str(root / "run_a")])
    assert rc == 0
    return root, cfg


# ---- generate -------------------------------------------------------


def test_generate_writes_the_agents_file(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json")
    rc = main(["generate", "--config", str(cfg)])
    assert rc == 0
    out = tmp_path / "out" / "agents.csv"
    assert out.is_file()
    assert "25 drivers and 40 riders" in capsys.readouterr().out
    drivers, riders = read_agents(out, SIM_START, 4)
    assert [d.driver_id for d in drivers] == list(range(1, 26))
    assert [r.rider_id for r in riders] == list(range(1, 41))


def test_generate_seed_flag_changes_the_sample(tmp_path):
    cfg = _write_config(tmp_path / "config.json")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b.csv"),
                 "--seed", "5"]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv"),
                 "--seed", "6"]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == a  # flag equal to config seed
    assert (tmp_path / "c.csv").read_bytes() != a


# ---- inject ---------------------------------------------------------


def test_inject_writes_a_parseable_augmented_feed(tmp_path):
    cfg = _write_config(tmp_path / "config.json")
    rc = main(["inject", "--config", str(cfg), "--out", str(tmp_path / "feed")])
    assert rc == 0
    timetable = parse_gtfs(tmp_path / "feed", service_date="2022-07-20")
    pool = [t for t in timetable.trips if is_poolline_trip(t)]
    assert len(pool) == 25
    assert len(timetable.trips) == 180 + 25


def test_inject_can_reuse_a_generated_agents_file(tmp_path):
    cfg = _write_config(tmp_path / "config.json")
    agents = tmp_path / "agents.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(agents)]) == 0
    rc = main(["inject", "--config", str(cfg), "--agents", str(agents),
               "--out", str(tmp_path / "feed")])
    assert rc == 0
    direct = tmp_path / "feed_direct"
    assert main(["inject", "--config", str(cfg), "--out", str(direct)]) == 0
    assert _tree_bytes(tmp_path / "feed") == _tree_bytes(direct)


# ---- simulate -------------------------------------------------------


def test_simulate_leaves_a_complete_run_directory(workspace, capsys):
    root, _ = workspace
    run = root / "run_a"
    for variant in ("no_carpooling", "current", "integrated"):
        for stem in ("outcomes", "journeys", "occupancy", "detour_ratio", "detour_km"):
            assert (run / f"{stem}_{variant}.csv").is_file()
    assert (run / "agents.csv").is_file()
    assert (run / "modal_split.csv").is_file()
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert set(report["variants"]) == {"no_carpooling", "current", "integrated"}
    assert report["vkt_saved_km"] is not None


def test_simulate_is_reproducible_byte_for_byte(workspace):
    root, cfg = workspace
    rc = main(["simulate", "--config", str(cfg), "--out", str(root / "run_b")])
    assert rc == 0
    assert _tree_bytes(root / "run_a") == _tree_bytes(root / "run_b")


def test_workers_flag_does_not_change_the_outputs(workspace):
    root, cfg = workspace
    rc = main(["simulate", "--config", str(cfg), "--out", str(root / "run_w"),
               "--workers", "2"])
    assert rc == 0
    assert _tree_bytes(root / "run_a") == _tree_bytes(root / "run_w")


def test_simulate_runs_without_scipy(tmp_path):
    """A whole ``simulate`` in a fresh interpreter never imports scipy:
    numpy is the package's only runtime dependency."""
    cfg = _write_config(tmp_path / "config.json", workers=2)
    script = (
        "import sys\n"
        "from poollines.cli import main\n"
        f"rc = main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'run')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(poollines.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_single_variant_run(tmp_path):
    cfg = _write_config(tmp_path / "config.json")
    run = tmp_path / "run"
    rc = main(["simulate", "--config", str(cfg), "--out", str(run),
               "--variant", "integrated"])
    assert rc == 0
    assert (run / "outcomes_integrated.csv").is_file()
    assert not (run / "outcomes_current.csv").exists()
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert set(report["variants"]) == {"integrated"}
    # The saving is defined against CURRENT, so it needs both variants.
    assert report["vkt_saved_km"] is None


def test_single_variant_rerun_removes_the_other_variants_files(workspace):
    root, cfg = workspace
    run = root / "run_rerun"
    shutil.copytree(root / "run_a", run)
    rc = main(["simulate", "--config", str(cfg), "--out", str(run),
               "--variant", "integrated"])
    assert rc == 0
    for variant in ("no_carpooling", "current"):
        for stem in ("outcomes", "journeys", "occupancy", "detour_ratio", "detour_km"):
            assert not (run / f"{stem}_{variant}.csv").exists()
    written = (run / "report.json").read_bytes()
    assert main(["metrics", "--config", str(cfg), "--dir", str(run)]) == 0
    assert (run / "report.json").read_bytes() == written


# ---- metrics --------------------------------------------------------


def test_metrics_rebuilds_report_json_from_the_files(workspace, capsys):
    root, cfg = workspace
    copy = root / "run_m"
    shutil.copytree(root / "run_a", copy)
    original = (copy / "report.json").read_bytes()
    (copy / "report.json").unlink()
    rc = main(["metrics", "--config", str(cfg), "--dir", str(copy)])
    assert rc == 0
    assert (copy / "report.json").read_bytes() == original
    # On the intact directory it rebuilds the same bytes.
    assert main(["metrics", "--config", str(cfg), "--dir", str(copy)]) == 0
    assert (copy / "report.json").read_bytes() == original


def _leaves(value, key=()):
    """(dotted key, JSON text) of every non-dict value, in sorted key order."""
    if isinstance(value, dict):
        for name in sorted(value):
            yield from _leaves(value[name], (*key, name))
    else:
        yield ".".join(key), json.dumps(value)


def test_metrics_with_another_stats_window_refuses_to_overwrite(workspace, tmp_path, capsys):
    root, cfg = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run_a", run)
    report = (run / "report.json").read_bytes()
    other = json.loads(cfg.read_text(encoding="utf-8"))
    other["scenario"]["stats_window"] = ["10:30:00", "11:30:00"]
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(other), encoding="utf-8")

    # The key the refusal must name: the first leaf whose value differs
    # from what a fresh run directory gets under the other window.
    fresh = tmp_path / "fresh"
    shutil.copytree(root / "run_a", fresh)
    (fresh / "report.json").unlink()
    assert main(["metrics", "--config", str(other_cfg), "--dir", str(fresh)]) == 0
    before = list(_leaves(json.loads(report)))
    after = list(_leaves(json.loads((fresh / "report.json").read_text(encoding="utf-8"))))
    assert [k for k, _ in before] == [k for k, _ in after]
    key = next(k for (k, a), (_, b) in zip(before, after) if a != b)

    capsys.readouterr()
    assert main(["metrics", "--config", str(other_cfg), "--dir", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {run / 'report.json'}: {key} differs ")
    assert (run / "report.json").read_bytes() == report


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda report: report.update(extra=1), "extra"),
        (lambda report: report.pop("vkt_saved_km"), "vkt_saved_km"),
        (lambda report: report["variants"]["integrated"].update(riders_total=-1),
         "variants.integrated.riders_total"),
    ],
)
def test_metrics_names_the_first_edited_key_of_report_json(workspace, tmp_path, capsys, edit, key):
    root, cfg = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run_a", run)
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    edit(report)
    (run / "report.json").write_text(json.dumps(report), encoding="utf-8")
    edited = (run / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["metrics", "--config", str(cfg), "--dir", str(run)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {run / 'report.json'}: {key} differs ")
    assert (run / "report.json").read_bytes() == edited


@pytest.mark.parametrize("garbage", [b"\xff\xfe", b"{\"variants\": "])
def test_metrics_refuses_to_overwrite_an_unreadable_report_json(workspace, tmp_path, capsys, garbage):
    root, cfg = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run_a", run)
    (run / "report.json").write_bytes(garbage)
    capsys.readouterr()
    assert main(["metrics", "--config", str(cfg), "--dir", str(run)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {run / 'report.json'}: unreadable: ")
    assert (run / "report.json").read_bytes() == garbage


# ---- exit codes -----------------------------------------------------


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json", bogus_key=1)
    assert main(["generate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # Ended in a UnicodeDecodeError traceback.
    path = tmp_path / "config.json"
    path.write_bytes(b'{"synthetic_city": true, "output_dir": "\xff"}')
    assert main(["generate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")


_SMALL_SCENARIO = {
    "rectangles": "city",
    "driver_count": 20,
    "rider_count": 20,
    "area_km2": 400.0,
}


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"num_itineraries": 0}, "num_itineraries"),
        ({"capacity_enforcement": "false"}, "capacity_enforcement"),
        ({"synthetic_city": "false"}, "synthetic_city"),
        ({"rules": {"max_wait_s": "abc"}}, "rules.max_wait_s"),
        ({"rules": {"max_walk_km": True}}, "rules.max_walk_km"),
        ({"rules": {"walk_time_bound": 0}}, "rules.walk_time_bound"),
        ({"travel": {"walk_speed_kmh": "5"}}, "travel.walk_speed_kmh"),
        ({"emissions": {"grams_per_km": None}}, "emissions.grams_per_km"),
        # Integer keys take JSON integers only, not fractions, booleans or strings.
        ({"seat_capacity": 2.7}, "seat_capacity"),
        ({"workers": True}, "workers"),
        ({"scenario": {**_SMALL_SCENARIO, "driver_count": 20.9}}, "scenario.driver_count"),
        ({"seed": "5"}, "seed"),
        ({"dwell_s": 60.0}, "dwell_s"),
        ({"transfer_s": False}, "transfer_s"),
        ({"num_itineraries": "3"}, "num_itineraries"),
        ({"scenario": {**_SMALL_SCENARIO, "rider_count": True}}, "scenario.rider_count"),
        ({"meeting_point_route_types": [1.0]}, "meeting_point_route_types"),
        ({"meeting_point_route_types": [True]}, "meeting_point_route_types"),
        ({"meeting_point_route_types": 1}, "meeting_point_route_types"),
        # Float keys take finite numbers only.
        ({"tau": "0.2"}, "tau"),
        ({"max_walk_km": True}, "max_walk_km"),
        ({"max_walk_km": float("inf")}, "max_walk_km"),
        ({"scenario": {**_SMALL_SCENARIO, "driver_density": "1"}}, "scenario.driver_density"),
        ({"scenario": {**_SMALL_SCENARIO, "rider_density": False}}, "scenario.rider_density"),
        ({"scenario": {**_SMALL_SCENARIO, "area_km2": "400"}}, "scenario.area_km2"),
        # Values numpy's seeding or a Driver would reject deep in the run.
        ({"seed": -1}, "seed"),
        ({"seat_capacity": 0}, "seat_capacity"),
        # "flags" are extra command line arguments, not a config key.
        ({"flags": ["--seed", "-1"]}, "seed"),
        # Values out of range, which ran to exit 0 on wrong numbers.
        ({"workers": 0}, "workers"),
        ({"flags": ["--workers", "0"]}, "workers"),
        ({"max_walk_km": -1}, "max_walk_km"),
        ({"rules": {"max_walk_km": -0.5}}, "rules.max_walk_km"),
        ({"rules": {"max_wait_s": -1}}, "rules.max_wait_s"),
        ({"scenario": {**_SMALL_SCENARIO, "driver_count": -1}}, "scenario.driver_count"),
        ({"scenario": {**_SMALL_SCENARIO, "rider_count": -3}}, "scenario.rider_count"),
        ({"scenario": {**_SMALL_SCENARIO, "area_km2": 0}}, "scenario.area_km2"),
        ({"scenario": {**_SMALL_SCENARIO, "area_km2": -400.0}}, "scenario.area_km2"),
        # Values that ended in a traceback or were silently coerced.
        pytest.param({"synthetic_city": False, "gtfs_path": 5}, "gtfs_path", id="gtfs_path-int"),
        pytest.param({"agents_path": 5}, "agents_path", id="agents_path-int"),
        pytest.param({"output_dir": [1]}, "output_dir", id="output_dir-list"),
        pytest.param({"travel": {"circuity": 1e308}}, "travel.circuity", id="circuity-huge"),
        pytest.param({"travel": {"walk_speed_kmh": 1e-300}}, "travel.walk_speed_kmh",
                     id="walk_speed-tiny"),
        pytest.param({"travel": {"drive_speed_kmh": 1e-300}}, "travel.drive_speed_kmh",
                     id="drive_speed-tiny"),
        pytest.param({"dwell_s": 10**24}, "dwell_s", id="dwell_s-huge"),
        pytest.param({"scenario": {**_SMALL_SCENARIO, "driver_count": 10**20}},
                     "scenario.driver_count", id="driver_count-huge"),
        pytest.param({"scenario": {"rectangles": "city", "driver_density": 1e300, "rider_count": 20}},
                     "scenario.driver_density", id="driver_density-huge"),
        # A stats window the sim window does not contain (by default 10:30-11:30).
        pytest.param({"scenario": {**_SMALL_SCENARIO, "stats_window": ["12:00:00", "13:00:00"]}},
                     "scenario.stats_window", id="stats_window-outside"),
        pytest.param({"scenario": {**_SMALL_SCENARIO, "stats_window": ["11:00:00", "12:00:00"]}},
                     "scenario.stats_window", id="stats_window-overlapping"),
        # GTFS times are ASCII digits: int() would take the underscore.
        pytest.param({"scenario": {**_SMALL_SCENARIO, "sim_window": ["1_0:30:00", "11:30:00"]}},
                     "scenario.sim_window", id="sim_window-underscore"),
    ],
)
def test_bad_config_value_is_a_config_error(tmp_path, capsys, bad, key):
    values = {k: v for k, v in bad.items() if k != "flags"}
    cfg = _write_config(tmp_path / "config.json", **{"seed": 7, "scenario": _SMALL_SCENARIO, **values})
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), *bad.get("flags", [])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("service_date", ["2022-13-40", "2022-02-30", "July 20", ""])
def test_malformed_service_date_is_a_config_error(tmp_path, capsys, service_date):
    # "2022-13-40" ended in a ValueError traceback from the feed's calendar.
    cfg = _write_config(tmp_path / "config.json", service_date=service_date)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: service_date {service_date!r} is not a date: ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def _faults(spec: Key) -> list:
    """Values of the wrong JSON kind, or outside the domain, for the key ``spec`` describes."""
    kind, lo, hi = spec
    if isinstance(kind, type):  # a nested object
        return [5, [], "travel", {"bogus": 1}]
    if kind in (config._integer, config._number):
        values = [lo - 1, hi + 1, hi * 10, 10**20, -(10**20), 1e300, "1", True, None, [lo]]
        if lo > 0:
            values.append(lo / 2)
        return values + ([1.5, float(lo)] if kind is config._integer else [float("nan")])
    return {
        config._flag: ["true", 0, 1, None],
        config._path: [5, [1], "", "a\0b", None],
        config._date: ["2022-13-40", "July 20", 20220720, ""],
        config._window: ["10:00:00", ["10:00:00"], ["11:00:00", "10:00:00"], ["1_0:30:00", "11:30:00"],
                         [5, 6], ["00:00:00", "99:00:00"], ["12:00:00", "13:00:00"]],
        config._integers: [[], [1.5], 1, [-1], [10**20], [True]],
        config._rectangles: [[], "town", [[1, 2, 3]], [[100, 101, 0, 1]], [[45.0, 44.0, 0, 1]],
                             [[0, 1, 0, 1, -1]], [[0, 1, 0, 1, 1e300]], [["0", 1, 0, 1]]],
    }[kind]


_FAULTS = st.sampled_from(sorted(SCHEMA)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from([_DROP, *_faults(SCHEMA[key])]))
)


@settings(max_examples=300, deadline=None)
@given(_FAULTS)
def test_a_config_fault_is_a_config_error_or_a_complete_run(fault):
    # Under 32 riders the run resolves in this process whatever "workers" is.
    # Capacity is off, so that served sets must nest across the variants;
    # with these 200 drivers the three served sets differ (5, 6 and 8 riders).
    key, value = fault
    cfg = {
        "synthetic_city": True, "seed": 1, "workers": 1, "capacity_enforcement": False,
        "travel": {}, "rules": {}, "emissions": {},
        "scenario": {"rectangles": "city", "driver_count": 200, "rider_count": 20, "area_km2": 400.0,
                     "sim_window": ["10:30:00", "11:30:00"], "stats_window": ["10:30:00", "11:30:00"]},
    }
    *blocks, name = key.split(".")
    parent = cfg[blocks[0]] if blocks else cfg
    if value is _DROP:
        parent.pop(name, None)
    else:
        parent[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "run")])
        assert rc in (0, 1, 2)
        if rc == 1:
            assert err.getvalue().startswith("config error: ")
            assert key in err.getvalue()
        if rc != 0:
            return
        run = Path(tmp) / "run"
        _, riders = read_agents(run / "agents.csv", 0)
        window = config.load_config(path).scenario.stats_window
        inside = {r.rider_id for r in riders if window.contains(r.departure_time)}
        report = json.loads((run / "report.json").read_text(encoding="utf-8"))
        served = {}
        for variant, figures in report["variants"].items():
            lines = (run / f"outcomes_{variant}.csv").read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert sorted(int(row[0]) for row in rows) == [r.rider_id for r in riders]
            served[variant] = {int(row[0]) for row in rows if row[1] != "unserved"} & inside
            empty = figures["riders_in_stats_window"] == 0
            assert (f"{variant}: unserved " in out.getvalue()) == (not empty)
            shares = figures["modal_split_pct"].values()
            assert [share is None for share in shares] == [empty] * len(shares)
        if cfg.get("capacity_enforcement") is False:
            assert served["no_carpooling"] <= served["current"] <= served["integrated"]


def test_zero_agent_counts_are_legal(tmp_path, capsys):
    scenario = {**_SMALL_SCENARIO, "driver_count": 0, "rider_count": 0}
    cfg = _write_config(tmp_path / "config.json", scenario=scenario)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "agents.csv")]) == 0
    assert "0 drivers and 0 riders" in capsys.readouterr().out


def test_no_modal_split_over_zero_riders(tmp_path, capsys):
    # Shares over an empty stats window were written as 0.0 % each.
    scenario = {**_SMALL_SCENARIO, "rider_count": 0}
    cfg = _write_config(tmp_path / "config.json", scenario=scenario)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    for figures in report["variants"].values():
        assert figures["riders_in_stats_window"] == 0
        assert set(figures["modal_split_pct"].values()) == {None}
    rows = (run / "modal_split.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "variant,mode,percent"
    assert len(rows) == 1 + 3 * 6 and all(row.endswith(",") for row in rows[1:])
    copy = tmp_path / "copy"
    shutil.copytree(run, copy)
    (copy / "report.json").unlink()
    assert main(["metrics", "--config", str(cfg), "--dir", str(copy)]) == 0
    assert (copy / "report.json").read_bytes() == (run / "report.json").read_bytes()


def test_commands_needing_a_scenario_fail_without_one(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json", scenario=_DROP)
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "scenario block" in capsys.readouterr().err


def test_missing_feed_is_a_data_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "config.json",
        synthetic_city=False,
        gtfs_path=str(tmp_path / "no_such_feed"),
    )
    assert main(["inject", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_feed_already_carrying_poollines_is_a_data_error(tmp_path, capsys):
    scenario = {
        "rectangles": "city",
        "driver_count": 60,
        "rider_count": 120,
        "area_km2": 400.0,
    }
    cfg = _write_config(tmp_path / "config.json", seed=7, scenario=scenario)
    assert main(["inject", "--config", str(cfg), "--out", str(tmp_path / "feed")]) == 0
    cfg = _write_config(
        tmp_path / "config.json",
        seed=7,
        synthetic_city=False,
        gtfs_path=str(tmp_path / "feed"),
        scenario={**scenario, "driver_count": 0},
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert repr(pool_trip_id(1)) in err


def test_metrics_without_outputs_is_a_data_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json")
    assert main(["metrics", "--config", str(cfg), "--dir", str(tmp_path / "empty")]) == 2
    assert "no simulation outputs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, column, value, in_window, reason",
    [
        ("outcomes_integrated.csv", "mode", "bogus", True, "'bogus' is not a valid RiderMode"),
        # Out of the stats window too: the row still feeds the savings.
        ("outcomes_integrated.csv", "mode", "bogus", False, "'bogus' is not a valid RiderMode"),
        ("outcomes_integrated.csv", "rider_id", "99999", None, "rider 99999 is not in agents.csv"),
        ("outcomes_current.csv", "driver_ids", "3;99999", None,
         "driver 99999 is not in journeys_current.csv"),
        ("outcomes_current.csv", "walk_km", "far", None,
         "could not convert string to float: 'far'"),
        ("journeys_current.csv", "baseline_km", "abc", None,
         "could not convert string to float: 'abc'"),
        ("journeys_integrated.csv", "voided", "2", None, "voided is '2', not 0 or 1"),
        ("journeys_integrated.csv", "pruned_length_km", "nan", None, "'nan' km is not finite"),
    ],
)
def test_malformed_run_table_is_a_data_error_naming_file_and_line(
    workspace, tmp_path, capsys, table, column, value, in_window, reason
):
    root, cfg = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run_a", run)
    _, riders = read_agents(run / "agents.csv", SIM_START)
    stats = Window.from_texts("10:45:00", "11:15:00")
    inside = {r.rider_id for r in riders if stats.contains(r.departure_time)}
    path = run / table
    lines = path.read_text(encoding="utf-8").splitlines()
    row = next(
        i for i, line in enumerate(lines)
        if i and (in_window is None or (int(line.split(",")[0]) in inside) == in_window)
    )
    _edit_cell(row, column, value)(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = (run / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["metrics", "--config", str(cfg), "--dir", str(run)]) == 2
    assert capsys.readouterr().err == f"data error: {path}:{row + 1}: {reason}\n"
    assert (run / "report.json").read_bytes() == report


@pytest.mark.parametrize(
    "table, kind, repeat",
    [
        pytest.param("outcomes_current.csv", "rider", True, id="repeated-outcome-row"),
        pytest.param("journeys_current.csv", "driver", True, id="repeated-journey-row"),
        pytest.param("outcomes_current.csv", "rider", False, id="missing-outcome-row"),
        pytest.param("journeys_integrated.csv", "driver", False, id="missing-journey-row"),
    ],
)
def test_run_table_without_one_row_per_agent_is_a_data_error(
    workspace, tmp_path, capsys, table, kind, repeat
):
    # Without report.json to compare with, a repeated row would count an
    # agent twice and a missing one not at all.
    root, cfg = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run_a", run)
    (run / "report.json").unlink()
    path = run / table
    lines = path.read_text(encoding="utf-8").splitlines()
    agent_id = int(lines[2].split(",")[0])
    if repeat:
        lines.append(lines[2])
        want = f"{path}:{len(lines)}: repeated {kind} id {agent_id}"
    else:
        del lines[2]
        want = f"{path}: no row for {kind} {agent_id} of agents.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["metrics", "--config", str(cfg), "--dir", str(run)]) == 2
    assert capsys.readouterr().err == f"data error: {want}\n"
    assert not (run / "report.json").exists()


def _edit_cell(row: int, column: str, value: str):
    """A recipe that sets one cell of a CSV file's lines (row 0 is the header)."""
    def edit(lines: list[str]) -> None:
        header = lines[0].split(",")
        cells = lines[row].split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells)
    return edit


def _drop_column(column: str):
    def edit(lines: list[str]) -> None:
        i = lines[0].split(",").index(column)
        lines[:] = [",".join(c for k, c in enumerate(line.split(",")) if k != i) for line in lines]
    return edit


@pytest.mark.parametrize(
    "edit, where",
    [
        (_edit_cell(2, "departure_s", "abc"), ":3: invalid literal for int() with base 10: 'abc'"),
        (_drop_column("origin_lon"), ":1: missing column 'origin_lon'"),
        (_edit_cell(1, "origin_lat", ""), ":2: missing value for 'origin_lat'"),
        (_edit_cell(4, "destination_lon", " "), ":5: missing value for 'destination_lon'"),
        (_edit_cell(3, "origin_lat", "north"), ":4: could not convert string to float: 'north'"),
        (_edit_cell(7, "kind", "walker"), ":8: unknown agent kind 'walker'"),
        (_edit_cell(6, "origin_lat", "95.0"), ":7: latitude out of range: 95.0"),
        # Written as the byte 0xff, which is not UTF-8.
        (_edit_cell(3, "kind", "rid\udcffer"), ":4: byte 0xff is not UTF-8"),
        (_edit_cell(2, "kind", "dri\rver"),
         ":3: unreadable CSV: new-line character seen in unquoted field"),
        # Numbers are ASCII: int() and float() would read these as 10, 3,
        # 38000 and 45.5.
        pytest.param(_edit_cell(6, "id", "1_0"), ":7: invalid literal for int() with base 10: '1_0'",
                     id="rider-id-underscore"),
        pytest.param(_edit_cell(7, "id", "٣"), ":8: invalid literal for int() with base 10: '٣'",
                     id="rider-id-arabic-digit"),
        pytest.param(_edit_cell(8, "departure_s", "3_8000"),
                     ":9: invalid literal for int() with base 10: '3_8000'", id="departure-underscore"),
        pytest.param(_edit_cell(9, "origin_lat", "4_5.5"),
                     ":10: could not convert string to float: '4_5.5'", id="coordinate-underscore"),
        # Journeys are keyed by driver and outcomes by rider, so a second
        # agent of an id would silently replace or double the first.
        pytest.param(_edit_cell(2, "id", "1"), ":3: repeated driver id 1", id="repeated-driver-id"),
        pytest.param(_edit_cell(7, "id", "1"), ":8: repeated rider id 1", id="repeated-rider-id"),
    ],
)
def test_malformed_agents_file_is_a_data_error_naming_file_and_line(tmp_path, capsys, edit, where):
    scenario = {**_SMALL_SCENARIO, "driver_count": 5, "rider_count": 5}
    cfg = _write_config(tmp_path / "config.json", seed=7, scenario=scenario)
    agents = tmp_path / "agents.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(agents)]) == 0
    lines = agents.read_text(encoding="utf-8").splitlines()
    edit(lines)
    agents.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    capsys.readouterr()
    rc = main(["simulate", "--config", str(cfg), "--agents", str(agents),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"data error: {agents}{where}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "column, value",
    [
        pytest.param("stop_lat", "4_5.5", id="underscore"),
        pytest.param("stop_lon", "-122.٦", id="arabic-digit"),
    ],
)
def test_non_ascii_stop_coordinate_is_a_data_error(tmp_path, capsys, column, value):
    # float() would read these as 45.5 and -122.6.
    write_gtfs(build_synthetic_city(), tmp_path / "feed")
    stops = tmp_path / "feed" / "stops.txt"
    lines = stops.read_text(encoding="utf-8").splitlines()
    _edit_cell(3, column, value)(lines)
    stops.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _write_config(
        tmp_path / "config.json", synthetic_city=False, gtfs_path=str(tmp_path / "feed")
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"data error: stops.txt:4: could not convert string to float: {value!r}\n"
    )


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda raw: raw.replace(b"\n", b"\r"), "stop_times.txt:1: unreadable CSV"),
        (lambda raw: raw.replace(b"\n", b"\n\xff", 1), "stop_times.txt:2: byte 0xff is not UTF-8"),
    ],
)
def test_unreadable_feed_file_is_a_data_error(tmp_path, capsys, corrupt, where):
    write_gtfs(build_synthetic_city(), tmp_path / "feed")
    stop_times = tmp_path / "feed" / "stop_times.txt"
    stop_times.write_bytes(corrupt(stop_times.read_bytes()))
    cfg = _write_config(
        tmp_path / "config.json", synthetic_city=False, gtfs_path=str(tmp_path / "feed")
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {where}")

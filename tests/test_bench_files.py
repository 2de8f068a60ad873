"""The committed perf trajectory: every ``BENCH_*.json`` at the root of
the repository, as ``tools/bench_record.py`` writes it, is strict JSON,
holds every end-to-end metric that ``BENCHMARK.json`` declares, for
every workload it declares, and was run for the run length it fixes."""
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(name):
    raise ValueError(f"non-finite constant {name}")


def test_every_bench_file_is_strict_json_with_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject)
        assert path.name == f"BENCH_{record['bench']}.json"
        assert {"vcpus", "python", "numpy"} <= set(record["host"])
        assert isinstance(record["seed"], int)
        assert record["seconds"] == spec["run_seconds"], path.name
        for side in ("change", "baseline"):
            if side == "baseline" and side not in record:
                continue
            assert record[side]["commit"], (path.name, side)
            workloads = record[side]["workloads"]
            for w in spec["workloads"]:
                metrics = workloads[w["name"]]["metrics"]
                for m in spec["end_to_end"]:
                    got = metrics[m["name"]]
                    assert got["unit"] == m["unit"], (path.name, side, w["name"], m["name"])
                    assert len(got["values"]) == record["runs"]
                    figures = (got["q1"], got["median"], got["q3"], *got["values"])
                    assert all(isinstance(x, (int, float)) and math.isfinite(x) for x in figures)
                    assert got["q1"] <= got["median"] <= got["q3"]

#!/usr/bin/env python3
"""Record perfbench results in a ``BENCH_<n>.json`` file.

    python3 tools/bench_record.py --number 21
    python3 tools/bench_record.py --number 21 --workload metro_feed --baseline ../parent-checkout

Runs ``perfbench/run.py --workload W`` of this checkout ``--runs`` times
for each workload (all that ``BENCHMARK.json`` declares, or those given
with ``--workload``), each run in its own process, and writes, per
workload and end-to-end metric, the median and the quartiles over the
runs, with every run's value.  Each run lasts the ``run_seconds`` that
``BENCHMARK.json`` fixes.  With ``--baseline DIR``, the same runs
are made with ``DIR``'s own ``perfbench/run.py`` and program, in
alternating order (this checkout first in even pairs), so that a drift
of the host's speed falls on both sides alike; the file then holds the
baseline's figures too.  The file also records the commit of each
side, whether its tree had uncommitted changes, the seed, the run
length and the host (vCPUs, Python, numpy).  Every run's correctness
and failed share are kept; a run that does not finish stops the
recording.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _git(directory: Path, *args: str) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(directory), *args], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=False,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _side(directory: Path) -> dict:
    status = _git(directory, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git(directory, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def _run(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(directory / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(
        cmd, cwd=directory, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_record: {' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-1])


def _summary(runs: list[dict], declared: list[dict]) -> dict:
    """Median and quartiles of each declared metric over the runs."""
    metrics = {}
    for spec in declared:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        metrics[spec["name"]] = {
            "unit": spec["unit"], "median": median, "q1": q1, "q3": q3, "values": values,
        }
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, help="a checkout to run in alternation")
    parser.add_argument("--note", default="", help="free text kept in the file")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    sides = {"change": (ROOT, _side(ROOT))}
    if args.baseline is not None:
        sides["baseline"] = (args.baseline.resolve(), _side(args.baseline.resolve()))
    workloads = args.workload or names
    seconds = spec["run_seconds"]
    runs: dict[str, dict[str, list]] = {side: {w: [] for w in workloads} for side in sides}
    for workload in workloads:
        for k in range(args.runs):
            order = list(sides) if k % 2 == 0 else list(reversed(sides))
            for side in order:
                result = _run(sides[side][0], workload, args.seed, seconds)
                runs[side][workload].append(result)
                value = result["metrics"].get("riders_per_s", {}).get("value")
                print(f"{workload} {side} run {k + 1}: riders_per_s {value}", file=sys.stderr)

    record = {
        "bench": args.number,
        "command": spec["command"],
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "host": {
            "vcpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "note": args.note,
    }
    for side, (_, info) in sides.items():
        record[side] = {
            "commit": info["commit"],
            "dirty": info["dirty"],
            "workloads": {
                w: _summary(runs[side][w], spec["end_to_end"]) for w in workloads
            },
        }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

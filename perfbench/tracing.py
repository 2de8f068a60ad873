"""Spans and counts for the traced benchmark run, kept in memory.

A span is (name, start, end, parent).  Spans are opened by the
benchmark around its own calls into the program's layers, and by
wrappers it installs around the calls the comparison makes into
matching and the planner.  Counts are taken at the same boundaries.
Nothing is written until the run ends.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """The untraced run: a span costs one call and records nothing."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float | None:
        found = self.durations(name)
        return sum(found) if found else None

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its
        direct children; spans never overlap their siblings.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: (v[0], v[1], v[2]) for k, v in table.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "self_times": self.self_times(),
                }
            ),
            encoding="utf-8",
        )


def instrument(tracer: Tracer, simulation, planner_cls, default_mode) -> list:
    """Wrap the calls the comparison makes into the lower layers.

    Wraps ``run_variant``, ``resolve_rider`` and ``enforce_capacity``
    as the simulation module calls them, and counts the itineraries
    ``Planner.iter_itineraries`` yields.  A name the program no longer
    has is skipped, so only the metrics it fed go missing.  Returns the
    list to pass to :func:`restore`.
    """
    undo: list = []

    def patch(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original))

    def run_variant(original):
        def wrapped(scenario, variant, *args, **kwargs):
            with tracer.span(f"simulation.variant.{variant.value}"):
                return original(scenario, variant, *args, **kwargs)
        return wrapped

    def resolve_rider(original):
        def wrapped(planner, rider, rules, mode=default_mode, *args, **kwargs):
            tracer.count(f"resolves.{mode.value}")
            with tracer.span(f"matching.resolve.{mode.value}"):
                return original(planner, rider, rules, mode, *args, **kwargs)
        return wrapped

    def enforce_capacity(original):
        def wrapped(outcomes, *args, **kwargs):
            with tracer.span("matching.capacity"):
                adjusted, voided = original(outcomes, *args, **kwargs)
            tracer.count(
                "voided_riders",
                sum(
                    1 for a, b in zip(outcomes, adjusted)
                    if a.itinerary is not None and b.itinerary is None
                ),
            )
            return adjusted, voided
        return wrapped

    def iter_itineraries(original):
        def wrapped(self, req):
            for it in original(self, req):
                tracer.count(f"alternatives.{req.mode.value}")
                yield it
        return wrapped

    patch(simulation, "run_variant", run_variant)
    patch(simulation, "resolve_rider", resolve_rider)
    patch(simulation, "enforce_capacity", enforce_capacity)
    patch(planner_cls, "iter_itineraries", iter_itineraries)
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

"""Experiment running utilities shared by the benchmark harness.

Benchmarks time *queries against fresh engine state* — iterative CTE
execution mutates only registry temporaries, so a single Database can be
reused across repetitions; the helpers here standardize warmup, repeats,
and the paper-style comparison records.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..engine import Database
from ..obs.export import BENCH_SCHEMA_VERSION


@dataclass
class Measurement:
    """Wall-clock timing of one configuration."""

    label: str
    seconds: float
    repeats: int
    all_seconds: list[float] = field(default_factory=list)

    @property
    def stdev(self) -> float:
        if len(self.all_seconds) < 2:
            return 0.0
        return statistics.stdev(self.all_seconds)


def time_callable(label: str, fn: Callable[[], object],
                  repeats: int = 3, warmup: int = 1) -> Measurement:
    """Median-of-repeats timing with warmup runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return Measurement(label, statistics.median(samples), repeats, samples)


def time_query(db: Database, sql: str, repeats: int = 3,
               warmup: int = 1, label: Optional[str] = None) -> Measurement:
    return time_callable(label or sql.strip().splitlines()[0],
                         lambda: db.execute(sql), repeats, warmup)


def time_fresh(label: str, setup: Callable[[], object],
               run: Callable[[object], object],
               repeats: int = 3, warmup: int = 1,
               teardown: Optional[Callable[[object], None]] = None
               ) -> Measurement:
    """Median-of-repeats timing where every sample runs against freshly
    built state: ``setup()`` constructs the state *outside* the timed
    window, ``run(state)`` is what gets timed, and ``teardown(state)``
    (also untimed) releases resources the state holds — worker pools,
    open files — before the next sample builds its own.

    Use this when the subject under measurement is cold-state execution
    (loop strategies, caches that warm inside one query) —
    :func:`time_callable` against a reused database would time warm
    state from the second sample on, while a single cold run records
    no spread at all."""
    def finish(state) -> None:
        if teardown is not None:
            teardown(state)

    for _ in range(warmup):
        state = setup()
        try:
            run(state)
        finally:
            finish(state)
    samples = []
    for _ in range(repeats):
        state = setup()
        try:
            start = time.perf_counter()
            run(state)
            samples.append(time.perf_counter() - start)
        finally:
            finish(state)
    return Measurement(label, statistics.median(samples), repeats, samples)


@dataclass
class Comparison:
    """One paper-figure data point: baseline vs optimized."""

    name: str
    baseline: Measurement
    optimized: Measurement

    @property
    def improvement_pct(self) -> float:
        """Percentage faster than baseline (paper's headline metric)."""
        if self.baseline.seconds == 0:
            return 0.0
        return 100.0 * (1.0 - self.optimized.seconds
                        / self.baseline.seconds)

    @property
    def speedup(self) -> float:
        if self.optimized.seconds == 0:
            return float("inf")
        return self.baseline.seconds / self.optimized.seconds


def _measurement_dict(measurement: Measurement) -> dict:
    return {
        "label": measurement.label,
        "seconds": measurement.seconds,
        "repeats": measurement.repeats,
        "stdev": measurement.stdev,
        "all_seconds": list(measurement.all_seconds),
    }


def _comparison_dict(comparison: Comparison) -> dict:
    return {
        "name": comparison.name,
        "baseline": _measurement_dict(comparison.baseline),
        "optimized": _measurement_dict(comparison.optimized),
        "speedup": comparison.speedup,
        "improvement_pct": comparison.improvement_pct,
    }


def write_bench_artifact(name: str,
                         comparisons: Iterable[Comparison] = (),
                         measurements: Iterable[Measurement] = (),
                         extra: Optional[dict] = None,
                         directory: str = ".") -> str:
    """Write ``BENCH_<name>.json`` (bench schema v1, see repro.obs.export)
    and return its path.  Benchmarks call this from their ``__main__``
    block so importing/collecting them leaves no files behind."""
    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": name,
        "created_unix": time.time(),
        "measurements": [_measurement_dict(m) for m in measurements],
        "comparisons": [_comparison_dict(c) for c in comparisons],
        "extra": dict(extra or {}),
    }
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path

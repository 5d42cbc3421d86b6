"""Metric definitions (the names ``BENCHMARK.json`` lists) and the
derivation of the per-layer numbers from spans, counters and slots.

Span times are per *statement* (one root span and everything under
it), divided by the host factor of the interval the statement ran in,
and reported as the median over the statements **in which the named
span occurred** — the last set-up's cold first operation and the traced
slots together.  On ``pr_full`` the front-end spans occur exactly once
(the cold compile; every later operation is a plan-cache text hit), on
``serve_mixed`` thousands of times.  A metric whose span never occurred
reads 0: the layer was not entered.

``*_ms`` metrics named "inclusive" below count a span with everything
under it (outermost occurrence only, so recursion is not counted
twice); all others are *self* time, the span minus its direct children.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from layers import FRONT_END, LAYERS
from probe import Span

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.22),
    ("op_cpu_ms", "ms", "lower", 0.18),
    ("peak_rss_mb", "MiB", "lower", 0.12),
]

# (name, unit, better).  Span-time metrics are listed with the span they
# read in SPAN_METRICS; the rest are filled in by run.py from counters,
# slots and set-up timings.
PER_LAYER = [
    ("sql.parse_ms", "ms", "lower"),
    ("sql.normalize_ms", "ms", "lower"),
    ("plan.build_ms", "ms", "lower"),
    ("plan.cache_text_hit_ratio", "ratio", "higher"),
    ("plan.cache_shape_hit_ratio", "ratio", "lower"),
    ("plan.cache_miss_ratio", "ratio", "lower"),
    ("rewrite.optimize_ms", "ms", "lower"),
    ("rewrite.delta_analysis_ms", "ms", "lower"),
    ("rewrite.common_results_ms", "ms", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("core.compile_self_ms", "ms", "lower"),
    ("verify.program_ms", "ms", "lower"),
    ("runtime.run_ms", "ms", "lower"),
    ("runtime.self_ms", "ms", "lower"),
    ("runtime.iter_ms", "ms", "lower"),
    ("runtime.iterations", "count", "lower"),
    ("runtime.delta_iterations", "count", "higher"),
    ("runtime.strategy_demotions", "count", "lower"),
    ("runtime.strategy_promotions", "count", "lower"),
    ("execution.plan_ms", "ms", "lower"),
    ("execution.join_ms", "ms", "lower"),
    ("execution.group_ms", "ms", "lower"),
    ("execution.encode_ms", "ms", "lower"),
    ("execution.scatter_ms", "ms", "lower"),
    ("execution.distinct_ms", "ms", "lower"),
    ("execution.sort_ms", "ms", "lower"),
    ("execution.kernel_cache_hit_ratio", "ratio", "higher"),
    ("execution.rows_joined", "count", "lower"),
    ("storage.load_rows_s", "s", "lower"),
    ("storage.load_rows_per_s", "1/s", "higher"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.snapshot_ms", "ms", "lower"),
    ("storage.segments_end", "count", "lower"),
    ("engine.execute_ms", "ms", "lower"),
    ("engine.insert_ms", "ms", "lower"),
    ("engine.update_ms", "ms", "lower"),
    ("engine.first_op_ms", "ms", "lower"),
    ("server.read_p50_ms", "ms", "lower"),
    ("server.write_p50_ms", "ms", "lower"),
    ("server.iter_p50_ms", "ms", "lower"),
    ("server.req_p99_ms", "ms", "lower"),
    ("server.req_per_s", "1/s", "higher"),
    ("server.queue_ms", "ms", "lower"),
    ("server.rejected", "count", "lower"),
    ("mpp.table_build_ms", "ms", "lower"),
    ("mpp.distribute_ms", "ms", "lower"),
    ("mpp.load_ms", "ms", "lower"),
    ("mpp.superstep_ms", "ms", "lower"),
    ("mpp.fetch_gather_ms", "ms", "lower"),
    ("mpp.coord_cpu_ms", "ms", "lower"),
    ("mpp.worker_cpu_max_ms", "ms", "lower"),
    ("mpp.worker_cpu_mean_ms", "ms", "lower"),
    ("mpp.rows_moved", "count", "lower"),
    ("mpp.bytes_moved", "count", "lower"),
    ("mpp.pool_vs_inline_ratio", "ratio", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("raw.op_p50_ms", "ms", "lower"),
    ("raw.op_p90_ms", "ms", "lower"),
    ("raw.op_cpu_ms", "ms", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("host.factor_p50", "ratio", "lower"),
    ("host.factor_spread", "ratio", "lower"),
    ("host.steal_ratio", "ratio", "lower"),
    ("probe.overhead_ratio", "ratio", "lower"),
    ("probe.span_coverage", "ratio", "higher"),
]

# metric -> (span name, inclusive?)
SPAN_METRICS = {
    "sql.parse_ms": ("sql.parse", False),
    "sql.normalize_ms": ("sql.normalize", False),
    "plan.build_ms": ("plan.build", True),
    "rewrite.optimize_ms": ("rewrite.optimize", False),
    "rewrite.delta_analysis_ms": ("rewrite.delta_analysis", False),
    "rewrite.common_results_ms": ("rewrite.common_results", False),
    "core.compile_ms": ("core.compile", True),
    "core.compile_self_ms": ("core.compile", False),
    "verify.program_ms": ("verify.program", True),
    "runtime.run_ms": ("runtime.run", True),
    "runtime.self_ms": ("runtime.run", False),
    "execution.plan_ms": ("execution.plan", True),
    "execution.join_ms": ("execution.join", False),
    "execution.group_ms": ("execution.group", False),
    "execution.encode_ms": ("execution.encode", False),
    "execution.scatter_ms": ("execution.scatter", False),
    "execution.distinct_ms": ("execution.distinct", False),
    "execution.sort_ms": ("execution.sort", False),
    "storage.append_ms": ("storage.append", True),
    "engine.execute_ms": ("engine.execute", True),
    "engine.insert_ms": ("engine.insert", True),
    "engine.update_ms": ("engine.update", True),
    "mpp.table_build_ms": ("mpp.table_build", True),
    "mpp.distribute_ms": ("mpp.distribute", True),
    "mpp.load_ms": ("mpp.load", True),
    "mpp.superstep_ms": ("mpp.superstep", True),
    "mpp.fetch_gather_ms": ("mpp.fetch_gather", True),
}


@dataclass(frozen=True)
class Interval:
    """A traced stretch of the run and the host's wall factor in it."""

    start: float
    end: float
    factor: float
    is_slot: bool


@dataclass
class Statement:
    root: Span
    factor: float
    is_slot: bool
    self_by_name: dict
    inclusive_by_name: dict


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation beyond the sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def statements(spans: list[Span], intervals: list[Interval]
               ) -> list[Statement]:
    """Group spans by root and keep the roots that started inside a
    traced interval.  ``spans`` is ``Probe.spans()``: a span's id is its
    index."""
    starts = [interval.start for interval in intervals]
    kept: dict[int, Statement] = {}
    for span in spans:
        if span.parent >= 0:
            continue
        at = bisect_right(starts, span.start) - 1
        if at >= 0 and span.start <= intervals[at].end:
            kept[span.id] = Statement(span, intervals[at].factor,
                                      intervals[at].is_slot,
                                      defaultdict(float), defaultdict(float))
    for span in spans:
        statement = kept.get(span.statement)
        if statement is None:
            continue
        statement.self_by_name[span.name] += span.self_time
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            statement.inclusive_by_name[span.name] += span.duration
    return list(kept.values())


def _factors(found: list[Statement]) -> dict[int, float]:
    """statement (root span) id -> host factor of its interval."""
    return {statement.root.id: statement.factor for statement in found}


def span_metrics(found: list[Statement]) -> dict[str, float]:
    """Every SPAN_METRICS entry: median normalised ms per statement in
    which the span occurred."""
    out = {}
    for metric, (name, inclusive) in SPAN_METRICS.items():
        values = []
        for statement in found:
            table = statement.inclusive_by_name if inclusive \
                else statement.self_by_name
            if name in table:
                values.append(table[name] * 1000.0 / statement.factor)
        out[metric] = median(values)
    return out


def snapshot_metric(spans: list[Span], found: list[Statement]) -> float:
    """``storage.snapshot_ms``: the first read after appends — median
    normalised duration of the ``SegmentedTable.snapshot`` calls that
    found more than one segment pending (the others return at once)."""
    factor = _factors(found)
    return median(span.duration * 1000.0 / factor[span.statement]
                  for span in spans
                  if span.name == "storage.snapshot" and span.attr
                  and span.attr > 1 and span.statement in factor)


def queue_metric(spans: list[Span], found: list[Statement]) -> float:
    """``server.queue_ms``: client-observed latency minus the
    ``Session.execute`` span of the same request, median, normalised.
    Requests of one session run in submission order, so the n-th
    ``server.request`` of a session is the n-th ``engine.execute``."""
    kept = _factors(found)
    requests, executes = defaultdict(list), defaultdict(list)
    for span in spans:
        if span.parent < 0 and span.name == "server.request":
            requests[span.attr].append(span)
        elif span.parent < 0 and span.name == "engine.execute":
            executes[span.attr].append(span)
    waits = []
    for session, sent in requests.items():
        for request, execute in zip(sorted(sent, key=lambda s: s.start),
                                    sorted(executes[session],
                                           key=lambda s: s.start)):
            if request.id in kept:
                waits.append((request.duration - execute.duration)
                             * 1000.0 / kept[request.id])
    return median(waits)


def iteration_metrics(spans: list[Span], found: list[Statement]
                      ) -> dict[str, float]:
    """``runtime.iterations`` / ``runtime.iter_ms``: over the program
    runs that looped, the median iteration count
    (``ProgramRunner.loop_iteration_counts()``) and the median
    normalised run time per iteration."""
    factor = _factors(found)
    looped = [span for span in spans if span.name == "runtime.run"
              and span.attr and span.statement in factor]
    return {
        "runtime.iterations": median(span.attr for span in looped),
        "runtime.iter_ms": median(
            span.duration * 1000.0 / span.attr / factor[span.statement]
            for span in looped),
    }


def layer_shares(found: list[Statement], root_name: str
                 ) -> dict[str, float]:
    """Share of the blocking path each layer's self time takes, over the
    operations of the traced slots (set-up excluded).

    A served request is two statements — the client's ``server.request``
    and, on a worker thread, the session's ``engine.execute`` — so there
    the ``server`` share is what the request took beyond its execute
    span: queueing, dispatch and the hand-over between threads."""
    by_layer: dict[str, float] = defaultdict(float)
    total = executed = 0.0
    for statement in found:
        if not statement.is_slot:
            continue
        root = statement.root
        if root.name == root_name:
            total += root.duration
        if root.name == "server.request":
            continue
        if root.name == "engine.execute":
            executed += root.duration
        for name, seconds in statement.self_by_name.items():
            by_layer[name.split(".", 1)[0]] += seconds
    if not total:
        return {}
    if root_name == "server.request":
        by_layer["server"] = total - executed
    shares = {layer: by_layer.get(layer, 0.0) / total for layer in LAYERS}
    shares["front_end"] = sum(shares[layer] for layer in FRONT_END)
    return shares


def coverage(found: list[Statement], root_name: str,
             observed_seconds: float) -> float:
    """Root-span time over caller-observed operation time."""
    covered = sum(statement.root.duration for statement in found
                  if statement.is_slot and statement.root.name == root_name)
    return covered / observed_seconds if observed_seconds else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def text_hit_ratio(found: list[Statement]) -> float:
    """``plan.cache_text_hit_ratio``: of the queries in the traced slots
    (statements that ran a program and are not DML), the share that
    never parsed —
    the plan cache's counters do not tell a text hit from a hit on the
    normalised form, the absence of a ``sql.parse`` span does."""
    queries = [s.self_by_name for s in found
               if s.is_slot and "runtime.run" in s.self_by_name
               and "engine.insert" not in s.self_by_name]
    return ratio(sum("sql.parse" not in names for names in queries),
                 len(queries))


def counter_metrics(before: dict, after: dict, operations: int
                    ) -> dict[str, float]:
    """Counts from ``ExecutionStats`` deltas over the window."""
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    lookups = delta.get("plan_cache_hits", 0) \
        + delta.get("plan_cache_misses", 0)
    kernel_hits = delta.get("kernel_cache_hits", 0) \
        + delta.get("join_index_hits", 0)
    kernel_lookups = kernel_hits + delta.get("kernel_cache_misses", 0) \
        + delta.get("join_index_misses", 0)
    per_op = (lambda key: ratio(delta.get(key, 0), operations))
    return {
        "plan.cache_shape_hit_ratio": ratio(
            delta.get("plan_cache_shape_hits", 0), lookups),
        "plan.cache_miss_ratio": ratio(
            delta.get("plan_cache_misses", 0), lookups),
        "execution.kernel_cache_hit_ratio": ratio(kernel_hits,
                                                  kernel_lookups),
        "execution.rows_joined": per_op("rows_joined"),
        "runtime.delta_iterations": per_op("delta_iterations"),
        "runtime.strategy_demotions": per_op("strategy_demotions"),
        "runtime.strategy_promotions": per_op("strategy_promotions"),
    }

"""Observability overhead budget.

Tracing is opt-in; when it *is* on, span bookkeeping plus profile
aggregation must stay a small fixed fraction of the untraced
(NULL_TRACER) runtime on an execution-dominated workload — otherwise
EXPLAIN ANALYZE stops being usable on real queries.  Measured locally
the ratio sits near 1.10 (see EXPERIMENTS.md); the budget is 1.35 to
absorb CI timing noise while still catching accidental per-row or
per-kernel span emission (which blows the ratio past 2x immediately).
"""

from __future__ import annotations

import json
import statistics
import time

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.execution import SessionOptions
from repro.obs.profile import aggregate_profile
from repro.types import SqlType
from repro.workloads import pagerank_query

EDGES = generate_edges(dblp_like(nodes=500, seed=21))
SQL = pagerank_query(iterations=10)  # joins dominate; spans are O(steps)
OVERHEAD_BUDGET = 1.35
REPEATS = 7


def build_db(tracing: bool) -> Database:
    db = Database(SessionOptions(enable_tracing=tracing,
                                 enable_delta_iteration=True))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", EDGES)
    return db


def run_once(tracing: bool) -> float:
    """One timed sample on fresh state; the traced variant pays for the
    full pipeline users actually run: spans + export + aggregation."""
    db = build_db(tracing)
    start = time.perf_counter()
    db.execute(SQL)
    if tracing:
        aggregate_profile(json.loads(db.trace_json()))
    return time.perf_counter() - start


def test_tracing_and_profiling_within_budget():
    # Pairs of back-to-back runs, alternating which side goes first, so
    # a neighbour's burst of CPU lands inside one pair and on both sides
    # of it; the median of the per-pair ratios ignores the pairs it hit.
    run_once(False), run_once(True)  # warmup
    ratios, untraced, traced = [], [], []
    for pair in range(REPEATS):
        if pair % 2:
            traced.append(run_once(True))
            untraced.append(run_once(False))
        else:
            untraced.append(run_once(False))
            traced.append(run_once(True))
        ratios.append(traced[-1] / untraced[-1])
    ratio = statistics.median(ratios)
    assert ratio <= OVERHEAD_BUDGET, (
        f"tracing+profiling costs {ratio:.2f}x the untraced run "
        f"(budget {OVERHEAD_BUDGET}x, median of {REPEATS} pair ratios "
        f"{sorted(round(r, 2) for r in ratios)}): untraced median "
        f"{statistics.median(untraced) * 1000:.2f}ms, traced "
        f"{statistics.median(traced) * 1000:.2f}ms")


def test_untraced_run_records_no_trace():
    db = build_db(tracing=False)
    db.execute(SQL)
    assert db.last_trace() is None

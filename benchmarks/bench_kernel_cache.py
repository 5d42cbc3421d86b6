"""Kernel cache — iteration-aware execution caching (DESIGN.md).

Not a paper figure: this measures the engine-side caching layer that the
paper's one-plan argument enables.  Because an iterative CTE runs inside
a single plan, loop-invariant state (join build-side indexes, the UNION
DISTINCT seen-row set) survives across iterations and can be reused
instead of recomputed.  Columns computed from the CTE table are new on
every trip and are never cached.

Two multi-iteration workloads, cache on vs. off, identical results
asserted bit-for-bit:

* **UNION DISTINCT closure** — transitive closure on a random sparse
  digraph.  Each iteration re-encoded ``result ++ candidate`` from
  scratch (O(total result) per iteration); the incremental seen-codes
  index makes it O(delta).  Expected: >= 2x end to end.
* **PageRank, 25 iterations** — dominated by per-iteration aggregation
  over the working table, which changes every trip; only the static
  edges join benefits.  Expected: modest (~1.1x) but never a
  regression.

Run directly for the JSON summary:

    PYTHONPATH=src python benchmarks/bench_kernel_cache.py
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from repro import Database
from repro.harness import (
    Comparison,
    print_figure,
    time_fresh,
    write_bench_artifact,
)
from repro.types import SqlType
from repro.workloads import pagerank_query

CLOSURE_SQL = """
WITH RECURSIVE reach (a, b) AS (
  SELECT a, b FROM edge
  UNION
  SELECT reach.a, edge.b FROM reach JOIN edge ON reach.b = edge.a
) SELECT a, b FROM reach"""

PAGERANK_ITERATIONS = 25
PAGERANK_SQL = pagerank_query(iterations=PAGERANK_ITERATIONS,
                              coalesced=True)


def closure_graph(num_nodes=2200, num_edges=6600, seed=7):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(0, num_nodes, size=2)
        edges.add((int(a), int(b)))
    return sorted(edges)


def pagerank_graph(num_nodes=20000, num_edges=120000, seed=11):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(0, num_nodes, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    out_degree = Counter(a for a, _ in edges)
    return sorted((a, b, 1.0 / out_degree[a]) for a, b in edges)


def _closure_db(edges, cache_on):
    db = Database()
    db.set_option("enable_kernel_cache", cache_on)
    db.create_table("edge", [("a", SqlType.INTEGER),
                             ("b", SqlType.INTEGER)])
    db.load_rows("edge", edges)
    return db


def _pagerank_db(edges, cache_on):
    db = Database()
    db.set_option("enable_kernel_cache", cache_on)
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


def tables_bit_identical(left, right) -> bool:
    if left.num_rows != right.num_rows:
        return False
    return all(
        (lc.data == rc.data).all() and (lc.mask == rc.mask).all()
        for lc, rc in zip(left.columns, right.columns))


def timed_pair(name, make_db, sql, edges,
               repeats=3, warmup=1) -> tuple[Comparison, bool]:
    """Cache-off (baseline) vs cache-on (optimized), every sample on a
    fresh database: the kernel cache persists across statements by
    design, so the repeats rebuild the engine rather than re-running a
    warm cache — each sample is one cold query end to end."""
    results = {}
    measurements = {}
    for cache_on in (False, True):
        captured = {}
        measurements[cache_on] = time_fresh(
            f"{name}/cache-{'on' if cache_on else 'off'}",
            lambda cache_on=cache_on: make_db(edges, cache_on),
            lambda db: captured.__setitem__("table", db.execute(sql).table),
            repeats=repeats, warmup=warmup)
        results[cache_on] = captured["table"]
    identical = tables_bit_identical(results[True], results[False])
    comparison = Comparison(name, measurements[False],
                            measurements[True])
    return comparison, identical


def run_benchmark(artifact_dir=None) -> dict:
    closure, closure_identical = timed_pair(
        "UNION DISTINCT closure", _closure_db, CLOSURE_SQL,
        closure_graph())
    pagerank, pagerank_identical = timed_pair(
        f"PageRank x{PAGERANK_ITERATIONS}", _pagerank_db, PAGERANK_SQL,
        pagerank_graph())
    print_figure(
        "Kernel cache — iteration-aware execution caching",
        [closure, pagerank],
        "loop-invariant reuse: >= 2x on UNION DISTINCT fixed points, "
        "no regression on aggregation-bound PageRank")
    summary = {
        "benchmark": "kernel_cache",
        "workloads": [
            {
                "name": comparison.name,
                "cache_off_seconds": comparison.baseline.seconds,
                "cache_on_seconds": comparison.optimized.seconds,
                "speedup": comparison.speedup,
                "bit_identical": identical,
            }
            for comparison, identical in [
                (closure, closure_identical),
                (pagerank, pagerank_identical),
            ]
        ],
    }
    print(json.dumps(summary, indent=2))
    if artifact_dir is not None:
        path = write_bench_artifact(
            "kernel_cache", comparisons=[closure, pagerank],
            extra={"workloads": summary["workloads"]},
            directory=artifact_dir)
        print(f"wrote {path}")
    return summary


def test_kernel_cache_report():
    summary = run_benchmark()
    closure, pagerank = summary["workloads"]
    assert closure["bit_identical"], (
        "caching changed UNION DISTINCT results")
    assert pagerank["bit_identical"], "caching changed PageRank results"
    assert closure["speedup"] >= 2.0, (
        f"UNION DISTINCT closure speedup {closure['speedup']:.2f}x "
        "below the 2x floor")
    assert pagerank["speedup"] >= 0.8, (
        f"PageRank regressed under caching: {pagerank['speedup']:.2f}x")


def test_kernel_cache_counters_warm_loop():
    """The mechanism: after the loop warms up, every iteration hits."""
    db = _closure_db(closure_graph(num_nodes=400, num_edges=1200), True)
    db.execute(CLOSURE_SQL)
    assert db.stats.join_index_hits > db.stats.join_index_misses
    assert db.stats.merge_index_rebuilds == 1
    assert db.stats.merge_index_hits >= db.stats.join_index_hits - 2


if __name__ == "__main__":
    run_benchmark(artifact_dir=".")

"""Tier-1 perf smoke: a tiny iterative workload must finish fast and the
kernel cache must never make it slower than a generous multiple of the
uncached run.

This is a guard against accidental complexity regressions in the loop
hot path (the full measurement is the ``kernel_cache`` arm of
benchmarks/figures.py, which is not part of tier-1); the thresholds are
deliberately loose so CI noise cannot flake it.
"""

import time

import numpy as np

from repro import Database
from repro.types import SqlType

BUDGET_SECONDS = 10.0

CLOSURE_COUNT = """
WITH RECURSIVE reach (a, b) AS (
  SELECT a, b FROM edge
  UNION
  SELECT reach.a, edge.b FROM reach JOIN edge ON reach.b = edge.a
) SELECT COUNT(*) FROM reach"""


def _edges(num_nodes=300, num_edges=900, seed=17):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b))
             for a, b in rng.integers(0, num_nodes, size=(num_edges * 2, 2))}
    return sorted(edges)[:num_edges]


def _run(cache_on, edges):
    db = Database()
    db.set_option("enable_kernel_cache", cache_on)
    db.create_table("edge", [("a", SqlType.INTEGER),
                             ("b", SqlType.INTEGER)])
    db.load_rows("edge", edges)
    started = time.perf_counter()
    count = db.execute(CLOSURE_COUNT).scalar()
    return count, time.perf_counter() - started


def test_iterative_closure_smoke():
    edges = _edges()
    count_on, seconds_on = _run(True, edges)
    count_off, seconds_off = _run(False, edges)
    assert count_on == count_off
    assert seconds_on < BUDGET_SECONDS, (
        f"cache-on closure took {seconds_on:.1f}s (budget "
        f"{BUDGET_SECONDS:.0f}s): loop hot path regressed")
    assert seconds_off < BUDGET_SECONDS, (
        f"cache-off closure took {seconds_off:.1f}s (budget "
        f"{BUDGET_SECONDS:.0f}s): loop hot path regressed")
    # Loose ratio guard: caching must not be a large pessimisation.
    assert seconds_on < 3.0 * seconds_off + 0.5

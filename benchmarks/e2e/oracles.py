"""Vectorised NumPy evaluations of the queries' own recurrences.

These are the correctness references every run checks its outputs
against, outside the clocks.  They mirror ``reference_pagerank`` and
``reference_sssp`` of ``repro.workloads`` (dict-of-lists loops, too slow
for the benchmark's graph sizes) and are tested against them at small
size in ``test_smoke.py``.  They deliberately share no code with the
engine: node ids index plain arrays, joins are fancy indexing.
"""

from __future__ import annotations

import numpy as np

DAMPING = 0.85
BASE_DELTA = 0.15
INFINITY = 9999999.0
REL_TOL = 1e-9


def pagerank(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
             nodes: int, iterations: int) -> np.ndarray:
    """Rank per node id after ``iterations`` rounds of the paper's Fig. 2
    recurrence (every node must have an incoming edge, as the generated
    graphs guarantee)."""
    rank = np.zeros(nodes)
    delta = np.full(nodes, BASE_DELTA)
    for _ in range(iterations):
        rank = rank + delta
        delta = DAMPING * np.bincount(dst, weights=delta[src] * weight,
                                      minlength=nodes)
    return rank


def sssp(src: np.ndarray, dst: np.ndarray, weight: np.ndarray, nodes: int,
         source: int, iterations: int,
         available: np.ndarray | None = None) -> np.ndarray:
    """Distance per node id after ``iterations`` rounds of the Fig. 7
    recurrence: ``distance`` lags ``delta`` by one round, and a node
    with no reached (and, with ``available``, no available) incoming
    edge keeps its old values — the query's WHERE clause."""
    distance = np.full(nodes, INFINITY)
    delta = np.full(nodes, INFINITY)
    delta[source] = 0.0
    for _ in range(iterations):
        live = delta[src] != INFINITY
        if available is not None:
            live &= available[dst]
        targets = dst[live]
        best = np.full(nodes, np.inf)
        np.minimum.at(best, targets, delta[src[live]] + weight[live])
        touched = np.zeros(nodes, dtype=np.bool_)
        touched[targets] = True
        distance = np.where(touched, np.minimum(distance, delta), distance)
        delta = np.where(touched, best, delta)
    return distance


def close(actual, expected) -> bool:
    """Whole-array agreement to the benchmark's relative tolerance."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=REL_TOL, atol=0.0))


def by_node(node_column: np.ndarray, value_column: np.ndarray,
            nodes: int) -> np.ndarray | None:
    """Re-index a (node, value) result by node id; ``None`` unless every
    node appears exactly once."""
    node_column = np.asarray(node_column)
    if len(node_column) != nodes or node_column.min(initial=0) < 0 \
            or node_column.max(initial=0) >= nodes:
        return None
    out = np.full(nodes, np.nan)
    out[node_column] = value_column
    return None if np.isnan(out).any() else out

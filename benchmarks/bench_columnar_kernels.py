"""Vectorized columnar kernels + fused delta pass.

Not a paper figure: this measures the execution-core work described in
DESIGN.md's "Columnar batches" section — the vectorized kernel suite
(encode/join/group/scatter) and the fused semi-naive delta step (gate,
partition, recompute, apply and capture as one batched columnar pass).

One workload, results asserted bit-identical (mask-aware):

* **SSSP on a DAG, fixed 120 iterations** — the convergence profile
  that rewards the fused delta pass hardest: the wave dies out after
  the longest path, after which every remaining iteration is a single
  O(1) fused-step dispatch instead of a full columnar recomputation.
  Expected: >= 5x end to end, every delta iteration through the fused
  step.

Run directly for the JSON summary and the BENCH artifact:

    PYTHONPATH=src python benchmarks/bench_columnar_kernels.py
"""

from __future__ import annotations

import json

import numpy as np

from repro import Database
from repro.harness import Comparison, print_figure, time_fresh, \
    write_bench_artifact
from repro.types import SqlType
from repro.workloads import sssp_query

SSSP_ITERATIONS = 120


def dag_graph(num_nodes=3000, num_edges=12000, seed=5):
    """Random DAG (edges point to higher ids): SSSP's delta wave dies."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(1, num_nodes + 1, size=2)
        if a < b:
            edges.add((int(a), int(b)))
    return [(a, b, round(float(rng.uniform(0.1, 2.0)), 3))
            for a, b in sorted(edges)]


def _graph_db(edges, delta_on):
    db = Database()
    db.set_option("enable_delta_iteration", delta_on)
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


def tables_bit_identical(left, right) -> bool:
    """Row-for-row equality; masked (NULL) slots compare by mask only."""
    if left.num_rows != right.num_rows:
        return False
    for lc, rc in zip(left.columns, right.columns):
        if not (lc.mask == rc.mask).all():
            return False
        valid = ~lc.mask
        if not (lc.data[valid] == rc.data[valid]).all():
            return False
    return True


def fused_delta_case(repeats=3, warmup=1):
    edges = dag_graph()
    sql = sssp_query(source=1, iterations=SSSP_ITERATIONS)
    results, measurements = {}, {}
    fused_iterations = 0
    for delta_on in (False, True):
        captured = {}

        def run(db, captured=captured):
            captured["table"] = db.execute(sql).table
            captured["fused"] = db.stats.delta_iterations

        measurements[delta_on] = time_fresh(
            f"sssp-dag-x{SSSP_ITERATIONS}/"
            f"delta-{'on' if delta_on else 'off'}",
            lambda delta_on=delta_on: _graph_db(edges, delta_on),
            run, repeats=repeats, warmup=warmup)
        results[delta_on] = captured["table"]
        if delta_on:
            fused_iterations = captured["fused"]
    comparison = Comparison(f"SSSP DAG x{SSSP_ITERATIONS}",
                            measurements[False], measurements[True])
    return (comparison, tables_bit_identical(results[True], results[False]),
            fused_iterations)


def run_benchmark(artifact_dir=None) -> dict:
    delta_cmp, delta_identical, fused_iterations = fused_delta_case()
    print_figure(
        "Vectorized columnar kernels + fused delta pass",
        [delta_cmp],
        ">= 5x on convergent SSSP via the fused delta step")
    summary = {
        "benchmark": "columnar_kernels",
        "workloads": [
            {
                "name": delta_cmp.name,
                "baseline_seconds": delta_cmp.baseline.seconds,
                "optimized_seconds": delta_cmp.optimized.seconds,
                "speedup": delta_cmp.speedup,
                "bit_identical": delta_identical,
                "delta_iterations": fused_iterations,
            },
        ],
    }
    print(json.dumps(summary, indent=2))
    if artifact_dir is not None:
        path = write_bench_artifact(
            "columnar_kernels",
            comparisons=[delta_cmp],
            extra={"workloads": summary["workloads"]},
            directory=artifact_dir)
        print(f"wrote {path}")
    return summary


def test_columnar_kernels_report():
    (sssp,) = run_benchmark()["workloads"]
    assert sssp["bit_identical"], "fused delta changed SSSP results"
    assert sssp["delta_iterations"] >= SSSP_ITERATIONS - 1, (
        "not every iteration after the first took the delta path")
    assert sssp["speedup"] >= 5.0, (
        f"fused-delta speedup {sssp['speedup']:.2f}x below the 5x floor")


if __name__ == "__main__":
    run_benchmark(artifact_dir=".")

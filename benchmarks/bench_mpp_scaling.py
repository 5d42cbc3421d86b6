"""MPP scaling bench — real shared-nothing execution vs the inline
simulation (no paper figure; the substrate behind §III's cluster model).

Distributed PageRank and SSSP against 1/2/4 resident workers
(:class:`repro.mpp.WorkerPool`: partitions owned by worker processes,
columnar batches over pipes, compute overlapping motion),
with the inline simulation of the same superstep program as baseline.

Three contracts are asserted, not just reported:

* **bit-identical results** — the pool substrate returns exactly the
  inline ranks/distances (same kernels, same piece-assembly order), and
  the measured motion counters match byte for byte;
* **trace parity** — a traced pool run produces the same span tree
  shape as a traced inline run;
* **dispatch at parity** — on a single-CPU host (the CI container) the
  persistent pool cannot win, so the bench instead asserts the
  round-trip overhead stays within ``OVERHEAD_BUDGET`` (1.35x) of
  inline at 1 and 2 workers.  With real cores the 4-worker point is
  where scaling shows; either way the curve lands in the artifact.

Writes ``BENCH_mpp_scaling.json`` via the shared bench-artifact helper.
"""

from __future__ import annotations

import json
import os

from repro.datasets import dblp_like, generate_edges
from repro.harness import time_callable, write_bench_artifact
from repro.mpp import (Cluster, WorkerPool, distributed_pagerank,
                       distributed_sssp)
from repro.obs import Tracer, build_trace

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
NODES = max(400, int(8000 * SCALE))
WORKER_COUNTS = (1, 2, 4)
PR_ITERATIONS = 8
REPEATS = 5
# Single-CPU dispatch budget: pool-vs-inline median ratio at 1 and 2
# workers (the CI smoke shape).  4 workers on one core oversubscribes
# and is reported, not gated.
OVERHEAD_BUDGET = 1.35
BUDGETED_WORKERS = (1, 2)

EDGES = generate_edges(dblp_like(nodes=NODES, seed=5))

WORKLOADS = {
    "pagerank": {
        "run": lambda w, pool=None, tracer=None: distributed_pagerank(
            Cluster(w), EDGES, iterations=PR_ITERATIONS, pool=pool,
            tracer=tracer),
        "payload": lambda result: result.ranks,
    },
    "sssp": {
        "run": lambda w, pool=None, tracer=None: distributed_sssp(
            Cluster(w), EDGES, source=1, pool=pool, tracer=tracer),
        "payload": lambda result: result.distances,
    },
}


def _trace_shape(span, depth=0):
    rows = [(depth, span.name, span.kind)]
    for child in span.children:
        rows.extend(_trace_shape(child, depth + 1))
    return rows


def bench_workload(name: str, workload: dict):
    """Time inline vs pool at every worker count; returns (curve rows,
    measurements)."""
    rows, measurements = [], []
    for workers in WORKER_COUNTS:
        inline_result = workload["run"](workers)
        inline_time = time_callable(
            f"{name}/inline/{workers}w",
            lambda workers=workers: workload["run"](workers),
            repeats=REPEATS, warmup=1)

        with WorkerPool(workers) as pool:
            pool_result = workload["run"](workers, pool=pool)
            pool_time = time_callable(
                f"{name}/pool/{workers}w",
                lambda workers=workers, pool=pool: workload["run"](
                    workers, pool=pool),
                repeats=REPEATS, warmup=1)

        # The core contract: the real substrate is bit-identical to the
        # simulation — results AND the measured motion bill.
        assert workload["payload"](pool_result) \
            == workload["payload"](inline_result), (
                f"{name} @ {workers}w: pool results diverge from inline")
        assert pool_result.bytes_moved == inline_result.bytes_moved, (
            f"{name} @ {workers}w: motion accounting diverges")
        assert pool_result.rows_moved == inline_result.rows_moved

        ratio = pool_time.seconds / inline_time.seconds
        rows.append({
            "workers": workers,
            "inline_seconds": inline_time.seconds,
            "pool_seconds": pool_time.seconds,
            "ratio": ratio,
            "rows_moved": pool_result.rows_moved,
            "bytes_moved": pool_result.bytes_moved,
            "iterations": pool_result.iterations,
        })
        measurements.extend([inline_time, pool_time])
        print(f"{name:>9} {workers}w: inline "
              f"{inline_time.seconds * 1000:7.1f}ms  pool "
              f"{pool_time.seconds * 1000:7.1f}ms  ratio {ratio:.2f}  "
              f"({pool_result.rows_moved} rows moved)")
    return rows, measurements


def check_trace_parity() -> int:
    """A traced 2-worker pool run must produce the inline span tree."""
    def traced(pool):
        tracer = Tracer("trace")
        result = WORKLOADS["pagerank"]["run"](2, pool=pool,
                                              tracer=tracer)
        return _trace_shape(
            build_trace(tracer, loops=[result.telemetry]).root)

    inline_shape = traced(None)
    with WorkerPool(2) as pool:
        pool_shape = traced(pool)
    assert pool_shape == inline_shape, \
        "pool trace shape diverges from inline"
    return len(inline_shape)


def run_benchmark(artifact_dir=None) -> dict:
    curves, measurements = {}, []
    for name, workload in WORKLOADS.items():
        rows, timed = bench_workload(name, workload)
        curves[name] = rows
        measurements.extend(timed)

    spans = check_trace_parity()
    print(f"trace parity: ok ({spans} spans, identical shape)")

    cpus = os.cpu_count() or 1
    budget_rows = [row for rows in curves.values() for row in rows
                   if row["workers"] in BUDGETED_WORKERS]
    if cpus == 1:
        for row in budget_rows:
            assert row["ratio"] <= OVERHEAD_BUDGET, (
                f"dispatch overhead {row['ratio']:.2f}x exceeds the "
                f"{OVERHEAD_BUDGET}x single-CPU budget at "
                f"{row['workers']} workers")
        print(f"single-CPU dispatch budget: ok (worst "
              f"{max(r['ratio'] for r in budget_rows):.2f}x "
              f"<= {OVERHEAD_BUDGET}x)")

    summary = {
        "benchmark": "mpp_scaling",
        "nodes": NODES,
        "edges": len(EDGES),
        "cpus": cpus,
        "worker_counts": list(WORKER_COUNTS),
        "overhead_budget": OVERHEAD_BUDGET,
        "bit_identical": True,
        "trace_spans": spans,
        "curves": curves,
    }
    print(json.dumps(summary, indent=2))
    if artifact_dir is not None:
        path = write_bench_artifact("mpp_scaling",
                                    measurements=measurements,
                                    extra=summary,
                                    directory=artifact_dir)
        print(f"wrote {path}")
    return summary


def test_mpp_scaling_report():
    summary = run_benchmark()
    assert summary["bit_identical"]
    for rows in summary["curves"].values():
        assert [row["workers"] for row in rows] == list(WORKER_COUNTS)


if __name__ == "__main__":
    run_benchmark(artifact_dir=".")

"""Tier-1 observability smoke: a traced iterative query must produce
schema-valid trace JSON, and the benchmark harness must write a
parseable BENCH_*.json artifact.

Fast by construction (tiny graph, few iterations) so the guard can run
on every change alongside the bench smoke.
"""

import json
import os

import pytest

from repro import Database
from repro.execution import SessionOptions
from repro.harness import Comparison, Measurement, write_bench_artifact
from repro.obs import validate_bench_dict, validate_trace_dict
from repro.types import SqlType
from repro.workloads import pagerank_query
from tests.conftest import SMALL_EDGES


def test_traced_iterative_query_emits_valid_trace():
    db = Database(SessionOptions(enable_tracing=True))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", SMALL_EDGES)
    db.execute(pagerank_query(iterations=5, coalesced=True))

    payload = json.loads(db.trace_json())
    validate_trace_dict(payload)
    (loop,) = payload["loops"]
    assert loop["kind"] == "iterative"
    assert len(loop["iterations"]) == 5
    assert payload["root"]["seconds"] >= 0.0


def test_bench_artifact_is_parseable(tmp_path):
    comparison = Comparison(
        "smoke", Measurement("baseline", 0.2, 1, [0.2]),
        Measurement("optimized", 0.1, 1, [0.1]))
    path = write_bench_artifact("smoke", comparisons=[comparison],
                                extra={"origin": "obs_smoke"},
                                directory=str(tmp_path))
    assert os.path.basename(path) == "BENCH_smoke.json"
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_bench_dict(payload)
    assert payload["benchmark"] == "smoke"
    assert payload["comparisons"][0]["improvement_pct"] == pytest.approx(50.0)

"""Tier-1 observability smoke: a traced iterative query must produce
schema-valid trace JSON, and the checked-in ``FIGURES.json`` artifact
must parse with every median, quartile and speedup agreeing with its
samples.

Fast by construction (tiny graph, few iterations) so the guard can run
on every change alongside the bench smoke.
"""

import json
import statistics
from pathlib import Path

import pytest

from repro import Database
from repro.execution import SessionOptions
from repro.obs import validate_trace_dict
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



def test_bench_artifact_is_parseable():
    path = Path(__file__).resolve().parent.parent / "FIGURES.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["arms"]
    for name, arm in document["arms"].items():
        assert arm["cases"], name
        assert all(arm["checks"].values()), name
        assert all(f["verdict"] != "fail" for f in arm["floors"]), name
        for case in arm["cases"]:
            assert list(case["sides"]) == arm["sides"]
            for side in case["sides"].values():
                assert [side["q1"], side["median"], side["q3"]] == \
                    statistics.quantiles(side["samples"], n=4,
                                         method="inclusive")
            if len(arm["sides"]) == 2:
                first, second = (side["median"]
                                 for side in case["sides"].values())
                assert case["speedup"] == pytest.approx(first / second)

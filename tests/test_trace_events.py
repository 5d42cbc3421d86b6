"""Structured trace events: decision events and their schema contract
(repro.obs.export validation over real engine traces).

The trace schema stays at version 1 — these events are additive — but
the validator enforces their attribute contract: ``decision`` events
have a closed name set with per-name required attributes on top of
{loop_id, reason}.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.execution import SessionOptions
from repro.obs.export import DECISION_EVENT_NAMES, validate_trace_dict
from repro.types import SqlType
from repro.workloads import pagerank_query, sssp_query

EDGES = generate_edges(dblp_like(nodes=200, seed=21))

# Iterations 1-3 rewrite every row (demotes after two near-full
# frontiers); from iteration 4 only every tenth node keeps moving, so
# the frontier collapses and the loop promotes back (same construction
# as tests/test_runtime.py).
PROMOTION_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node,
          CASE WHEN r.v < 3.0 OR MOD(r.node, 10) = 0
               THEN r.v + 1.0 ELSE r.v END
          FROM r
  UNTIL 12 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""


def traced_db(**options) -> Database:
    db = Database(SessionOptions(enable_tracing=True, **options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", EDGES)
    return db


def events_of_kind(span: dict, kind: str) -> list[dict]:
    found = [span] if span["kind"] == kind else []
    for child in span["children"]:
        found.extend(events_of_kind(child, kind))
    return found


class TestDecisionEvents:
    def _decisions(self, sql, **options) -> list[dict]:
        db = traced_db(**options)
        db.execute(sql)
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        return events_of_kind(payload["root"], "decision")

    def test_selection_event_names_strategy_and_reason(self):
        decisions = self._decisions(sssp_query(source=1, iterations=5),
                                    enable_delta_iteration=True)
        selections = [d for d in decisions
                      if d["name"] == "strategy_selection"]
        assert len(selections) == 1
        attrs = selections[0]["attributes"]
        assert attrs["strategy"] == "semi-naive-delta"
        assert attrs["reason"]
        assert attrs["loop_id"] == 0

    def test_demotion_event_carries_measured_vs_budget(self):
        decisions = self._decisions(pagerank_query(iterations=8),
                                    enable_delta_iteration=True)
        demotions = [d for d in decisions
                     if d["name"] == "strategy_demotion"]
        assert len(demotions) == 1
        attrs = demotions[0]["attributes"]
        assert attrs["from_strategy"] == "semi-naive-delta"
        assert attrs["frontier"] <= attrs["total"]
        assert attrs["frontier"] >= attrs["budget_frontier"]
        assert "delta bookkeeping" in attrs["reason"]

    def test_demotion_then_promotion_chain_in_document_order(self):
        decisions = self._decisions(PROMOTION_SQL,
                                    enable_delta_iteration=True)
        names = [d["name"] for d in decisions]
        assert names.index("strategy_selection") \
            < names.index("strategy_demotion") \
            < names.index("strategy_promotion")
        promotion = next(d for d in decisions
                         if d["name"] == "strategy_promotion")
        attrs = promotion["attributes"]
        assert attrs["to_strategy"] == "semi-naive-delta"
        assert attrs["frontier"] < attrs["budget_frontier"]

    def test_explain_analyze_emits_loop_estimate(self):
        db = traced_db(enable_delta_iteration=True)
        db.explain_analyze(sssp_query(source=1, iterations=5))
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        estimates = [d for d in events_of_kind(payload["root"], "decision")
                     if d["name"] == "loop_estimate"]
        assert len(estimates) == 1
        attrs = estimates[0]["attributes"]
        assert attrs["cte"] == "sssp"
        assert attrs["estimated_iterations"] == 5
        assert attrs["basis"]


class TestDecisionSchema:
    def _valid_payload(self) -> dict:
        db = traced_db(enable_delta_iteration=True)
        db.execute(sssp_query(source=1, iterations=3))
        return json.loads(db.trace_json())

    def test_unknown_decision_name_rejected(self):
        payload = self._valid_payload()
        decision = events_of_kind(payload["root"], "decision")[0]
        decision["name"] = "coin_flip"
        with pytest.raises(ValueError, match="unknown name"):
            validate_trace_dict(payload)

    def test_missing_common_attr_rejected(self):
        payload = self._valid_payload()
        decision = events_of_kind(payload["root"], "decision")[0]
        del decision["attributes"]["reason"]
        with pytest.raises(ValueError, match="reason"):
            validate_trace_dict(payload)

    def test_known_names_are_the_documented_four(self):
        assert DECISION_EVENT_NAMES == {
            "strategy_selection", "strategy_demotion",
            "strategy_promotion", "loop_estimate"}

"""Stable machine-readable run artifact: trace JSON.

One documented schema lives here, with a validator used by the tests.
It is versioned with a top-level integer ``schema_version``; any key
removal or type change bumps it.

**Trace schema** (``Database.trace_json()``, version 1)::

    {
      "schema_version": 1,
      "engine": "repro-dbspinner",
      "sql": str | null,
      "root": <span>,
      "loops": [
        {"loop_id": int, "cte": str,
         "kind": "iterative" | "fixpoint" | "mpp"
               | "middleware" | "procedure",
         "strategy": str | null,
         "iterations": [<iteration record>, ...]},
        ...
      ],
      "metrics": {str: int | float, ...}
    }

    <span> = {"name": str, "kind": str, "seconds": float,
              "attributes": {str: scalar}, "children": [<span>, ...]}

    <iteration record> = {"index", "seconds", "delta_rows",
                          "working_rows", "total_rows",
                          "kernel_cache_hits", "kernel_cache_misses",
                          "join_pair_reuses", "gather_reuses",
                          "grouping_reuses", "rows_moved",
                          "bytes_moved", "shuffles"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .telemetry import ITERATION_RECORD_KEYS, LoopTelemetry
from .trace import Span, Tracer

TRACE_SCHEMA_VERSION = 1
ENGINE_NAME = "repro-dbspinner"

_TRACE_KEYS = frozenset(
    {"schema_version", "engine", "sql", "root", "loops", "metrics"})
_SPAN_KEYS = frozenset(
    {"name", "kind", "seconds", "attributes", "children"})
_LOOP_KEYS = frozenset(
    {"loop_id", "cte", "kind", "strategy", "iterations"})
_LOOP_KINDS = frozenset(
    {"iterative", "fixpoint", "mpp", "middleware", "procedure"})

# ``decision`` events (zero-duration spans) carry a documented attribute
# contract on top of the open attribute map; the validator enforces
# presence so the decision timeline (printed by repro-profile and by
# EXPLAIN ANALYZE) can rely on the keys.  Their name set is closed —
# each name is one decision the engine can take, with its own required
# attributes: a loop's decisions name the loop, a plan-cache hit names
# the cache level it hit.
_LOOP_DECISION_ATTRS = frozenset({"loop_id", "cte", "reason"})
_DECISION_EVENT_ATTRS = {
    "strategy_selection": _LOOP_DECISION_ATTRS | {"strategy"},
    "strategy_demotion": _LOOP_DECISION_ATTRS | {
        "from_strategy", "to_strategy", "iteration", "frontier",
        "total", "budget_frontier"},
    "plan_cache_hit": frozenset({"level", "reason"}),
}
DECISION_EVENT_NAMES = frozenset(_DECISION_EVENT_ATTRS)


@dataclass
class Trace:
    """One traced statement: the span tree plus loop and metric views."""

    root: Span
    loops: list[LoopTelemetry] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    sql: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "engine": ENGINE_NAME,
            "sql": self.sql,
            "root": self.root.to_dict(),
            "loops": [telemetry.to_dict() for telemetry in self.loops],
            "metrics": dict(self.metrics),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def build_trace(tracer: Tracer, loops: Iterable[LoopTelemetry] = (),
                metrics: Optional[dict] = None,
                sql: Optional[str] = None) -> Trace:
    """Freeze a tracer into an exportable :class:`Trace` (closes any
    still-open spans, including the root)."""
    tracer.finish()
    return Trace(root=tracer.root, loops=list(loops),
                 metrics=dict(metrics or {}), sql=sql)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _fail(message: str) -> None:
    raise ValueError(f"trace schema violation: {message}")


def _validate_span(span, path: str) -> None:
    if not isinstance(span, dict):
        _fail(f"{path} is not an object")
    if set(span) != _SPAN_KEYS:
        _fail(f"{path} keys {sorted(span)} != {sorted(_SPAN_KEYS)}")
    if not isinstance(span["name"], str) or not isinstance(
            span["kind"], str):
        _fail(f"{path} name/kind must be strings")
    if not isinstance(span["seconds"], (int, float)):
        _fail(f"{path}.seconds is not a number")
    if not isinstance(span["attributes"], dict):
        _fail(f"{path}.attributes is not an object")
    for key, value in span["attributes"].items():
        if not isinstance(key, str):
            _fail(f"{path}.attributes has a non-string key")
        if value is not None and not isinstance(value,
                                                (bool, int, float, str)):
            _fail(f"{path}.attributes[{key!r}] is not a scalar")
    if span["kind"] == "decision":
        required = _DECISION_EVENT_ATTRS.get(span["name"])
        if required is None:
            _fail(f"{path} is a decision event with unknown name "
                  f"{span['name']!r} (known: "
                  f"{sorted(DECISION_EVENT_NAMES)})")
        missing = required - set(span["attributes"])
        if missing:
            _fail(f"{path} (decision event {span['name']!r}) is "
                  f"missing required attributes {sorted(missing)}")
    if not isinstance(span["children"], list):
        _fail(f"{path}.children is not a list")
    for index, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{index}]")


def _validate_loop(loop, path: str) -> None:
    if not isinstance(loop, dict):
        _fail(f"{path} is not an object")
    if set(loop) != _LOOP_KEYS:
        _fail(f"{path} keys {sorted(loop)} != {sorted(_LOOP_KEYS)}")
    if not isinstance(loop["loop_id"], int):
        _fail(f"{path}.loop_id is not an int")
    if not isinstance(loop["cte"], str):
        _fail(f"{path}.cte is not a string")
    if loop["kind"] not in _LOOP_KINDS:
        _fail(f"{path}.kind {loop['kind']!r} not in {sorted(_LOOP_KINDS)}")
    if loop["strategy"] is not None \
            and not isinstance(loop["strategy"], str):
        _fail(f"{path}.strategy is neither null nor a string")
    if not isinstance(loop["iterations"], list):
        _fail(f"{path}.iterations is not a list")
    for index, record in enumerate(loop["iterations"]):
        rpath = f"{path}.iterations[{index}]"
        if not isinstance(record, dict):
            _fail(f"{rpath} is not an object")
        if set(record) != ITERATION_RECORD_KEYS:
            _fail(f"{rpath} keys {sorted(record)} != "
                  f"{sorted(ITERATION_RECORD_KEYS)}")
        for key, value in record.items():
            if not isinstance(value, (int, float)):
                _fail(f"{rpath}[{key!r}] is not a number")
        if record["index"] != index + 1:
            _fail(f"{rpath}.index is {record['index']}, expected "
                  f"{index + 1} (records must be dense and 1-based)")


def validate_trace_dict(data) -> None:
    """Raise ``ValueError`` unless ``data`` matches the trace schema."""
    if not isinstance(data, dict):
        _fail("top level is not an object")
    if set(data) != _TRACE_KEYS:
        _fail(f"top-level keys {sorted(data)} != {sorted(_TRACE_KEYS)}")
    if data["schema_version"] != TRACE_SCHEMA_VERSION:
        _fail(f"schema_version {data['schema_version']!r} != "
              f"{TRACE_SCHEMA_VERSION}")
    if data["engine"] != ENGINE_NAME:
        _fail(f"engine {data['engine']!r} != {ENGINE_NAME!r}")
    if data["sql"] is not None and not isinstance(data["sql"], str):
        _fail("sql is neither null nor a string")
    _validate_span(data["root"], "root")
    if not isinstance(data["loops"], list):
        _fail("loops is not a list")
    for index, loop in enumerate(data["loops"]):
        _validate_loop(loop, f"loops[{index}]")
    if not isinstance(data["metrics"], dict):
        _fail("metrics is not an object")
    for key, value in data["metrics"].items():
        if not isinstance(key, str) or not isinstance(value, (int, float)):
            _fail(f"metrics[{key!r}] is not a numeric scalar")

"""Observability subsystem: span traces, loop telemetry, metrics, and
the stable JSON schemas (repro.obs + the engine/runner plumbing).

Golden-shape tests pin the trace JSON schema and the EXPLAIN ANALYZE
rendering for the three loop kinds (ITERATIVE, recursive fixpoint,
MPP-iterative), plus the instrumentation-hygiene guarantees: tracing off
by default, per-run stats snapshots, and the two kernel-cache overflow
fallbacks surfaced as counters.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import Database
from repro.errors import ReproError
from repro.execution import ExecutionContext, SessionOptions
from repro.execution.kernel_cache import KernelCache
from repro.mpp import Cluster, distributed_pagerank
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    build_trace,
    validate_trace_dict,
)
from repro.storage import Column
from repro.types import SqlType
from repro.workloads import pagerank_query
from tests.conftest import SMALL_EDGES

RECURSIVE_REACH = """
WITH RECURSIVE reach(n) AS (
  SELECT dst FROM edges WHERE src = 1
  UNION
  SELECT e.dst FROM edges e JOIN reach r ON e.src = r.n
)
SELECT count(*) FROM reach"""

ITERATIVE_COUNT = """
WITH ITERATIVE r (k, v) AS (
  SELECT 1, 1 ITERATE SELECT k, v + 1 FROM r UNTIL 5 ITERATIONS
) SELECT v FROM r"""


def traced_db(edges=SMALL_EDGES) -> Database:
    db = Database(SessionOptions(enable_tracing=True))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


class TestTraceGoldenShape:
    def test_iterative_trace_schema_and_phases(self):
        db = traced_db()
        db.execute(ITERATIVE_COUNT)
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        assert payload["sql"] == ITERATIVE_COUNT

        root = db.last_trace().root
        statement = root.find("statement", kind="query")
        assert statement is not None
        for phase in ("parse", "compile", "execute"):
            assert statement.find(phase, kind="phase") is not None, phase
        compile_span = statement.find("compile", kind="phase")
        assert compile_span.find("plan", kind="phase") is not None
        assert compile_span.find("rewrite", kind="phase") is not None

        (loop,) = payload["loops"]
        assert loop["kind"] == "iterative"
        assert loop["cte"] == "r"
        assert len(loop["iterations"]) == 5
        assert [r["index"] for r in loop["iterations"]] == [1, 2, 3, 4, 5]

    def test_recursive_trace_converges_to_zero_delta(self):
        db = traced_db()
        db.execute(RECURSIVE_REACH)
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        (loop,) = payload["loops"]
        assert loop["kind"] == "fixpoint"
        assert loop["cte"] == "reach"
        # The convergence curve: the final trip discovers nothing new.
        assert loop["iterations"][-1]["delta_rows"] == 0
        assert all(r["total_rows"] == 3 for r in loop["iterations"][-1:])

        loop_span = db.last_trace().root.find("loop:reach", kind="loop")
        assert loop_span is not None
        iteration_spans = [c for c in loop_span.children
                           if c.kind == "iteration"]
        assert len(iteration_spans) == len(loop["iterations"])
        # Step spans nest inside iterations.
        assert any(c.kind == "step"
                   for c in iteration_spans[0].children)

    def test_mpp_trace_carries_motion(self):
        tracer = Tracer()
        result = distributed_pagerank(Cluster(3), SMALL_EDGES,
                                      iterations=4, tracer=tracer)
        trace = build_trace(tracer, loops=[result.telemetry])
        payload = json.loads(trace.to_json())
        validate_trace_dict(payload)
        (loop,) = payload["loops"]
        assert loop["kind"] == "mpp"
        assert len(loop["iterations"]) == 4
        for record in loop["iterations"]:
            assert record["shuffles"] == 1
            assert record["rows_moved"] > 0
        assert trace.root.find("loop:pr_state", kind="loop") is not None
        assert "rows_moved" in result.report()

    def test_trace_json_round_trips(self):
        db = traced_db()
        db.execute("SELECT 1")
        assert json.loads(db.trace_json(indent=2))["engine"] \
            == "repro-dbspinner"
        assert db.last_trace().metrics["statements"] == 1


class TestTracingDisabledByDefault:
    def test_no_trace_without_opt_in(self, graph_db):
        graph_db.execute("SELECT count(*) FROM edges")
        assert graph_db.last_trace() is None
        with pytest.raises(ReproError):
            graph_db.trace_json()

    def test_context_defaults_to_null_tracer(self, graph_db):
        ctx = ExecutionContext(graph_db.catalog, graph_db.registry,
                               graph_db.options, graph_db.stats,
                               graph_db.kernel_cache)
        assert ctx.tracer is NULL_TRACER
        assert not ctx.tracer.enabled


class TestExplainAnalyze:
    def test_pagerank_25_iterations_breakdown(self, graph_db):
        report = graph_db.explain_analyze(
            pagerank_query(iterations=25, coalesced=True))
        assert "loop 0 (pagerank, iterative): 25 iterations" in report
        assert "delta_rows" in report and "cache_hits" in report
        rows = re.findall(r"^\s+(\d+)\s+\d+\.\d+\s+\d+", report,
                          flags=re.MULTILINE)
        assert len(rows) == 25
        # explain_analyze always records a trace, even with the session
        # option off.
        payload = json.loads(graph_db.trace_json())
        validate_trace_dict(payload)
        assert payload["loops"][0]["iterations"][0]["delta_rows"] > 0

    def test_recursive_breakdown_and_overflow_counters(self, graph_db):
        report = graph_db.explain_analyze(RECURSIVE_REACH)
        assert re.search(r"loop 0 \(reach, fixpoint\): \d+ iterations",
                         report)
        assert "join index:" in report and "overflows=0" in report
        assert "merge index:" in report

    def test_back_to_back_runs_do_not_double_count(self, graph_db):
        """Satellite: the runner snapshots stats per run(), so a second
        EXPLAIN ANALYZE reports only its own executions and deltas."""
        sql = RECURSIVE_REACH
        first = graph_db.explain_analyze(sql)
        second = graph_db.explain_analyze(sql)

        def executions(report):
            return re.findall(r"executions=(\d+)", report)

        assert executions(first) == executions(second)

        def merge_hits(report):
            return int(re.search(r"merge index: hits=(\d+)",
                                 report).group(1))

        # Cumulative counters would at least double on the second run.
        assert merge_hits(second) <= merge_hits(first) + 1


class TestRunnerSnapshotHygiene:
    def test_profiles_reset_between_runs(self, graph_db):
        from repro.core.rewrite import compile_statement
        from repro.runtime import ProgramRunner
        from repro.plan import PlanContext
        from repro.sql import parse

        program = compile_statement(parse(RECURSIVE_REACH),
                                    PlanContext(graph_db.catalog),
                                    graph_db.options, graph_db.stats)
        ctx = ExecutionContext(graph_db.catalog, graph_db.registry,
                               graph_db.options, graph_db.stats,
                               graph_db.kernel_cache)
        runner = ProgramRunner(program, ctx, instrument=True)
        runner.run()
        first = {pc: p.executions for pc, p in runner.profiles.items()}
        runner.run()
        second = {pc: p.executions for pc, p in runner.profiles.items()}
        assert first == second
        assert runner.loop_telemetry[0].iterations > 0


class TestOverflowCounters:
    def test_join_index_mixed_radix_overflow_counted(self):
        from repro.execution.context import ExecutionStats
        stats = ExecutionStats()
        cache = KernelCache(stats)
        # 4 columns x 70000 distinct values: 70000**4 ~ 2.4e19 > 2**62,
        # so the mixed-radix combined key cannot fit int64.
        columns = [Column.from_numpy(SqlType.INTEGER, np.arange(70000))
                   for _ in range(4)]
        assert cache.join_index(columns) is None  # first touch: candidate
        assert stats.join_index_overflows == 0
        assert cache.join_index(columns) is None  # build attempt fails
        assert stats.join_index_overflows == 1
        # The overflow is remembered: no doomed rebuild, no recount.
        assert cache.join_index(columns) is None
        assert stats.join_index_overflows == 1

    def test_merge_index_bit_budget_exhaustion_repacks(self, db):
        # 8 columns leave 62 // 8 = 7 bits (128 codes) per column in the
        # incremental distinct index; column `a` sees 201 distinct
        # values.  The seven constant columns only need 1 bit each, so
        # the index repacks to wider widths for `a` and stays
        # incremental — no full-rescan fallback.
        sql = """
        WITH RECURSIVE r (a, b, c, d, e, f, g, h) AS (
          SELECT 0, 0, 0, 0, 0, 0, 0, 0
          UNION
          SELECT a + 1, b, c, d, e, f, g, h FROM r WHERE a < 200
        ) SELECT count(*) FROM r"""
        report = db.explain_analyze(sql)
        assert db.stats.merge_index_repacks >= 1
        assert db.stats.merge_index_overflows == 0
        match = re.search(r"merge index: .*repacks=(\d+)", report)
        assert match and int(match.group(1)) >= 1
        assert "overflows=0" in report

    def test_merge_index_bit_budget_overflow_counted(self, db):
        # All 8 columns grow together: 201 distinct values per column
        # need 8 bits each, 8 x 8 = 64 > 62, so not even repacking can
        # keep the packed identity in an int64 and the index falls back
        # to full re-encoding.
        sql = """
        WITH RECURSIVE r (a, b, c, d, e, f, g, h) AS (
          SELECT 0, 0, 0, 0, 0, 0, 0, 0
          UNION
          SELECT a + 1, b + 1, c + 1, d + 1, e + 1, f + 1, g + 1, h + 1
          FROM r WHERE a < 200
        ) SELECT count(*) FROM r"""
        report = db.explain_analyze(sql)
        assert db.stats.merge_index_overflows >= 1
        match = re.search(r"merge index: .*overflows=(\d+)", report)
        assert match and int(match.group(1)) >= 1

    def test_overflow_counters_start_at_zero(self, graph_db):
        graph_db.execute(RECURSIVE_REACH)
        assert graph_db.stats.join_index_overflows == 0
        assert graph_db.stats.merge_index_overflows == 0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.counter("c").add(3)
        registry.gauge("g").set(7.5)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_database_ingests_execution_stats(self, graph_db):
        graph_db.execute("SELECT 1")
        snap = graph_db.metrics_snapshot()
        assert snap["counters"]["statements"] == 1
        assert snap["gauges"]["stats.statements"] == 1
        assert snap["histograms"]["statement_seconds"]["count"] == 1
        graph_db.reset_stats()
        assert graph_db.metrics_snapshot()["counters"] \
            .get("statements", 0) == 0


class TestRewriteVisibility:
    def test_fired_rules_appear_on_rewrite_span(self):
        db = traced_db()
        db.execute("""
            SELECT e.dst FROM edges e
            JOIN edges f ON e.dst = f.src
            WHERE e.src = 1""")
        rewrite = db.last_trace().root.find("rewrite", kind="phase")
        assert rewrite is not None
        fired = {k: v for k, v in rewrite.attributes.items()
                 if k.startswith("rule.")}
        assert fired, "expected at least one rewrite rule to fire"
        assert all(isinstance(v, int) and v >= 1 for v in fired.values())


class TestValidators:
    def _valid_trace(self) -> dict:
        db = traced_db()
        db.execute(RECURSIVE_REACH)
        return json.loads(db.trace_json())

    def test_rejects_extra_and_missing_keys(self):
        payload = self._valid_trace()
        payload["surprise"] = 1
        with pytest.raises(ValueError):
            validate_trace_dict(payload)
        payload = self._valid_trace()
        del payload["metrics"]
        with pytest.raises(ValueError):
            validate_trace_dict(payload)

    def test_rejects_bad_loop_kind_and_sparse_indexes(self):
        payload = self._valid_trace()
        payload["loops"][0]["kind"] = "while"
        with pytest.raises(ValueError):
            validate_trace_dict(payload)
        payload = self._valid_trace()
        payload["loops"][0]["iterations"][0]["index"] = 9
        with pytest.raises(ValueError):
            validate_trace_dict(payload)

    def test_rejects_non_scalar_attributes(self):
        payload = self._valid_trace()
        payload["root"]["attributes"]["bad"] = {"nested": True}
        with pytest.raises(ValueError):
            validate_trace_dict(payload)

    def test_bench_validator(self, figures):
        """A figures case reports the baseline median over the optimized
        one, and a single-sided case reports no speedup."""
        case = figures.Case("demo", {"base": [2.0, 2.5, 2.0, 1.5],
                                     "opt": [1.0, 1.0, 0.5, 1.5]})
        payload = case.to_json()
        assert payload["speedup"] == 2.0
        assert payload["gain_pct"] == 50.0
        base = payload["sides"]["base"]
        assert base["q1"] <= base["median"] == 2.0 <= base["q3"]
        assert base["samples"] == [2.0, 2.5, 2.0, 1.5]
        alone = figures.Case("alone", {"compile": [1.0, 2.0, 3.0]}).to_json()
        assert "speedup" not in alone and "gain_pct" not in alone

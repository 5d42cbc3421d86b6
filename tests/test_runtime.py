"""Unified loop runtime tests.

Covers the strategy layer the ``repro.runtime`` package adds on top of
the step interpreter: cost-based strategy selection, feedback-driven
mid-loop demotion (semi-naive -> full recomputation when the frontier
stays near-full), the widened INNER-join delta safety analysis with its
run-time keyset guard, step-identity execution profiles, and the
baseline spans (middleware, stored procedures) published into
``Database.trace_json()``.
"""

import json

import pytest

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.execution import SessionOptions
from repro.middleware import MiddlewareDriver
from repro.obs.export import validate_trace_dict
from repro.plan.program import DeltaCaptureStep, DeltaFusedStep
from repro.procedures import ExecuteSql, Loop, Procedure, ProcedureCatalog, ReturnQuery
from repro.types import SqlType
from repro.workloads import pagerank_query, sssp_query

EDGES = generate_edges(dblp_like(nodes=200, seed=21))

# Node 4 has an outgoing edge but loses all its INNER-join partners once
# values cross 1.0 — the keyset-shrinking case the run-time guard exists
# for.
SMALL_EDGES = [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 1.0), (3, 1, 1.0),
               (4, 1, 1.0)]


def graph_db(edges=EDGES, **options) -> Database:
    db = Database(SessionOptions(**options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


def both_modes(sql, edges=EDGES, **options):
    """(full rows, delta rows, delta-mode database) for one query."""
    full = graph_db(edges, enable_delta_iteration=False,
                    **options).execute(sql).rows()
    db = graph_db(edges, enable_delta_iteration=True, **options)
    delta = db.execute(sql).rows()
    return full, delta, db


INNER_JOIN_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node, min(r.v + e.weight)
          FROM r JOIN edges e ON e.src = r.node
          GROUP BY r.node
  UNTIL 4 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""

KEY_DROPPING_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node, min(r.v + e.weight)
          FROM r JOIN edges e ON e.src = r.node AND r.v < 1.0
          GROUP BY r.node
  UNTIL 3 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""


@pytest.fixture
def no_demotion(monkeypatch):
    """Keep delta loops in delta mode: no frontier reaches a demotion
    threshold above 100 % of the table."""
    from repro.runtime import strategies
    monkeypatch.setattr(strategies, "DEMOTION_THRESHOLD", 1.1)


def _compile(db, sql):
    from repro.core.rewrite import compile_statement
    from repro.plan import PlanContext
    from repro.sql import parse
    return compile_statement(parse(sql), PlanContext(db.catalog),
                             db.options)


class TestStrategySelection:
    def test_delta_safe_loop_selects_semi_naive(self):
        db = graph_db(enable_delta_iteration=True)
        report = db.explain_analyze(sssp_query(source=1, iterations=5))
        assert "strategy semi-naive-delta" in report

    def test_rename_without_delta_selects_rename_in_place(self):
        db = graph_db(enable_delta_iteration=False)
        report = db.explain_analyze(sssp_query(source=1, iterations=5))
        assert "strategy rename-in-place" in report

    def test_copy_movement_selects_full_recompute(self):
        db = graph_db(enable_delta_iteration=False, enable_rename=False)
        report = db.explain_analyze(sssp_query(source=1, iterations=5))
        assert "strategy full-recompute" in report


class TestMidLoopDemotion:
    """PageRank rewrites every row every iteration; the frontier stays
    near-full, so semi-naive bookkeeping is pure overhead and the engine
    demotes the loop mid-flight."""

    def test_pagerank_demotes_to_full_recompute(self):
        sql = pagerank_query(iterations=8)
        full, delta, db = both_modes(sql, enable_rename=False)
        assert full == delta
        assert db.stats.strategy_demotions == 1
        # Demotion happened mid-loop: some delta iterations did run.
        assert db.stats.delta_iterations > 0

    def test_pagerank_demotes_to_rename_in_place(self):
        sql = pagerank_query(iterations=8)
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.strategy_demotions == 1

    def test_demotion_visible_in_explain_analyze(self):
        db = graph_db(enable_delta_iteration=True, enable_rename=False)
        report = db.explain_analyze(pagerank_query(iterations=8))
        assert "demoted semi-naive-delta -> full-recompute" in report

    def test_sparse_frontier_never_demotes(self):
        # SSSP waves shrink; the strategy keeps earning its keep.
        full, delta, db = both_modes(sssp_query(source=1, iterations=10))
        assert full == delta
        assert db.stats.strategy_demotions == 0
        assert db.stats.delta_iterations > 0


# Frontier profile by construction: iterations 1-3 rewrite every row
# (v < 3.0), demoting the loop after two near-full frontiers; from
# iteration 4 only the MOD(node, 10) = 0 stragglers keep moving, so the
# frontier collapses to ~10% and the promotion watcher hands the loop
# back to semi-naive delta for the remaining iterations.
PROMOTION_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node,
          CASE WHEN r.v < 3.0 OR MOD(r.node, 10) = 0
               THEN r.v + 1.0 ELSE r.v END
          FROM r
  UNTIL 12 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""


class TestMidLoopPromotion:
    """The inverse of demotion: a demoted loop whose frontier later
    collapses gets promoted back to semi-naive delta mid-flight."""

    def test_demoted_loop_repromotes_when_the_frontier_collapses(self):
        full, delta, db = both_modes(PROMOTION_SQL)
        assert full == delta
        assert db.stats.strategy_demotions == 1
        assert db.stats.strategy_promotions == 1
        # Delta iterations ran both before the demotion and after the
        # promotion.
        assert db.stats.delta_iterations > 2

    def test_promotion_visible_in_explain_analyze(self):
        db = graph_db(enable_delta_iteration=True)
        report = db.explain_analyze(PROMOTION_SQL)
        assert "promoted" in report
        assert "-> semi-naive-delta" in report

    def test_telemetry_records_the_strategy_chain(self):
        db = graph_db(enable_delta_iteration=True, enable_tracing=True)
        db.execute(PROMOTION_SQL)
        chain = db.last_trace().loops[0].strategy
        assert chain is not None and chain.count("->") == 2
        assert chain.startswith("semi-naive-delta")
        assert chain.endswith("semi-naive-delta")

    def test_full_frontier_never_promotes(self):
        # PageRank's frontier never collapses: the loop demotes once and
        # stays demoted.
        full, delta, db = both_modes(pagerank_query(iterations=8))
        assert full == delta
        assert db.stats.strategy_demotions == 1
        assert db.stats.strategy_promotions == 0

    def test_permanent_disqualification_never_promotes(self):
        # Duplicate keys disable delta evaluation outright; the frontier
        # being tiny afterwards must not resurrect it.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges
          ITERATE SELECT r.node, r.v + 1.0 FROM r
          UNTIL 6 ITERATIONS
        ) SELECT node, v FROM r"""
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.strategy_promotions == 0
        assert db.stats.delta_iterations == 0


DUPLICATE_KEY_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges
  ITERATE SELECT r.node, r.v + 1.0 FROM r
  UNTIL 6 ITERATIONS
) SELECT node, v FROM r"""


class TestDisqualifiedLoops:
    """Duplicate keys or a tripped keyset guard end delta mode for good.
    That is no demotion, but the reports must still name the full-body
    strategy that actually ran the loop."""

    @pytest.mark.parametrize("sql,edges,fallbacks", [
        (DUPLICATE_KEY_SQL, EDGES, 0),
        (KEY_DROPPING_SQL, SMALL_EDGES, 1),
    ], ids=["duplicate-keys", "keyset-guard"])
    def test_reports_name_the_full_body_strategy(self, sql, edges,
                                                 fallbacks):
        db = graph_db(edges, enable_delta_iteration=True,
                      enable_tracing=True)
        report = db.explain_analyze(sql)
        assert db.stats.delta_iterations == 0
        assert db.stats.delta_guard_fallbacks == fallbacks
        assert db.stats.strategy_demotions == 0
        assert db.stats.strategy_promotions == 0
        assert "loop r: strategy rename-in-place" in report.splitlines()
        assert db.last_trace().loops[0].strategy == "rename-in-place"


def _two_wave_edges():
    """A graph whose SSSP frontier from node 1 fills, empties, fills
    again and empties again, so the loop switches strategy four times.

    Every v in 100..299 is reached at 100 (direct), then 3 (via 2), then
    1.5 (via the 0.1-weighted chain to 3) and finally 1.1 (via the longer
    chain to 4): two near-full improvement waves separated by quiet
    iterations while the chains are walked."""
    edges = []
    for v in range(100, 300):
        edges += [(1, v, 100.0), (2, v, 2.0), (3, v, 1.0), (4, v, 0.5)]
    edges.append((1, 2, 1.0))
    for chain in ([1, 10, 11, 12, 13, 3], [1, 20, 21, 22, 23, 24, 4]):
        edges += [(a, b, 0.1) for a, b in zip(chain, chain[1:])]
    return edges


class TestStrategySwitchLog:
    """Every mid-loop switch is logged, in the order it was taken."""

    SQL = sssp_query(source=1, iterations=14)

    def test_every_switch_is_reported_in_order(self):
        full, delta, db = both_modes(self.SQL, edges=_two_wave_edges())
        assert full == delta
        assert db.stats.strategy_demotions == 2
        assert db.stats.strategy_promotions == 2

        db = graph_db(_two_wave_edges(), enable_delta_iteration=True)
        report = db.explain_analyze(self.SQL)
        timeline = [line.split(": ", 1)[1] for line in report.splitlines()
                    if line.startswith("  loop sssp: ")
                    and "moted " in line]
        assert timeline == [
            "demoted semi-naive-delta -> rename-in-place after "
            "iteration 2 (frontier 205/213 rows vs budget 170)",
            "promoted rename-in-place -> semi-naive-delta after "
            "iteration 5 (frontier 4/213 rows vs budget 106)",
            "demoted semi-naive-delta -> rename-in-place after "
            "iteration 7 (frontier 201/213 rows vs budget 170)",
            "promoted rename-in-place -> semi-naive-delta after "
            "iteration 10 (frontier 0/213 rows vs budget 106)",
        ]
        strategy_line = next(line for line in report.splitlines()
                             if line.startswith("loop sssp: strategy"))
        assert all(event in strategy_line for event in timeline)

    def test_telemetry_chain_has_one_arrow_per_switch(self):
        db = graph_db(_two_wave_edges(), enable_delta_iteration=True,
                      enable_tracing=True)
        db.execute(self.SQL)
        assert db.last_trace().loops[0].strategy == "->".join(
            ["semi-naive-delta", "rename-in-place"] * 2
            + ["semi-naive-delta"])


class TestInnerJoinSafety:
    def test_analyzer_accepts_inner_join_without_where(self):
        db = graph_db(enable_delta_iteration=True)
        program = _compile(db, INNER_JOIN_SQL)
        gates = [s for s in program.steps
                 if isinstance(s, DeltaFusedStep)]
        assert gates and gates[0].spec.guard_keyset

    def test_analyzer_leaves_left_joins_unguarded(self):
        db = graph_db(enable_delta_iteration=True)
        program = _compile(db, INNER_JOIN_SQL.replace(
            "FROM r JOIN edges", "FROM r LEFT JOIN edges"))
        gates = [s for s in program.steps
                 if isinstance(s, DeltaFusedStep)]
        assert gates and not gates[0].spec.guard_keyset

    def test_inner_join_body_runs_in_delta_mode(self, no_demotion):
        full, delta, db = both_modes(INNER_JOIN_SQL)
        assert full == delta
        assert db.stats.delta_iterations > 0
        assert db.stats.delta_guard_fallbacks == 0

    def test_keyset_guard_catches_dropped_keys(self):
        # On SMALL_EDGES the r.v < 1.0 join predicate starts dropping
        # keys at iteration 2; the guard must detect the shrunken keyset
        # and rerun the full body instead of scattering a wrong delta.
        sql = KEY_DROPPING_SQL.replace("UNTIL 3 ITERATIONS",
                                       "UNTIL 2 ITERATIONS")
        full, delta, db = both_modes(sql, edges=SMALL_EDGES)
        assert full == delta == [(1, 1.0)]
        assert db.stats.delta_guard_fallbacks == 1

    def test_keyset_guard_stays_correct_once_the_table_empties(self):
        # One more iteration and the join drops every key; both modes
        # agree on the empty result, with exactly one guarded fallback.
        full, delta, db = both_modes(KEY_DROPPING_SQL, edges=SMALL_EDGES)
        assert full == delta == []
        assert db.stats.delta_guard_fallbacks == 1

    def test_inner_join_with_where_needs_no_guard(self):
        # WHERE-filtered bodies merge by key (dropped keys keep their
        # old values), so an INNER join there never shrinks the keyset
        # and the analyzer skips the run-time guard.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges GROUP BY src
          ITERATE SELECT r.node, min(r.v + e.weight)
                  FROM r JOIN edges e ON e.src = r.node
                  WHERE r.v >= 0.0
                  GROUP BY r.node
          UNTIL 4 ITERATIONS
        ) SELECT node, v FROM r ORDER BY node"""
        db = graph_db(enable_delta_iteration=True)
        program = _compile(db, sql)
        gates = [s for s in program.steps
                 if isinstance(s, DeltaFusedStep)]
        assert gates and not gates[0].spec.guard_keyset


class TestStepIdentityProfiles:
    def test_profiles_key_on_step_objects_not_positions(self):
        from repro.execution import ExecutionContext
        from repro.runtime import ProgramRunner

        db = graph_db(enable_delta_iteration=True)
        program = _compile(db, sssp_query(source=1, iterations=5))
        ctx = ExecutionContext(db.catalog, db.registry, db.options,
                               db.stats, db.kernel_cache)
        runner = ProgramRunner(program, ctx, instrument=True)
        runner.run()
        by_id = {id(step): step for step in program.steps}
        assert runner.profiles
        for key, profile in runner.profiles.items():
            # Every profile key resolves to the very step object it
            # measured — identity, not list position.
            assert by_id[key] is not None
            assert profile.executions >= 1

    def test_delta_and_full_bodies_profile_separately(self):
        """The fused step forks execution: the delta pass and the full
        body of the same loop must not alias each other's profiles."""
        from repro.execution import ExecutionContext
        from repro.runtime import ProgramRunner

        db = graph_db(enable_delta_iteration=True)
        program = _compile(db, sssp_query(source=1, iterations=5))
        ctx = ExecutionContext(db.catalog, db.registry, db.options,
                               db.stats, db.kernel_cache)
        runner = ProgramRunner(program, ctx, instrument=True)
        runner.run()
        fused = next(s for s in program.steps
                     if isinstance(s, DeltaFusedStep))
        capture = next(s for s in program.steps
                       if isinstance(s, DeltaCaptureStep))
        # The fused step runs every iteration; the full body (ending in
        # the capture step) only on the first, before delta state exists.
        assert runner.profiles[id(fused)].executions == 5
        assert runner.profiles[id(capture)].executions == 1


class TestBaselineTraces:
    def test_middleware_run_publishes_baseline_trace(self):
        db = graph_db(enable_tracing=True)
        MiddlewareDriver(db).run(pagerank_query(iterations=4))
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        kinds = _span_kinds([payload["root"]])
        assert "baseline" in kinds and "statement" in kinds
        assert payload["loops"][0]["kind"] == "middleware"
        assert len(payload["loops"][0]["iterations"]) == 4

    def test_middleware_trace_off_by_default(self):
        db = graph_db()
        driver = MiddlewareDriver(db)
        driver.run(pagerank_query(iterations=4))
        assert driver.last_telemetry is not None
        assert driver.last_telemetry.iterations == 4

    def test_procedure_call_publishes_baseline_trace(self):
        db = graph_db(enable_tracing=True)
        catalog = ProcedureCatalog(db)
        catalog.register(Procedure("count_edges", [
            ExecuteSql("SELECT count(*) FROM edges"),
            Loop(3, [ExecuteSql("SELECT max(src) FROM edges")]),
            ReturnQuery("SELECT count(*) FROM edges"),
        ]))
        catalog.call("count_edges")
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        baseline = _spans_of_kind([payload["root"]], "baseline")
        assert baseline and baseline[0]["name"] == \
            "procedure:count_edges"
        assert payload["loops"][0]["kind"] == "procedure"
        records = payload["loops"][0]["iterations"]
        assert len(records) == 3
        assert [r["working_rows"] for r in records] == [1, 1, 1]

    def test_loop_strategy_appears_in_loop_telemetry(self):
        db = graph_db(enable_delta_iteration=True, enable_tracing=True,
                      enable_rename=False)
        db.execute(pagerank_query(iterations=8))
        payload = json.loads(db.trace_json())
        validate_trace_dict(payload)
        strategies = [loop.get("strategy") for loop in payload["loops"]]
        assert "semi-naive-delta->full-recompute" in strategies


def _span_kinds(spans, acc=None):
    acc = set() if acc is None else acc
    for span in spans:
        acc.add(span["kind"])
        _span_kinds(span["children"], acc)
    return acc


def _spans_of_kind(spans, kind):
    found = []
    for span in spans:
        if span["kind"] == kind:
            found.append(span)
        found.extend(_spans_of_kind(span["children"], kind))
    return found

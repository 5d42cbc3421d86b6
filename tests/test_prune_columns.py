"""Required columns: the ``prune_columns`` pass.

A join emits only the columns something above it reads, a §V-A block
materializes only the columns its consuming step reads, and nothing else
changes: every plan a step executes returns exactly the same frame,
masks included, before and after the pass.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.rewrite as core_rewrite
from repro import Database
from repro.core.rewrite import compile_statement
from repro.datasets import dblp_like, load_graph
from repro.errors import VerificationError
from repro.execution import SessionOptions, execute_plan
from repro.plan import PlanContext, transform
from repro.plan.logical import (
    Field,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
    LogicalTempScan,
)
from repro.plan.program import DeltaFusedStep, MaterializeStep, ReturnStep
from repro.rewrite import prune_columns
from repro.runtime.handlers import delta as delta_handler
from repro.runtime.handlers import materialize as materialize_handler
from repro.sql import ast, parse
from repro.storage import Column
from repro.types import SqlType
from repro.verify import check_plan, check_program, verify_program
from repro.verify.plans import PlanChecker
from repro.workloads import (
    components_query,
    ff_query,
    pagerank_query,
    sssp_query,
)

from test_differential_sqlite import CORPUS, ROWS_T, ROWS_U

SPEC = dblp_like(nodes=120, seed=7)

WORKLOADS = {
    "pr": pagerank_query(iterations=4),
    "pr-vs": pagerank_query(iterations=4, with_vertex_status=True),
    "sssp": sssp_query(source=1, iterations=5),
    "sssp-vs": sssp_query(source=1, iterations=4, with_vertex_status=True),
    "ff": ff_query(iterations=4, selectivity_mod=10, order_and_limit=False),
    "cc": components_query(),
}


def graph_db(**options) -> Database:
    db = Database(SessionOptions(enable_plan_cache=False, **options))
    load_graph(db, SPEC, with_vertex_status=True, available_fraction=0.7)
    return db


def corpus_db() -> Database:
    db = Database(SessionOptions(enable_plan_cache=False))
    db.create_table("t", [("a", SqlType.INTEGER), ("b", SqlType.INTEGER),
                          ("c", SqlType.INTEGER)])
    db.load_rows("t", ROWS_T)
    db.create_table("u", [("x", SqlType.INTEGER), ("y", SqlType.INTEGER)])
    db.load_rows("u", ROWS_U)
    return db


def compiled(db, sql):
    return compile_statement(parse(sql), PlanContext(db.catalog), db.options)


def without_pass(steps, options, catalog):
    """Stands in for ``prune_program``: compile without the pass."""


def plan_steps(program):
    return [step for step in program.steps
            if isinstance(step, (MaterializeStep, DeltaFusedStep,
                                 ReturnStep))]


def assert_columns_identical(expected: Column, actual: Column) -> None:
    assert actual.sql_type is expected.sql_type
    assert np.array_equal(actual.mask, expected.mask)
    assert actual.data.dtype == expected.data.dtype
    if expected.data.dtype == object:
        assert [(type(v), v) for v in actual.data] \
            == [(type(v), v) for v in expected.data]
    else:
        assert actual.data.tobytes() == expected.data.tobytes()


def assert_frames_identical(expected, actual) -> None:
    assert actual.fields == expected.fields
    assert actual.num_rows == expected.num_rows
    for a, b in zip(expected.columns, actual.columns):
        assert_columns_identical(a, b)


@pytest.fixture
def unpruned(monkeypatch):
    """Compile without the pass, and run every plan a step executes both
    as compiled and after a direct ``prune_columns`` call, comparing the
    two frames.  Yields the list of plans the pass changed."""
    monkeypatch.setattr(core_rewrite, "prune_program", without_pass)
    changed = []

    def wrap(original):
        def checking(plan, ctx, names=None):
            pruned = prune_columns(plan)
            if pruned is not plan:
                changed.append(pruned)
                assert_frames_identical(execute_plan(plan, ctx),
                                        execute_plan(pruned, ctx))
            return original(plan, ctx, names)
        return checking

    for module in (materialize_handler, delta_handler):
        monkeypatch.setattr(module, "execute_to_table",
                            wrap(module.execute_to_table))
    return changed


def pruned_and_unpruned(db, sql, monkeypatch):
    pruned = db.execute(sql).table
    with monkeypatch.context() as patch:
        patch.setattr(core_rewrite, "prune_program", without_pass)
        plain = db.execute(sql).table
    return plain, pruned


class TestBitIdentity:
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_plan(self, name, delta, unpruned):
        db = graph_db(enable_delta_iteration=delta)
        db.execute(WORKLOADS[name])
        # FF's body reads the CTE alone: no join, nothing to prune.
        assert bool(unpruned) == (name != "ff")

    @pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
    def test_every_corpus_plan(self, sql, unpruned):
        corpus_db().execute(sql)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_whole_program(self, name, monkeypatch):
        """Narrowed §V-A blocks included: the statement's result."""
        db = graph_db(enable_delta_iteration=True)
        plain, pruned = pruned_and_unpruned(db, WORKLOADS[name],
                                            monkeypatch)
        assert pruned.schema == plain.schema
        for a, b in zip(plain.columns, pruned.columns):
            assert_columns_identical(a, b)


class TestPass:
    def test_plan_without_join_is_returned_as_is(self):
        db = corpus_db()
        for sql in ("SELECT a, b FROM t WHERE b > 15",
                    "SELECT c, COUNT(*) FROM t GROUP BY c"):
            (step,) = plan_steps(compiled(db, sql))
            assert prune_columns(step.plan) is step.plan

    def test_pagerank_joins_gather_what_is_read(self):
        program = compiled(graph_db(), WORKLOADS["pr"])
        body = next(step for step in program.steps
                    if isinstance(step, MaterializeStep)
                    and step.result_name.startswith("__work"))
        top = body.plan.child
        assert isinstance(top, LogicalJoin)
        # The aggregate reads node, rank and delta of the CTE row, the
        # edge weight and the incoming rank's delta; the lower join also
        # keeps the edge's src for the upper join's condition.
        assert [str(f) for f in top.fields] == [
            "pagerank.node", "pagerank.rank", "pagerank.delta",
            "incomingedges.weight", "incomingrank.delta"]
        assert [str(f) for f in top.left.fields] == [
            "pagerank.node", "pagerank.rank", "pagerank.delta",
            "incomingedges.src", "incomingedges.weight"]
        assert len(top.input_fields) == 8

    def test_pass_is_idempotent(self):
        for step in plan_steps(compiled(graph_db(), WORKLOADS["pr-vs"])):
            assert prune_columns(step.plan) is step.plan

    def test_roots_and_registers_keep_their_columns(self, monkeypatch):
        """Every step's root emits what it did before the pass, so a CTE
        register keeps its declared columns; only §V-A blocks narrow."""
        db = graph_db(enable_delta_iteration=True)
        for name, sql in WORKLOADS.items():
            pruned = compiled(db, sql)
            with monkeypatch.context() as patch:
                patch.setattr(core_rewrite, "prune_program", without_pass)
                plain = compiled(db, sql)
            for before, after in zip(plan_steps(plain), plan_steps(pruned)):
                if getattr(after, "counts", "") != "common":
                    assert after.plan.fields == before.plan.fields, name

    def test_common_block_holds_what_the_loop_reads(self):
        """Fig. 9's PR-VS block: src, dst, weight, not the vertexStatus
        columns, and its scans shrink to match."""
        program = compiled(graph_db(), WORKLOADS["pr-vs"])
        (block,) = [step for step in program.steps
                    if isinstance(step, MaterializeStep)
                    and step.counts == "common"]
        assert [str(f) for f in block.plan.fields] == [
            "incomingedges.src", "incomingedges.dst", "incomingedges.weight"]
        assert len(block.column_names) == 3
        scans = [op for step in plan_steps(program)
                 for op in step.plan.walk()
                 if isinstance(op, LogicalTempScan)
                 and op.result_name == block.result_name]
        assert scans and all(scan.fields == block.plan.fields
                             for scan in scans)
        assert check_program(program, graph_db().catalog) == []

    def test_explain_shows_kept_columns(self):
        text = graph_db().explain(WORKLOADS["pr"], verbose=True)
        assert ("keep(pagerank.node, pagerank.rank, pagerank.delta, "
                "incomingedges.weight, incomingrank.delta)") in text

    def test_join_reading_no_column_counts_rows(self):
        db = corpus_db()
        sql = "SELECT COUNT(*) FROM t JOIN u ON t.b = u.x"
        (step,) = plan_steps(compiled(db, sql))
        join = next(op for op in step.plan.walk()
                    if isinstance(op, LogicalJoin))
        assert join.output == ()
        assert db.execute(sql).rows() == [(5,)]


class TestExecutor:
    @pytest.fixture
    def gathers(self, monkeypatch):
        count = [0]
        take = Column.take

        def counting_take(self, *args, **kwargs):
            count[0] += 1
            return take(self, *args, **kwargs)

        monkeypatch.setattr(Column, "take", counting_take)
        return count

    @pytest.mark.parametrize("kind", ["LEFT JOIN", "RIGHT JOIN",
                                      "FULL JOIN"])
    def test_outer_residual_gathers_what_it_reads(self, kind, gathers):
        db = corpus_db()
        gathers[0] = 0
        db.execute(f"SELECT t.a FROM t {kind} u "
                   "ON t.b = u.x AND u.y > 1")
        # u.y early for the residual, then t.a once at the end.
        assert gathers[0] == 2

    def test_right_join_emits_kept_columns_in_order(self, monkeypatch):
        db = corpus_db()
        sql = "SELECT u.y, t.a FROM t RIGHT JOIN u ON t.b = u.x"
        (step,) = plan_steps(compiled(db, sql))
        join = next(op for op in step.plan.walk()
                    if isinstance(op, LogicalJoin))
        assert [str(f) for f in join.fields] == ["t.a", "u.y"]
        plain, pruned = pruned_and_unpruned(db, sql, monkeypatch)
        assert pruned.rows() == plain.rows()
        assert (None, None) in pruned.rows()  # u's unmatched row, padded


def _join(output):
    t = LogicalScan("t", "t", (Field("t", "a", SqlType.INTEGER),
                               Field("t", "b", SqlType.INTEGER)))
    u = LogicalScan("u", "u", (Field("u", "x", SqlType.INTEGER),))
    condition = ast.BinaryOp(ast.BinaryOperator.EQ, ast.ColumnRef("b", "t"),
                             ast.ColumnRef("x", "u"))
    return LogicalJoin(ast.JoinKind.INNER, t, u, condition, output)


class TestVerifier:
    def test_condition_resolves_against_both_inputs(self):
        assert check_plan(_join((0,))) == []

    @pytest.mark.parametrize("output,expected", [
        ((0, 3), "outside its 3 input columns"),
        ((-1,), "outside its 3 input columns"),
        ((1, 0), "distinct and ascending"),
        ((1, 1), "distinct and ascending"),
    ])
    def test_bad_positions_rejected(self, output, expected):
        violations = check_plan(_join(output))
        assert any(expected in v for v in violations), violations

    def test_parent_reading_a_dropped_column_rejected(self):
        plan = LogicalProject(_join((0,)), ((ast.ColumnRef("x", "u"), "x"),),
                              fields=(Field(None, "x", SqlType.INTEGER),))
        assert any("'u.x' not found" in v for v in check_plan(plan))

    def test_pass_dropping_a_read_column_names_the_pass(self, monkeypatch):
        """Mutation: a pass that drops the last column each join keeps
        fails verification, attributed to ``prune_columns``."""
        real = core_rewrite.prune_columns

        def drop_last(node):
            if isinstance(node, LogicalJoin):
                kept = node.output or tuple(range(len(node.input_fields)))
                return LogicalJoin(node.kind, node.left, node.right,
                                   node.condition, kept[:-1])
            return node

        def mutant(plan, keep=None, reads=None):
            pruned = real(plan, keep, reads)
            if reads is not None or keep is not None:
                return pruned
            return transform(pruned, drop_last)

        monkeypatch.setattr(core_rewrite, "prune_columns", mutant)
        with pytest.raises(VerificationError) as excinfo:
            compiled(graph_db(), WORKLOADS["pr"])
        assert excinfo.value.pass_name == "prune_columns"
        assert "not found" in str(excinfo.value)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_pruned_plans_checked_once(self, name, monkeypatch):
        """A plan the pass changed and verified is not checked again by
        the program check, and the verdict still counts its
        invariants."""
        checks = Counter()
        pruned = {}
        real_check = PlanChecker.check
        real_prune = core_rewrite.prune_program

        def recording(self, plan):
            checks[id(plan)] += 1
            return real_check(self, plan)

        def prune(steps, options, catalog):
            pruned.update(real_prune(steps, options, catalog))
            return pruned

        monkeypatch.setattr(PlanChecker, "check", recording)
        monkeypatch.setattr(core_rewrite, "prune_program", prune)
        db = graph_db(enable_delta_iteration=True)
        program = compiled(db, WORKLOADS[name])
        # FF's body reads the CTE alone: no join, nothing to prune.
        assert bool(pruned) == (name != "ff")
        for index in pruned:
            assert checks[id(program.steps[index].plan)] == 1
        fresh = verify_program(program, "compile", db.catalog)
        assert program.verifier_verdict == fresh.verdict()

"""Trip-stable work: a loop body reuses last trip's pairs, gathers and
groupings while their inputs repeat.

A join's pairs depend only on its key values, a gathered column only on
its index vector and source column, and a GROUP BY's leading-key
grouping only on that column.  So a loop keeps each in one trip memo
(``kernel_cache.TripMemo``) and hands it back on a later trip whose
inputs are the same objects or bitwise equal, masks included.  Every
plan a step executes must return exactly the same frame with each kind
on and forced off, reuse must happen only on bitwise-equal inputs, and
the memo belongs to one program run, never to a shared plan.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.execution.operators as operators
from repro import Database
from repro.datasets import load_graph
from repro.execution import ExecutionContext, SessionOptions, execute_plan
from repro.execution.kernel_cache import (GROUPING, PAIRS, TripMemo,
                                          same_values)
from repro.obs import validate_trace_dict
from repro.plan.logical import Field, LogicalJoin, LogicalTempScan
from repro.runtime import loop_engine
from repro.runtime.handlers import delta as delta_handler
from repro.runtime.handlers import materialize as materialize_handler
from repro.server import serve
from repro.sql import ast
from repro.storage import Catalog, Column, ResultRegistry, Schema, Table
from repro.types import SqlType
from repro.workloads import pagerank_query

from test_differential_sqlite import CORPUS
from test_prune_columns import (
    SPEC,
    WORKLOADS,
    assert_columns_identical,
    assert_frames_identical,
    corpus_db,
    graph_db,
)


# Each kind of trip memo entry, told apart by its slot: a gather's slot
# is its output position.
KINDS = {
    "pairs": lambda slot: slot == PAIRS,
    "gathers": lambda slot: isinstance(slot, int),
    "groupings": lambda slot: slot == GROUPING,
}
COUNTERS = {"pairs": "join_pair_reuses", "gathers": "gather_reuses",
            "groupings": "grouping_reuses"}


def memo_off(patch, *kinds: str) -> None:
    """Force the memo off for ``kinds`` (every kind when none is named):
    nothing of them is reused and nothing kept."""
    off = [KINDS[kind] for kind in kinds or KINDS]
    real_reuse, real_keep = TripMemo.reuse, TripMemo.keep

    def reuse(self, site, slot, inputs):
        if any(test(slot) for test in off):
            return None
        return real_reuse(self, site, slot, inputs)

    def keep(self, site, slot, inputs, value):
        if not any(test(slot) for test in off):
            real_keep(self, site, slot, inputs, value)

    patch.setattr(TripMemo, "reuse", reuse)
    patch.setattr(TripMemo, "keep", keep)


def counted(db, sql) -> tuple[Table, dict]:
    """The statement's result and its reuse counters by kind."""
    before = db.stats.snapshot()
    table = db.execute(sql).table
    delta = db.stats.delta_since(before)
    return table, {kind: delta[name] for kind, name in COUNTERS.items()}


def reuses(db, sql) -> tuple[Table, int]:
    table, taken = counted(db, sql)
    return table, taken["pairs"]


def reusing(name: str, delta: bool) -> set[str]:
    """The kinds a workload statement reuses at the test size.  PageRank
    and connected components reuse all three, except that with delta
    on, plain PR's full body reuses its pairs on one trip only: a gather
    is kept on a trip that reused its pairs and reused on the next such
    trip.  SSSP's and FF's keys change every trip."""
    if name not in ("cc", "pr", "pr-vs"):
        return set()
    if name == "pr" and delta:
        return {"pairs", "groupings"}
    return set(KINDS)


def assert_tables_identical(expected: Table, actual: Table) -> None:
    assert actual.schema == expected.schema
    for a, b in zip(expected.columns, actual.columns):
        assert_columns_identical(a, b)


# ---------------------------------------------------------------------------
# Bit identity: every plan, memo on against memo forced off
# ---------------------------------------------------------------------------


def check_plans(monkeypatch, *kinds: str) -> list:
    """Run every plan a step executes with ``kinds`` of the memo forced
    off (every kind when none is named) and with the memo on, comparing
    the two frames.  Returns the list of compared plans."""
    plans = []

    def wrap(original):
        def checking(plan, ctx, names=None):
            with monkeypatch.context() as patch:
                memo_off(patch, *kinds)
                expected = execute_plan(plan, ctx)
            assert_frames_identical(expected, execute_plan(plan, ctx))
            plans.append(plan)
            return original(plan, ctx, names)
        return checking

    for module in (materialize_handler, delta_handler):
        monkeypatch.setattr(module, "execute_to_table",
                            wrap(module.execute_to_table))
    return plans


@pytest.fixture
def checked_plans(monkeypatch):
    return check_plans(monkeypatch)


class TestBitIdentity:
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_plan(self, name, delta, checked_plans):
        graph_db(enable_delta_iteration=delta).execute(WORKLOADS[name])
        assert checked_plans

    @pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
    def test_every_corpus_plan(self, sql, checked_plans):
        corpus_db().execute(sql)
        assert checked_plans

    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_whole_statement(self, name, delta, monkeypatch):
        db = graph_db(enable_delta_iteration=delta)
        with monkeypatch.context() as patch:
            memo_off(patch)
            off, forced = counted(db, WORKLOADS[name])
        on, taken = counted(db, WORKLOADS[name])
        assert_tables_identical(off, on)
        assert forced == dict.fromkeys(KINDS, 0)
        assert {kind for kind, n in taken.items() if n} \
            == reusing(name, delta)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_kernel_cache_off_keeps_no_memo(self, name):
        on, _ = reuses(graph_db(), WORKLOADS[name])
        off, taken = counted(graph_db(enable_kernel_cache=False),
                             WORKLOADS[name])
        assert_tables_identical(on, off)
        assert taken == dict.fromkeys(KINDS, 0)


SWITCHED = ["gathers", "groupings"]


class TestKindSwitches:
    """Gathers and groupings each forced off alone, pairs and the other
    kind left on: the same frames, the same results, and the switched
    kind reuses nothing."""

    @pytest.mark.parametrize("kind", SWITCHED)
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_plan(self, name, delta, kind, monkeypatch):
        plans = check_plans(monkeypatch, kind)
        graph_db(enable_delta_iteration=delta).execute(WORKLOADS[name])
        assert plans

    @pytest.mark.parametrize("kind", SWITCHED)
    @pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
    def test_every_corpus_plan(self, sql, kind, monkeypatch):
        plans = check_plans(monkeypatch, kind)
        corpus_db().execute(sql)
        assert plans

    @pytest.mark.parametrize("kind", SWITCHED)
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_whole_statement(self, name, delta, kind, monkeypatch):
        db = graph_db(enable_delta_iteration=delta)
        with monkeypatch.context() as patch:
            memo_off(patch, kind)
            off, forced = counted(db, WORKLOADS[name])
        on, taken = counted(db, WORKLOADS[name])
        assert_tables_identical(off, on)
        assert forced[kind] == 0
        assert (taken[kind] > 0) == (kind in reusing(name, delta))


# ---------------------------------------------------------------------------
# Hypothesis: reuse exactly on bitwise-equal keys
# ---------------------------------------------------------------------------


NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
ALPHABETS = {
    SqlType.INTEGER: [0, 1, 2, -1],
    SqlType.FLOAT: [0.0, -0.0, 1.5, *NAN_BITS],
    SqlType.TEXT: ["a", "b", ""],
}
FILL = {SqlType.INTEGER: 0, SqlType.FLOAT: 0.0, SqlType.TEXT: None}


def key_column(sql_type: SqlType, picks: list) -> Column:
    """Picks index the type's alphabet; None is NULL."""
    alphabet = ALPHABETS[sql_type]
    values = [FILL[sql_type] if p is None else alphabet[p % len(alphabet)]
              for p in picks]
    data = np.array(values, dtype=sql_type.numpy_dtype)
    return Column.from_numpy(sql_type, data,
                             np.array([p is None for p in picks],
                                      dtype=np.bool_))


def bitwise_equal(a: Column, b: Column) -> bool:
    """The reference: type, mask and every data slot's exact bytes."""
    if a.sql_type is not b.sql_type or len(a) != len(b) \
            or a.mask.tobytes() != b.mask.tobytes():
        return False
    if a.data.dtype == object:
        return [(type(v), v) for v in a.data] \
            == [(type(v), v) for v in b.data]
    return a.data.tobytes() == b.data.tobytes()


def side(name: str, key: Column) -> tuple[LogicalTempScan, Table]:
    fields = (Field(name, "k", key.sql_type),
              Field(name, "v", SqlType.INTEGER))
    values = Column.from_numpy(SqlType.INTEGER,
                               np.arange(len(key), dtype=np.int64))
    table = Table(Schema.of(("k", key.sql_type), ("v", SqlType.INTEGER)),
                  [key, values])
    return LogicalTempScan(name, name, fields), table


def ref(table: str, name: str) -> ast.ColumnRef:
    return ast.ColumnRef(name, table)


RESIDUALS = {
    "none": None,
    # Both sides: a NULL-padded pair never passes.
    "both": ast.BinaryOp(ast.BinaryOperator.LT, ref("l", "v"),
                         ref("r", "v")),
    # Left side only: under LEFT/FULL it stays in the ON clause, and a
    # padded pair would pass it.
    "left": ast.BinaryOp(ast.BinaryOperator.GT, ref("l", "v"),
                         ast.Literal(0)),
}


def join_condition(residual: str) -> ast.Expr:
    equi = ast.BinaryOp(ast.BinaryOperator.EQ, ref("l", "k"), ref("r", "k"))
    if RESIDUALS[residual] is None:
        return equi
    return ast.BinaryOp(ast.BinaryOperator.AND, equi, RESIDUALS[residual])


picks = st.lists(st.one_of(st.none(), st.integers(0, 5)),
                 min_size=0, max_size=8)


class TestKeyEquality:
    @settings(max_examples=150, deadline=None)
    @given(sql_type=st.sampled_from(sorted(ALPHABETS, key=str)),
           first=picks, second=picks, repeat=st.booleans())
    def test_same_values_is_bitwise(self, sql_type, first, second, repeat):
        a = key_column(sql_type, first)
        b = key_column(sql_type, first if repeat else second)
        assert same_values(a, b) == bitwise_equal(a, b)
        assert same_values(a, a)

    def test_signed_zero_and_nan_payloads_differ(self):
        zero = key_column(SqlType.FLOAT, [0])
        assert not same_values(zero, key_column(SqlType.FLOAT, [1]))
        assert not same_values(key_column(SqlType.FLOAT, [3]),
                               key_column(SqlType.FLOAT, [4]))
        assert same_values(key_column(SqlType.FLOAT, [3]),
                           key_column(SqlType.FLOAT, [3]))

    def test_type_and_mask_are_part_of_the_key(self):
        ints = key_column(SqlType.INTEGER, [0, 1])
        assert not same_values(ints, Column.from_numpy(
            SqlType.FLOAT, ints.data.astype(np.float64)))
        # Same data, one slot NULL.
        masked = Column.from_numpy(SqlType.INTEGER, ints.data.copy(),
                                   np.array([False, True]))
        assert not same_values(ints, masked)


class TestMemoLifetime:
    def test_hit_keeps_the_entry(self):
        memo, site, pairs = TripMemo(), object(), object()
        keys = [key_column(SqlType.INTEGER, [0, 1])]
        memo.keep(site, PAIRS, keys, pairs)
        assert not memo.reused(site, PAIRS)
        assert memo.reuse(site, PAIRS, keys) is pairs
        assert memo.reuse(site, PAIRS, keys) is pairs
        assert memo.reused(site, PAIRS)

    def test_miss_drops_the_entry(self):
        memo, site, pairs = TripMemo(), object(), object()
        memo.keep(site, PAIRS, [key_column(SqlType.INTEGER, [0])], pairs)
        assert memo.reuse(site, PAIRS,
                          [key_column(SqlType.INTEGER, [1])]) is None
        assert not memo.reused(site, PAIRS)
        assert memo.reuse(site, PAIRS,
                          [key_column(SqlType.INTEGER, [0])]) is None

    def test_two_misses_in_a_row_stop_keeping(self):
        memo, site = TripMemo(), object()
        trip = [key_column(SqlType.INTEGER, [k]) for k in range(3)]
        memo.keep(site, PAIRS, [trip[0]], "pairs 0")
        assert memo.reuse(site, PAIRS, [trip[1]]) is None
        memo.keep(site, PAIRS, [trip[1]], "pairs 1")
        assert memo.reuse(site, PAIRS, [trip[2]]) is None
        memo.keep(site, PAIRS, [trip[2]], "pairs 2")
        # Nothing was kept, so even repeated keys miss from now on.
        assert memo.reuse(site, PAIRS, [trip[2]]) is None

    def test_a_hit_resets_the_miss_count(self):
        memo, site = TripMemo(), object()
        first, second = (key_column(SqlType.INTEGER, [k]) for k in (0, 1))
        memo.keep(site, PAIRS, [first], "pairs 0")
        assert memo.reuse(site, PAIRS, [second]) is None
        memo.keep(site, PAIRS, [second], "pairs 1")
        assert memo.reuse(site, PAIRS, [second]) == "pairs 1"
        assert memo.reuse(site, PAIRS, [first]) is None
        memo.keep(site, PAIRS, [first], "pairs 2")
        assert memo.reuse(site, PAIRS, [first]) == "pairs 2"

    def test_slots_of_one_site_are_separate_entries(self):
        memo, site = TripMemo(), object()
        keys = [key_column(SqlType.INTEGER, [0])]
        memo.keep(site, PAIRS, keys, "pairs")
        memo.keep(site, GROUPING, keys, "grouping")
        assert memo.reuse(site, 0, keys) is None
        assert memo.reuse(site, GROUPING, keys) == "grouping"
        assert memo.reuse(site, PAIRS, keys) == "pairs"

    def test_an_index_vector_repeats_only_as_the_same_object(self):
        memo, site = TripMemo(), object()
        column = key_column(SqlType.INTEGER, [0, 1])
        indices = np.array([1, 0], dtype=np.int64)
        memo.keep(site, 0, (indices, column), "gathered")
        # The same index object and an equal source column: a hit.
        assert memo.reuse(site, 0, (indices, key_column(
            SqlType.INTEGER, [0, 1]))) == "gathered"
        # An equal index vector that is a new object: a miss.
        assert memo.reuse(site, 0, (indices.copy(), column)) is None


class TestSiteReuse:
    """Two trips through one join site: the second reuses the first's
    pairs exactly when both sides' keys are bitwise equal, and its frame
    always equals a fresh computation."""

    @settings(max_examples=120, deadline=None)
    @given(sql_type=st.sampled_from(sorted(ALPHABETS, key=str)),
           kind=st.sampled_from([ast.JoinKind.INNER, ast.JoinKind.LEFT,
                                 ast.JoinKind.RIGHT, ast.JoinKind.FULL]),
           residual=st.sampled_from(sorted(RESIDUALS)),
           trip1=st.tuples(picks, picks), trip2=st.tuples(picks, picks),
           repeat_left=st.booleans(), repeat_right=st.booleans())
    def test_reuse_only_on_equal_keys(self, sql_type, kind, residual,
                                      trip1, trip2, repeat_left,
                                      repeat_right):
        left1, right1 = (key_column(sql_type, p) for p in trip1)
        left2 = key_column(sql_type,
                           trip1[0] if repeat_left else trip2[0])
        right2 = key_column(sql_type,
                            trip1[1] if repeat_right else trip2[1])
        scan_l, _ = side("l", left1)
        scan_r, _ = side("r", right1)
        op = LogicalJoin(kind, scan_l, scan_r, join_condition(residual))
        ctx = ExecutionContext(Catalog(), ResultRegistry())
        ctx.trip_memo = TripMemo()
        for left, right in ((left1, right1), (left2, right2)):
            ctx.registry.store("l", side("l", left)[1])
            ctx.registry.store("r", side("r", right)[1])
            before = ctx.stats.join_pair_reuses
            frame = execute_plan(op, ctx)
            fresh = ExecutionContext(Catalog(), ctx.registry)
            assert_frames_identical(execute_plan(op, fresh), frame)
        assert ctx.stats.join_pair_reuses - before == int(
            bitwise_equal(left1, left2) and bitwise_equal(right1, right2))


# ---------------------------------------------------------------------------
# Loops that hit and loops that miss
# ---------------------------------------------------------------------------


def chain_db(**options) -> Database:
    db = Database(SessionOptions(enable_plan_cache=False, **options))
    db.execute("CREATE TABLE edge (a INTEGER, b INTEGER)")
    db.execute("INSERT INTO edge VALUES (1, 2), (2, 3), (3, 4), (4, 5)")
    db.execute("CREATE TABLE nodes (id INTEGER, w INTEGER)")
    db.execute("INSERT INTO nodes VALUES (1, 10), (2, 20), (3, 30), "
               "(4, 40), (5, 50)")
    return db


def items_db() -> Database:
    db = chain_db()
    db.execute("CREATE TABLE items (k INTEGER, j INTEGER)")
    db.execute("INSERT INTO items VALUES (1, 1), (1, 2), (2, 1), (2, 2), "
               "(3, 1)")
    return db


WALK = """
WITH ITERATIVE walk (node, hops) AS (
  SELECT a, 0 FROM edge WHERE a = 1
  ITERATE
  SELECT edge.b, walk.hops + 1 FROM walk JOIN edge ON walk.node = edge.a
  UNTIL 3 ITERATIONS
) SELECT node, hops FROM walk"""

GROUPED_WALK = """
WITH ITERATIVE walk (node, hops) AS (
  SELECT a, 0 FROM edge WHERE a = 1
  ITERATE
  SELECT edge.b, MAX(walk.hops) + 1 FROM walk JOIN edge
    ON walk.node = edge.a GROUP BY edge.b
  UNTIL 3 ITERATIONS
) SELECT node, hops FROM walk"""

RIGHT_JOIN = """
WITH ITERATIVE s (node, score) AS (
  SELECT id, 0 FROM nodes
  ITERATE
  SELECT n.id, COALESCE(s.score, 0) + n.w FROM s RIGHT JOIN nodes n
    ON s.node = n.id
  UNTIL 4 ITERATIONS
) SELECT node, score FROM s ORDER BY node"""

RESIDUAL_JOIN = """
WITH ITERATIVE s (node, score) AS (
  SELECT id, 0 FROM nodes
  ITERATE
  SELECT n.id, COALESCE(s.score, 100) + 1 FROM nodes n LEFT JOIN s
    ON n.id = s.node AND s.score < n.w - 20
  UNTIL 4 ITERATIONS
) SELECT node, score FROM s ORDER BY node"""


class TestLoops:
    def test_changing_key_misses(self):
        db = chain_db()
        table, taken = counted(db, WALK)
        # The walk's node column is a new value every trip.
        assert taken == dict.fromkeys(KINDS, 0)
        assert table.rows() == [(4, 3)]
        # So is the GROUP BY key, the edge's target.
        table, taken = counted(db, GROUPED_WALK)
        assert taken == dict.fromkeys(KINDS, 0)
        assert table.rows() == [(4, 3)]

    def test_changing_key_stops_keeping(self, monkeypatch):
        kept = []
        real_keep = TripMemo.keep

        def keep(self, site, slot, inputs, value):
            real_keep(self, site, slot, inputs, value)
            if slot == PAIRS:
                kept.append(self._entries[id(site), slot][2] is value)

        monkeypatch.setattr(TripMemo, "keep", keep)
        db = chain_db()
        db.execute(WALK.replace("UNTIL 3", "UNTIL 4"))
        # Trips 1 and 2 keep their pairs; misses on trips 2 and 3 stop
        # the site, so trips 3 and 4 keep nothing.
        assert kept == [True, True, False, False]

    def test_right_join_site_is_reused(self):
        db = chain_db()
        table, taken = reuses(db, RIGHT_JOIN)
        assert table.rows() == [(i, 4 * 10 * i) for i in range(1, 6)]
        # Trip 1 fills the memo; trips 2-4 reuse the mirrored join's
        # pairs, kept under the original RIGHT join node.
        assert taken == 3
        off, _ = reuses(chain_db(enable_kernel_cache=False), RIGHT_JOIN)
        assert_tables_identical(off, table)

    def test_residual_join_reuses_equi_pairs(self, monkeypatch):
        db = chain_db()
        calls = []
        real = operators._residual_pairs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(operators, "_residual_pairs", counting)
        table, taken = reuses(db, RESIDUAL_JOIN)
        # The residual drops nodes 1 and 2 on every trip, so they are
        # padded after the matched rows: the register's key column reads
        # 1..5 on trip 1 and 3, 4, 5, 1, 2 from trip 2 on.  Trip 2
        # misses, trips 3 and 4 reuse the equi pairs, and the residual
        # runs on every trip.
        assert table.rows() == [(1, 101), (2, 101), (3, 4), (4, 4), (5, 4)]
        assert taken == 2
        assert len(calls) == 4
        with monkeypatch.context() as patch:
            memo_off(patch)
            off, _ = reuses(chain_db(), RESIDUAL_JOIN)
        assert_tables_identical(off, table)

    def test_pagerank_reuse_count(self):
        db = graph_db()
        iterations = 6
        _, taken = counted(db, pagerank_query(iterations=iterations))
        # Both joins miss on trips 1 and 2: trip 1 fills the memo, and
        # the register's rows come in R0's UNION order on trip 1 but in
        # the GROUP BY's order from trip 2 on.  Trips 3-6 reuse both,
        # and so does the GROUP BY's grouping of PageRank.node.  The
        # lower join keeps its gathers from trip 3, its first pair
        # reuse, and reuses those of PageRank.node, IncomingEdges.src
        # and IncomingEdges.weight from trip 4 on (rank and delta
        # change every trip).
        assert taken == {"pairs": 2 * (iterations - 2),
                         "gathers": 3 * (iterations - 3),
                         "groupings": iterations - 2}

    def test_changing_columns_stop_being_kept(self, monkeypatch):
        kept = []
        real_keep = TripMemo.keep

        def keep(self, site, slot, inputs, value):
            real_keep(self, site, slot, inputs, value)
            if isinstance(slot, int):
                kept.append(self._entries[id(site), slot][2] is value)

        monkeypatch.setattr(TripMemo, "keep", keep)
        graph_db().execute(pagerank_query(iterations=6))
        # Trips 1 and 2 reuse no pairs and keep no gathers.  Trip 3
        # keeps all six: the lower join's five and the upper join's
        # IncomingRank.delta.  From trip 4 on the three reused ones stay
        # kept without a keep; the three that change every trip (rank
        # and delta; IncomingRank.delta) miss and are kept once more on
        # trip 4, then miss a second time and keep nothing more.
        assert kept == [True] * 9 + [False] * 6

    def test_second_key_falls_back_while_lead_repeats(self):
        db = items_db()
        db.set_option("enable_tracing", True)
        sql = """
        WITH ITERATIVE s (node, score) AS (
          SELECT k, 0 FROM items WHERE j = 1
          ITERATE
          SELECT s.node, MIN(s.score) + 1 FROM s JOIN items
            ON s.node = items.k
          GROUP BY s.node, CASE WHEN s.score >= 2 THEN items.j ELSE 0 END
          UNTIL 4 ITERATIONS
        ) SELECT node, score FROM s ORDER BY node, score"""
        before = db.stats.snapshot()
        table, taken = counted(db, sql)
        delta = db.stats.delta_since(before)
        (loop,) = db.last_trace().to_dict()["loops"]
        # Trips 1 and 2 group on s.node alone.  On trip 3 the lead
        # repeats trip 2's and its grouping is reused, but s.score has
        # reached 2, so the second key splits nodes 1 and 2: the
        # per-group check refutes the lead and the keys are encoded in
        # full.  Trip 4's register has five rows, a new lead column,
        # and falls back too.
        assert [r["grouping_reuses"] for r in loop["iterations"]] \
            == [0, 1, 1, 0]
        assert delta["determinant_fallbacks"] == 2
        assert table.rows() == [(1, 4), (1, 4), (2, 4), (2, 4), (3, 4)]
        with pytest.MonkeyPatch.context() as patch:
            memo_off(patch, "groupings")
            off, forced = counted(items_db(), sql)
        assert forced["groupings"] == 0
        assert_tables_identical(off, table)

    def test_memo_freed_at_loop_end(self, monkeypatch):
        contexts = []
        real = loop_engine.LoopEngine.evaluate

        def evaluate(self, step):
            jump = real(self, step)
            contexts.append((jump, self._ctx.trip_memo))
            return jump

        monkeypatch.setattr(loop_engine.LoopEngine, "evaluate", evaluate)
        graph_db().execute(pagerank_query(iterations=3))
        assert [jump is None for jump, _ in contexts] == [False] * 2 + [True]
        assert all(isinstance(memo, TripMemo)
                   for _, memo in contexts[:-1])
        assert contexts[-1][1] is None


class TestObservability:
    def test_explain_analyze_prints_reuses(self):
        report = graph_db().explain_analyze(pagerank_query(iterations=4))
        assert ("pair reuses=4, gather reuses=3, grouping reuses=2"
                in report)

    def test_iteration_records_carry_reuses(self):
        db = graph_db(enable_tracing=True)
        _, taken = counted(db, pagerank_query(iterations=5))
        payload = db.last_trace().to_dict()
        validate_trace_dict(payload)
        (loop,) = payload["loops"]
        per_trip = {kind: [r[name] for r in loop["iterations"]]
                    for kind, name in COUNTERS.items()}
        assert per_trip == {"pairs": [0, 0, 2, 2, 2],
                            "gathers": [0, 0, 0, 3, 3],
                            "groupings": [0, 0, 1, 1, 1]}
        assert {kind: sum(trips) for kind, trips in per_trip.items()} \
            == taken

    def test_reuse_does_not_count_as_index_hit(self):
        db = graph_db()
        before = db.stats.snapshot()
        db.execute(pagerank_query(iterations=6))
        warm = db.stats.delta_since(before)
        with pytest.MonkeyPatch.context() as patch:
            memo_off(patch)
            before = db.stats.snapshot()
            db.execute(pagerank_query(iterations=6))
            cold = db.stats.delta_since(before)
        lookups = (lambda d: d["join_index_hits"] + d["join_index_misses"])
        # Each reuse skips the join's one index lookup.
        assert lookups(cold) - lookups(warm) == warm["join_pair_reuses"]
        assert warm["single_match_joins"] == cold["single_match_joins"]


# ---------------------------------------------------------------------------
# Concurrency: the memo is per run, never on the shared plan
# ---------------------------------------------------------------------------


def table_digest(table: Table) -> list[str]:
    digests = []
    for column in table.columns:
        h = hashlib.sha256(column.mask.tobytes())
        if column.data.dtype == object:
            h.update(repr([(type(v), v) for v in column.data]).encode())
        else:
            h.update(column.data.tobytes())
        digests.append(h.hexdigest())
    return digests


def records(session) -> list[dict]:
    """The counters of each iteration record of the session's last
    traced loop (every field but the wall time)."""
    (loop,) = session.last_trace().to_dict()["loops"]
    return [{key: value for key, value in record.items()
             if key != "seconds"} for record in loop["iterations"]]


class TestConcurrentRuns:
    def test_two_sessions_each_own_their_memo(self, monkeypatch):
        sql = pagerank_query(iterations=6)
        db = Database()
        load_graph(db, SPEC, with_vertex_status=True,
                   available_fraction=0.7)
        expected, single = reuses(db, sql)  # also caches the plan
        traced = SessionOptions(enable_tracing=True)
        with serve(db, workers=2) as server:
            alone = server.connect(options=traced)
            alone.execute(sql)
            lone_records = records(alone.session)

        hits: dict[int, list] = {}
        real_reuse = TripMemo.reuse
        lock = threading.Lock()

        def recording(self, site, slot, inputs):
            value = real_reuse(self, site, slot, inputs)
            if slot == PAIRS:
                with lock:
                    hits.setdefault(id(self), [self, 0])[1] += \
                        value is not None
            return value

        # Both runs are inside their loops at the same time.
        barrier = threading.Barrier(2, timeout=60)
        real_init = loop_engine.LoopEngine.init_loop

        def init_together(self, spec):
            real_init(self, spec)
            barrier.wait()

        monkeypatch.setattr(TripMemo, "reuse", recording)
        monkeypatch.setattr(loop_engine.LoopEngine, "init_loop",
                            init_together)
        before = db.stats.snapshot()
        with serve(db, workers=2) as server:
            clients = [server.connect(options=traced) for _ in range(2)]
            futures = [client.submit(sql) for client in clients]
            tables = [future.result(timeout=120).table
                      for future in futures]
        delta = db.stats.delta_since(before)
        assert delta["plan_cache_hits"] == 2
        for table in tables:
            assert table_digest(table) == table_digest(expected)
        # One memo per run, each reusing exactly what a lone run does.
        assert sorted(count for _, count in hits.values()) \
            == [single, single]
        assert delta["join_pair_reuses"] == 2 * single
        # Each run's iteration records count its own work alone, as a
        # lone run's do, although the engine-wide counters moved under
        # both runs: reuses, kernel-cache hits and misses, moved rows.
        assert [r["join_pair_reuses"] for r in lone_records] \
            == [0, 0, 2, 2, 2, 2]
        for client in clients:
            assert records(client.session) == lone_records

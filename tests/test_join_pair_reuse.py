"""Trip-stable join pairs: a loop body reuses last trip's pairs while
its key columns repeat.

A join's pairs depend only on its key values, so a join site inside a
running loop keeps its key columns and pairs
(``kernel_cache.JoinPairMemo``) and hands the pairs back on a later trip
whose key columns are the same objects or bitwise equal, masks included.
Every plan a step executes must return exactly the same frame with the
memo on and forced off, reuse must happen only on bitwise-equal keys,
and the memo belongs to one program run, never to a shared plan.
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
from repro.execution.kernel_cache import JoinPairMemo, same_values
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


def memo_off(patch) -> None:
    """Force the memo off: nothing is reused and nothing kept."""
    patch.setattr(JoinPairMemo, "reuse", lambda self, site, keys: None)
    patch.setattr(JoinPairMemo, "keep", lambda self, site, keys, pairs: None)


def reuses(db, sql) -> tuple[Table, int]:
    before = db.stats.snapshot()
    table = db.execute(sql).table
    return table, db.stats.delta_since(before)["join_pair_reuses"]


def assert_tables_identical(expected: Table, actual: Table) -> None:
    assert actual.schema == expected.schema
    for a, b in zip(expected.columns, actual.columns):
        assert_columns_identical(a, b)


# ---------------------------------------------------------------------------
# Bit identity: every plan, memo on against memo forced off
# ---------------------------------------------------------------------------


@pytest.fixture
def checked_plans(monkeypatch):
    """Run every plan a step executes with the memo forced off and on,
    comparing the two frames.  Yields the list of compared plans."""
    plans = []

    def wrap(original):
        def checking(plan, ctx, names=None):
            with monkeypatch.context() as patch:
                memo_off(patch)
                expected = execute_plan(plan, ctx)
            assert_frames_identical(expected, execute_plan(plan, ctx))
            plans.append(plan)
            return original(plan, ctx, names)
        return checking

    for module in (materialize_handler, delta_handler):
        monkeypatch.setattr(module, "execute_to_table",
                            wrap(module.execute_to_table))
    return plans


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
            off, forced = reuses(db, WORKLOADS[name])
        on, taken = reuses(db, WORKLOADS[name])
        assert_tables_identical(off, on)
        assert forced == 0
        if name.startswith("pr"):
            assert taken > 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_kernel_cache_off_keeps_no_memo(self, name):
        on, _ = reuses(graph_db(), WORKLOADS[name])
        off, taken = reuses(graph_db(enable_kernel_cache=False),
                            WORKLOADS[name])
        assert_tables_identical(on, off)
        assert taken == 0


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
        memo, site, pairs = JoinPairMemo(), object(), object()
        keys = [key_column(SqlType.INTEGER, [0, 1])]
        memo.keep(site, keys, pairs)
        assert memo.reuse(site, keys) is pairs
        assert memo.reuse(site, keys) is pairs
        assert memo.reuses == 2

    def test_miss_drops_the_entry(self):
        memo, site, pairs = JoinPairMemo(), object(), object()
        memo.keep(site, [key_column(SqlType.INTEGER, [0])], pairs)
        assert memo.reuse(site, [key_column(SqlType.INTEGER, [1])]) is None
        assert memo.reuse(site, [key_column(SqlType.INTEGER, [0])]) is None
        assert memo.reuses == 0

    def test_two_misses_in_a_row_stop_keeping(self):
        memo, site = JoinPairMemo(), object()
        trip = [key_column(SqlType.INTEGER, [k]) for k in range(3)]
        memo.keep(site, [trip[0]], "pairs 0")
        assert memo.reuse(site, [trip[1]]) is None
        memo.keep(site, [trip[1]], "pairs 1")
        assert memo.reuse(site, [trip[2]]) is None
        memo.keep(site, [trip[2]], "pairs 2")
        # Nothing was kept, so even repeated keys miss from now on.
        assert memo.reuse(site, [trip[2]]) is None

    def test_a_hit_resets_the_miss_count(self):
        memo, site = JoinPairMemo(), object()
        first, second = (key_column(SqlType.INTEGER, [k]) for k in (0, 1))
        memo.keep(site, [first], "pairs 0")
        assert memo.reuse(site, [second]) is None
        memo.keep(site, [second], "pairs 1")
        assert memo.reuse(site, [second]) == "pairs 1"
        assert memo.reuse(site, [first]) is None
        memo.keep(site, [first], "pairs 2")
        assert memo.reuse(site, [first]) == "pairs 2"


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
        ctx.join_pairs = JoinPairMemo()
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


WALK = """
WITH ITERATIVE walk (node, hops) AS (
  SELECT a, 0 FROM edge WHERE a = 1
  ITERATE
  SELECT edge.b, walk.hops + 1 FROM walk JOIN edge ON walk.node = edge.a
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
        table, taken = reuses(db, WALK)
        # The walk's node column is a new value every trip.
        assert taken == 0
        assert table.rows() == [(4, 3)]

    def test_changing_key_stops_keeping(self, monkeypatch):
        kept = []
        real_keep = JoinPairMemo.keep

        def keep(self, site, keys, pairs):
            real_keep(self, site, keys, pairs)
            kept.append(self._sites[id(site)][2] is pairs)

        monkeypatch.setattr(JoinPairMemo, "keep", keep)
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
        _, taken = reuses(db, pagerank_query(iterations=iterations))
        # Both joins miss on trips 1 and 2: trip 1 fills the memo, and
        # the register's rows come in R0's UNION order on trip 1 but in
        # the GROUP BY's order from trip 2 on.  Trips 3-6 reuse both.
        assert taken == 2 * (iterations - 2)

    def test_memo_freed_at_loop_end(self, monkeypatch):
        contexts = []
        real = loop_engine.LoopEngine.evaluate

        def evaluate(self, step):
            jump = real(self, step)
            contexts.append((jump, self._ctx.join_pairs))
            return jump

        monkeypatch.setattr(loop_engine.LoopEngine, "evaluate", evaluate)
        graph_db().execute(pagerank_query(iterations=3))
        assert [jump is None for jump, _ in contexts] == [False] * 2 + [True]
        assert all(isinstance(memo, JoinPairMemo)
                   for _, memo in contexts[:-1])
        assert contexts[-1][1] is None


class TestObservability:
    def test_explain_analyze_prints_reuses(self):
        report = graph_db().explain_analyze(pagerank_query(iterations=4))
        assert "pair reuses=4" in report

    def test_iteration_records_carry_reuses(self):
        db = graph_db(enable_tracing=True)
        _, taken = reuses(db, pagerank_query(iterations=5))
        payload = db.last_trace().to_dict()
        validate_trace_dict(payload)
        (loop,) = payload["loops"]
        per_trip = [r["join_pair_reuses"] for r in loop["iterations"]]
        assert per_trip == [0, 0, 2, 2, 2]
        assert sum(per_trip) == taken

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


class TestConcurrentRuns:
    def test_two_sessions_each_own_their_memo(self, monkeypatch):
        sql = pagerank_query(iterations=6)
        db = Database()
        load_graph(db, SPEC, with_vertex_status=True,
                   available_fraction=0.7)
        expected, single = reuses(db, sql)  # also caches the plan

        hits: dict[int, list] = {}
        real_reuse = JoinPairMemo.reuse
        lock = threading.Lock()

        def recording(self, site, keys):
            pairs = real_reuse(self, site, keys)
            with lock:
                hits.setdefault(id(self), [self, 0])[1] += \
                    pairs is not None
            return pairs

        # Both runs are inside their loops at the same time.
        barrier = threading.Barrier(2, timeout=60)
        real_init = loop_engine.LoopEngine.init_loop

        def init_together(self, spec):
            real_init(self, spec)
            barrier.wait()

        monkeypatch.setattr(JoinPairMemo, "reuse", recording)
        monkeypatch.setattr(loop_engine.LoopEngine, "init_loop",
                            init_together)
        before = db.stats.snapshot()
        traced = SessionOptions(enable_tracing=True)
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
        # Each run's iteration records count its own reuses alone,
        # although the engine-wide counter moved under both runs.
        for client in clients:
            (loop,) = client.session.last_trace().to_dict()["loops"]
            assert [r["join_pair_reuses"] for r in loop["iterations"]] \
                == [0, 0, 2, 2, 2, 2]

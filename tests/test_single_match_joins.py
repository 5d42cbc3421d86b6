"""Single-match equi joins: pairs read off the buckets, probe side passed
through.

When no probe row matches more than one build row, ``equi_join_pairs``
skips the range expansion, and when every probe row matches exactly
once it returns the identity form (``left_idx`` None): an INNER or LEFT
join then emits the probe side's columns as the same objects and
gathers only the build side, a semi join returns its input and an anti
join an empty frame.  Every plan a step executes must return exactly the
same frame with the path on and forced off.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.execution.operators as operators
import repro.runtime.conditions as conditions
from repro import Database
from repro.execution import execute_plan
from repro.execution.kernels import (
    JoinPairs,
    build_probe_index,
    expand_ranges,
    probe_buckets,
)
from repro.plan.logical import LogicalJoin
from repro.runtime.handlers import delta as delta_handler
from repro.runtime.handlers import materialize as materialize_handler
from repro.storage import Column
from repro.types import SqlType
from repro.workloads import pagerank_query

from test_differential_sqlite import CORPUS
from test_join_pair_reuse import memo_off
from test_prune_columns import (
    WORKLOADS,
    assert_columns_identical,
    assert_frames_identical,
    corpus_db,
    graph_db,
)


def expanded_pairs(left_codes, right_codes, right_index=None) -> JoinPairs:
    """``equi_join_pairs`` with the single-match path forced off: every
    join expands its bucket ranges and gathers both sides."""
    if right_index is None:
        right_index = build_probe_index(right_codes, len(left_codes))
    lo, counts = probe_buckets(left_codes, right_index)
    left_idx = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    return JoinPairs(left_idx,
                     right_index.positions[expand_ranges(lo, counts)],
                     False)


def force_off(patch) -> None:
    for module in (operators, conditions):
        patch.setattr(module, "equi_join_pairs", expanded_pairs)
    # A loop's pair memo would hand either side the other's pairs: the
    # forced-off run neither reads nor writes it.
    memo_off(patch)


@pytest.fixture
def checked_plans(monkeypatch):
    """Run every plan a step executes with the path forced off and on,
    comparing the two frames.  Yields the list of compared plans."""
    plans = []

    def wrap(original):
        def checking(plan, ctx, names=None):
            with monkeypatch.context() as patch:
                force_off(patch)
                expected = execute_plan(plan, ctx)
            assert_frames_identical(expected, execute_plan(plan, ctx))
            plans.append(plan)
            return original(plan, ctx, names)
        return checking

    for module in (materialize_handler, delta_handler):
        monkeypatch.setattr(module, "execute_to_table",
                            wrap(module.execute_to_table))
    return plans


def on_and_off(db, sql, monkeypatch):
    """The statement's result with the path on and forced off, and the
    single-match joins each run counted."""
    results, counts = [], []
    for off in (False, True):
        with monkeypatch.context() as patch:
            if off:
                force_off(patch)
            before = db.stats.snapshot()
            results.append(db.execute(sql).table)
            counts.append(db.stats.delta_since(before)["single_match_joins"])
    return results, counts


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
        (on, off), (taken, forced) = on_and_off(db, WORKLOADS[name],
                                               monkeypatch)
        assert on.schema == off.schema
        for a, b in zip(off.columns, on.columns):
            assert_columns_identical(a, b)
        assert forced == 0
        if name.startswith("pr"):
            # IncomingRank: every edge's source is one CTE row.
            assert taken > 0


@pytest.fixture
def join_trace(monkeypatch):
    """Per executed join, the ``Column.take`` calls made by the join
    itself (not its inputs), its left input's frame and its output."""
    records = []
    stack = []
    frames = {}
    takes = Counter()
    real_execute = operators.execute_plan
    real_take = Column.take

    def counting_take(self, *args, **kwargs):
        if stack:
            takes[id(stack[-1])] += 1
        return real_take(self, *args, **kwargs)

    def tracing_execute(op, ctx):
        stack.append(op)
        takes[id(op)] = 0
        try:
            frame = real_execute(op, ctx)
        finally:
            stack.pop()
        frames[id(op)] = frame
        if isinstance(op, LogicalJoin):
            records.append((op, takes[id(op)], frames[id(op.left)], frame))
        return frame

    monkeypatch.setattr(Column, "take", counting_take)
    monkeypatch.setattr(operators, "execute_plan", tracing_execute)
    return records


class TestPageRankTrip:
    ITERATIONS = 4

    def upper_joins(self, records):
        """The ``LEFT JOIN PageRank AS IncomingRank`` of every trip."""
        return [record for record in records
                if isinstance(record[0].left, LogicalJoin)]

    def test_upper_join_gathers_only_the_build_side(self, join_trace):
        db = graph_db()
        before = db.stats.snapshot()
        db.execute(pagerank_query(iterations=self.ITERATIONS))
        delta = db.stats.delta_since(before)
        assert delta["single_match_joins"] == self.ITERATIONS
        upper = self.upper_joins(join_trace)
        assert len(upper) == self.ITERATIONS
        for op, takes, left, out in upper:
            # Four probe columns pass through; incomingrank.delta is
            # the one gather.
            assert takes == 1
            assert len(op.output) == 5
            assert out.num_rows == left.num_rows
            for i in range(4):
                assert out.columns[i] is left.columns[op.output[i]]

    def test_forced_off_gathers_every_kept_column(self, join_trace,
                                                  monkeypatch):
        force_off(monkeypatch)
        graph_db().execute(pagerank_query(iterations=self.ITERATIONS))
        upper = self.upper_joins(join_trace)
        assert [takes for _, takes, _, _ in upper] == [5] * self.ITERATIONS


def keyed_db() -> Database:
    db = Database()
    db.create_table("t", [("a", SqlType.INTEGER), ("b", SqlType.INTEGER)])
    db.load_rows("t", [(1, 10), (2, None), (3, 30), (4, 99), (5, 10)])
    db.create_table("u", [("x", SqlType.INTEGER), ("y", SqlType.TEXT)])
    db.load_rows("u", [(30, "c"), (10, "a"), (50, "e")])
    return db


class TestJoinKinds:
    """Unique build keys under every join kind: the same rows in the same
    order as the expanding path, and the counter records the path."""

    @pytest.mark.parametrize("sql,expected", [
        # Unmatched probe rows: matched pairs in left order, then pads.
        ("SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a"), (2, None), (4, None)]),
        ("SELECT t.a, u.y FROM t JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a")]),
        ("SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x AND t.a > 1",
         [(3, "c"), (5, "a"), (1, None), (2, None), (4, None)]),
        ("SELECT t.a, u.y FROM t FULL JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a"), (2, None), (4, None),
          (None, "e")]),
        ("SELECT t.a FROM t WHERE t.b IN (SELECT x FROM u)",
         [(1,), (3,), (5,)]),
        ("SELECT t.a FROM t WHERE NOT EXISTS "
         "(SELECT 1 FROM u WHERE u.x = t.b)", [(2,), (4,)]),
    ])
    def test_partial_match_keeps_order(self, sql, expected, monkeypatch):
        (on, off), (taken, forced) = on_and_off(keyed_db(), sql,
                                               monkeypatch)
        assert on.rows() == off.rows() == expected
        assert (taken, forced) == (1, 0)

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT t.a, u.y FROM t JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a")]),
        ("SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a")]),
        ("SELECT u.y, t.a FROM u RIGHT JOIN t ON t.b = u.x",
         [("a", 1), ("c", 3), ("a", 5)]),
        ("SELECT t.a, u.y FROM t FULL JOIN u ON t.b = u.x",
         [(1, "a"), (3, "c"), (5, "a"), (None, "e")]),
        ("SELECT t.a, u.y FROM t JOIN u ON t.b = u.x AND t.a < 5",
         [(1, "a"), (3, "c")]),
        ("SELECT t.a FROM t WHERE t.b IN (SELECT x FROM u)",
         [(1,), (3,), (5,)]),
        ("SELECT t.a FROM t WHERE t.b NOT IN (SELECT x FROM u)", []),
        ("SELECT t.a FROM t WHERE EXISTS "
         "(SELECT 1 FROM u WHERE u.x = t.b AND u.y <> 'c')", [(1,), (5,)]),
    ])
    def test_every_probe_row_matched(self, sql, expected, monkeypatch):
        db = keyed_db()
        db.execute("DELETE FROM t WHERE b IS NULL OR b = 99")
        (on, off), (taken, forced) = on_and_off(db, sql, monkeypatch)
        assert on.rows() == off.rows() == expected
        assert (taken, forced) == (1, 0)

    def test_duplicate_build_keys_expand(self, monkeypatch):
        db = keyed_db()
        db.execute("INSERT INTO u VALUES (10, 'b')")
        (on, off), (taken, _) = on_and_off(
            db, "SELECT t.a, u.y FROM t JOIN u ON t.b = u.x", monkeypatch)
        assert on.rows() == off.rows() == [(1, "a"), (1, "b"), (3, "c"),
                                           (5, "a"), (5, "b")]
        assert taken == 0

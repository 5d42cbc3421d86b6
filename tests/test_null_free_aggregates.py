"""NULL-free aggregate inputs skip the valid-row bookkeeping.

SUM, AVG, MIN, MAX and COUNT(expr) over an input without NULLs skip the
valid counts and the ``gids[valid]`` / ``data[valid]`` copies, and set
the result mask from the row count alone.  Every result must equal the
masked path's bit for bit (type, mask and data), and every error must be
raised under the same conditions with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.execution.aggregate as aggregate
from repro import Database
from repro.errors import ExecutionError, ReproError
from repro.execution.aggregate import compute_aggregate
from repro.execution.frame import Frame
from repro.plan.logical import Field
from repro.sql import ast
from repro.storage import Column
from repro.types import SqlType

from test_prune_columns import assert_columns_identical

ALPHABETS = {
    SqlType.INTEGER: [0, 1, -1, 7, 1 << 40, -(1 << 40)],
    SqlType.FLOAT: [0.0, -0.0, 1.5, float("nan"), -2.25, 1e300],
    SqlType.TEXT: ["a", "b", "", "ab"],
}
AGGREGATES = ["sum", "avg", "min", "max", "count"]


def masked_path(patch) -> None:
    """Send every input down the masked path."""
    patch.setattr(aggregate, "_null_free", lambda values: False)


def outcome(name: str, column: Column, gids: np.ndarray, n_groups: int):
    """The aggregate's result column, or its error's type and message."""
    frame = Frame((Field(None, "v", column.sql_type),), [column],
                  len(column))
    call = ast.FunctionCall(name, (ast.ColumnRef("v"),))
    try:
        return compute_aggregate(call, frame, gids, n_groups)
    except (ReproError, ValueError) as error:
        # AVG casts its input first: TEXT fails in the cast on both paths.
        return type(error), str(error)


def assert_same_outcome(expected, actual) -> None:
    if isinstance(expected, Column):
        assert isinstance(actual, Column)
        assert_columns_identical(expected, actual)
    else:
        assert actual == expected


def both_paths(name: str, column: Column, gids: np.ndarray,
               n_groups: int) -> None:
    with pytest.MonkeyPatch.context() as patch:
        masked_path(patch)
        expected = outcome(name, column, gids, n_groups)
    assert_same_outcome(expected, outcome(name, column, gids, n_groups))


def column_of(sql_type: SqlType, picks: list[int]) -> Column:
    alphabet = ALPHABETS[sql_type]
    data = np.array([alphabet[p % len(alphabet)] for p in picks],
                    dtype=sql_type.numpy_dtype)
    return Column.from_numpy(sql_type, data)


def dense_gids(picks: list[int]) -> tuple[np.ndarray, int]:
    """Group ids in which every id below the group count occurs, as
    ``_execute_aggregate`` numbers them."""
    uniques = sorted(set(picks))
    gids = np.array([uniques.index(p) for p in picks], dtype=np.int64)
    return gids, len(uniques)


rows = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3)),
                min_size=0, max_size=12)


class TestAgainstMaskedPath:
    @settings(max_examples=200, deadline=None)
    @given(sql_type=st.sampled_from(sorted(ALPHABETS, key=str)),
           name=st.sampled_from(AGGREGATES), rows=rows,
           keyed=st.booleans())
    def test_same_result_or_error(self, sql_type, name, rows, keyed):
        column = column_of(sql_type, [value for value, _ in rows])
        if keyed:
            gids, n_groups = dense_gids([group for _, group in rows])
        else:
            gids, n_groups = np.zeros(len(rows), dtype=np.int64), 1
        assert not column.mask.any()
        both_paths(name, column, gids, n_groups)

    @pytest.mark.parametrize("name", AGGREGATES)
    @pytest.mark.parametrize("sql_type", sorted(ALPHABETS, key=str))
    def test_empty_input(self, sql_type, name):
        empty = column_of(sql_type, [])
        both_paths(name, empty, np.zeros(0, dtype=np.int64), 0)
        # A no-key aggregate over 0 rows has one empty group.
        both_paths(name, empty, np.zeros(0, dtype=np.int64), 1)

    def test_signed_zero_and_nan_keep_their_bits(self):
        column = Column.from_numpy(
            SqlType.FLOAT, np.array([-0.0, -0.0, float("nan"), 1.0]))
        gids = np.array([0, 0, 1, 1], dtype=np.int64)
        for name in AGGREGATES:
            both_paths(name, column, gids, 2)
        # Sums start from 0.0, so -0.0 + -0.0 reads 0.0 on both paths.
        total = outcome("sum", column, gids, 2)
        assert not np.signbit(total.data[0]) and np.isnan(total.data[1])
        assert np.signbit(outcome("min", column, gids, 2).data[0])

    def test_integer_overflow_still_raises(self):
        big = np.iinfo(np.int64).max
        column = Column.from_numpy(SqlType.INTEGER,
                                   np.array([big, 1], dtype=np.int64))
        gids = np.zeros(2, dtype=np.int64)
        expected = (ExecutionError, "integer overflow in SUM")
        assert outcome("sum", column, gids, 1) == expected
        both_paths("sum", column, gids, 1)


class TestStatements:
    def db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (g INTEGER, a INTEGER, f FLOAT, s TEXT)")
        db.execute("INSERT INTO t VALUES (1, 5, 0.5, 'x'), "
                   "(1, 7, -0.0, 'y'), (2, 3, 2.5, 'b')")
        return db

    def test_no_key_aggregate_over_no_rows(self):
        rows = self.db().execute(
            "SELECT SUM(a), COUNT(a), AVG(a), MIN(s), MAX(f) FROM t "
            "WHERE g > 9").table.rows()
        assert rows == [(None, 0, None, None, None)]

    def test_grouped_aggregates(self):
        rows = self.db().execute(
            "SELECT g, SUM(a), COUNT(f), AVG(a), MIN(s), MAX(f) FROM t "
            "GROUP BY g ORDER BY g").table.rows()
        assert rows == [(1, 12, 2, 6.0, "x", 0.5),
                        (2, 3, 1, 3.0, "b", 2.5)]

    def test_integer_overflow_message(self):
        db = self.db()
        db.execute(f"INSERT INTO t VALUES (3, {np.iinfo(np.int64).max}, "
                   "0.0, 'z'), (3, 1, 0.0, 'z')")
        with pytest.raises(ExecutionError, match="integer overflow in SUM"):
            db.execute("SELECT g, SUM(a) FROM t GROUP BY g")

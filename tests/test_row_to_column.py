"""The row -> column boundary: ``Column.from_values``, column-wise INSERT,
and the float -> integer CAST range check.

``Column.from_values`` converts a whole list in one ``np.array`` pass
when the inferred dtype proves the result equal to the per-value
coercion; these tests hold it to a per-value reference built from
``is_null``/``coerce_scalar`` on data, mask, dtype and raised error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ExecutionError, TypeCheckError
from repro.storage import Column
from repro.types import SqlType, coerce_scalar, is_null

FILL = {SqlType.INTEGER: 0, SqlType.FLOAT: 0.0, SqlType.NUMERIC: 0.0,
        SqlType.BOOLEAN: False, SqlType.TEXT: None, SqlType.NULL: None}


def per_value(sql_type, values):
    """The reference: coerce value by value, NULLs (None, NaN) masked."""
    mask = np.array([is_null(v) for v in values], dtype=np.bool_)
    coerced = [FILL[sql_type] if is_null(v) else coerce_scalar(v, sql_type)
               for v in values]
    return np.array(coerced, dtype=sql_type.numpy_dtype), mask


def outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the error's type is what is compared
        return None, type(exc)


def assert_same_column(sql_type, values):
    got, got_error = outcome(lambda: Column.from_values(sql_type, values))
    want, want_error = outcome(lambda: per_value(sql_type, values))
    assert got_error is want_error, (values, got_error, want_error)
    if want is None:
        return
    data, mask = want
    assert got.data.dtype == data.dtype
    assert got.mask.tolist() == mask.tolist()
    valid = ~mask
    if data.dtype.kind == "f":
        # Bit patterns: -0.0 and 0.0 differ, and so must not be confused.
        assert got.data[valid].view(np.int64).tolist() \
            == data[valid].view(np.int64).tolist()
    elif data.dtype == object:
        got_values = got.data[valid].tolist()
        want_values = data[valid].tolist()
        assert got_values == want_values
        assert [type(v) for v in got_values] == [type(v) for v in want_values]
    else:
        assert got.data[valid].tolist() == data[valid].tolist()


INT64_EDGES = [0, 1, -1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
               2 ** 63 - 1, -(2 ** 63), 2 ** 63, 2 ** 64, 2 ** 70]
scalars = st.one_of(
    st.integers(-(2 ** 65), 2 ** 65),
    st.sampled_from(INT64_EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["12", "abc", "1.5", "true", "f", " 7 ", ""]),
    st.text(max_size=3),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
# Homogeneous lists reach the one-pass path; mixed ones mostly do not.
value_lists = st.one_of(
    st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=8),
    st.lists(st.floats(allow_nan=False), max_size=8),
    st.lists(st.one_of(st.integers(-(2 ** 60), 2 ** 60), st.floats()),
             max_size=8),
    st.lists(st.one_of(st.booleans(), st.integers(-5, 5)), max_size=8),
    st.lists(st.booleans(), max_size=8),
    st.lists(st.text(max_size=4), max_size=8),
    st.lists(scalars, max_size=8),
)


class TestFromValues:
    @given(st.sampled_from(list(SqlType)), value_lists)
    @settings(max_examples=600, deadline=None)
    def test_agrees_with_per_value_coercion(self, sql_type, values):
        assert_same_column(sql_type, values)

    @pytest.mark.parametrize("sql_type", list(SqlType))
    @pytest.mark.parametrize("values", [
        [1.0, math.nan, 3.0],
        [True, 2, 3],
        [True, False],
        ["12", "13"],
        [1.7, -1.7],
        [2 ** 70, 1],
        [2 ** 63, 1],
        ["abc"],
        [2 ** 53 + 1, 2 ** 62 + 1, -(2 ** 63)],
        [2 ** 53 + 1, 0.5],
        [math.inf, -math.inf, -0.0],
        [None, 1],
        [np.int64(4), 5],
        [np.float32(0.1), 0.2],
        [[1], [2]],
        [],
    ])
    def test_edge_values(self, sql_type, values):
        assert_same_column(sql_type, values)

    def test_documented_conversions(self):
        assert Column.from_values(SqlType.FLOAT,
                                  [1.0, math.nan]).to_list() == [1.0, None]
        assert Column.from_values(SqlType.INTEGER,
                                  [True, "12", 1.7]).to_list() == [1, 12, 1]
        with pytest.raises(OverflowError):
            Column.from_values(SqlType.INTEGER, [2 ** 70])
        with pytest.raises(ValueError):
            Column.from_values(SqlType.INTEGER, ["abc"])


class TestFloatToIntegerCast:
    @pytest.mark.parametrize("value", ["1e19", "-1e19", "1e308 * 10",
                                       "-1e308 * 10",
                                       "9223372036854775807.0"])
    def test_cast_out_of_range_raises(self, value):
        db = Database()
        with pytest.raises(ExecutionError, match="integer out of range"):
            db.execute(f"SELECT CAST({value} AS INTEGER)")

    def test_insert_select_out_of_range_raises(self):
        db = Database()
        db.execute("CREATE TABLE i (x int)")
        with pytest.raises(ExecutionError, match="integer out of range"):
            db.execute("INSERT INTO i SELECT 1e19")
        assert db.execute("SELECT COUNT(*) FROM i").scalar() == 0

    def test_in_range_truncates(self):
        db = Database()
        assert db.execute(
            "SELECT CAST(-1.7 AS INTEGER), "
            "CAST(-9223372036854775808.0 AS INTEGER)").rows() \
            == [(-1, -(2 ** 63))]

    def test_masked_slots_are_not_range_checked(self):
        column = Column(SqlType.FLOAT, np.array([1e30, np.nan, 2.9]),
                        np.array([True, True, False]))
        assert column.cast(SqlType.INTEGER).to_list() == [None, None, 2]


@pytest.fixture
def people():
    db = Database()
    db.execute("CREATE TABLE people (id int, name text, score float, "
               "active boolean)")
    db.execute("CREATE TABLE src (a int, b text, c float, d int)")
    db.execute("INSERT INTO src VALUES (1, 'x', 0.5, 10), "
               "(2, NULL, NULL, 20), (3, 'z', 2.5, NULL)")
    return db


def table_of(db, name):
    return db.execute(f"SELECT * FROM {name}").rows()


class TestColumnWiseInsert:
    def test_values_column_subset_and_order(self, people):
        people.execute("INSERT INTO people (score, id) "
                       "VALUES (1.5, 7), (NULL, 8)")
        assert table_of(people, "people") == [(7, None, 1.5, None),
                                              (8, None, None, None)]

    def test_select_reordered_columns(self, people):
        people.execute("INSERT INTO people (name, id, score) "
                       "SELECT b, a, c FROM src")
        assert table_of(people, "people") == [
            (1, "x", 0.5, None), (2, None, None, None),
            (3, "z", 2.5, None)]

    def test_select_widens_integer_to_float(self, people):
        people.execute("INSERT INTO people (id, score) "
                       "SELECT a, d FROM src")
        rows = table_of(people, "people")
        assert rows == [(1, None, 10.0, None), (2, None, 20.0, None),
                        (3, None, None, None)]
        assert all(isinstance(row[2], float) for row in rows[:2])

    def test_select_matches_values_insert(self, people):
        people.execute("CREATE TABLE copy (id int, name text, score float, "
                       "active boolean)")
        people.execute("INSERT INTO people VALUES (1, 'a', 2.0, true), "
                       "(2, NULL, NULL, false)")
        people.execute("INSERT INTO copy SELECT * FROM people")
        assert table_of(people, "copy") == table_of(people, "people")

    def test_select_nan_becomes_null(self, people):
        people.execute("INSERT INTO people (id, score) "
                       "SELECT 1, 1e308 * 10 - 1e308 * 10")
        assert table_of(people, "people") == [(1, None, None, None)]

    def test_select_text_fills_boolean(self, people):
        people.execute("INSERT INTO people (id, active) SELECT 1, 'true'")
        assert table_of(people, "people") == [(1, None, None, True)]

    def test_select_appends_to_a_filled_table(self, people):
        people.execute("INSERT INTO people (id) VALUES (0)")
        people.execute("INSERT INTO people (id, score) SELECT a, c FROM src")
        assert [row[:3] for row in table_of(people, "people")] == [
            (0, None, None), (1, None, 0.5), (2, None, None),
            (3, None, 2.5)]

    def test_bad_rows_raise(self, people):
        with pytest.raises(ValueError):
            people.execute("INSERT INTO people (id) VALUES (1), ('abc')")
        with pytest.raises(ValueError):
            people.execute("INSERT INTO people (id) SELECT b FROM src "
                           "WHERE b IS NOT NULL")
        with pytest.raises(TypeCheckError):
            people.execute("INSERT INTO people (id, name) VALUES (1)")
        with pytest.raises(TypeCheckError):
            people.execute("INSERT INTO people (id) SELECT a, b FROM src")
        assert table_of(people, "people") == []

    def test_empty_select_inserts_nothing(self, people):
        result = people.execute("INSERT INTO people (id) "
                                "SELECT a FROM src WHERE a > 99")
        assert result.rowcount == 0
        assert table_of(people, "people") == []

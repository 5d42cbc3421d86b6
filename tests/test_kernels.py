"""Kernel tests: key encoding, join-pair generation, grouping, sorting —
checked against brute-force references with hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.kernels import (
    dense_span,
    distinct_indices,
    encode_keys,
    equi_join_pairs,
    factorize,
    group_ids,
    group_keys,
    lookup_sorted,
    sort_indices,
    unique_sorted,
)
from repro.storage import Column
from repro.types import SqlType

int_lists = st.lists(st.one_of(st.none(), st.integers(-20, 20)), max_size=40)


class TestFactorize:
    def test_basic_codes(self):
        column = Column.from_values(SqlType.INTEGER, [5, 3, 5, 3, 9])
        codes, cardinality = factorize(column, nulls_match=False)
        assert cardinality == 3
        assert codes[0] == codes[2]
        assert codes[1] == codes[3]
        assert len(set(codes.tolist())) == 3

    def test_nulls_no_match(self):
        column = Column.from_values(SqlType.INTEGER, [1, None, 1, None])
        codes, _ = factorize(column, nulls_match=False)
        assert codes[1] == -1 and codes[3] == -1

    def test_nulls_match_form_a_group(self):
        column = Column.from_values(SqlType.INTEGER, [1, None, None])
        codes, cardinality = factorize(column, nulls_match=True)
        assert codes[1] == codes[2] >= 0
        assert cardinality == 2

    def test_text_column(self):
        column = Column.from_values(SqlType.TEXT, ["a", "b", "a", None])
        codes, _ = factorize(column, nulls_match=False)
        assert codes[0] == codes[2]
        assert codes[3] == -1

    def test_empty(self):
        column = Column.from_values(SqlType.INTEGER, [])
        codes, cardinality = factorize(column, nulls_match=False)
        assert len(codes) == 0
        assert cardinality == 0


class TestEncodeKeys:
    def test_multi_column_distinguishes(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 2, 2])
        b = Column.from_values(SqlType.INTEGER, [1, 2, 1, 1])
        codes = encode_keys([a, b], nulls_match=True)
        assert codes[2] == codes[3]
        assert len(set(codes.tolist())) == 3

    def test_null_poisons_join_keys(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1])
        b = Column.from_values(SqlType.INTEGER, [2, None])
        codes = encode_keys([a, b], nulls_match=False)
        assert codes[1] == -1
        assert codes[0] >= 0

    @given(int_lists, int_lists)
    def test_equal_rows_get_equal_codes(self, a_vals, b_vals):
        size = min(len(a_vals), len(b_vals))
        a = Column.from_values(SqlType.INTEGER, a_vals[:size])
        b = Column.from_values(SqlType.INTEGER, b_vals[:size])
        codes = encode_keys([a, b], nulls_match=True)
        rows = list(zip(a_vals[:size], b_vals[:size]))
        for i in range(size):
            for j in range(size):
                assert (codes[i] == codes[j]) == (rows[i] == rows[j])


class TestEquiJoinPairs:
    def _pairs(self, left, right):
        left_col = Column.from_values(SqlType.INTEGER, left)
        right_col = Column.from_values(SqlType.INTEGER, right)
        joint = left_col.concat(right_col)
        codes = encode_keys([joint], nulls_match=False)
        pairs = equi_join_pairs(codes[:len(left)], codes[len(left):])
        li, ri = pairs.left_rows(), pairs.right_idx
        return sorted(zip(li.tolist(), ri.tolist()))

    def test_simple_join(self):
        pairs = self._pairs([1, 2, 3], [2, 3, 3])
        assert pairs == [(1, 0), (2, 1), (2, 2)]

    def test_no_matches(self):
        assert self._pairs([1, 2], [3, 4]) == []

    def test_nulls_never_match(self):
        assert self._pairs([None], [None]) == []

    def test_duplicates_multiply(self):
        pairs = self._pairs([1, 1], [1, 1, 1])
        assert len(pairs) == 6

    def test_empty_sides(self):
        assert self._pairs([], [1]) == []
        assert self._pairs([1], []) == []

    @given(int_lists, int_lists)
    @settings(max_examples=60)
    def test_matches_brute_force(self, left, right):
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left) if lv is not None
            for j, rv in enumerate(right) if rv == lv and rv is not None)
        assert self._pairs(left, right) == expected

    def test_pairs_grouped_by_left_row_order(self):
        left_col = Column.from_values(SqlType.INTEGER, [3, 1, 3])
        right_col = Column.from_values(SqlType.INTEGER, [3, 1])
        joint = left_col.concat(right_col)
        codes = encode_keys([joint], nulls_match=False)
        li = equi_join_pairs(codes[:3], codes[3:]).left_rows()
        assert li.tolist() == sorted(li.tolist())


class TestGroupIds:
    def test_group_structure(self):
        column = Column.from_values(SqlType.INTEGER, [7, 7, 8, 7])
        codes = encode_keys([column], nulls_match=True)
        gids, first = group_ids(codes)
        assert len(first) == 2
        assert gids[0] == gids[1] == gids[3]
        assert gids[2] != gids[0]

    @given(int_lists)
    def test_first_index_points_to_representative(self, values):
        if not values:
            return
        column = Column.from_values(SqlType.INTEGER, values)
        codes = encode_keys([column], nulls_match=True)
        gids, first = group_ids(codes)
        for gid, index in enumerate(first):
            assert gids[index] == gid


class TestDistinct:
    def test_keeps_first_occurrence(self):
        a = Column.from_values(SqlType.INTEGER, [1, 2, 1, 3, 2])
        keep = distinct_indices([a])
        assert keep.tolist() == [0, 1, 3]

    def test_nulls_are_one_value(self):
        a = Column.from_values(SqlType.INTEGER, [None, None, 1])
        assert len(distinct_indices([a])) == 2

    @given(int_lists)
    def test_distinct_count_matches_set(self, values):
        if not values:
            return
        column = Column.from_values(SqlType.INTEGER, values)
        expected = len({(v is None, v) for v in values})
        assert len(distinct_indices([column])) == expected


class TestSort:
    def test_ascending_with_nulls_last(self):
        column = Column.from_values(SqlType.INTEGER, [3, None, 1])
        order = sort_indices([column], [True])
        assert order.tolist() == [2, 0, 1]

    def test_descending(self):
        column = Column.from_values(SqlType.INTEGER, [3, 1, 2])
        order = sort_indices([column], [False])
        assert [column[i] for i in order] == [3, 2, 1]

    def test_multi_key(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 0])
        b = Column.from_values(SqlType.INTEGER, [2, 1, 9])
        order = sort_indices([a, b], [True, True])
        assert order.tolist() == [2, 1, 0]

    def test_stability(self):
        a = Column.from_values(SqlType.INTEGER, [1, 1, 1])
        order = sort_indices([a], [True])
        assert order.tolist() == [0, 1, 2]

    @given(st.lists(st.integers(-50, 50), max_size=40))
    def test_matches_python_sorted(self, values):
        column = Column.from_values(SqlType.INTEGER, values)
        order = sort_indices([column], [True])
        assert [column[i] for i in order] == sorted(values)


# -- unique_sorted / lookup_sorted against numpy ------------------------------

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def assert_unique_matches(values):
    """unique_sorted equals np.unique for every return_* combination:
    data (NaN-aware), dtype, first index and inverse."""
    for return_index, return_inverse in FLAGS:
        got = _as_tuple(unique_sorted(values, return_index=return_index,
                                      return_inverse=return_inverse))
        want = _as_tuple(np.unique(values, return_index=return_index,
                                   return_inverse=return_inverse))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=w.dtype.kind == "f")


@st.composite
def int64_arrays(draw):
    """int64 arrays anywhere in the int64 range, with a span on either
    side of unique_sorted's direct-addressing bound."""
    n = draw(st.integers(0, 50))
    span = draw(st.sampled_from([1, 2 * n + 64, 2 * n + 65, 10 ** 6,
                                 2 ** 64]))
    span = draw(st.integers(1, min(span, 2 ** 64)))
    lo = draw(st.integers(INT64_MIN, INT64_MAX - span + 1))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n,
                            max_size=n))
    return np.array([lo + o for o in offsets], dtype=np.int64)


class TestUniqueSorted:
    @settings(max_examples=300, deadline=None)
    @given(int64_arrays())
    def test_int64_matches_numpy(self, values):
        assert_unique_matches(values)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_spans_on_both_sides_of_the_bound(self, n, extra):
        rng = np.random.default_rng(n + extra)
        span = 2 * n + 64 + extra
        assert dense_span(0, span - 1, n) == (extra == 0)
        for lo in (-5000, 0, 12345, INT64_MIN, INT64_MAX - span + 1):
            values = lo + rng.integers(0, span, size=n)
            values[0], values[-1] = lo, lo + span - 1  # pin the span
            assert_unique_matches(values)

    @pytest.mark.parametrize("values", [
        [INT64_MIN, INT64_MIN + 3, INT64_MIN, INT64_MIN + 1],
        [INT64_MAX, INT64_MAX - 2, INT64_MAX, INT64_MAX - 2],
        [INT64_MAX, INT64_MIN, 0, INT64_MIN, INT64_MAX],
        [INT64_MIN], [INT64_MAX], [0], [],
    ], ids=["min", "max", "both", "min1", "max1", "zero1", "empty"])
    def test_int64_extremes_empty_and_single(self, values):
        assert_unique_matches(np.array(values, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8,
                                       np.uint64])
    def test_narrow_and_unsigned_ints(self, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.max, info.min, info.max, info.min + 1,
                           info.max - 1], dtype=dtype)
        assert_unique_matches(values)
        assert_unique_matches(np.arange(info.min, info.min + 40,
                                        dtype=dtype)[::-3])

    def test_read_only_input(self):
        for values in (np.array([5, 3, 5, 4, 3]),
                       np.array([10 ** 12, 3, 10 ** 12]),
                       np.array([2.5, np.nan, 2.5])):
            values.setflags(write=False)
            assert_unique_matches(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf,
                                     1.5, -2.25]), max_size=30))
    def test_float_specials(self, values):
        values = np.array(values, dtype=np.float64)
        assert_unique_matches(values)
        # build_dictionary's call: the signbit of each unique (which of
        # 0.0 / -0.0 represents the zeros) is numpy's.
        got, _ = unique_sorted(values, return_inverse=True)
        want, _ = np.unique(values, return_inverse=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=3), max_size=30))
    def test_strings(self, values):
        assert_unique_matches(np.array(values, dtype=str))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), max_size=20))
    def test_bools(self, values):
        assert_unique_matches(np.array(values, dtype=np.bool_))


def searchsorted_lookup(haystack, needles):
    """lookup_sorted's binary-search path, spelled out."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=np.bool_)
    positions = np.searchsorted(haystack, needles)
    clipped = np.minimum(positions, len(haystack) - 1)
    return (positions < len(haystack)) & (haystack[clipped] == needles)


class TestLookupSortedTable:
    def check(self, haystack, needles):
        haystack = np.asarray(haystack, dtype=np.int64)
        needles = np.asarray(needles, dtype=np.int64)
        positions, found = lookup_sorted(haystack, needles)
        assert positions.dtype == np.int64
        assert found.tolist() == searchsorted_lookup(haystack,
                                                     needles).tolist()
        assert ((positions >= 0) & (positions < max(len(haystack), 1))).all()
        assert (haystack[positions[found]] == needles[found]).all()

    @settings(max_examples=300, deadline=None)
    @given(int64_arrays(), st.lists(st.integers(-3, 3), max_size=20),
           st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=5))
    def test_matches_binary_search(self, values, nudges, anywhere):
        haystack = np.unique(values)
        near = [int(v) + d for v in values[:len(nudges)]
                for d in nudges if INT64_MIN <= int(v) + d <= INT64_MAX]
        self.check(haystack, near + anywhere + [INT64_MIN, INT64_MAX])

    @pytest.mark.parametrize("haystack", [
        [INT64_MIN, INT64_MIN + 1, INT64_MIN + 5],
        [INT64_MAX - 5, INT64_MAX - 1, INT64_MAX],
        [-3, -1, 0, 2],
        [7],
    ], ids=["at-min", "at-max", "negative", "one"])
    @pytest.mark.parametrize("needles", [
        [], [INT64_MIN], [INT64_MAX], [-4, -3, -2, -1, 0, 1, 2, 3, 7, 8],
        [INT64_MIN + 1, INT64_MAX - 1, INT64_MIN + 5, INT64_MAX - 5],
    ], ids=["empty", "min", "max", "small", "near-extremes"])
    def test_edges(self, haystack, needles):
        assert dense_span(haystack[0], haystack[-1],
                          len(haystack) + len(needles))
        self.check(haystack, needles)

    def test_empty_haystack(self):
        self.check([], [1, INT64_MIN])
        self.check([], [])


# Dependent-key pools: NULL (None), repeated values, and for FLOAT the
# values full encoding treats as equal (NaN with NaN, -0.0 with 0.0).
DEPENDENT_POOLS = {
    SqlType.INTEGER: [None, -1, 0, 0, 7],
    SqlType.FLOAT: [None, np.nan, 0.0, -0.0, 1.5, np.inf],
    SqlType.TEXT: [None, "", "a", "a", "ab"],
}
LEADS = st.one_of(st.none(), st.integers(-3, 3),
                  st.integers(-2 ** 40, 2 ** 40))


def _key_column(draw, sql_type, values):
    """A column whose NULL rows carry data drawn from the same pool, so
    a check that read data under the mask would see equal values."""
    pool = [v for v in DEPENDENT_POOLS[sql_type] if v is not None]
    mask = np.array([v is None for v in values], dtype=np.bool_)
    data = [draw(st.sampled_from(pool)) if v is None else v for v in values]
    return Column.from_numpy(
        sql_type, np.array(data, dtype=sql_type.numpy_dtype), mask)


@st.composite
def grouping_key_tuples(draw):
    """GROUP BY key columns: an INTEGER leading key with NULLs, then
    INTEGER / FLOAT / TEXT keys that depend on it — one pooled value per
    leading key — unless one random row was redrawn afterwards."""
    n = draw(st.integers(0, 30))
    leads = draw(st.lists(LEADS, min_size=n, max_size=n))
    columns = [_key_column(draw, SqlType.INTEGER, leads)]
    for sql_type in draw(st.lists(st.sampled_from(list(DEPENDENT_POOLS)),
                                  max_size=3)):
        pool = st.sampled_from(DEPENDENT_POOLS[sql_type])
        per_lead = {lead: draw(pool) for lead in leads}
        values = [per_lead[lead] for lead in leads]
        if n and draw(st.booleans()):
            values[draw(st.integers(0, n - 1))] = draw(pool)
        columns.append(_key_column(draw, sql_type, values))
    return columns


class TestGroupKeys:
    """group_keys equals full encoding exactly, and takes the leading key
    alone exactly when that key determines the others."""

    @staticmethod
    def check(columns):
        got = group_keys(columns)
        want = group_ids(encode_keys(columns, nulls_match=True))
        for g, w in zip(got[:2], want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        if len(columns) < 2 or columns[0].data.dtype.kind not in "iu":
            assert got.determinant is None
        else:
            lead = group_ids(encode_keys(columns[:1], nulls_match=True))
            assert got.determinant == (len(lead[1]) == len(want[1]))
        return got

    @settings(max_examples=400, deadline=None)
    @given(grouping_key_tuples())
    def test_matches_full_encoding(self, columns):
        self.check(columns)

    def test_nan_and_signed_zero_are_one_value(self):
        lead = Column.from_values(SqlType.INTEGER, [1, 1, 2, 2])
        dependent = Column.from_numpy(
            SqlType.FLOAT, np.array([np.nan, np.nan, 0.0, -0.0]))
        assert self.check([lead, dependent]).determinant is True

    def test_null_is_not_the_value_under_it(self):
        lead = Column.from_values(SqlType.INTEGER, [1, 1])
        dependent = Column.from_numpy(SqlType.INTEGER, np.array([5, 5]),
                                      np.array([False, True]))
        assert self.check([lead, dependent]).determinant is False

    def test_broken_dependency_falls_back(self):
        lead = Column.from_values(SqlType.INTEGER, [1, None, 1, None])
        dependent = Column.from_values(SqlType.TEXT, ["a", "b", "c", "b"])
        assert self.check([lead, dependent]).determinant is False

    @pytest.mark.parametrize("values", [[], [4]], ids=["empty", "one-row"])
    def test_tiny_inputs(self, values):
        lead = Column.from_values(SqlType.INTEGER, values)
        other = Column.from_values(SqlType.FLOAT, [0.5] * len(values))
        self.check([lead])
        assert self.check([lead, other]).determinant is True

    def test_single_key_and_float_lead_encode_in_full(self):
        floats = Column.from_values(SqlType.FLOAT, [0.5, 0.5, 2.0])
        ints = Column.from_values(SqlType.INTEGER, [1, 1, 2])
        assert self.check([ints]).determinant is None
        assert self.check([floats, ints]).determinant is None

"""Property-style tests for the vectorized columnar kernels.

Each kernel is checked against a deliberately naive row-at-a-time
reference implementation over the same inputs — NULL-heavy, empty, and
single-row columns included — so the vectorized paths must be
bit-identical to first-principles row semantics, not merely
self-consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.kernels import (
    build_probe_index,
    distinct_indices,
    encode_keys,
    equi_join_pairs,
    factorize,
    group_ids,
    lookup_sorted,
    scatter_update,
    sort_indices,
)
from repro.storage import Column
from repro.types import SqlType


def ints(*values) -> Column:
    return Column.from_values(SqlType.INTEGER, list(values))


def floats(*values) -> Column:
    return Column.from_values(SqlType.FLOAT, list(values))


def texts(*values) -> Column:
    return Column.from_values(SqlType.TEXT, list(values))


# Input corpus: NULL-heavy, empty, single-row, all-NULL, duplicates.
COLUMNS = {
    "null_heavy": ints(None, 3, None, 3, None, 7, None),
    "empty": ints(),
    "single": ints(42),
    "single_null": ints(None),
    "all_null": ints(None, None, None),
    "duplicates": ints(5, 5, 5, 2, 2, 9),
    "floats": floats(1.5, None, -0.0, 0.0, 1.5, None),
    "texts": texts("b", None, "a", "b", "", None),
}


def rows_of(*columns):
    """Row tuples with None for NULL slots (the row-path view)."""
    lists = [c.to_list() for c in columns]
    return list(zip(*lists))


class TestLookupSorted:
    @given(st.lists(st.integers(-20, 20), max_size=30),
           st.lists(st.integers(-25, 25), max_size=30))
    def test_matches_membership(self, haystack, needles):
        haystack = np.unique(np.array(haystack, dtype=np.int64))
        needles = np.array(needles, dtype=np.int64)
        positions, found = lookup_sorted(haystack, needles)
        assert found.tolist() == [n in haystack for n in needles]
        assert (haystack[positions[found]] == needles[found]).all()

    def test_nan_probe_finds_the_nan_slot(self):
        haystack = np.unique(np.array([2.0, np.nan, 1.0]))
        positions, found = lookup_sorted(haystack,
                                         np.array([np.nan, 1.0, 3.0]))
        assert found.tolist() == [True, True, False]
        assert positions[:2].tolist() == [2, 0]


class TestFactorize:
    """codes must induce exactly the row-equality partition."""

    @pytest.mark.parametrize("name", sorted(COLUMNS), ids=sorted(COLUMNS))
    @pytest.mark.parametrize("nulls_match", [True, False])
    def test_codes_partition_like_row_equality(self, name, nulls_match):
        column = COLUMNS[name]
        codes, cardinality = factorize(column, nulls_match)
        values = column.to_list()
        assert len(codes) == len(values)
        for i, vi in enumerate(values):
            if vi is None and not nulls_match:
                assert codes[i] == -1
                continue
            assert 0 <= codes[i] < cardinality
            for j, vj in enumerate(values):
                if vj is None and not nulls_match:
                    continue
                same_value = (vi is None and vj is None) or (
                    vi is not None and vj is not None and vi == vj)
                assert (codes[i] == codes[j]) == same_value, (
                    f"rows {i} ({vi!r}) and {j} ({vj!r})")

    @pytest.mark.parametrize("name", sorted(COLUMNS), ids=sorted(COLUMNS))
    @pytest.mark.parametrize("cached", [False, True])
    def test_nulls_match_cardinality_counts_codes(self, name, cached):
        # The §II duplicate check reads `cardinality < len(codes)`, so
        # no code may be reserved for NULLs the column does not have.
        from repro.execution.kernel_cache import KernelCache
        column = COLUMNS[name]
        cache = KernelCache() if cached else None
        codes, cardinality = factorize(column, True, cache)
        assert cardinality == len(set(codes.tolist()))


class TestEncodeKeys:
    @pytest.mark.parametrize("nulls_match", [True, False])
    def test_multi_column_codes_match_tuple_equality(self, nulls_match):
        a = ints(1, None, 1, 2, 1, None)
        b = texts("x", "x", "x", None, "y", None)
        codes = encode_keys([a, b], nulls_match=nulls_match)
        rows = rows_of(a, b)
        for i, ri in enumerate(rows):
            if not nulls_match and None in ri:
                assert codes[i] == -1
                continue
            for j, rj in enumerate(rows):
                if not nulls_match and None in rj:
                    continue
                assert (codes[i] == codes[j]) == (ri == rj)

    def test_empty_input(self):
        codes = encode_keys([ints()], nulls_match=True)
        assert len(codes) == 0


class TestEquiJoin:
    def reference_pairs(self, left, right):
        """Nested-loop inner join on one key; NULL never matches."""
        pairs = []
        for i, lv in enumerate(left.to_list()):
            for j, rv in enumerate(right.to_list()):
                if lv is not None and rv is not None and lv == rv:
                    pairs.append((i, j))
        return pairs

    CASES = [
        (ints(1, 2, None, 3, 2), ints(2, None, 2, 4, 1)),
        (ints(), ints(1, 2)),
        (ints(1, 2), ints()),
        (ints(None), ints(None)),
        (ints(7), ints(7, 7, 7)),
    ]

    @pytest.mark.parametrize("left,right", CASES)
    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_pairs_match_nested_loop_reference(self, left, right, prebuilt):
        left_codes = encode_keys([left.concat(right)],
                                 nulls_match=False)[:len(left)]
        # Encode both sides jointly so equal values share codes.
        joint = encode_keys([left.concat(right)], nulls_match=False)
        left_codes, right_codes = joint[:len(left)], joint[len(left):]
        right_sorted = build_probe_index(right_codes) if prebuilt else None
        li, ri = equi_join_pairs(left_codes, right_codes, right_sorted)
        got = sorted(zip(li.tolist(), ri.tolist()))
        assert got == self.reference_pairs(left, right)
        # Pairs must arrive grouped by left row in left-row order.
        assert li.tolist() == sorted(li.tolist())


def nested_loop_pairs(left_codes, right_codes):
    """Reference pairs in the kernel's order: by left row, then right."""
    pairs = [(i, j) for i, lc in enumerate(left_codes.tolist())
             for j, rc in enumerate(right_codes.tolist())
             if lc >= 0 and lc == rc]
    return ([i for i, _ in pairs], [j for _, j in pairs])


code_arrays = st.lists(st.integers(-1, 12), max_size=40).map(
    lambda codes: np.array(codes, dtype=np.int64))


class TestDirectAddressProbe:
    """The bucket-offset probe against a nested-loop reference, pair
    order included."""

    def check(self, left_codes, right_codes, right_index=None):
        li, ri = equi_join_pairs(left_codes, right_codes, right_index)
        assert li.dtype == ri.dtype == np.int64
        assert (li.tolist(), ri.tolist()) == nested_loop_pairs(
            left_codes, right_codes)

    @settings(max_examples=200, deadline=None)
    @given(code_arrays, code_arrays, st.booleans())
    def test_matches_nested_loop(self, left_codes, right_codes, prebuilt):
        # Codes up to 12 against build sides that may lack them cover
        # -1 on both sides, probe codes past the build cardinality,
        # empty sides and heavy duplicates.
        index = build_probe_index(right_codes) if prebuilt else None
        self.check(left_codes, right_codes, index)

    @pytest.mark.parametrize("left,right", [
        ([-1, 0, -1], [-1, 0, 0, -1]),
        ([5, 9, 0], [0, 1]),
        ([], [3, 3]),
        ([3, 3], []),
        ([-1], [-1]),
        ([2] * 5, [2] * 7),
    ])
    def test_edge_cases(self, left, right):
        self.check(np.array(left, dtype=np.int64),
                   np.array(right, dtype=np.int64))

    def test_dense_codes_take_the_offsets(self):
        index = build_probe_index(np.array([2, -1, 0, 2], dtype=np.int64))
        assert index.sorted_codes is None
        assert index.offsets.tolist() == [0, 1, 1, 3, 3]
        assert index.positions.tolist() == [2, 0, 3]

    def test_sparse_mixed_radix_takes_the_search(self):
        # Two wide key columns: the mixed-radix space dwarfs the rows.
        left = [ints(*range(0, 4000, 100)), ints(*range(40))]
        right = [ints(*range(0, 4000, 100), None, 7),
                 ints(*range(40), 3, None)]
        joint = encode_keys([l.concat(r) for l, r in zip(left, right)],
                            nulls_match=False)
        left_codes, right_codes = joint[:40], joint[40:]
        index = build_probe_index(right_codes, len(left_codes))
        assert index.offsets is None and index.sorted_codes is not None
        self.check(left_codes, right_codes, index)
        self.check(left_codes, right_codes)
        assert equi_join_pairs(left_codes, right_codes)[0].tolist() \
            == list(range(40))


class TestGrouping:
    @pytest.mark.parametrize("name", ["null_heavy", "duplicates",
                                      "floats", "texts", "single",
                                      "all_null"])
    def test_group_ids_match_first_occurrence_reference(self, name):
        column = COLUMNS[name]
        codes = encode_keys([column], nulls_match=True)
        ids, firsts = group_ids(codes)
        values = column.to_list()
        assert len(ids) == len(values)
        for i, vi in enumerate(values):
            representative = values[firsts[ids[i]]]
            assert representative == vi or (
                representative is None and vi is None)
        # One group per distinct value.
        distinct = {(v is None, v) for v in values}
        assert len(set(ids.tolist())) == len(distinct)

    def test_distinct_indices_match_reference(self):
        a = ints(1, None, 1, 2, None, 2, 1)
        b = texts("x", "x", "x", None, "x", None, "y")
        got = distinct_indices([a, b]).tolist()
        seen, expected = set(), []
        for i, row in enumerate(rows_of(a, b)):
            if row not in seen:
                seen.add(row)
                expected.append(i)
        assert got == expected

    def test_distinct_on_empty(self):
        assert distinct_indices([ints()]).tolist() == []


class TestScatterUpdate:
    def test_matches_row_loop_reference(self):
        old = floats(1.0, None, 3.0, 4.0, 5.0)
        positions = np.array([1, 2, 4], dtype=np.int64)
        new = floats(None, 3.0, 9.0)
        merged, changed = scatter_update(old, positions, new)
        expected = old.to_list()
        expected_changed = []
        for pos, value in zip(positions.tolist(), new.to_list()):
            # SQL IS DISTINCT FROM: NULLs equal each other here.
            expected_changed.append(expected[pos] != value
                                    if (expected[pos] is None)
                                    == (value is None)
                                    else True)
            expected[pos] = value
        assert merged.to_list() == expected
        assert changed.tolist() == expected_changed

    def test_no_change_returns_the_same_object(self):
        old = ints(1, 2, None)
        merged, changed = scatter_update(
            old, np.array([0, 2], dtype=np.int64), ints(1, None))
        assert merged is old
        assert not changed.any()

    def test_empty_positions(self):
        old = ints(1, 2)
        merged, changed = scatter_update(
            old, np.empty(0, dtype=np.int64), ints())
        assert merged is old
        assert len(changed) == 0


class TestSort:
    def test_matches_reference_with_nulls_last(self):
        column = floats(3.0, None, 1.0, 2.0, None, 1.0)
        order = sort_indices([column], [True]).tolist()
        values = column.to_list()
        sentinel = float("inf")  # NULL sorts last under ASC
        expected = sorted(range(len(values)),
                          key=lambda i: (values[i] is None,
                                         values[i] if values[i] is not None
                                         else sentinel, i))
        assert order == expected

    def test_two_keys_stable(self):
        a = ints(1, 1, 2, 2, 1)
        b = texts("b", "a", "z", None, "a")
        order = sort_indices([a, b], [True, False]).tolist()
        rows = rows_of(a, b)

        def key(i):
            va, vb = rows[i]
            # b DESC with NULLs first (NULL = largest, negated rank).
            return (va, vb is not None,
                    tuple(-ord(ch) for ch in vb) if vb is not None else ())

        assert order == sorted(range(len(rows)), key=lambda i: (key(i), i))

    def test_empty(self):
        assert sort_indices([ints()], [True]).tolist() == []


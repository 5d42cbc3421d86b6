"""Property-based tests on the iterative-CTE machinery and the engine's
core invariants, using hypothesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import DuplicateKeyError
from repro.execution.kernels import comparable_values
from repro.runtime import changed_rows
from repro.runtime.strategies import SolutionSet
from repro.storage import Table
from repro.types import SqlType

small_ints = st.integers(-50, 50)


def fresh_db(rows):
    db = Database()
    db.create_table("t", [("k", SqlType.INTEGER), ("v", SqlType.INTEGER)])
    db.load_rows("t", rows)
    return db


class TestIterativeInvariants:
    @given(st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_identity_step_is_fixed_point(self, iterations):
        """N iterations of an identity step leave the table unchanged."""
        db = fresh_db([(1, 10), (2, 20)])
        sql = f"""
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t ITERATE SELECT k, v FROM r
          UNTIL {iterations} ITERATIONS
        ) SELECT k, v FROM r ORDER BY k"""
        assert db.execute(sql).rows() == [(1, 10), (2, 20)]

    @given(st.integers(1, 10), st.integers(1, 9))
    @settings(max_examples=10, deadline=None)
    def test_additive_step_is_linear_in_iterations(self, iterations, delta):
        db = fresh_db([(1, 0)])
        sql = f"""
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t ITERATE SELECT k, v + {delta} FROM r
          UNTIL {iterations} ITERATIONS
        ) SELECT v FROM r"""
        assert db.execute(sql).scalar() == iterations * delta

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_rename_and_copy_paths_agree(self, iterations):
        """Fig. 8's two execution paths must be semantically identical."""
        sql = f"""
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t ITERATE SELECT k, v * 2 + k FROM r
          UNTIL {iterations} ITERATIONS
        ) SELECT k, v FROM r ORDER BY k"""
        rows = [(1, 3), (2, 5), (3, 1)]
        with_rename = fresh_db(rows)
        with_rename.set_option("enable_rename", True)
        without_rename = fresh_db(rows)
        without_rename.set_option("enable_rename", False)
        assert with_rename.execute(sql).rows() \
            == without_rename.execute(sql).rows()

    @given(st.lists(st.tuples(st.integers(0, 20), small_ints),
                    min_size=1, max_size=15, unique_by=lambda r: r[0]))
    @settings(max_examples=20, deadline=None)
    def test_partial_update_only_touches_selected_keys(self, rows):
        db = fresh_db(rows)
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t
          ITERATE SELECT k, v + 100 FROM r WHERE MOD(k, 2) = 0
          UNTIL 1 ITERATIONS
        ) SELECT k, v FROM r ORDER BY k"""
        result = dict(db.execute(sql).rows())
        for key, value in rows:
            if key % 2 == 0:
                assert result[key] == value + 100
            else:
                assert result[key] == value

    @given(st.sets(st.integers(0, 8), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 8), st.integers(1, 50)),
                    max_size=10),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_repeated_body_key_raises(self, anchor_keys, d_rows,
                                      kernel_cache):
        """§II: a merge-path body emitting any key more than once —
        even a single extra row — is a run-time error; otherwise the
        body output merges over the anchor rows by key."""
        db = fresh_db([(k, 0) for k in sorted(anchor_keys)])
        db.set_option("enable_kernel_cache", kernel_cache)
        db.create_table("d", [("k", SqlType.INTEGER),
                              ("v", SqlType.INTEGER)])
        db.load_rows("d", d_rows)
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t
          ITERATE SELECT d.k, d.v FROM r JOIN d ON r.k = d.k
                  WHERE d.v > 0
          UNTIL 1 ITERATIONS
        ) SELECT k, v FROM r ORDER BY k"""
        body_keys = [k for k, _ in d_rows if k in anchor_keys]
        if len(set(body_keys)) < len(body_keys):
            with pytest.raises(DuplicateKeyError):
                db.execute(sql)
            return
        expected = {k: 0 for k in anchor_keys}
        expected.update((k, v) for k, v in d_rows if k in anchor_keys)
        assert db.execute(sql).rows() == sorted(expected.items())

    @given(st.integers(1, 30))
    @settings(max_examples=10, deadline=None)
    def test_data_termination_stops_at_threshold(self, threshold):
        db = Database()
        sql = f"""
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 0 ITERATE SELECT k, v + 1 FROM r UNTIL v >= {threshold}
        ) SELECT v FROM r"""
        assert db.execute(sql).scalar() == threshold


class TestCountChangedRows:
    def _table(self, rows):
        return Table.from_columns([
            ("k", SqlType.INTEGER, [r[0] for r in rows]),
            ("v", SqlType.INTEGER, [r[1] for r in rows]),
        ])

    def test_identical_tables_have_zero_changes(self):
        table = self._table([(1, 10), (2, 20)])
        assert changed_rows(table, table, 0).sum() == 0

    def test_changed_value_counts(self):
        before = self._table([(1, 10), (2, 20)])
        after = self._table([(1, 10), (2, 99)])
        assert changed_rows(before, after, 0).sum() == 1

    def test_new_key_counts_as_change(self):
        before = self._table([(1, 10)])
        after = self._table([(1, 10), (2, 20)])
        assert changed_rows(before, after, 0).sum() == 1

    def test_null_to_null_is_not_a_change(self):
        before = self._table([(1, None)])
        after = self._table([(1, None)])
        assert changed_rows(before, after, 0).sum() == 0

    def test_null_to_value_is_a_change(self):
        before = self._table([(1, None)])
        after = self._table([(1, 5)])
        assert changed_rows(before, after, 0).sum() == 1

    def test_empty_previous_counts_everything(self):
        before = self._table([])
        after = self._table([(1, 1), (2, 2)])
        assert changed_rows(before, after, 0).sum() == 2

    @given(st.lists(st.tuples(st.integers(0, 30), small_ints),
                    max_size=20, unique_by=lambda r: r[0]),
           st.lists(st.tuples(st.integers(0, 30), small_ints),
                    max_size=20, unique_by=lambda r: r[0]))
    @settings(max_examples=40)
    def test_matches_brute_force(self, before_rows, after_rows):
        before_map = dict(before_rows)
        expected = sum(
            1 for key, value in after_rows
            if key not in before_map or before_map[key] != value)
        if not before_rows:
            expected = len(after_rows)
        before = self._table(before_rows)
        after = self._table(after_rows)
        assert changed_rows(before, after, 0).sum() == expected

    @given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                              st.one_of(st.none(), st.integers(0, 2))),
                    max_size=10),
           st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                              st.one_of(st.none(), st.integers(0, 2))),
                    max_size=10))
    @settings(max_examples=60)
    def test_repeated_and_null_keys_match_brute_force(self, before_rows,
                                                      after_rows):
        # A current row changed unless some previous row has its
        # (non-NULL) key, and every such row holds the same value.
        expected = []
        for key, value in after_rows:
            paired = [old for k, old in before_rows
                      if key is not None and k == key]
            expected.append(not paired
                            or any(old != value for old in paired))
        if not before_rows:
            expected = [True] * len(after_rows)
        got = changed_rows(self._table(before_rows),
                           self._table(after_rows), 0)
        assert got.tolist() == expected

    @given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 9)),
                              st.one_of(st.none(), st.integers(0, 2))),
                    max_size=14),
           st.lists(st.tuples(st.integers(0, 9),
                              st.one_of(st.none(), st.integers(0, 2))),
                    max_size=10, unique_by=lambda r: r[0]))
    @settings(max_examples=60)
    def test_solution_set_mask_matches_dictionary_path(
            self, before_rows, after_rows):
        """The delta loop's solution set pairs rows exactly like the
        dictionary built afresh over the current key."""
        # Previous keys repeat, go NULL and name keys the current table
        # lacks; current keys are the loop's unique non-NULL key set.
        before = self._table(before_rows)
        after = self._table(after_rows)
        solution = SolutionSet.build(
            comparable_values(after.columns[0].data))
        expected = changed_rows(before, after, 0)
        got = changed_rows(before, after, 0, solution)
        assert got.tolist() == expected.tolist()


class TestEngineInvariants:
    @given(st.lists(st.tuples(small_ints, small_ints), max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_union_is_distinct_union_all_is_not(self, rows):
        db = fresh_db(rows)
        distinct = db.execute(
            "SELECT k FROM t UNION SELECT v FROM t").rows()
        keep_all = db.execute(
            "SELECT k FROM t UNION ALL SELECT v FROM t").rows()
        assert len(distinct) == len({r[0] for r in keep_all}) \
            if rows else len(distinct) == 0
        assert len(keep_all) == 2 * len(rows)

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1,
                    max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_group_by_partitions_rows(self, rows):
        db = fresh_db(rows)
        grouped = db.execute(
            "SELECT k, COUNT(*) FROM t GROUP BY k").rows()
        assert sum(count for _, count in grouped) == len(rows)
        assert len(grouped) == len({k for k, _ in rows})

    @given(st.lists(st.tuples(small_ints, small_ints), max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_sum_decomposes_over_filter(self, rows):
        db = fresh_db(rows)
        total = db.execute("SELECT SUM(v) FROM t").scalar() or 0
        positive = db.execute(
            "SELECT SUM(v) FROM t WHERE k >= 0").scalar() or 0
        negative = db.execute(
            "SELECT SUM(v) FROM t WHERE k < 0").scalar() or 0
        assert total == positive + negative

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1,
                    max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_order_by_then_limit_is_prefix(self, rows):
        db = fresh_db(rows)
        full = db.execute("SELECT v FROM t ORDER BY v, k").rows()
        prefix = db.execute(
            "SELECT v FROM t ORDER BY v, k LIMIT 3").rows()
        assert prefix == full[:3]

    @given(st.lists(st.tuples(small_ints, small_ints), max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_join_on_equality_matches_filter_of_cross(self, rows):
        db = fresh_db(rows)
        joined = db.execute("""
            SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k
            ORDER BY a.k, b.v""").rows()
        cross = db.execute("""
            SELECT a.k, b.v FROM t a CROSS JOIN t b WHERE a.k = b.k
            ORDER BY a.k, b.v""").rows()
        assert joined == cross

"""Kernel-cache tests: version-keyed join-index memoization, the
second-touch join-index policy, incremental UNION DISTINCT state, DML
invalidation, retained bytes, and cache-on/cache-off result parity."""

import numpy as np
import pytest

from repro import Database
from repro.datasets import dblp_like, generate_edges, generate_vertex_status
from repro.execution import kernel_cache as kernel_cache_module
from repro.execution.kernel_cache import (
    IncrementalDistinctIndex,
    KernelCache,
    build_dictionary,
    build_join_index,
    probe_dictionary,
)
from repro.execution.kernels import encode_keys
from repro.runtime.handlers.merge import _merge_rescan
from repro.storage import Column, ResultRegistry, Table
from repro.types import SqlType
from repro.workloads import sssp_query
from repro.workloads.pagerank import pagerank_query

CLOSURE = """
WITH RECURSIVE reach (a, b) AS (
  SELECT a, b FROM edge
  UNION
  SELECT reach.a, edge.b FROM reach JOIN edge ON reach.b = edge.a
) SELECT a, b FROM reach ORDER BY a, b"""


def _graph_db(rows, types=(SqlType.INTEGER, SqlType.INTEGER),
              cache_on=True):
    db = Database()
    db.set_option("enable_kernel_cache", cache_on)
    db.create_table("edge", [("a", types[0]), ("b", types[1])])
    db.load_rows("edge", rows)
    return db


def _tables_equal(left, right):
    if left.num_rows != right.num_rows:
        return False
    return all(
        (lc.data == rc.data).all() and (lc.mask == rc.mask).all()
        for lc, rc in zip(left.columns, right.columns))


def _built_index(cache, columns):
    """The join index for ``columns``, built on the second sighting."""
    assert cache.join_index(columns) is None
    index = cache.join_index(columns)
    assert index is not None
    return index


class TestColumnDictionary:
    def test_hit_on_same_column(self):
        cache = KernelCache()
        column = Column.from_values(SqlType.INTEGER, [3, 1, 3, None])
        first = _built_index(cache, [column])
        assert cache.join_index([column]) is first
        dictionary, = first.dictionaries
        assert dictionary.cardinality == 2
        assert dictionary.codes.tolist() == [1, 0, 1, -1]

    def test_miss_on_equal_but_distinct_column(self):
        cache = KernelCache()
        a = Column.from_values(SqlType.INTEGER, [1, 2])
        b = Column.from_values(SqlType.INTEGER, [1, 2])
        assert a.version != b.version
        assert _built_index(cache, [a]) is not _built_index(cache, [b])

    def test_cached_codes_are_read_only(self):
        column = Column.from_values(SqlType.INTEGER, [1, 2, 1])
        entry = build_dictionary(column)
        with pytest.raises(ValueError):
            entry.codes[0] = 99
        index = _built_index(KernelCache(), [column])
        with pytest.raises(ValueError):
            index.codes[0] = 99

    def test_invalidate_drops_entry(self):
        cache = KernelCache()
        column = Column.from_values(SqlType.INTEGER, [1, 2])
        _built_index(cache, [column])
        assert cache.invalidate_columns([column]) == 1
        assert cache.invalidate_columns([column]) == 0
        assert cache.nbytes() == 0

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(kernel_cache_module, "MAX_INDEXES", 2)
        cache = KernelCache()
        columns = [Column.from_values(SqlType.INTEGER, [i])
                   for i in range(3)]
        for column in columns:
            _built_index(cache, [column])
        assert list(cache._indexes) == [(c.version,) for c in columns[1:]]

    def test_probe_absent_and_null_is_minus_one(self):
        build = Column.from_values(SqlType.INTEGER, [10, 20, 30])
        probe = Column.from_values(SqlType.INTEGER, [20, 99, None, 10])
        dictionary = build_dictionary(build)
        codes = probe_dictionary(dictionary, probe)
        assert codes[1] == -1 and codes[2] == -1
        assert codes[0] == dictionary.codes[1]
        assert codes[3] == dictionary.codes[0]

    def test_probe_text_column(self):
        build = Column.from_values(SqlType.TEXT, ["b", "a", "b"])
        probe = Column.from_values(SqlType.TEXT, ["a", "zz", None])
        dictionary = build_dictionary(build)
        codes = probe_dictionary(dictionary, probe)
        assert codes[0] == dictionary.codes[1]
        assert codes[1] == -1 and codes[2] == -1


class TestJoinIndexPolicy:
    def test_second_touch_builds_then_hits(self):
        cache = KernelCache()
        key = [Column.from_values(SqlType.INTEGER, [1, 2, 2])]
        assert cache.join_index(key) is None  # first touch: declined
        built = cache.join_index(key)         # second touch: built
        assert built is not None
        assert cache.join_index(key) is built  # third touch: cache hit

    def test_varying_build_sides_never_build(self):
        cache = KernelCache()
        for i in range(5):
            key = [Column.from_values(SqlType.INTEGER, [i, i + 1])]
            assert cache.join_index(key) is None
        assert len(cache._indexes) == 0

    def test_probe_matches_joint_encoding(self):
        left = [Column.from_values(SqlType.INTEGER, [1, 7, None, 3]),
                Column.from_values(SqlType.INTEGER, [5, 5, 5, None])]
        right = [Column.from_values(SqlType.INTEGER, [1, 3, 1]),
                 Column.from_values(SqlType.INTEGER, [5, 5, 6])]
        index = build_join_index(right)
        probe = index.probe(left)
        joint = [lc.concat(rc) for lc, rc in zip(left, right)]
        codes = encode_keys(joint, nulls_match=False)
        n = 4
        for i in range(n):
            for j in range(3):
                joint_match = (codes[i] >= 0 and codes[i] == codes[n + j])
                index_match = (probe[i] >= 0
                               and probe[i] == index.codes[j])
                assert joint_match == index_match

    def test_nbytes_counts_the_bucket_offsets(self):
        key = [Column.from_values(SqlType.INTEGER, [4, 1, None, 4, 9])]
        cache = KernelCache()
        cache.join_index(key)
        index = cache.join_index(key)
        probe_index = index.probe_index
        assert probe_index.offsets is not None
        assert probe_index.sorted_codes is None
        expected = (sum(d.nbytes() for d in index.dictionaries)
                    + index.codes.nbytes + probe_index.positions.nbytes
                    + probe_index.offsets.nbytes)
        assert index.nbytes() == expected
        assert cache.nbytes() == expected


class TestIncrementalDistinctIndex:
    def _columns(self, rows):
        return [Column.from_values(SqlType.INTEGER, [r[i] for r in rows])
                for i in range(len(rows[0]))]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        index = IncrementalDistinctIndex(2)
        seen = set()
        for _ in range(6):
            rows = [tuple(int(v) if rng.random() > 0.15 else None
                          for v in rng.integers(0, 8, size=2))
                    for _ in range(20)]
            mask = index.filter_new(self._columns(rows), len(rows))
            for i, row in enumerate(rows):
                expected = row not in seen
                seen.add(row)
                assert bool(mask[i]) == expected, (row, i)

    def test_text_and_nulls(self):
        index = IncrementalDistinctIndex(1)
        first = [Column.from_values(SqlType.TEXT, ["x", None, "x", "y"])]
        mask = index.filter_new(first, 4)
        assert mask.tolist() == [True, True, False, True]
        second = [Column.from_values(SqlType.TEXT, [None, "z", "y"])]
        mask = index.filter_new(second, 3)
        assert mask.tolist() == [False, True, False]

    def test_budget_exhaustion_repacks_instead_of_rescanning(self):
        index = IncrementalDistinctIndex(1)
        index._shifts = [2]  # simulate a tiny per-column id budget
        columns = [Column.from_values(SqlType.INTEGER, [1, 2, 3, 4, 5])]
        mask = index.filter_new(columns, 5)
        assert mask is not None and mask.tolist() == [True] * 5
        assert index.repacks == 1
        # Membership survives the repack: the same rows are now dupes.
        again = index.filter_new(columns, 5)
        assert again is not None and again.tolist() == [False] * 5
        assert index.repacks == 1

    def test_repack_preserves_multi_column_identities(self):
        index = IncrementalDistinctIndex(2)
        index._shifts = [2, 2]
        first = [Column.from_values(SqlType.INTEGER, [1, 1, 2, 2]),
                 Column.from_values(SqlType.INTEGER, [1, 2, 1, 2])]
        assert index.filter_new(first, 4).tolist() == [True] * 4
        wide = [Column.from_values(SqlType.INTEGER, list(range(10))),
                Column.from_values(SqlType.INTEGER, [1] * 10)]
        mask = index.filter_new(wide, 10)
        assert index.repacks >= 1
        # (1, 1) and (2, 1) were already seen before the repack.
        assert mask.tolist() == [True, False, False] + [True] * 7

    def test_overflow_returns_none_when_62_bits_not_enough(self):
        width = 8
        index = IncrementalDistinctIndex(width)
        # 300 distinct ids per column require 8 columns x 9 bits = 72 > 62,
        # so no repacking can help: the caller must rescan.
        values = list(range(300))
        columns = [Column.from_values(SqlType.INTEGER, values)
                   for _ in range(width)]
        assert index.filter_new(columns, len(values)) is None

    def test_absorb_then_filter(self):
        index = IncrementalDistinctIndex(2)
        base = self._columns([(1, 1), (2, 2)])
        assert index.absorb(base, 2)
        assert index.rows_absorbed == 2
        mask = index.filter_new(self._columns([(2, 2), (3, 3)]), 2)
        assert mask.tolist() == [False, True]
        assert index.rows_absorbed == 3


def _random_batch(rng, kinds, rows):
    """A candidate batch with in-batch duplicates and NULLs: values come
    from a pool that widens with each batch, so ids keep growing."""
    columns = []
    for kind in kinds:
        pool = int(rng.integers(2, 40))
        values = [None if rng.random() < 0.1 else int(v)
                  for v in rng.integers(-pool, pool, size=rows)]
        if kind is SqlType.TEXT:
            values = [None if v is None else f"t{v}" for v in values]
        columns.append((f"c{len(columns)}", kind, values))
    return Table.from_columns(columns)


class TestFilterNewMatchesRescan:
    """The incremental UNION DISTINCT path must produce exactly the
    masks of the cache-off rescan, batch after batch."""

    @pytest.mark.parametrize("kinds", [
        (SqlType.INTEGER,),
        (SqlType.TEXT,),
        (SqlType.INTEGER, SqlType.INTEGER),
        (SqlType.INTEGER, SqlType.TEXT, SqlType.INTEGER),
    ], ids=["int", "text", "int-int", "int-text-int"])
    @pytest.mark.parametrize("seed", range(4))
    def test_masks_and_seen_set_match(self, kinds, seed):
        rng = np.random.default_rng(seed)
        first = _random_batch(rng, kinds, 30)
        result = first.filter(_merge_rescan(first.slice(0, 0), first))
        index = IncrementalDistinctIndex(len(kinds))
        # A tiny per-column id budget forces at least one repack.
        index._shifts = [3] * len(kinds)
        assert index.absorb(result.columns, result.num_rows)
        for _ in range(8):
            candidate = _random_batch(rng, kinds, int(rng.integers(0, 60)))
            mask = index.filter_new(candidate.columns, candidate.num_rows)
            expected = _merge_rescan(result, candidate)
            assert mask.tolist() == expected.tolist()
            result = result.concat(candidate.filter(mask))
        assert index.repacks >= 1
        # The seen set holds exactly the accepted rows: one identity per
        # (distinct) result row, and re-offering the result adds none.
        rows = result.rows()
        assert len(set(rows)) == len(rows) == len(index._seen)
        seen_before = index._seen.copy()
        assert not index.filter_new(result.columns, result.num_rows).any()
        assert np.array_equal(index._seen, seen_before)


class TestDmlInvalidation:
    def test_insert_is_visible_to_next_query(self):
        db = _graph_db([(1, 2), (2, 3)])
        assert db.execute(CLOSURE).rows() == [(1, 2), (1, 3), (2, 3)]
        db.execute("INSERT INTO edge VALUES (3, 4)")
        assert db.execute(CLOSURE).rows() == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_delete_is_visible_to_next_query(self):
        db = _graph_db([(1, 2), (2, 3)])
        db.execute(CLOSURE)
        db.execute("DELETE FROM edge WHERE a = 2")
        assert db.execute(CLOSURE).rows() == [(1, 2)]

    def test_update_is_visible_to_next_query(self):
        db = _graph_db([(1, 2), (2, 3)])
        db.execute(CLOSURE)
        db.execute("UPDATE edge SET b = 9 WHERE a = 2")
        assert db.execute(CLOSURE).rows() == [(1, 2), (1, 9), (2, 9)]

    def test_dml_counts_invalidations(self):
        db = _graph_db([(1, 2), (2, 3)])
        db.execute(CLOSURE)
        db.execute(CLOSURE)  # populate the cache with edge's columns
        before = db.stats.kernel_cache_invalidations
        db.execute("INSERT INTO edge VALUES (3, 4)")
        assert db.stats.kernel_cache_invalidations > before

    def test_load_rows_invalidates(self):
        db = _graph_db([(1, 2), (2, 3)])
        db.execute(CLOSURE)
        db.execute(CLOSURE)
        db.load_rows("edge", [(3, 4)])
        assert db.execute(CLOSURE).rows() == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class TestDropInvalidation:
    def test_dropped_temp_results_release_their_entries(self, monkeypatch):
        # Every run materializes fresh temp results (COMMON#1, whose join
        # index the delta trips build, and the CTE tables).  Dropping them
        # must release their join indexes and candidates at once, so the
        # indexes do not pile up run after run until LRU eviction.
        spec = dblp_like(nodes=300, seed=4)
        db = Database()
        db.set_option("enable_delta_iteration", True)
        db.create_table("edges", [("src", SqlType.INTEGER),
                                  ("dst", SqlType.INTEGER),
                                  ("weight", SqlType.FLOAT)])
        db.load_rows("edges", generate_edges(spec))
        db.create_table("vertexStatus", [("node", SqlType.INTEGER),
                                         ("status", SqlType.INTEGER)])
        db.load_rows("vertexStatus", generate_vertex_status(spec))
        sql = sssp_query(source=0, iterations=10, with_vertex_status=True)

        dropped = set()
        drop = ResultRegistry.drop

        def recording_drop(registry, name):
            if registry.exists(name):
                dropped.update(c.version
                               for c in registry.fetch(name).columns)
            drop(registry, name)

        monkeypatch.setattr(ResultRegistry, "drop", recording_drop)
        cache = db.kernel_cache
        db.execute(sql)
        db.execute(sql)  # second touch: base-table join indexes built
        indexes = {key: entry.nbytes()
                   for key, entry in cache._indexes.items()}
        for _ in range(3):
            db.execute(sql)
            assert {key: entry.nbytes()
                    for key, entry in cache._indexes.items()} == indexes
            held = set().union(*cache._indexes, *cache._index_candidates)
            assert not held & dropped
        assert db.stats.delta_iterations > 0


class TestRetainedBytes:
    def test_repeated_pagerank_retains_a_fixed_size(self):
        # Only loop-invariant build sides stay cached: once the base
        # table's join indexes exist (second run), further runs add
        # nothing, because every per-trip column is new and never kept.
        spec = dblp_like(nodes=200, seed=2)
        db = Database()
        db.create_table("edges", [("src", SqlType.INTEGER),
                                  ("dst", SqlType.INTEGER),
                                  ("weight", SqlType.FLOAT)])
        db.load_rows("edges", generate_edges(spec))
        sql = pagerank_query(iterations=5)
        retained = []
        for _ in range(4):
            db.execute(sql)
            retained.append(db.kernel_cache.nbytes())
        assert retained[1] > 0
        assert retained[3] == retained[1]


class TestCacheParity:
    """Cache on and off must be bit-identical, not just value-equal."""

    def _closure_rows(self):
        rng = np.random.default_rng(5)
        edges = {(int(a), int(b))
                 for a, b in rng.integers(0, 40, size=(120, 2))}
        return sorted(edges)

    def test_closure_bit_identical(self):
        rows = self._closure_rows()
        on = _graph_db(rows, cache_on=True).execute(CLOSURE).table
        off = _graph_db(rows, cache_on=False).execute(CLOSURE).table
        assert _tables_equal(on, off)

    def test_text_graph_bit_identical(self):
        rows = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        types = (SqlType.TEXT, SqlType.TEXT)
        on = _graph_db(rows, types, cache_on=True).execute(CLOSURE).table
        off = _graph_db(rows, types, cache_on=False).execute(CLOSURE).table
        assert _tables_equal(on, off)
        assert on.num_rows == 12

    def test_nullable_rows_bit_identical(self):
        # NULL edge endpoints exercise nulls-match dedup in the merge.
        rows = [(1, 2), (None, 2), (None, 2), (2, None), (None, None)]
        on = _graph_db(rows, cache_on=True).execute(CLOSURE).table
        off = _graph_db(rows, cache_on=False).execute(CLOSURE).table
        assert _tables_equal(on, off)
        # 4 distinct base rows (UNION dedups the base arm too, NULLs
        # matching, as SQLite does) plus the derived (1, NULL); the
        # delta's (NULL, NULL) is recognized as seen via nulls-match
        # dedup.
        assert on.num_rows == 5

    def test_pagerank_floats_bit_identical(self):
        edges = [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 1.0), (3, 1, 1.0),
                 (4, 1, 1.0)]
        sql = pagerank_query(iterations=12, coalesced=True)

        def run(cache_on):
            db = Database()
            db.set_option("enable_kernel_cache", cache_on)
            db.create_table("edges", [("src", SqlType.INTEGER),
                                      ("dst", SqlType.INTEGER),
                                      ("weight", SqlType.FLOAT)])
            db.load_rows("edges", edges)
            return db.execute(sql).table

        assert _tables_equal(run(True), run(False))

    def test_iterative_until_delta_parity(self):
        sql = """
        WITH ITERATIVE walk (node, hops) AS (
          SELECT a, 0 FROM edge WHERE a = 1
          ITERATE
          SELECT edge.b, walk.hops + 1 FROM walk
            JOIN edge ON walk.node = edge.a
          UNTIL 3 ITERATIONS
        ) SELECT node, hops FROM walk ORDER BY node"""
        rows = [(1, 2), (2, 3), (3, 4)]
        on = _graph_db(rows, cache_on=True).execute(sql).table
        off = _graph_db(rows, cache_on=False).execute(sql).table
        assert _tables_equal(on, off)


class TestObservability:
    def test_explain_analyze_reports_counters(self):
        db = _graph_db([(1, 2), (2, 3), (3, 4), (4, 5)])
        report = db.explain_analyze(CLOSURE)
        assert "kernel cache (on):" in report
        assert "join index: hits=" in report
        assert "merge index: hits=" in report

    def test_explain_analyze_reports_cache_off(self):
        db = _graph_db([(1, 2), (2, 3)], cache_on=False)
        report = db.explain_analyze(CLOSURE)
        assert "kernel cache (off):" in report
        assert "hits=0, misses=0" in report

    def test_counters_increment_over_long_loop(self):
        chain = [(i, i + 1) for i in range(12)]
        db = _graph_db(chain)
        db.execute(CLOSURE)
        # 12 iterations: the edge build side repeats, so the join index
        # is built on its second sighting and hit from the third on; the
        # merge index is rebuilt once and hit every later iteration.
        assert db.stats.join_index_hits > db.stats.join_index_misses >= 2
        assert db.stats.merge_index_rebuilds == 1
        assert db.stats.merge_index_hits >= db.stats.join_index_hits - 2

    def test_disabled_cache_stays_cold(self):
        db = _graph_db([(1, 2), (2, 3), (3, 4)], cache_on=False)
        db.execute(CLOSURE)
        assert db.stats.join_index_hits == 0
        assert db.stats.join_index_misses == 0
        assert db.stats.merge_index_hits == 0
        assert db.kernel_cache.nbytes() == 0

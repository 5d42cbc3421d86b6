"""Semi-naive delta evaluation for ITERATIVE CTEs.

Covers the safety analyzer (which step queries are provably per-key),
the program shape the rewrite emits, bit-identity of delta-mode results
against the always-correct full recomputation across workloads and
termination families, the runtime's self-disabling fallbacks, and the
EXPLAIN ANALYZE integration (frontier-sized delta_rows)."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_like, generate_edges
from repro.engine.database import Database
from repro.errors import DuplicateKeyError
from repro.execution import SessionOptions
from repro.execution.kernels import (comparable_values, dense_span,
                                     expand_ranges)
from repro.plan.program import (CountUpdatesStep, DeltaCaptureStep,
                                DeltaFusedStep)
from repro.runtime.handlers.delta import _expand_influence
from repro.runtime.strategies import SolutionSet
from repro.storage import Table
from repro.types import SqlType
from repro.workloads import (
    ff_query,
    pagerank_query,
    reference_pagerank,
    reference_sssp,
    sssp_query,
)

EDGES = generate_edges(dblp_like(nodes=200, seed=21))


def dag_edges(num_nodes=400, num_edges=1600, seed=5):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(1, num_nodes + 1, size=2)
        if a < b:
            edges.add((int(a), int(b)))
    return [(a, b, round(float(rng.uniform(0.1, 2.0)), 3))
            for a, b in sorted(edges)]


def graph_db(edges, delta_on=True, **options) -> Database:
    db = Database(SessionOptions(enable_delta_iteration=delta_on,
                                 **options))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", edges)
    return db


def both_modes(sql, edges=EDGES):
    """(full rows, delta rows, delta-mode database) for one query."""
    full = graph_db(edges, delta_on=False).execute(sql).rows()
    db = graph_db(edges, delta_on=True)
    delta = db.execute(sql).rows()
    return full, delta, db


class TestBitIdentity:
    def test_sssp(self):
        full, delta, db = both_modes(sssp_query(source=1, iterations=10))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_pagerank(self):
        full, delta, db = both_modes(pagerank_query(iterations=8))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_friends(self):
        full, delta, db = both_modes(
            ff_query(iterations=5, selectivity_mod=7))
        assert full == delta
        assert db.stats.delta_iterations > 0

    def test_sssp_on_dag_where_the_frontier_empties(self):
        edges = dag_edges()
        full, delta, db = both_modes(
            sssp_query(source=1, iterations=40), edges)
        assert full == delta
        # The wave dies out long before iteration 40: most delta-mode
        # iterations see an empty frontier and skip both loop bodies.
        assert db.stats.delta_iterations >= 30

    def test_matches_reference_sssp(self):
        edges = dag_edges()
        db = graph_db(edges, delta_on=True)
        got = dict(db.execute(sssp_query(source=1, iterations=40)).rows())
        assert got == reference_sssp(edges, source=1, iterations=40)

    def test_matches_reference_pagerank(self):
        db = graph_db(EDGES, delta_on=True)
        got = dict(db.execute(pagerank_query(iterations=6)).rows())
        reference = reference_pagerank(EDGES, iterations=6)
        assert got.keys() == reference.keys()
        for node, rank in got.items():
            assert rank == pytest.approx(reference[node], abs=1e-9)


class TestTerminationFamilies:
    def test_updates_budget(self):
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", "UNTIL 250 UPDATES")
        full, delta, db = both_modes(sql, dag_edges(300, 1200))
        assert full == delta

    def test_delta_condition_converges(self):
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", "UNTIL DELTA = 0")
        full, delta, db = both_modes(sql, dag_edges(300, 1200))
        assert full == delta
        assert db.stats.delta_iterations > 0

    @pytest.mark.parametrize("cache_on", [True, False])
    def test_delta_condition_matches_reference(self, cache_on):
        # UNTIL DELTA pairs previous and current rows by key through the
        # join kernel without a prebuilt index: with the kernel cache via
        # the current key's dictionary, without it via joint encoding.
        edges = dag_edges(120, 400)
        sql = sssp_query(source=1, iterations=200).replace(
            "UNTIL 200 ITERATIONS", "UNTIL DELTA = 0")
        for delta_on in (False, True):
            db = graph_db(edges, delta_on=delta_on,
                          enable_kernel_cache=cache_on)
            got = dict(db.execute(sql).rows())
            assert got == reference_sssp(edges, source=1, iterations=200)


    @pytest.mark.parametrize("cache_on", [True, False])
    @pytest.mark.parametrize("until", ["UNTIL 250 UPDATES",
                                       "UNTIL DELTA = 0",
                                       "UNTIL DELTA < 5"])
    def test_both_modes_stop_after_the_same_iteration(self, until,
                                                      cache_on):
        # Delta mode counts a full trip's updates in the capture step
        # and a delta trip's in the fused step; either way the loop must
        # stop exactly when the full-body count would stop it.
        sql = sssp_query(source=1, iterations=12).replace(
            "UNTIL 12 ITERATIONS", until)
        runs = []
        for delta_on in (False, True):
            db = graph_db(dag_edges(300, 1200), delta_on=delta_on,
                          enable_kernel_cache=cache_on)
            rows = db.execute(sql).rows()
            runs.append((rows, db.stats.iterations))
        assert runs[0] == runs[1]


class TestProgramShape:
    def _program(self, sql, delta_on, **options):
        from repro.core.rewrite import compile_statement
        from repro.plan import PlanContext
        from repro.sql import parse
        db = graph_db(EDGES, delta_on=delta_on, **options)
        return compile_statement(
            parse(sql), PlanContext(db.catalog), db.options)

    def test_fused_delta_step_emitted_when_safe_and_enabled(self):
        program = self._program(sssp_query(source=1, iterations=5), True)
        kinds = [type(step) for step in program.steps]
        assert kinds.count(DeltaFusedStep) == 1
        assert kinds.count(DeltaCaptureStep) == 1
        fused = next(s for s in program.steps
                     if isinstance(s, DeltaFusedStep))
        capture = kinds.index(DeltaCaptureStep)
        # Full body entered right after the fused step; a delta
        # iteration skips past the capture to the loop increment.
        assert fused.jump_full == kinds.index(DeltaFusedStep) + 1
        assert fused.jump_to == capture + 1

    @pytest.mark.parametrize("until", ["UNTIL DELTA = 0",
                                       "UNTIL 250 UPDATES"])
    def test_capture_step_counts_updates(self, until):
        # One by-key diff per full trip: the capture step feeds the
        # update counter, so no CountUpdatesStep runs beside it.
        sql = sssp_query(source=1, iterations=5).replace(
            "UNTIL 5 ITERATIONS", until)
        kinds = [type(step) for step in self._program(sql, True).steps]
        assert kinds.count(DeltaCaptureStep) == 1
        assert CountUpdatesStep not in kinds
        kinds = [type(step) for step in self._program(sql, False).steps]
        assert kinds.count(CountUpdatesStep) == 1

    def test_no_delta_steps_when_disabled(self):
        program = self._program(sssp_query(source=1, iterations=5), False)
        assert not any(isinstance(step, (DeltaFusedStep, DeltaCaptureStep))
                       for step in program.steps)

    def test_unsafe_step_query_falls_back(self):
        # Item 0 is not the bare anchor key: the analyzer must refuse.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges GROUP BY src
          ITERATE SELECT r.node + 0, r.v + 1.0 FROM r
          UNTIL 3 ITERATIONS
        ) SELECT node, v FROM r"""
        program = self._program(sql, True)
        assert not any(isinstance(step, (DeltaFusedStep, DeltaCaptureStep))
                       for step in program.steps)
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.delta_iterations == 0


class TestKeyIndex:
    def test_reorder_keeps_the_index_of_a_fresh_sort(self, monkeypatch):
        # The merge-by-key reorder moves rows but keeps the key set, so
        # the delta pass permutes the solution set instead of rebuilding
        # it; it must still equal a fresh build over the reordered keys.
        import repro.runtime.handlers.delta as delta_handlers
        apply_delta = delta_handlers._apply_delta
        moved = []

        def checked(runner, step, runtime, working):
            before = runtime.solution.rows.copy()
            result = apply_delta(runner, step, runtime, working)
            if runtime.active:
                fresh = SolutionSet.build(runtime.columns[0].data)
                assert np.array_equal(runtime.solution.rows, fresh.rows)
                assert np.array_equal(runtime.solution.sorted_keys,
                                      fresh.sorted_keys)
                moved.append(not np.array_equal(before,
                                                runtime.solution.rows))
            return result

        monkeypatch.setattr(delta_handlers, "_apply_delta", checked)
        full, delta, db = both_modes(sssp_query(source=1, iterations=10))
        assert full == delta
        assert any(moved)


class TestRuntimeFallbacks:
    def test_duplicate_keys_disable_delta_but_stay_correct(self):
        # The init query emits duplicate keys; the capture step detects
        # this on iteration 1 and permanently routes to the full body.
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges
          ITERATE SELECT r.node, r.v + 1.0 FROM r
          UNTIL 3 ITERATIONS
        ) SELECT node, v FROM r"""
        full, delta, db = both_modes(sql)
        assert full == delta
        assert db.stats.delta_iterations == 0


    def test_delta_body_output_is_duplicate_checked(self, monkeypatch):
        # The safety analyzer only admits bodies that emit one row per
        # anchor row, so SQL cannot make the delta body produce duplicate
        # keys; the fused pass still checks (§II) in case the analysis
        # is ever wrong.  Double the recomputed partition, and separately
        # repeat only its first row, to prove it.
        import repro.runtime.handlers.delta as delta_handlers
        recompute = delta_handlers.execute_to_table

        def doubled(table):
            return np.repeat(np.arange(table.num_rows), 2)

        def one_extra(table):
            rows = np.arange(table.num_rows)
            return np.append(rows, rows[:1])

        for duplicate_rows in (doubled, one_extra):
            def corrupted(plan, ctx, column_names,
                          duplicate_rows=duplicate_rows):
                table = recompute(plan, ctx, column_names)
                return table.take(duplicate_rows(table))

            monkeypatch.setattr(delta_handlers, "execute_to_table",
                                corrupted)
            db = graph_db(EDGES, delta_on=True)
            with pytest.raises(DuplicateKeyError):
                db.execute(sssp_query(source=1, iterations=10))


class TestExplainAnalyze:
    def test_delta_rows_report_the_frontier(self):
        edges = dag_edges(300, 1200)
        db = graph_db(edges, delta_on=True)
        db.execute(sssp_query(source=1, iterations=25))
        db.set_option("enable_tracing", True)
        db.execute(sssp_query(source=1, iterations=25))
        records = db.last_trace().loops[0].records
        # Once the wave dies the frontier is empty, and the telemetry
        # shows it (full recomputation would report full-table deltas).
        assert records[-1].delta_rows == 0
        assert any(r.delta_rows > 0 for r in records)


class TestCaptureReusesSolutionSet:
    def test_demoted_loop_builds_no_dictionary_for_changed_rows(
            self, monkeypatch):
        """Delta capture pairs rows through the loop's solution set, in
        capture mode and after a demotion alike, instead of factorizing
        the key column again."""
        import repro.execution.kernels as kernels
        import repro.runtime.conditions as conditions
        real = kernels.build_dictionary
        calls = []

        def spy(column):
            if sys._getframe(1).f_globals["__name__"] \
                    == conditions.__name__:
                calls.append(len(column))
            return real(column)

        monkeypatch.setattr(kernels, "build_dictionary", spy)
        monkeypatch.setattr(conditions, "build_dictionary", spy,
                            raising=False)
        sql = pagerank_query(iterations=8)
        db = graph_db(EDGES, delta_on=True)
        rows = db.execute(sql).rows()
        assert db.stats.strategy_demotions == 1
        assert calls == []
        assert rows == graph_db(EDGES, delta_on=False).execute(sql).rows()


def vs_db(edges, status, **options) -> Database:
    db = graph_db(edges, **options)
    db.create_table("vertexStatus", [("node", SqlType.INTEGER),
                                     ("status", SqlType.INTEGER)])
    db.load_rows("vertexStatus", status)
    return db


@st.composite
def status_graphs(draw):
    """(edges, vertexStatus rows, source): a small random graph, and a
    random status per node — some nodes have no status row at all."""
    nodes = draw(st.integers(2, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)),
        min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(1, 40), min_size=len(pairs),
                            max_size=len(pairs)))
    edges = [(a, b, w / 8) for (a, b), w in zip(pairs, weights)]
    status = [(node, flag) for node in range(nodes)
              if (flag := draw(st.sampled_from([0, 1, 1, None])))
              is not None]
    source = draw(st.sampled_from(sorted({a for a, _, _ in edges})))
    return edges, status, source


class TestSsspVertexStatus:
    """SSSP-VS: the delta body reads the §V-A common block, so delta on vs
    off must agree under every common-results × kernel-cache arm."""

    @given(status_graphs())
    @settings(max_examples=12, deadline=None)
    def test_every_arm_is_bit_identical_to_the_reference(self, graph):
        edges, status, source = graph
        sql = sssp_query(source=source, iterations=8,
                         with_vertex_status=True)
        available = {node: bool(flag) for node, flag in status}
        expected = reference_sssp(edges, source=source, iterations=8,
                                  available=available)
        tables = {}
        for delta_on in (False, True):
            for common in (False, True):
                for cache in (False, True):
                    db = vs_db(edges, status, delta_on=delta_on,
                               enable_common_results=common,
                               enable_kernel_cache=cache)
                    tables[delta_on, common, cache] = \
                        db.execute(sql).rows()
        for rows in tables.values():
            assert rows == tables[False, False, False]
            assert dict(rows) == expected


class TestSolutionSet:
    def test_dense_integer_keys_are_direct_addressed(self):
        keys = np.array([7, -2, 3, 0, -1, 5])  # negative, span 10
        # Dense enough for lookup_sorted's position table.
        assert dense_span(-2, 7, len(keys))
        solution = SolutionSet.build(keys)
        assert solution.sorted_keys.tolist() == [-2, -1, 0, 3, 5, 7]
        codes = solution.codes(np.array([3, -2, 4, 99, -9]))
        assert list(codes[2:]) == [-1, -1, -1]
        assert list(solution.rows[codes[:2]]) == [2, 1]
        # A FLOAT link column probing INTEGER keys.
        codes = solution.codes(np.array([3.0, 3.5, np.nan, 99.0]))
        assert codes[0] == 3 and list(codes[1:]) == [-1, -1, -1]

    def test_gaps_wider_than_twice_the_rows_fall_back_to_search(self):
        keys = np.array([0, 1000, -7, 5])  # span 1008 > 2 * 4 + 64
        assert not dense_span(-7, 1000, len(keys))
        solution = SolutionSet.build(keys)
        assert solution.sorted_keys.tolist() == [-7, 0, 5, 1000]
        codes = solution.codes(np.array([1000, -7, 6]))
        assert list(solution.rows[codes[:2]]) == [1, 2]
        assert codes[2] == -1

    @pytest.mark.parametrize("values,probe,found_rows", [
        (["b", "a", "cc"], ["cc", "zz", "a"], [2, None, 1]),
        ([0.5, -1.0, 2.25], [2.25, 0.75, -1.0], [2, None, 1]),
    ], ids=["text", "float"])
    def test_text_and_float_keys(self, values, probe, found_rows):
        keys = comparable_values(np.array(values, dtype=object)
                                 if isinstance(values[0], str)
                                 else np.array(values))
        solution = SolutionSet.build(keys)
        codes = solution.codes(comparable_values(
            np.array(probe, dtype=keys.dtype)))
        got = [int(solution.rows[c]) if c >= 0 else None for c in codes]
        assert got == found_rows

    @pytest.mark.parametrize("keys", [[3, 1, 3], [0, 100, 0], [1.5, 1.5]])
    def test_repeated_keys_build_nothing(self, keys):
        assert SolutionSet.build(np.array(keys)) is None

    @pytest.mark.parametrize("keys", [np.arange(-20, 20)[::-1],
                                      np.arange(0, 4000, 100)])
    def test_permute_equals_a_fresh_build(self, keys):
        solution = SolutionSet.build(keys)
        perm = np.random.default_rng(0).permutation(len(keys))
        moved_to = np.empty_like(perm)
        moved_to[perm] = np.arange(len(perm))
        solution.permute(moved_to)
        fresh = SolutionSet.build(keys[perm])
        assert np.array_equal(solution.rows, fresh.rows)
        probe = keys[::3]
        assert np.array_equal(solution.codes(probe), fresh.codes(probe))

    @pytest.mark.parametrize("keys", [np.arange(12), np.arange(12) * 50])
    def test_link_expansion_matches_sort_and_search(self, keys):
        # Duplicate sources, NULL on either side, and destinations that
        # are no CTE key.
        src = [0, 0, 1, 2, None, 3, 3, 11, 5, 50]
        dst = [1, 1, 2, None, 4, 500, 0, 3, 7, 2]
        scale = int(keys[1])
        scaled = [[None if v is None else v * scale for v in side]
                  for side in (src, dst)]
        link = Table.from_columns([("s", SqlType.INTEGER, scaled[0]),
                                   ("d", SqlType.INTEGER, scaled[1])])
        runner = SimpleNamespace(ctx=SimpleNamespace(catalog={"link": link}))
        solution = SolutionSet.build(keys)
        frontier_keys = keys[[0, 3, 5, 11]]
        codes = _expand_influence(runner, solution, ("link", "s", "d"),
                                  solution.codes(frontier_keys))
        got = np.sort(solution.rows[codes])

        s, d = link.column("s"), link.column("d")
        valid = ~(s.mask | d.mask)
        order = np.argsort(s.data[valid], kind="stable")
        src_sorted, dst_by_src = s.data[valid][order], d.data[valid][order]
        lo = np.searchsorted(src_sorted, frontier_keys, "left")
        hi = np.searchsorted(src_sorted, frontier_keys, "right")
        reached = dst_by_src[expand_ranges(lo, hi - lo)]
        reached = reached[np.isin(reached, keys)]
        expected = np.sort(np.searchsorted(keys, reached))
        assert np.array_equal(got, expected)

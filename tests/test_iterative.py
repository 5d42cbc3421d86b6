"""Iterative-CTE core tests: Algorithm 1 paths, termination conditions,
the rename/merge split, duplicate-key enforcement, and plan structure."""

import pytest

from repro import Database
from repro.errors import (
    DuplicateKeyError,
    IterationLimitError,
    PlanError,
)
from repro.plan.program import (
    CopyStep,
    DuplicateCheckStep,
    LoopStep,
    MaterializeStep,
    RenameStep,
)
from repro.core.rewrite import compile_statement
from repro.plan import PlanContext
from repro.execution import SessionOptions
from repro.sql import parse


def compile_program(db, sql, **option_overrides):
    options = SessionOptions()
    for key, value in option_overrides.items():
        setattr(options, key, value)
    return compile_statement(parse(sql), PlanContext(db.catalog), options)


SIMPLE = """
WITH ITERATIVE r (k, v) AS (
  SELECT 1, 1 ITERATE SELECT k, v + 1 FROM r UNTIL {until}
) SELECT v FROM r
"""


class TestTermination:
    def test_iterations(self, db):
        assert db.execute(SIMPLE.format(until="7 ITERATIONS")).scalar() == 8

    def test_zero_iterations_runs_zero_times(self, db):
        # Algorithm 1 runs the body then checks — but 0 iterations means
        # the loop operator stops after the first check; our semantics run
        # the body once before the first check, like the paper's Table I
        # (step 6 follows step 3).  The body runs at least once.
        assert db.execute(SIMPLE.format(until="1 ITERATIONS")).scalar() == 2

    def test_updates_termination(self, db):
        # Each iteration updates one row; stop once 3 updates accumulated.
        assert db.execute(SIMPLE.format(until="3 UPDATES")).scalar() == 4

    def test_data_any_termination(self, db):
        assert db.execute(SIMPLE.format(until="v >= 5")).scalar() == 5

    def test_data_any_qualified_reference(self, db):
        assert db.execute(SIMPLE.format(until="r.v >= 5")).scalar() == 5

    def test_data_all_termination(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT src, 0 FROM (SELECT 1 AS src UNION SELECT 2)
          ITERATE SELECT k, v + k FROM r
          UNTIL ALL v >= 4
        ) SELECT SUM(v) FROM r"""
        # v grows by k each round: node1 reaches 4 after 4 rounds, node2
        # after 2; ALL requires both.
        assert db.execute(sql).scalar() == 4 + 8

    def test_delta_zero_convergence(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 64 ITERATE
          SELECT k, CASE WHEN v > 1 THEN v / 2 ELSE v END FROM r
          UNTIL DELTA = 0
        ) SELECT v FROM r"""
        assert db.execute(sql).scalar() == 1

    def test_delta_threshold(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT src, 0 FROM (SELECT 1 AS src UNION SELECT 2)
          ITERATE SELECT k, CASE WHEN v < k * 3 THEN v + k ELSE v END FROM r
          UNTIL DELTA < 2
        ) SELECT COUNT(*) FROM r"""
        assert db.execute(sql).scalar() == 2

    def test_runaway_loop_hits_safety_cap(self, db):
        db.set_option("max_iterations", 50)
        with pytest.raises(IterationLimitError):
            db.execute(SIMPLE.format(until="v < 0"))


class TestAlgorithmPaths:
    def test_full_update_uses_rename(self, db):
        program = compile_program(db, SIMPLE.format(until="5 ITERATIONS"))
        assert any(isinstance(s, RenameStep) for s in program.steps)
        assert not any(isinstance(s, DuplicateCheckStep)
                       for s in program.steps)

    def test_full_update_without_rename_copies(self, db):
        program = compile_program(db, SIMPLE.format(until="5 ITERATIONS"),
                                  enable_rename=False)
        assert any(isinstance(s, CopyStep) for s in program.steps)
        assert not any(isinstance(s, RenameStep) for s in program.steps)
        # The baseline merges to identify updated rows (§VII-B).
        comments = [s.comment for s in program.steps
                    if isinstance(s, MaterializeStep)]
        assert any("baseline" in c for c in comments)

    def test_partial_update_uses_merge(self, graph_db):
        sql = """
        WITH ITERATIVE r (node, hops) AS (
          SELECT DISTINCT src, 0 FROM edges
          ITERATE SELECT node, hops + 1 FROM r WHERE node = 1
          UNTIL 3 ITERATIONS
        ) SELECT node, hops FROM r ORDER BY node"""
        program = compile_program(graph_db, sql)
        assert any(isinstance(s, DuplicateCheckStep)
                   for s in program.steps)
        rows = graph_db.execute(sql).rows()
        assert (1, 3) in rows          # node 1 advanced three times
        assert all(h == 0 for n, h in rows if n != 1)  # others untouched

    def test_loop_jump_targets_iteration_start(self, db):
        program = compile_program(db, SIMPLE.format(until="2 ITERATIONS"))
        (loop,) = [s for s in program.steps if isinstance(s, LoopStep)]
        target = program.steps[loop.jump_to]
        assert isinstance(target, MaterializeStep)

    def test_rename_is_not_data_movement(self, db):
        db.execute(SIMPLE.format(until="10 ITERATIONS"))
        assert db.stats.renames >= 10
        assert db.stats.rows_moved == 0

    def test_copy_is_data_movement(self, db):
        db.set_option("enable_rename", False)
        db.execute(SIMPLE.format(until="10 ITERATIONS"))
        assert db.stats.rows_moved > 0


class TestSemantics:
    def test_duplicate_keys_raise_runtime_error(self, graph_db):
        # Working table gets two rows for one key (src 1 has two edges):
        # §II mandates a run-time error.
        sql = """
        WITH ITERATIVE r (node, c) AS (
          SELECT src, 0 FROM (SELECT DISTINCT src FROM edges)
          ITERATE
          SELECT r.node, e.dst FROM r JOIN edges e ON r.node = e.src
          WHERE e.weight > 0
          UNTIL 2 ITERATIONS
        ) SELECT * FROM r"""
        with pytest.raises(DuplicateKeyError):
            graph_db.execute(sql)

    def test_single_duplicate_key_raises_on_first_iteration(self, db):
        # Key 1 matches two rows of d, so the body emits exactly one
        # extra row: one iteration must raise, not merge 4 rows for 3
        # keys into the CTE table.
        db.execute("CREATE TABLE t (k int, v int)")
        db.execute("CREATE TABLE d (k int, v int)")
        db.execute("INSERT INTO t VALUES (1,1),(2,1),(3,1)")
        db.execute("INSERT INTO d VALUES (1,5),(1,6),(2,7)")
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM t
          ITERATE SELECT d.k, d.v FROM r JOIN d ON r.k = d.k
                  WHERE d.v > 0
          UNTIL 1 ITERATIONS
        ) SELECT * FROM r"""
        with pytest.raises(DuplicateKeyError):
            db.execute(sql)

    def test_column_count_mismatch_init(self, db):
        sql = """
        WITH ITERATIVE r (a, b) AS (
          SELECT 1 ITERATE SELECT a, b FROM r UNTIL 2 ITERATIONS
        ) SELECT * FROM r"""
        with pytest.raises(PlanError):
            db.execute(sql)

    def test_column_count_mismatch_step(self, db):
        sql = """
        WITH ITERATIVE r (a) AS (
          SELECT 1 ITERATE SELECT a, a FROM r UNTIL 2 ITERATIONS
        ) SELECT * FROM r"""
        with pytest.raises(PlanError):
            db.execute(sql)

    def test_type_widening_across_parts(self, db):
        # R0 yields INTEGER, Ri yields FLOAT: the CTE column unifies.
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 10 ITERATE SELECT k, v / 4.0 FROM r UNTIL 1 ITERATIONS
        ) SELECT v FROM r"""
        assert db.execute(sql).scalar() == 2.5

    def test_merge_keeps_unmatched_rows(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT src, 0 FROM (SELECT 1 AS src UNION SELECT 2 UNION SELECT 3)
          ITERATE SELECT k, v + 10 FROM r WHERE k = 2
          UNTIL 2 ITERATIONS
        ) SELECT k, v FROM r ORDER BY k"""
        assert db.execute(sql).rows() == [(1, 0), (2, 20), (3, 0)]

    def test_iterative_cte_as_input_to_final_join(self, graph_db):
        sql = """
        WITH ITERATIVE r (node, c) AS (
          SELECT src, 1 FROM (SELECT DISTINCT src FROM edges)
          ITERATE SELECT node, c * 2 FROM r UNTIL 3 ITERATIONS
        ) SELECT r.node, r.c, e.dst FROM r JOIN edges e ON r.node = e.src
          ORDER BY r.node, e.dst"""
        rows = graph_db.execute(sql).rows()
        assert all(c == 8 for _, c, _ in rows)
        assert len(rows) == 5

    def test_two_iterative_ctes_in_one_query(self, db):
        sql = """
        WITH ITERATIVE a (k, v) AS (
            SELECT 1, 0 ITERATE SELECT k, v + 1 FROM a UNTIL 3 ITERATIONS
        ), ITERATIVE b (k, w) AS (
            SELECT 1, 0 ITERATE SELECT k, w + 10 FROM b UNTIL 2 ITERATIONS
        )
        SELECT a.v, b.w FROM a JOIN b ON a.k = b.k"""
        assert db.execute(sql).rows() == [(3, 20)]

    def test_second_cte_can_read_first(self, db):
        sql = """
        WITH ITERATIVE a (k, v) AS (
            SELECT 1, 2 ITERATE SELECT k, v * v FROM a UNTIL 2 ITERATIONS
        ), ITERATIVE b (k, w) AS (
            SELECT k, v FROM a ITERATE SELECT k, w + 1 FROM b
            UNTIL 3 ITERATIONS
        )
        SELECT w FROM b"""
        assert db.execute(sql).scalar() == 16 + 3

    def test_regular_cte_alongside_iterative(self, graph_db):
        sql = """
        WITH nodes AS (SELECT DISTINCT src AS n FROM edges),
             ITERATIVE r (k, v) AS (
               SELECT 1, 0 ITERATE SELECT k, v + 1 FROM r UNTIL 2 ITERATIONS
             )
        SELECT (SELECT_COUNT.c + r.v) FROM r,
               (SELECT COUNT(*) AS c FROM nodes) SELECT_COUNT"""
        assert graph_db.execute(sql).rows() == [(4 + 2,)]

    def test_iterative_reference_in_subquery_of_final(self, db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 5 ITERATE SELECT k, v + 5 FROM r UNTIL 2 ITERATIONS
        ) SELECT t.doubled FROM (SELECT v * 2 AS doubled FROM r) t"""
        assert db.execute(sql).scalar() == 30

    def test_stats_count_iterations(self, db):
        db.reset_stats()
        db.execute(SIMPLE.format(until="9 ITERATIONS"))
        assert db.stats.iterations == 9

    def test_registry_cleaned_after_query(self, db):
        db.execute(SIMPLE.format(until="3 ITERATIONS"))
        assert db.registry.names() == []

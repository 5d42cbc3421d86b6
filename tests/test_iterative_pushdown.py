"""§V-B predicate pushdown into R0 never changes what a statement returns.

Every case runs one statement with ``enable_predicate_pushdown`` on and
off and requires the same sorted rows, or the same error class.  The
explicit cases are shapes a pushdown that reads only the predicate gets
wrong: a termination that reads the whole table, a second reference to
the CTE in Qf or in a sibling CTE, a subquery conjunct, and a merge-path
body whose duplicate keys the filter would hide.  The sweep crosses step
bodies, Qf shapes, the five termination kinds and an optional sibling.
The one pinned difference, an error raised only while computing a row
the pushed filter drops, has its own case.
"""

from __future__ import annotations

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import (DuplicateKeyError, ExecutionError,
                          IterationLimitError)
from repro.types import SqlType


def make_db(tagged: bool = False) -> Database:
    db = Database()
    if tagged:
        db.create_table("t", [("id", SqlType.INTEGER),
                              ("tag", SqlType.TEXT),
                              ("v", SqlType.INTEGER)])
        db.load_rows("t", [(1, "a", 1), (1, "b", 2), (2, "a", 3)])
    else:
        db.create_table("t", [("id", SqlType.INTEGER),
                              ("v", SqlType.INTEGER)])
        db.load_rows("t", [(i, i) for i in range(10)])
    db.create_table("w", [("id", SqlType.INTEGER),
                          ("x", SqlType.INTEGER)])
    db.load_rows("w", [(i, i % 3) for i in range(0, 10, 2)])
    return db


def outcome(db: Database, sql: str, pushdown: bool):
    """Sorted rows, or the class of the error the statement raised, plus
    how many predicates moved into R0."""
    db.set_option("enable_predicate_pushdown", pushdown)
    db.reset_stats()
    try:
        result = sorted(db.execute(sql).rows(), key=repr)
    except Exception as error:  # noqa: BLE001 - the class is compared
        result = type(error)
    return result, db.stats.predicate_pushdowns


def assert_same_on_and_off(db: Database, sql: str):
    on, pushed = outcome(db, sql, True)
    off, _ = outcome(db, sql, False)
    assert on == off
    return on, pushed


def statement(until: str, final: str, step: str = "SELECT r.id, r.v + 1 "
              "FROM r", sibling: str = "") -> str:
    return (f"WITH ITERATIVE r (id, v) AS (SELECT id, v FROM t "
            f"ITERATE {step} UNTIL {until}){sibling} {final}")


class TestReproductions:
    """Each of these returned different results (or a raw TypeError)
    with pushdown on before the rule read the whole statement."""

    def test_until_updates_reads_the_whole_table(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "25 UPDATES", "SELECT id, v FROM r WHERE id < 3"))
        assert rows == [(0, 3), (1, 4), (2, 5)]
        assert pushed == 0

    def test_until_any_reads_the_whole_table(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "ANY v > 20", "SELECT id, v FROM r WHERE id < 3"))
        assert rows == [(0, 12), (1, 13), (2, 14)]
        assert pushed == 0

    def test_until_delta_raises_the_same_limit_error(self):
        db = make_db()
        db.set_option("max_iterations", 50)
        result, pushed = assert_same_on_and_off(db, statement(
            "DELTA < 5", "SELECT id, v FROM r WHERE id < 3"))
        assert result is IterationLimitError
        assert pushed == 0

    def test_self_join_in_final_query(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT a.id, b.v FROM r AS a JOIN r AS b "
            "ON b.id = a.id + 5 WHERE a.id < 3"))
        assert rows == [(0, 8), (1, 9), (2, 10)]
        assert pushed == 0

    def test_subquery_conjunct_stays_in_final_query(self):
        # ``id < 3`` still moves; the IN conjunct does not.
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT id, v FROM r WHERE id < 3 "
            "AND id IN (SELECT id FROM t WHERE v > 1)"))
        assert rows == [(2, 5)]
        assert pushed == 1

    def test_subquery_reading_the_cte_sees_the_whole_table(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT id, v FROM r WHERE id < 3 "
            "AND EXISTS (SELECT q.id FROM r AS q WHERE q.v > 11)"))
        assert rows == [(0, 3), (1, 4), (2, 5)]
        assert pushed == 0

    def test_sibling_cte_reads_the_whole_table(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT r.id, s.c FROM r CROSS JOIN s "
            "WHERE r.id < 3",
            sibling=", s AS (SELECT count(*) AS c FROM r)"))
        assert rows == [(0, 10), (1, 10), (2, 10)]
        assert pushed == 0

    def test_null_supplying_side_of_an_outer_join(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT w.id, r.v FROM w LEFT JOIN r "
            "ON r.id = w.id + 1 WHERE r.id IS NULL"))
        assert rows == []
        assert pushed == 0

    def test_merge_path_duplicate_keys_still_raise(self):
        sql = ("WITH ITERATIVE r (id, tag, v) AS (SELECT id, tag, v FROM t "
               "ITERATE SELECT r.id, r.tag, r.v + 1 FROM r WHERE r.v < 100 "
               "UNTIL 3 ITERATIONS) SELECT id, tag, v FROM r "
               "WHERE tag = 'a'")
        result, pushed = assert_same_on_and_off(make_db(tagged=True), sql)
        assert result is DuplicateKeyError
        assert pushed == 0


class TestErrorsOnDroppedRows:
    """A pushed predicate drops rows before ``R0`` computes them, so an
    error raised only while computing a dropped row is not raised with
    pushdown on: error equivalence across option vectors covers the rows
    the statement keeps (DESIGN.md, "Semantics pinned down")."""

    SQL = ("WITH ITERATIVE r (id, v) AS (SELECT id, CAST(v * 1e10 AS "
           "INTEGER) FROM t ITERATE SELECT r.id, r.v + 1 FROM r "
           "UNTIL 3 ITERATIONS) SELECT id, v FROM r WHERE id < 3")

    def test_overflow_on_a_dropped_row_raises_only_without_pushdown(self):
        db = Database()
        db.create_table("t", [("id", SqlType.INTEGER),
                              ("v", SqlType.FLOAT)])
        db.load_rows("t", [(i, 1e300 if i == 9 else float(i))
                           for i in range(10)])
        with warnings.catch_warnings():
            # numpy warns on the float overflow before the cast raises.
            warnings.simplefilter("ignore", RuntimeWarning)
            on, pushed = outcome(db, self.SQL, True)
            off, _ = outcome(db, self.SQL, False)
        assert on == [(0, 3), (1, 10000000003), (2, 20000000003)]
        assert pushed == 1
        assert off is ExecutionError


class TestStillPushed:
    def test_per_row_map_is_pushed(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT id, v FROM r WHERE id < 3"))
        assert rows == [(0, 3), (1, 4), (2, 5)]
        assert pushed == 1

    def test_key_grouped_body_joining_a_base_table_is_pushed(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT id, v FROM r WHERE id < 5",
            step="SELECT r.id, r.v + SUM(w.x) FROM r JOIN w "
                 "ON w.id = r.id GROUP BY r.id, r.v"))
        assert rows == [(0, 0), (2, 8), (4, 7)]
        assert pushed == 1

    def test_only_conjuncts_on_the_cte_reference_move(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT r.id, w.id FROM r JOIN w ON w.x = r.id "
            "WHERE w.id > 4 AND r.id < 2"))
        assert rows == [(0, 6)]
        assert pushed == 1

    def test_only_the_invariant_conjunct_moves(self):
        rows, pushed = assert_same_on_and_off(make_db(), statement(
            "3 ITERATIONS", "SELECT id, v FROM r WHERE id < 5 AND v > 5"))
        assert rows == [(3, 6), (4, 7)]
        assert pushed == 1


# ---------------------------------------------------------------------------
# The sweep: step bodies x Qf shapes x termination kinds x sibling CTE
# ---------------------------------------------------------------------------

STEPS = [
    "SELECT r.id, r.v + 1 FROM r",
    "SELECT id, v * 2 - id FROM r",
    "SELECT r.id, r.v + 1 FROM r WHERE r.v < 6",
    "SELECT r.id, r.v + SUM(w.x) FROM r JOIN w ON w.id = r.id "
    "GROUP BY r.id, r.v",
    "SELECT r.id, r.v + COUNT(w.x) FROM r LEFT JOIN w ON w.id = r.id "
    "GROUP BY r.id, r.v",
    "SELECT r.id, MIN(s.v) + 1 FROM r JOIN r AS s ON s.id = r.id "
    "GROUP BY r.id",
    "SELECT r.id, r.v + 1 FROM r JOIN w ON w.id = r.id",
]

FINALS = [
    "SELECT id, v FROM r WHERE id < 4",
    "SELECT id, v FROM r WHERE MOD(id, 2) = 0 AND v > 3",
    "SELECT r.id, r.v FROM r WHERE r.id IN (SELECT id FROM w)",
    "SELECT a.id, b.v FROM r AS a JOIN r AS b ON b.id = a.id + 1 "
    "WHERE a.id < 5",
    "SELECT w.id, r.v FROM w LEFT JOIN r ON r.id = w.id + 1 "
    "WHERE r.id IS NULL",
    "SELECT w.id, r.v FROM r RIGHT JOIN w ON r.id = w.id + 1 "
    "WHERE r.id IS NULL",
    "SELECT r.id, w.id FROM r JOIN w ON w.x = r.id WHERE w.id > 4",
    "SELECT id, COUNT(*) FROM r WHERE id > 6 GROUP BY id",
    "SELECT r.id, s.c FROM r CROSS JOIN s WHERE r.id < 3",
    "SELECT id, v FROM r WHERE id < 4 "
    "AND EXISTS (SELECT q.id FROM r AS q WHERE q.v > 7)",
]

UNTILS = ["3 ITERATIONS", "12 UPDATES", "ANY v > 8", "ALL v > 4",
          "DELTA < 4"]

SIBLINGS = ["", ", s AS (SELECT count(*) AS c FROM r)",
            ", s AS (SELECT count(*) AS c FROM w)",
            ", s AS (SELECT count(*) AS c FROM w "
            "WHERE w.id IN (SELECT id FROM r))"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(step=st.sampled_from(STEPS), final=st.sampled_from(FINALS),
       until=st.sampled_from(UNTILS), sibling=st.sampled_from(SIBLINGS),
       delta=st.booleans())
def test_pushdown_never_changes_the_answer(step, final, until, sibling,
                                           delta):
    if " s." in final and not sibling:
        sibling = SIBLINGS[2]
    db = make_db()
    db.set_option("max_iterations", 30)
    db.set_option("enable_delta_iteration", delta)
    assert_same_on_and_off(db, statement(until, final, step, sibling))

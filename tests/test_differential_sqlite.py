"""Differential testing against SQLite.

Every query here runs on both this engine and the stdlib ``sqlite3`` and
must produce the same multiset of rows.  The corpus sticks to the SQL
subset where the two dialects agree (integer arithmetic, three-valued
logic, joins, grouping, set operations); known divergences — NULL sort
order, LIKE case-sensitivity, division-by-zero behaviour — are avoided
and documented here:

* SQLite sorts NULLs first ASC, we sort them last (PostgreSQL-style):
  comparisons therefore sort in Python, never via ORDER BY.
* SQLite's ``/ 0`` yields NULL, we raise: no division in generated
  expressions.
* SQLite's LIKE is ASCII-case-insensitive: not exercised here.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ExecutionError
from repro.types import SqlType

ROWS_T = [
    (1, 10, None), (2, 20, 5), (3, None, 5), (4, 40, None),
    (5, 50, 2), (6, 60, 2), (7, None, None), (8, 20, 9),
]
ROWS_U = [(10, 1), (20, 2), (20, 3), (99, None)]


@pytest.fixture(scope="module")
def engines():
    db = Database()
    db.create_table("t", [("a", SqlType.INTEGER),
                          ("b", SqlType.INTEGER),
                          ("c", SqlType.INTEGER)])
    db.load_rows("t", ROWS_T)
    db.create_table("u", [("x", SqlType.INTEGER),
                          ("y", SqlType.INTEGER)])
    db.load_rows("u", ROWS_U)

    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (a int, b int, c int)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS_T)
    lite.execute("CREATE TABLE u (x int, y int)")
    lite.executemany("INSERT INTO u VALUES (?, ?)", ROWS_U)
    lite.commit()
    yield db, lite
    lite.close()


def sort_key(row):
    return tuple((value is None, value) for value in row)


def both(engines, sql):
    db, lite = engines
    ours = sorted(db.execute(sql).rows(), key=sort_key)
    theirs = sorted((tuple(r) for r in lite.execute(sql).fetchall()),
                    key=sort_key)
    return ours, theirs


def value_types(rows):
    return [tuple(type(value) for value in row) for row in rows]


def assert_agree(engines, sql):
    ours, theirs = both(engines, sql)
    assert ours == theirs, f"divergence on: {sql}"
    # ``20 == 20.0``: compare the value types too, so an INTEGER SUM
    # that came back FLOAT is a divergence.
    assert value_types(ours) == value_types(theirs), \
        f"type divergence on: {sql}"


CORPUS = [
    "SELECT a, b FROM t",
    "SELECT a + b, a * 2 - c FROM t",
    "SELECT a FROM t WHERE b > 15",
    "SELECT a FROM t WHERE b IS NULL",
    "SELECT a FROM t WHERE b IS NOT NULL AND c IS NULL",
    "SELECT a FROM t WHERE b = 20 OR c = 5",
    "SELECT a FROM t WHERE NOT (b > 15)",
    "SELECT a FROM t WHERE a IN (1, 3, 5)",
    "SELECT a FROM t WHERE a NOT IN (1, 3, 5)",
    "SELECT a FROM t WHERE a BETWEEN 2 AND 5",
    "SELECT a FROM t WHERE b IN (20, 40) AND a <> 8",
    "SELECT DISTINCT b FROM t",
    "SELECT DISTINCT b, c FROM t",
    "SELECT COUNT(*), COUNT(b), COUNT(c) FROM t",
    "SELECT SUM(b), MIN(b), MAX(b), AVG(b) FROM t",
    "SELECT SUM(b) FROM t WHERE a > 100",
    "SELECT c, COUNT(*) FROM t GROUP BY c",
    "SELECT c, SUM(b), MAX(a) FROM t GROUP BY c",
    "SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > 1",
    "SELECT b, c, COUNT(*) FROM t GROUP BY b, c",
    "SELECT t.a, u.y FROM t JOIN u ON t.b = u.x",
    "SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x",
    "SELECT t.a, u.y FROM t JOIN u ON t.b = u.x AND u.y > 1",
    "SELECT t.a, u.y FROM t LEFT JOIN u ON t.b = u.x AND u.y > 1",
    "SELECT t1.a, t2.a FROM t t1 JOIN t t2 ON t1.c = t2.c",
    "SELECT a FROM t CROSS JOIN u WHERE t.a = u.y",
    "SELECT b FROM t UNION SELECT x FROM u",
    "SELECT b FROM t UNION ALL SELECT x FROM u",
    "SELECT b FROM t EXCEPT SELECT x FROM u",
    "SELECT b FROM t INTERSECT SELECT x FROM u",
    "SELECT a FROM t WHERE EXISTS "
    "(SELECT 1 FROM u WHERE u.x = t.b)",
    "SELECT a FROM t WHERE NOT EXISTS "
    "(SELECT 1 FROM u WHERE u.x = t.b)",
    "SELECT a FROM t WHERE b IN (SELECT x FROM u)",
    "SELECT a FROM t WHERE b IN (SELECT x FROM u WHERE u.y = t.c)",
    "SELECT a FROM t WHERE c NOT IN (SELECT y FROM u WHERE y IS NOT NULL)",
    "SELECT s.total FROM (SELECT c, SUM(b) AS total FROM t GROUP BY c) s",
    "SELECT a FROM t WHERE a = (1 + 2)",
    "SELECT CASE WHEN b > 25 THEN 1 WHEN b > 15 THEN 2 ELSE 3 END FROM t",
    "SELECT CASE c WHEN 5 THEN 'five' ELSE 'other' END FROM t",
    "SELECT COALESCE(b, c, 0) FROM t",
    "SELECT a % 3, a FROM t",
    "SELECT MIN(a), MAX(a) FROM t WHERE b IS NULL",
    "SELECT COUNT(DISTINCT b) FROM t",
    "WITH big AS (SELECT a, b FROM t WHERE b >= 20) "
    "SELECT COUNT(*) FROM big",
    "WITH big (v) AS (SELECT b FROM t WHERE b >= 20) "
    "SELECT v FROM big WHERE v < 60",
    # Group 3 of a % 4 holds only NULL b: SUM/AVG/MIN/MAX go NULL,
    # COUNT(b) goes 0 while COUNT(*) counts the rows, SUM stays INTEGER.
    "SELECT a % 4, COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b) "
    "FROM t GROUP BY a % 4",
    "SELECT c, COUNT(DISTINCT b), COUNT(b) FROM t GROUP BY c",
    # PageRank's shape: two outer joins feeding one grouped aggregate.
    "SELECT t1.a, COUNT(u.y), SUM(t2.b) FROM t t1 "
    "LEFT JOIN u ON t1.b = u.x LEFT JOIN t t2 ON t2.a = u.y "
    "GROUP BY t1.a",
    # Grouping on the leading integer key (kernels.group_keys): b depends
    # on the unique a and holds NULLs; c's NULL rows form the
    # determinant's NULL group; b + c varies within b = 20, so the check
    # fails and every key is encoded.
    "SELECT a, b, COUNT(*) FROM t GROUP BY a, b",
    "SELECT c, c * 2, COUNT(*) FROM t GROUP BY c, c * 2",
    "SELECT b, b + c, COUNT(*) FROM t GROUP BY b, b + c",
]

# SQLite parses RIGHT and FULL OUTER JOIN from 3.39 on.
JOIN_KINDS = ["JOIN", "LEFT JOIN"]
if sqlite3.sqlite_version_info >= (3, 39):
    JOIN_KINDS += ["RIGHT JOIN", "FULL JOIN"]
JOIN_CONDITIONS = ["t.b = u.x", "t.a = u.y", "t.b = u.x AND u.y > 1"]


@pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
def test_corpus_agrees_with_sqlite(engines, sql):
    assert_agree(engines, sql)


@pytest.mark.parametrize("kind", JOIN_KINDS)
@pytest.mark.parametrize("condition", JOIN_CONDITIONS)
def test_join_kinds_agree_with_sqlite(engines, kind, condition):
    assert_agree(engines,
                 f"SELECT t.a, t.b, u.x, u.y FROM t {kind} u ON {condition}")


# ---------------------------------------------------------------------------
# Property-based differential testing
# ---------------------------------------------------------------------------

columns = st.sampled_from(["a", "b", "c"])
small_int = st.integers(-5, 65)


def predicate(depth: int = 2):
    comparison = st.builds(
        lambda col, op, val: f"({col} {op} {val})",
        columns, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        small_int)
    null_test = st.builds(
        lambda col, neg: f"({col} IS {'NOT ' if neg else ''}NULL)",
        columns, st.booleans())
    in_list = st.builds(
        lambda col, vals: f"({col} IN ({', '.join(map(str, vals))}))",
        columns, st.lists(small_int, min_size=1, max_size=4))
    between = st.builds(
        lambda col, lo, hi: f"({col} BETWEEN {lo} AND {hi})",
        columns, small_int, small_int)
    leaf = st.one_of(comparison, null_test, in_list, between)
    if depth == 0:
        return leaf
    sub = predicate(depth - 1)
    combined = st.builds(
        lambda a, op, b: f"({a} {op} {b})",
        sub, st.sampled_from(["AND", "OR"]), sub)
    negated = st.builds(lambda a: f"(NOT {a})", sub)
    return st.one_of(leaf, combined, negated)


class TestGeneratedQueries:
    @given(predicate())
    @settings(max_examples=120, deadline=None)
    def test_where_predicates(self, engines, pred):
        assert_agree(engines, f"SELECT a, b, c FROM t WHERE {pred}")

    @given(predicate(depth=1),
           st.sampled_from(["b", "c", "a % 2"]),
           st.sampled_from(["COUNT(*)", "SUM(a)", "MIN(b)", "MAX(c)",
                            "COUNT(b)", "AVG(a)"]))
    @settings(max_examples=60, deadline=None)
    def test_grouped_aggregates(self, engines, pred, key, agg):
        assert_agree(
            engines,
            f"SELECT {key}, {agg} FROM t WHERE {pred} GROUP BY {key}")

    @given(st.sampled_from(JOIN_KINDS), st.sampled_from(JOIN_CONDITIONS),
           predicate(depth=1))
    @settings(max_examples=60, deadline=None)
    def test_joins(self, engines, kind, condition, pred):
        assert_agree(
            engines,
            f"SELECT t.a, u.x, u.y FROM t {kind} u ON {condition} "
            f"WHERE {pred}")

    @given(st.sampled_from(["UNION", "UNION ALL", "EXCEPT", "INTERSECT"]),
           predicate(depth=1))
    @settings(max_examples=60, deadline=None)
    def test_set_operations(self, engines, kind, pred):
        assert_agree(
            engines,
            f"SELECT b FROM t WHERE {pred} {kind} SELECT x FROM u")

    @given(st.builds(
        lambda col, op, val: f"({col} {op} {val})",
        st.sampled_from(["a", "b"]),
        st.sampled_from(["+", "-", "*"]), small_int))
    @settings(max_examples=40, deadline=None)
    def test_projection_arithmetic(self, engines, expr):
        assert_agree(engines, f"SELECT {expr}, a FROM t")


# ---------------------------------------------------------------------------
# Recursive CTEs: SQLite's WITH RECURSIVE as the fixed-point oracle
# ---------------------------------------------------------------------------

CLOSURE = ("WITH RECURSIVE r(a, b) AS (SELECT a, b FROM edge "
           "UNION SELECT r.a, edge.b FROM r JOIN edge ON r.b = edge.a) ")

RECURSIVE_QUERIES = {
    "transitive_closure": CLOSURE + "SELECT a, b FROM r",
    "reachability": (
        "WITH RECURSIVE r(v) AS (SELECT 0 "
        "UNION SELECT edge.b FROM r JOIN edge ON r.v = edge.a) "
        "SELECT v FROM r"),
    "closure_out_degree": CLOSURE + "SELECT a, COUNT(*) FROM r GROUP BY a",
}

# Duplicate edges and self-loops included: UNION must dedup the base arm.
edge_lists = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                      max_size=40)


def graph_engines(edges):
    db = Database()
    db.create_table("edge", [("a", SqlType.INTEGER),
                             ("b", SqlType.INTEGER)])
    db.load_rows("edge", edges)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE edge (a int, b int)")
    lite.executemany("INSERT INTO edge VALUES (?, ?)", edges)
    return db, lite


class TestRecursiveAgainstSqlite:
    @pytest.mark.parametrize("name", sorted(RECURSIVE_QUERIES))
    @given(edges=edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_fixed_point(self, name, edges):
        db, lite = graph_engines(edges)
        try:
            assert_agree((db, lite), RECURSIVE_QUERIES[name])
        finally:
            lite.close()

    @given(bound=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_bounded_union_all_counter(self, bound):
        db, lite = graph_engines([])
        try:
            assert_agree((db, lite),
                         "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL "
                         f"SELECT n + 1 FROM c WHERE n < {bound}) "
                         "SELECT n FROM c")
        finally:
            lite.close()


def sum_engines(rows):
    db = Database()
    db.create_table("big", [("g", SqlType.INTEGER), ("v", SqlType.INTEGER)])
    db.load_rows("big", rows)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE big (g int, v int)")
    lite.executemany("INSERT INTO big VALUES (?, ?)", rows)
    return db, lite


class TestIntegerSumAgainstSqlite:
    """INTEGER SUM is exact int64 arithmetic, as in SQLite: no detour
    through float64 (which drops the low bits past 2^53) and no silent
    wrap-around past 2^63."""

    def test_sums_past_2_pow_53_are_exact(self):
        db, lite = sum_engines([(1, 2**53 + 1), (1, 1), (2, -(2**62)),
                                (2, -(2**62)), (3, 2**62), (3, None)])
        try:
            assert_agree((db, lite), "SELECT g, SUM(v) FROM big GROUP BY g")
            assert_agree((db, lite), "SELECT SUM(v) FROM big WHERE g = 1")
            assert db.execute(
                "SELECT SUM(v) FROM big WHERE g = 1").scalar() == 2**53 + 2
        finally:
            lite.close()

    def test_overflowing_group_raises_on_both_sides(self):
        db, lite = sum_engines([(1, 2**62), (1, 2**62), (2, 5)])
        sql = "SELECT g, SUM(v) FROM big GROUP BY g"
        try:
            with pytest.raises(sqlite3.OperationalError,
                               match="integer overflow"):
                lite.execute(sql).fetchall()
            with pytest.raises(ExecutionError, match="integer overflow"):
                db.execute(sql)
        finally:
            lite.close()

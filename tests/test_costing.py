"""Cost model tests: cardinality estimation and the join reordering
that reads it."""

import pytest

from repro.plan import PlanContext, build_statement
from repro.sql import parse
from repro.stats import CardinalityEstimator


@pytest.fixture
def analyzed_db(db):
    db.execute("CREATE TABLE facts (k int, grp int, v float)")
    db.load_rows("facts", [(i, i % 10, float(i)) for i in range(1000)])
    db.execute("CREATE TABLE dims (grp int, label text)")
    db.load_rows("dims", [(g, f"g{g}") for g in range(10)])
    db.execute("ANALYZE")
    return db


def estimate(db, sql):
    plan = build_statement(parse(sql), PlanContext(db.catalog))
    estimator = CardinalityEstimator(db.statistics)
    return estimator.estimate(plan), estimator, plan


class TestCardinality:
    def test_scan(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db, "SELECT * FROM facts")
        assert rows == 1000

    def test_equality_filter(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db,
                              "SELECT * FROM facts WHERE k = 5")
        assert rows == pytest.approx(1.0, abs=0.1)

    def test_group_filter(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db,
                              "SELECT * FROM facts WHERE grp = 3")
        assert rows == pytest.approx(100.0, rel=0.1)

    def test_range_filter(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db,
                              "SELECT * FROM facts WHERE k < 250")
        assert rows == pytest.approx(250.0, rel=0.1)

    def test_conjunction_multiplies(self, analyzed_db):
        rows, _, _ = estimate(
            analyzed_db,
            "SELECT * FROM facts WHERE grp = 3 AND k < 500")
        assert rows == pytest.approx(50.0, rel=0.2)

    def test_equi_join(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db, """
            SELECT * FROM facts JOIN dims ON facts.grp = dims.grp""")
        # Every fact matches exactly one dim.
        assert rows == pytest.approx(1000.0, rel=0.1)

    def test_cross_join(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db,
                              "SELECT * FROM facts CROSS JOIN dims")
        assert rows == 10000

    def test_aggregate_groups(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db, """
            SELECT grp, COUNT(*) FROM facts GROUP BY grp""")
        assert rows == pytest.approx(10.0, rel=0.1)

    def test_limit_caps(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db,
                              "SELECT * FROM facts LIMIT 7")
        assert rows == 7

    def test_left_join_at_least_left(self, analyzed_db):
        rows, _, _ = estimate(analyzed_db, """
            SELECT * FROM facts LEFT JOIN dims
              ON facts.grp = dims.grp AND dims.grp > 100""")
        assert rows >= 1000

    def test_without_statistics_uses_defaults(self, db):
        db.execute("CREATE TABLE t (a int)")
        db.load_rows("t", [(i,) for i in range(50)])
        rows, _, _ = estimate(db, "SELECT * FROM t WHERE a = 1")
        # Row count comes from the fallback; selectivity is the default.
        assert 0 < rows < 50


class TestJoinReorder:
    def test_reorder_puts_small_relation_first(self, analyzed_db):
        from repro.plan import LogicalJoin, LogicalScan
        from repro.rewrite import optimize_plan
        from repro.execution import SessionOptions
        sql = """
            SELECT * FROM facts f1
            JOIN facts f2 ON f1.k = f2.k
            JOIN dims d ON f1.grp = d.grp"""
        plan = build_statement(parse(sql),
                               PlanContext(analyzed_db.catalog))
        estimator = CardinalityEstimator(analyzed_db.statistics)
        reordered = optimize_plan(plan, SessionOptions(), estimator)
        joins = [n for n in reordered.walk()
                 if isinstance(n, LogicalJoin)]
        # The deepest-left leaf should now be the small dims table.
        deepest = joins[-1]
        left_most = deepest.left
        while hasattr(left_most, "left"):
            left_most = left_most.left
        assert isinstance(left_most, LogicalScan)
        assert left_most.table_name.lower() == "dims"

    def test_reorder_preserves_results(self, analyzed_db):
        sql = """
            SELECT f1.k, d.label FROM facts f1
            JOIN facts f2 ON f1.k = f2.k
            JOIN dims d ON f1.grp = d.grp
            WHERE f1.k < 20 ORDER BY f1.k"""
        # facts joins itself 1:1 on k, and dims has one label per grp.
        assert analyzed_db.execute(sql).rows() == \
            [(k, f"g{k % 10}") for k in range(20)]

    def test_reorder_disabled_by_option(self, analyzed_db):
        from repro.rewrite import reorder_joins
        plan = build_statement(
            parse("SELECT * FROM facts JOIN dims ON facts.grp = dims.grp"),
            PlanContext(analyzed_db.catalog))
        assert reorder_joins(plan, None) is plan  # no estimator: no-op

    def test_reorder_never_creates_cross_products(self, analyzed_db):
        from repro.plan import LogicalJoin
        from repro.rewrite import optimize_plan
        from repro.execution import SessionOptions
        sql = """
            SELECT * FROM facts f
            JOIN dims d ON f.grp = d.grp
            JOIN facts g ON g.k = f.k"""
        plan = build_statement(parse(sql),
                               PlanContext(analyzed_db.catalog))
        estimator = CardinalityEstimator(analyzed_db.statistics)
        reordered = optimize_plan(plan, SessionOptions(), estimator)
        for join in (n for n in reordered.walk()
                     if isinstance(n, LogicalJoin)):
            assert join.condition is not None

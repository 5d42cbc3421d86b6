"""Cost model tests: cardinality estimation, plan costs, iteration
estimation, and program cost reports."""

import pytest

from repro import Database
from repro.plan import PlanContext, build_statement
from repro.plan.program import LoopSpec
from repro.sql import ast, parse
from repro.stats import (
    CardinalityEstimator,
    estimate_iterations,
    estimate_program,
    plan_cost,
)
from repro.stats.costing import DEFAULT_ITERATION_ESTIMATE
from repro.types import SqlType


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


class TestPlanCost:
    def test_cost_monotone_in_plan_size(self, analyzed_db):
        small, estimator, plan_a = estimate(analyzed_db,
                                            "SELECT * FROM dims")
        _, _, plan_b = estimate(analyzed_db, """
            SELECT * FROM facts JOIN dims ON facts.grp = dims.grp""")
        assert plan_cost(plan_b, estimator) \
            > plan_cost(plan_a, estimator)

    def test_filtered_scan_cheaper_than_join(self, analyzed_db):
        _, estimator, filtered = estimate(
            analyzed_db, "SELECT * FROM facts WHERE k = 1")
        _, _, joined = estimate(analyzed_db, """
            SELECT * FROM facts a JOIN facts b ON a.k = b.k""")
        assert plan_cost(filtered, estimator) \
            < plan_cost(joined, estimator)


class TestIterationEstimation:
    def _spec(self, termination):
        return LoopSpec(loop_id=0, termination=termination,
                        cte_result="r", cte_name="r", columns=["k"])

    def test_iterations_exact(self):
        termination = ast.Termination(ast.TerminationKind.ITERATIONS,
                                      count=25)
        estimate = estimate_iterations(self._spec(termination), 100.0)
        assert estimate.iterations == 25
        assert estimate.basis == "exact"

    def test_updates_derived(self):
        termination = ast.Termination(ast.TerminationKind.UPDATES,
                                      count=1000)
        estimate = estimate_iterations(self._spec(termination), 100.0)
        assert estimate.iterations == 10
        assert estimate.basis == "derived"

    def test_data_heuristic(self):
        termination = ast.Termination(
            ast.TerminationKind.DATA_ANY,
            expr=ast.BinaryOp(ast.BinaryOperator.GT,
                              ast.ColumnRef("k"), ast.Literal(10)))
        estimate = estimate_iterations(self._spec(termination), 100.0)
        assert estimate.iterations == DEFAULT_ITERATION_ESTIMATE
        assert estimate.basis == "heuristic"

    def test_fixpoint_heuristic(self):
        spec = LoopSpec(loop_id=0, termination=None, cte_result="r",
                        cte_name="r", columns=["k"], until_empty="w")
        estimate = estimate_iterations(spec, 100.0)
        assert estimate.basis == "heuristic"

    def test_measured_beats_heuristic(self):
        termination = ast.Termination(
            ast.TerminationKind.DATA_ANY,
            expr=ast.BinaryOp(ast.BinaryOperator.GT,
                              ast.ColumnRef("k"), ast.Literal(10)))
        estimate = estimate_iterations(self._spec(termination), 100.0,
                                       measured=17)
        assert estimate.iterations == 17
        assert estimate.basis == "measured"

    def test_measured_beats_updates_derivation(self):
        termination = ast.Termination(ast.TerminationKind.UPDATES,
                                      count=1000)
        estimate = estimate_iterations(self._spec(termination), 100.0,
                                       measured=3)
        assert estimate.iterations == 3
        assert estimate.basis == "measured"

    def test_measured_never_overrides_exact(self):
        termination = ast.Termination(ast.TerminationKind.ITERATIONS,
                                      count=25)
        estimate = estimate_iterations(self._spec(termination), 100.0,
                                       measured=7)
        assert estimate.iterations == 25
        assert estimate.basis == "exact"

    def test_measured_fixpoint(self):
        spec = LoopSpec(loop_id=0, termination=None, cte_result="r",
                        cte_name="r", columns=["k"], until_empty="w")
        estimate = estimate_iterations(spec, 100.0, measured=12)
        assert estimate.iterations == 12
        assert estimate.basis == "measured"


class TestProgramCosting:
    def test_iterative_program_report(self, analyzed_db):
        from repro.core.rewrite import compile_statement
        from repro.execution import SessionOptions
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM facts ITERATE SELECT k, v * 2 FROM r
          UNTIL 25 ITERATIONS
        ) SELECT SUM(v) FROM r"""
        program = compile_statement(parse(sql),
                                    PlanContext(analyzed_db.catalog),
                                    SessionOptions())
        report = estimate_program(program, analyzed_db.statistics)
        assert len(report.loop_estimates) == 1
        assert report.loop_estimates[0].iterations == 25
        assert report.per_iteration_cost[0] > 0
        assert report.total_cost > report.setup_cost + report.final_cost
        assert "25 iterations (exact)" in report.describe()

    def test_more_iterations_cost_more(self, analyzed_db):
        costs = {}
        for n in (5, 50):
            sql = f"""
            WITH ITERATIVE r (k, v) AS (
              SELECT k, v FROM facts ITERATE SELECT k, v * 2 FROM r
              UNTIL {n} ITERATIONS
            ) SELECT SUM(v) FROM r"""
            from repro.core.rewrite import compile_statement
            from repro.execution import SessionOptions
            program = compile_statement(parse(sql),
                                        PlanContext(analyzed_db.catalog),
                                        SessionOptions())
            costs[n] = estimate_program(
                program, analyzed_db.statistics).total_cost
        assert costs[50] > costs[5]

    def test_explain_cost_api(self, analyzed_db):
        text = analyzed_db.explain_cost("""
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM facts ITERATE SELECT k, v + 1 FROM r
          UNTIL 10 ITERATIONS
        ) SELECT SUM(v) FROM r""")
        assert "10 iterations (exact)" in text
        assert "total estimated cost" in text

    def test_rename_costs_less_than_copy(self, analyzed_db):
        from repro.core.rewrite import compile_statement
        from repro.execution import SessionOptions
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT k, v FROM facts ITERATE SELECT k, v * 2 FROM r
          UNTIL 25 ITERATIONS
        ) SELECT SUM(v) FROM r"""
        costs = {}
        for rename in (True, False):
            options = SessionOptions(enable_rename=rename)
            program = compile_statement(parse(sql),
                                        PlanContext(analyzed_db.catalog),
                                        options)
            costs[rename] = estimate_program(
                program, analyzed_db.statistics).total_cost
        # The cost model prices the Fig. 8 trade-off correctly.
        assert costs[True] < costs[False]


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

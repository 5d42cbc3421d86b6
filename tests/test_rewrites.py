"""Optimization-rewrite unit tests: constant folding, predicate pushdown,
outer-to-inner conversion, the inner-over-left commute, and common-result
extraction — operating directly on logical plans."""

import itertools

import pytest

from repro.plan import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
    LogicalTempScan,
    LogicalUnion,
    PlanContext,
    build_statement,
)
from repro.rewrite import (
    apply_rules,
    extract_common_results,
    fold_expr,
    fold_plan_filters,
    inner_over_left_commute,
    is_loop_invariant,
    outer_to_inner,
    push_filters,
    optimize_plan,
)
from repro.execution import SessionOptions
from repro.sql import ast, parse
from repro.storage import Catalog, Schema, ColumnSchema
from repro.types import SqlType


def make_catalog():
    catalog = Catalog()
    catalog.create("edges", Schema.of(("src", SqlType.INTEGER),
                                      ("dst", SqlType.INTEGER),
                                      ("weight", SqlType.FLOAT)))
    catalog.create("vertexstatus", Schema.of(("node", SqlType.INTEGER),
                                             ("status", SqlType.INTEGER)))
    return catalog


def plan_of(sql, catalog=None):
    return build_statement(parse(sql), PlanContext(catalog or make_catalog()))


def expr_of(text):
    return parse(f"SELECT {text}").items[0].expr


def find_nodes(plan, node_type):
    return [n for n in plan.walk() if isinstance(n, node_type)]


class TestConstantFolding:
    def test_arithmetic(self):
        assert fold_expr(expr_of("1 + 2 * 3")) == ast.Literal(7)

    def test_integer_division_truncates(self):
        assert fold_expr(expr_of("7 / 2")) == ast.Literal(3)
        assert fold_expr(expr_of("-7 / 2")) == ast.Literal(-3)

    def test_comparison(self):
        assert fold_expr(expr_of("2 > 1")) == ast.Literal(True)

    def test_null_propagates(self):
        assert fold_expr(expr_of("1 + NULL")) == ast.Literal(None)

    def test_division_by_zero_not_folded(self):
        folded = fold_expr(expr_of("1 / 0"))
        assert isinstance(folded, ast.BinaryOp)

    def test_column_refs_untouched(self):
        expr = expr_of("x + (1 + 2)")
        folded = fold_expr(expr)
        assert folded == ast.BinaryOp(ast.BinaryOperator.ADD,
                                      ast.ColumnRef("x"), ast.Literal(3))

    def test_true_filter_removed_from_plan(self):
        plan = plan_of("SELECT src FROM edges WHERE 1 = 1")
        rewritten = apply_rules(plan, [fold_plan_filters])
        assert not find_nodes(rewritten, LogicalFilter)


class TestGenericPushdown:
    def test_filter_pushes_below_project(self):
        plan = plan_of("SELECT s FROM (SELECT src AS s FROM edges) t "
                       "WHERE t.s = 1")
        rewritten = apply_rules(plan, [push_filters])
        filters = find_nodes(rewritten, LogicalFilter)
        assert len(filters) == 1
        assert isinstance(filters[0].child, LogicalScan)

    def test_filter_splits_across_inner_join(self):
        plan = plan_of("""
            SELECT * FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
            WHERE e1.weight > 1 AND e2.weight < 5""")
        rewritten = apply_rules(plan, [push_filters])
        join = find_nodes(rewritten, LogicalJoin)[0]
        assert isinstance(join.left, LogicalFilter)
        assert isinstance(join.right, LogicalFilter)

    def test_left_join_keeps_right_side_filter_above(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e2.weight IS NULL""")
        rewritten = apply_rules(plan, [push_filters])
        join = find_nodes(rewritten, LogicalJoin)[0]
        # IS NULL is not null-rejecting: must stay above the join.
        assert not isinstance(join.right, LogicalFilter)

    def test_left_join_pushes_left_side_filter(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e1.weight > 1""")
        rewritten = apply_rules(plan, [push_filters])
        join = find_nodes(rewritten, LogicalJoin)[0]
        assert isinstance(join.left, LogicalFilter)

    def test_filter_pushes_into_union_arms(self):
        plan = plan_of("""
            SELECT * FROM (SELECT src AS n FROM edges
                           UNION SELECT dst FROM edges) u
            WHERE u.n > 2""")
        rewritten = apply_rules(plan, [push_filters])
        union = find_nodes(rewritten, LogicalUnion)[0]
        assert find_nodes(union.left, LogicalFilter)
        assert find_nodes(union.right, LogicalFilter)

    def test_key_filter_pushes_below_aggregate(self):
        plan = plan_of("""
            SELECT * FROM (SELECT src, COUNT(*) AS c FROM edges
                           GROUP BY src) g
            WHERE g.src = 5""")
        rewritten = apply_rules(plan, [push_filters])
        agg = find_nodes(rewritten, LogicalAggregate)[0]
        assert find_nodes(agg.child, LogicalFilter)

    def test_aggregate_filter_stays_above(self):
        plan = plan_of("""
            SELECT * FROM (SELECT src, COUNT(*) AS c FROM edges
                           GROUP BY src) g
            WHERE g.c > 1""")
        rewritten = apply_rules(plan, [push_filters])
        agg = find_nodes(rewritten, LogicalAggregate)[0]
        assert not find_nodes(agg.child, LogicalFilter)

    def test_pushdown_preserves_results(self, graph_db):
        sql = """
            SELECT t.s FROM (SELECT src AS s, weight FROM edges) t
            WHERE t.s > 1 AND t.weight >= 1.0 ORDER BY t.s"""
        graph_db.set_option("enable_predicate_pushdown", True)
        with_opt = graph_db.execute(sql).rows()
        graph_db.set_option("enable_predicate_pushdown", False)
        without_opt = graph_db.execute(sql).rows()
        assert with_opt == without_opt


class TestOuterToInner:
    def test_null_rejecting_filter_converts(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e2.weight > 1""")
        rewritten = apply_rules(plan, [outer_to_inner])
        join = find_nodes(rewritten, LogicalJoin)[0]
        assert join.kind is ast.JoinKind.INNER

    def test_is_null_does_not_convert(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e2.weight IS NULL""")
        rewritten = apply_rules(plan, [outer_to_inner])
        join = find_nodes(rewritten, LogicalJoin)[0]
        assert join.kind is ast.JoinKind.LEFT

    def test_is_not_null_converts(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e2.weight IS NOT NULL""")
        rewritten = apply_rules(plan, [outer_to_inner])
        assert find_nodes(rewritten, LogicalJoin)[0].kind \
            is ast.JoinKind.INNER

    def test_filter_on_left_side_does_not_convert(self):
        plan = plan_of("""
            SELECT * FROM edges e1 LEFT JOIN edges e2 ON e1.dst = e2.src
            WHERE e1.weight > 1""")
        rewritten = apply_rules(plan, [outer_to_inner])
        assert find_nodes(rewritten, LogicalJoin)[0].kind \
            is ast.JoinKind.LEFT

    def test_inner_join_condition_converts_child_left_join(self):
        plan = plan_of("""
            SELECT * FROM edges e1
            LEFT JOIN edges e2 ON e1.dst = e2.src
            JOIN vertexstatus v ON v.node = e2.dst""")
        rewritten = apply_rules(plan, [outer_to_inner])
        kinds = [j.kind for j in find_nodes(rewritten, LogicalJoin)]
        assert ast.JoinKind.LEFT not in kinds

    def test_conversion_preserves_results(self, graph_db):
        # The null-rejecting WHERE makes the LEFT JOIN an inner join, so
        # the query written with INNER JOIN is the reference.
        sql = """
            SELECT e1.src, e2.dst FROM edges e1
            {join} edges e2 ON e1.dst = e2.src
            WHERE e2.weight > 0.6 ORDER BY e1.src, e2.dst"""
        converted = graph_db.execute(sql.format(join="LEFT JOIN")).rows()
        inner = graph_db.execute(sql.format(join="INNER JOIN")).rows()
        assert converted == inner
        assert converted


class TestInnerOverLeftCommute:
    def test_commute_fires(self):
        plan = plan_of("""
            SELECT * FROM edges e1
            LEFT JOIN edges e2 ON e1.dst = e2.src
            JOIN vertexstatus v ON v.node = e1.src""")
        rewritten = apply_rules(plan, [inner_over_left_commute])
        top = find_nodes(rewritten, LogicalJoin)[0]
        assert top.kind is ast.JoinKind.LEFT  # LEFT is now on top

    def test_commute_blocked_when_condition_touches_left_joins_right(self):
        plan = plan_of("""
            SELECT * FROM edges e1
            LEFT JOIN edges e2 ON e1.dst = e2.src
            JOIN vertexstatus v ON v.node = e2.dst""")
        rewritten = apply_rules(plan, [inner_over_left_commute])
        top = find_nodes(rewritten, LogicalJoin)[0]
        assert top.kind is ast.JoinKind.INNER  # unchanged


class TestCommonResultExtraction:
    def _step_plan(self):
        """A PR-VS-shaped iterative step plan with the CTE as TempScan."""
        catalog = make_catalog()
        context = PlanContext(catalog)
        from repro.plan import CteBinding
        context.cte_bindings["pagerank"] = CteBinding(
            "__cte_pr", (("node", SqlType.INTEGER),
                         ("rank", SqlType.FLOAT),
                         ("delta", SqlType.FLOAT)))
        sql = """
            SELECT PageRank.node, SUM(i.delta * e.weight)
            FROM PageRank
            JOIN edges e ON PageRank.node = e.dst
            JOIN PageRank AS i ON i.node = e.src
            JOIN vertexstatus v ON v.node = e.dst
            WHERE v.status != 0
            GROUP BY PageRank.node"""
        plan = build_statement(parse(sql), context)
        return optimize_plan(plan, SessionOptions())

    def test_invariance_detection(self):
        plan = self._step_plan()
        scan = find_nodes(plan, LogicalScan)[0]
        assert is_loop_invariant(scan, {"__cte_pr"})
        temp = find_nodes(plan, LogicalTempScan)[0]
        assert not is_loop_invariant(temp, {"__cte_pr"})

    def test_extraction_produces_common_block(self):
        plan = self._step_plan()
        rewritten, blocks = extract_common_results(
            plan, {"__cte_pr"}, itertools.count())
        assert len(blocks) == 1
        block = blocks[0]
        assert block.result_name == "COMMON#1"
        # The block joins edges with vertexstatus and nothing else.
        scans = {n.table_name.lower()
                 for n in find_nodes(block.plan, LogicalScan)}
        assert scans == {"edges", "vertexstatus"}
        assert not find_nodes(block.plan, LogicalTempScan)
        # The rewritten step references the block.
        refs = [n for n in find_nodes(rewritten, LogicalTempScan)
                if n.result_name == "COMMON#1"]
        assert len(refs) == 1

    def test_no_extraction_without_invariant_group(self):
        catalog = make_catalog()
        context = PlanContext(catalog)
        from repro.plan import CteBinding
        context.cte_bindings["r"] = CteBinding(
            "__cte_r", (("node", SqlType.INTEGER),))
        sql = """SELECT r.node FROM r JOIN edges e ON r.node = e.src"""
        plan = build_statement(parse(sql), context)
        plan = optimize_plan(plan, SessionOptions())
        _, blocks = extract_common_results(plan, {"__cte_r"},
                                           itertools.count())
        assert blocks == []

    def test_two_invariant_tables_without_cte_not_extracted_mid_plan(self):
        # If everything is invariant, there is no loop-varying part to
        # protect; the component is left intact (callers hoist whole-plan
        # invariants elsewhere).
        plan = plan_of("""
            SELECT * FROM edges e JOIN vertexstatus v ON v.node = e.dst""")
        _, blocks = extract_common_results(plan, {"__cte_x"},
                                           itertools.count())
        assert blocks == []


class TestIterativePushdownSafety:
    """The §V-B rule: when may a Qf predicate move into R0?"""

    def _pushed(self, sql, columns, catalog=None):
        """What the rule moves into R0 for ``sql``'s first CTE, reading
        the same per-key proof the delta rewrite reads."""
        from repro.rewrite import (
            analyze_iterative_delta,
            pushable_final_predicate,
        )
        stmt = parse(sql)
        cte = stmt.with_clause.ctes[0]
        safety = analyze_iterative_delta(cte, columns,
                                         catalog or make_catalog())
        return pushable_final_predicate(stmt, cte, safety)

    def _ff(self, step_sql, predicate):
        sql = f"""
            WITH ITERATIVE f (node, friends, friendsprev) AS (
              SELECT src, count(dst), count(dst) FROM edges GROUP BY src
              ITERATE {step_sql}
              UNTIL 5 ITERATIONS)
            SELECT node FROM f WHERE {predicate}"""
        return self._pushed(sql, ["node", "friends", "friendsprev"])

    def test_ff_shape_is_pushable(self):
        pushed = self._ff("SELECT node, friends * 2, friends FROM f",
                          "MOD(node, 100) = 0")
        assert pushed == expr_of("MOD(f.node, 100) = 0")

    def test_predicate_on_recomputed_column_not_pushable(self):
        assert self._ff("SELECT node, friends * 2, friends FROM f",
                        "friends > 10") is None

    def test_self_join_not_pushable(self):
        assert self._ff("SELECT a.node, a.friends, a.friendsprev "
                        "FROM f a JOIN f b ON a.node = b.node",
                        "MOD(node, 100) = 0") is None

    def test_key_grouped_aggregation_is_pushable(self):
        """Grouping by the key keeps each key's rows to themselves — the
        proof the delta rewrite trusts; the on/off differential in
        test_iterative_pushdown.py runs bodies of this shape."""
        pushed = self._ff("SELECT node, SUM(friends), MAX(friends) FROM f "
                          "GROUP BY node", "MOD(node, 100) = 0")
        assert pushed == expr_of("MOD(f.node, 100) = 0")

    def test_pr_shape_not_pushable(self):
        """The paper's example: pushing Node = 10 into PR is incorrect."""
        sql = """
            WITH ITERATIVE PageRank (node, rank, delta) AS (
              SELECT src, 0, 0.15 FROM edges
              ITERATE
              SELECT PageRank.node, PageRank.rank + PageRank.delta,
                     SUM(i.delta * e.weight)
              FROM PageRank
                JOIN edges e ON PageRank.node = e.dst
                JOIN PageRank i ON i.node = e.src
              GROUP BY PageRank.node, PageRank.rank + PageRank.delta
              UNTIL 10 ITERATIONS)
            SELECT node, rank FROM PageRank WHERE node = 10"""
        assert self._pushed(sql, ["node", "rank", "delta"]) is None

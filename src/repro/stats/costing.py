"""Cardinality estimation: classic selectivity-based row-count
estimates over logical plans, fed by :mod:`repro.stats.statistics`.
Join reordering (:mod:`repro.rewrite.join_reorder`) reads them.
"""

from __future__ import annotations

from typing import Optional

from ..plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalOp,
    LogicalProject,
    LogicalRename,
    LogicalScan,
    LogicalSort,
    LogicalTempScan,
    LogicalUnion,
    LogicalValues,
)
from ..sql import ast
from .statistics import StatisticsCatalog

# Fallbacks when statistics cannot answer (textbook defaults).
DEFAULT_EQUALITY_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33
DEFAULT_PREDICATE_SELECTIVITY = 0.25
# Intermediate results (CTE tables, COMMON#k) have no statistics.
DEFAULT_TEMP_CARDINALITY = 1000.0


class CardinalityEstimator:
    """Estimates output row counts for logical plans."""

    def __init__(self, statistics: StatisticsCatalog):
        self._statistics = statistics

    # -- public -------------------------------------------------------------

    def estimate(self, plan: LogicalOp) -> float:
        if isinstance(plan, LogicalScan):
            stats = self._statistics.table(plan.table_name)
            return float(stats.row_count) if stats else 1000.0
        if isinstance(plan, LogicalTempScan):
            return DEFAULT_TEMP_CARDINALITY
        if isinstance(plan, LogicalValues):
            return float(len(plan.rows))
        if isinstance(plan, LogicalFilter):
            child = self.estimate(plan.child)
            return child * self._selectivity(plan.predicate, plan.child)
        if isinstance(plan, (LogicalProject, LogicalRename,
                             LogicalSort)):
            return self.estimate(plan.children()[0])
        if isinstance(plan, LogicalLimit):
            child = self.estimate(plan.child)
            if plan.limit is None:
                return child
            return min(child, float(plan.limit))
        if isinstance(plan, LogicalJoin):
            return self._estimate_join(plan)
        if isinstance(plan, LogicalAggregate):
            return self._estimate_aggregate(plan)
        if isinstance(plan, LogicalUnion):
            total = self.estimate(plan.left) + self.estimate(plan.right)
            return total if plan.all else total * 0.9
        if isinstance(plan, LogicalDistinct):
            return self.estimate(plan.child) * 0.9
        return 1000.0

    # -- internals ------------------------------------------------------------

    def _column_stats(self, plan: LogicalOp, ref: ast.ColumnRef):
        """Column statistics for a reference, traced to a base scan."""
        for node in plan.walk():
            if isinstance(node, LogicalScan):
                if ref.table is not None and ref.table != node.alias:
                    continue
                if ref.name.lower() not in [f.name for f in node.fields]:
                    continue
                stats = self._statistics.table(node.table_name)
                if stats is not None:
                    return stats.column(ref.name)
        return None

    def _selectivity(self, predicate: ast.Expr, plan: LogicalOp) -> float:
        if isinstance(predicate, ast.BinaryOp):
            op = predicate.op
            if op is ast.BinaryOperator.AND:
                return (self._selectivity(predicate.left, plan)
                        * self._selectivity(predicate.right, plan))
            if op is ast.BinaryOperator.OR:
                left = self._selectivity(predicate.left, plan)
                right = self._selectivity(predicate.right, plan)
                return min(1.0, left + right - left * right)
            if op.is_comparison:
                return self._comparison_selectivity(predicate, plan)
        if isinstance(predicate, ast.IsNull):
            stats = (self._column_stats(plan, predicate.operand)
                     if isinstance(predicate.operand, ast.ColumnRef)
                     else None)
            if stats is not None:
                null_fraction = stats.null_fraction
                return (1.0 - null_fraction) if predicate.negated \
                    else null_fraction
            return DEFAULT_PREDICATE_SELECTIVITY
        if isinstance(predicate, ast.Between):
            return self._between_selectivity(predicate, plan)
        if isinstance(predicate, ast.InList):
            base = self._comparison_like_equality(predicate.operand, plan)
            selectivity = min(1.0, base * max(len(predicate.items), 1))
            return 1.0 - selectivity if predicate.negated else selectivity
        if isinstance(predicate, ast.UnaryOp) \
                and predicate.op is ast.UnaryOperator.NOT:
            return 1.0 - self._selectivity(predicate.operand, plan)
        return DEFAULT_PREDICATE_SELECTIVITY

    def _comparison_like_equality(self, operand: ast.Expr,
                                  plan: LogicalOp) -> float:
        if isinstance(operand, ast.ColumnRef):
            stats = self._column_stats(plan, operand)
            if stats is not None:
                return stats.selectivity_of_equality
        return DEFAULT_EQUALITY_SELECTIVITY

    def _comparison_selectivity(self, predicate: ast.BinaryOp,
                                plan: LogicalOp) -> float:
        column, constant = _split_column_constant(predicate)
        if column is None:
            return (DEFAULT_EQUALITY_SELECTIVITY
                    if predicate.op is ast.BinaryOperator.EQ
                    else DEFAULT_RANGE_SELECTIVITY)
        stats = self._column_stats(plan, column)
        if stats is None:
            return (DEFAULT_EQUALITY_SELECTIVITY
                    if predicate.op is ast.BinaryOperator.EQ
                    else DEFAULT_RANGE_SELECTIVITY)
        op = predicate.op
        if op is ast.BinaryOperator.EQ:
            return stats.selectivity_of_equality
        if op is ast.BinaryOperator.NE:
            return max(0.0, 1.0 - stats.selectivity_of_equality)
        if constant is None:
            return DEFAULT_RANGE_SELECTIVITY
        if op in (ast.BinaryOperator.LT, ast.BinaryOperator.LE):
            return stats.selectivity_of_range(None, constant)
        return stats.selectivity_of_range(constant, None)

    def _between_selectivity(self, predicate: ast.Between,
                             plan: LogicalOp) -> float:
        if not isinstance(predicate.operand, ast.ColumnRef):
            return DEFAULT_RANGE_SELECTIVITY
        stats = self._column_stats(plan, predicate.operand)
        low = _constant_value(predicate.low)
        high = _constant_value(predicate.high)
        if stats is None:
            return DEFAULT_RANGE_SELECTIVITY
        selectivity = stats.selectivity_of_range(low, high)
        return 1.0 - selectivity if predicate.negated else selectivity

    def _estimate_join(self, join: LogicalJoin) -> float:
        left = self.estimate(join.left)
        right = self.estimate(join.right)
        if join.kind is ast.JoinKind.CROSS or join.condition is None:
            return left * right
        selectivity = self._join_selectivity(join)
        inner = left * right * selectivity
        if join.kind is ast.JoinKind.LEFT:
            return max(inner, left)
        if join.kind is ast.JoinKind.RIGHT:
            return max(inner, right)
        if join.kind is ast.JoinKind.FULL:
            return max(inner, left + right)
        return inner

    def _join_selectivity(self, join: LogicalJoin) -> float:
        from ..rewrite.expr_utils import split_conjuncts
        selectivity = 1.0
        found_equi = False
        for conjunct in split_conjuncts(join.condition):
            if isinstance(conjunct, ast.BinaryOp) \
                    and conjunct.op is ast.BinaryOperator.EQ \
                    and isinstance(conjunct.left, ast.ColumnRef) \
                    and isinstance(conjunct.right, ast.ColumnRef):
                left_stats = self._column_stats(join, conjunct.left)
                right_stats = self._column_stats(join, conjunct.right)
                distincts = [s.distinct_count
                             for s in (left_stats, right_stats)
                             if s is not None and s.distinct_count > 0]
                if distincts:
                    selectivity *= 1.0 / max(distincts)
                else:
                    selectivity *= DEFAULT_EQUALITY_SELECTIVITY
                found_equi = True
            else:
                selectivity *= DEFAULT_RANGE_SELECTIVITY
        if not found_equi and selectivity == 1.0:
            return DEFAULT_PREDICATE_SELECTIVITY
        return selectivity

    def _estimate_aggregate(self, agg: LogicalAggregate) -> float:
        input_rows = self.estimate(agg.child)
        if not agg.keys:
            return 1.0
        groups = 1.0
        for key_expr, _slot in agg.keys:
            if isinstance(key_expr, ast.ColumnRef):
                stats = self._column_stats(agg.child, key_expr)
                groups *= (stats.distinct_count
                           if stats and stats.distinct_count else 100.0)
            else:
                groups *= 100.0
        return min(input_rows, groups)


def _split_column_constant(predicate: ast.BinaryOp):
    """(column, numeric constant) if the comparison has that shape."""
    left, right = predicate.left, predicate.right
    if isinstance(left, ast.ColumnRef):
        return left, _constant_value(right)
    if isinstance(right, ast.ColumnRef):
        return right, _constant_value(left)
    return None, None


def _constant_value(expr: ast.Expr) -> Optional[float]:
    if isinstance(expr, ast.Literal) \
            and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        return float(expr.value)
    return None

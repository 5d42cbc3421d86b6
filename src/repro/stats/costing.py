"""Cost model: cardinality estimation, plan cost formulas, and iteration
estimation for iterative CTEs.

The paper's stated future work is "estimating number of iterations for
more accurate optimizer costing".  This module implements that layer:

* classic selectivity-based cardinality estimation over logical plans,
  fed by :mod:`repro.stats.statistics`;
* per-operator cost formulas in abstract row-operation units;
* :func:`estimate_program` — costs a whole step program as
  ``init + estimated_iterations × per-iteration + final``, where the
  iteration estimate is exact for metadata conditions and heuristic for
  data/delta conditions (documented per case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from ..plan.program import (
    CopyStep,
    CountUpdatesStep,
    DeltaCaptureStep,
    InitLoopStep,
    LoopSpec,
    LoopStep,
    MaterializeStep,
    Program,
    RecursiveMergeStep,
    RenameStep,
    ReturnStep,
    SnapshotStep,
    Step,
)
from ..sql import ast
from .statistics import StatisticsCatalog, TableStatistics

# Fallbacks when statistics cannot answer (textbook defaults).
DEFAULT_EQUALITY_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33
DEFAULT_PREDICATE_SELECTIVITY = 0.25
# Data/delta termination conditions have no closed-form iteration count;
# this heuristic stands in until a pilot run refines it (see DESIGN.md).
DEFAULT_ITERATION_ESTIMATE = 10


class CardinalityEstimator:
    """Estimates output row counts for logical plans."""

    def __init__(self, statistics: StatisticsCatalog,
                 temp_cardinalities: Optional[dict[str, float]] = None):
        self._statistics = statistics
        # Estimated sizes for intermediate results (CTE tables, COMMON#k),
        # filled in as the program estimator walks materializations.
        self.temp_cardinalities = dict(temp_cardinalities or {})

    # -- public -------------------------------------------------------------

    def estimate(self, plan: LogicalOp) -> float:
        if isinstance(plan, LogicalScan):
            stats = self._statistics.table(plan.table_name)
            return float(stats.row_count) if stats else 1000.0
        if isinstance(plan, LogicalTempScan):
            return self.temp_cardinalities.get(
                plan.result_name.lower(), 1000.0)
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


# ---------------------------------------------------------------------------
# Plan and program costs
# ---------------------------------------------------------------------------


def plan_cost(plan: LogicalOp,
              estimator: CardinalityEstimator) -> float:
    """Abstract cost in row operations (bottom-up sum)."""
    rows = estimator.estimate(plan)
    children = plan.children()
    child_cost = sum(plan_cost(child, estimator) for child in children)
    if isinstance(plan, (LogicalScan, LogicalTempScan, LogicalValues)):
        return rows
    if isinstance(plan, (LogicalFilter, LogicalProject, LogicalRename,
                         LogicalLimit)):
        return child_cost + estimator.estimate(children[0])
    if isinstance(plan, LogicalJoin):
        left = estimator.estimate(plan.left)
        right = estimator.estimate(plan.right)
        return child_cost + left + right + rows
    if isinstance(plan, LogicalAggregate):
        return child_cost + estimator.estimate(plan.child) + rows
    if isinstance(plan, (LogicalUnion, LogicalDistinct)):
        return child_cost + rows
    if isinstance(plan, LogicalSort):
        child_rows = max(estimator.estimate(children[0]), 2.0)
        return child_cost + child_rows * math.log2(child_rows)
    return child_cost + rows


@dataclass
class LoopEstimate:
    """How many times one loop is expected to run, and why."""

    loop_id: int
    iterations: float
    basis: str  # "exact" | "measured" | "derived" | "heuristic"


@dataclass
class ProgramCostReport:
    """Cost breakdown of a step program."""

    setup_cost: float = 0.0
    per_iteration_cost: dict[int, float] = field(default_factory=dict)
    final_cost: float = 0.0
    loop_estimates: list[LoopEstimate] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        iterating = sum(
            estimate.iterations * self.per_iteration_cost.get(
                estimate.loop_id, 0.0)
            for estimate in self.loop_estimates)
        return self.setup_cost + iterating + self.final_cost

    def describe(self) -> str:
        lines = [f"setup cost          : {self.setup_cost:,.0f}"]
        for estimate in self.loop_estimates:
            per_iter = self.per_iteration_cost.get(estimate.loop_id, 0.0)
            lines.append(
                f"loop {estimate.loop_id}: "
                f"{estimate.iterations:,.0f} iterations "
                f"({estimate.basis}) x {per_iter:,.0f} per iteration")
        lines.append(f"final query cost    : {self.final_cost:,.0f}")
        lines.append(f"total estimated cost: {self.total_cost:,.0f}")
        return "\n".join(lines)


def estimate_iterations(spec: LoopSpec,
                        cte_rows: float,
                        measured: Optional[int] = None) -> LoopEstimate:
    """The paper's future-work item: an iteration-count estimate per
    termination family.

    * ITERATIONS — exact: the user wrote N.
    * UPDATES — derived: a full-dataset update changes up to |CTE| rows
      per iteration, so ceil(N / |CTE|) iterations reach the budget.
    * DATA / DELTA / fixpoint — no closed form without executing; a
      recorded measurement from a prior run of the same CTE (loop
      telemetry feedback) beats ``DEFAULT_ITERATION_ESTIMATE``.
    """
    termination = spec.termination
    if termination is not None \
            and termination.kind is ast.TerminationKind.ITERATIONS:
        return LoopEstimate(spec.loop_id, float(termination.count),
                            "exact")
    if measured is not None and measured > 0:
        return LoopEstimate(spec.loop_id, float(measured), "measured")
    if termination is not None \
            and termination.kind is ast.TerminationKind.UPDATES:
        per_iteration = max(cte_rows, 1.0)
        iterations = math.ceil(termination.count / per_iteration)
        return LoopEstimate(spec.loop_id, float(max(iterations, 1)),
                            "derived")
    return LoopEstimate(spec.loop_id, float(DEFAULT_ITERATION_ESTIMATE),
                        "heuristic")


def estimate_program(program: Program,
                     statistics: StatisticsCatalog) -> ProgramCostReport:
    """Cost a step program: setup + Σ loops (estimate × body) + final."""
    estimator = CardinalityEstimator(statistics)
    report = ProgramCostReport()

    loop_starts = {
        step.jump_to: step.loop_id
        for step in program.steps if isinstance(step, LoopStep)}
    current_loop: Optional[int] = None

    for index, step in enumerate(program.steps):
        if index in loop_starts:
            current_loop = loop_starts[index]
            report.per_iteration_cost.setdefault(current_loop, 0.0)

        cost = _step_cost(step, estimator)

        if isinstance(step, LoopStep):
            spec = program.loops[step.loop_id]
            cte_rows = estimator.temp_cardinalities.get(
                spec.cte_result.lower(), 1000.0)
            measured = statistics.measured_iterations(spec.cte_name)
            report.loop_estimates.append(
                estimate_iterations(spec, cte_rows, measured=measured))
            current_loop = None
            continue
        if isinstance(step, ReturnStep):
            report.final_cost += cost
            continue
        if current_loop is not None:
            report.per_iteration_cost[current_loop] += cost
        else:
            report.setup_cost += cost
    return report


def _step_cost(step: Step, estimator: CardinalityEstimator) -> float:
    if isinstance(step, (MaterializeStep, ReturnStep)):
        cost = plan_cost(step.plan, estimator)
        if isinstance(step, MaterializeStep):
            rows = estimator.estimate(step.plan)
            estimator.temp_cardinalities[step.result_name.lower()] = rows
            cost += rows  # the write
        return cost
    if isinstance(step, CopyStep):
        rows = estimator.temp_cardinalities.get(step.source.lower(), 0.0)
        estimator.temp_cardinalities[step.target.lower()] = rows
        return 2 * rows  # read + write
    if isinstance(step, RenameStep):
        rows = estimator.temp_cardinalities.get(step.source.lower(), 0.0)
        estimator.temp_cardinalities[step.target.lower()] = rows
        return 1.0  # O(1): the whole point of the operator
    if isinstance(step, SnapshotStep):
        rows = estimator.temp_cardinalities.get(step.source.lower(), 0.0)
        estimator.temp_cardinalities[step.target.lower()] = rows
        return 1.0  # reference copy
    if isinstance(step, CountUpdatesStep):
        return 2 * estimator.temp_cardinalities.get(
            step.current.lower(), 0.0)
    if isinstance(step, DeltaCaptureStep):
        # The same by-key diff, once per full iteration.
        return 2 * estimator.temp_cardinalities.get(
            step.spec.cte_result.lower(), 0.0)
    if isinstance(step, RecursiveMergeStep):
        return 2 * estimator.temp_cardinalities.get(
            step.candidate.lower(), 0.0)
    if isinstance(step, InitLoopStep):
        return 1.0
    return 1.0

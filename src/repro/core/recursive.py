"""ANSI recursive CTEs as a fixed-point step program.

Included for two reasons: the engine should stay a complete SQL substrate,
and the paper's motivation (§I–II) hinges on the ANSI restrictions —
aggregates are *not allowed* in the recursive arm, termination is implied
by the fixed point, and rows can only be appended.  This module enforces
those restrictions (raising :class:`RecursionNotSupportedError`) so tests
can demonstrate exactly why PageRank cannot be a recursive query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import RecursionNotSupportedError
from ..plan import CteBinding, build_statement, rename_outputs
from ..plan.logical import LogicalDistinct
from ..plan.program import (
    InitLoopStep,
    LoopSpec,
    LoopStep,
    MaterializeStep,
    RecursiveMergeStep,
)
from ..rewrite import optimize_plan
from ..sql import ast
from ..types import SqlType, common_type

if TYPE_CHECKING:  # pragma: no cover
    from .rewrite import CompilerState


def emit_recursive_cte(cte: ast.CommonTableExpr,
                       state: "CompilerState") -> None:
    """Append the fixed-point program for one recursive CTE."""
    base, recursive, distinct = _split_arms(cte)
    _check_restrictions(cte, recursive)

    context = state.context
    cte_name = cte.name.lower()
    suffix = context.fresh_name("rec").lstrip("_")
    cte_result = f"__cte_{cte_name}_{suffix}"
    working = f"__work_{cte_name}_{suffix}"
    candidate = f"__cand_{cte_name}_{suffix}"

    base_plan = build_statement(base, context.child())
    columns = [c.lower() for c in (cte.columns or base_plan.field_names())]
    if len(columns) != len(base_plan.fields):
        raise RecursionNotSupportedError(
            f"recursive CTE {cte.name!r} declares {len(columns)} columns "
            f"but its base produces {len(base_plan.fields)}")

    types = [SqlType.FLOAT if f.sql_type is SqlType.NULL else f.sql_type
             for f in base_plan.fields]
    # In the recursive arm the CTE reference denotes the *working table*
    # (the rows produced by the previous step), per the SQL standard.
    step_plan = None
    for _ in range(4):
        step_context = context.child()
        step_context.cte_bindings[cte_name] = CteBinding(
            working, tuple(zip(columns, types)))
        step_plan = build_statement(recursive, step_context)
        if len(step_plan.fields) != len(columns):
            raise RecursionNotSupportedError(
                f"the recursive arm of {cte.name!r} produces "
                f"{len(step_plan.fields)} columns, expected {len(columns)}")
        unified = [common_type(t, f.sql_type)
                   for t, f in zip(types, step_plan.fields)]
        unified = [SqlType.FLOAT if t is SqlType.NULL else t
                   for t in unified]
        if unified == types:
            break
        types = unified
    assert step_plan is not None

    base_plan = rename_outputs(base_plan, columns, cte_name)
    if distinct:
        # Under UNION the result is a set from the start: the merge step
        # only dedups each candidate against the rows seen so far, so
        # duplicates within the base would otherwise survive.
        base_plan = LogicalDistinct(base_plan)
    base_plan = optimize_plan(base_plan, state.options, state.estimator,
                              state.tracer, context.catalog, state.verified)
    step_plan = optimize_plan(step_plan, state.options, state.estimator,
                              state.tracer, context.catalog, state.verified)

    loop_id = next(state.loop_counter)
    spec = LoopSpec(loop_id=loop_id, termination=None,
                    cte_result=cte_result, cte_name=cte_name,
                    columns=columns, until_empty=working)
    state.loops[loop_id] = spec

    steps = state.steps
    steps.append(MaterializeStep(
        cte_result, base_plan, columns,
        comment=f"base of recursive {cte.name}"))
    # Seed the working table with the same (deduplicated) base plan.
    steps.append(MaterializeStep(
        working, base_plan, columns,
        comment=f"seed working table of {cte.name}"))
    steps.append(InitLoopStep(spec))

    loop_start = len(steps)
    steps.append(MaterializeStep(
        candidate, step_plan, columns,
        comment=f"recursive step of {cte.name}"))
    steps.append(RecursiveMergeStep(cte_result, candidate, working,
                                    distinct, loop_id))
    steps.append(LoopStep(loop_id, loop_start))

    state.temp_results.extend([cte_result, working, candidate])
    context.cte_bindings[cte_name] = CteBinding(
        cte_result, tuple(zip(columns, types)))


def _split_arms(cte: ast.CommonTableExpr):
    """A recursive CTE body must be ``base UNION [ALL] recursive``."""
    body = cte.query
    if not isinstance(body, ast.SetOp):
        raise RecursionNotSupportedError(
            f"recursive CTE {cte.name!r} must be 'base UNION [ALL] "
            "recursive-step'")
    if _references_cte(body.left, cte.name):
        raise RecursionNotSupportedError(
            f"the first UNION arm of recursive CTE {cte.name!r} must not "
            "reference the CTE")
    if not _references_cte(body.right, cte.name):
        raise RecursionNotSupportedError(
            f"the second UNION arm of recursive CTE {cte.name!r} must "
            "reference the CTE")
    distinct = body.kind is ast.SetOpKind.UNION
    return body.left, body.right, distinct


def _check_restrictions(cte: ast.CommonTableExpr,
                        recursive: ast.SelectLike) -> None:
    """Enforce the ANSI fixed-point restrictions the paper motivates."""
    if isinstance(recursive, ast.SetOp):
        raise RecursionNotSupportedError(
            "nested set operations in the recursive arm are not supported")
    if recursive.group_by or recursive.having is not None:
        raise RecursionNotSupportedError(
            "GROUP BY is not allowed in the recursive arm of a recursive "
            "CTE (ANSI fixed-point semantics); use WITH ITERATIVE instead")
    for item in recursive.items:
        if ast.contains_aggregate(item.expr):
            raise RecursionNotSupportedError(
                "aggregate functions are not allowed in the recursive arm "
                "of a recursive CTE (ANSI fixed-point semantics); use "
                "WITH ITERATIVE instead")
    if recursive.distinct:
        raise RecursionNotSupportedError(
            "DISTINCT is not allowed in the recursive arm")
    if recursive.limit is not None or recursive.offset is not None:
        raise RecursionNotSupportedError(
            "LIMIT/OFFSET is not allowed in the recursive arm")


def _references_cte(query: ast.SelectLike, cte_name: str) -> bool:
    from ..rewrite.pushdown import count_cte_references
    return count_cte_references(query, cte_name) > 0

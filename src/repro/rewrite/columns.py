"""Required columns: a join gathers only the columns its parents read.

``prune_columns`` is the last pass over every plan a step executes, after
every other rewrite.  It walks the plan top-down carrying, per operator,
the set of its output positions something above reads.  An operator adds
the columns its own expressions reference (condition, predicate, keys,
aggregates, sort keys) and hands the union down; a join then emits only
the positions its parent reads (``LogicalJoin.output``) while its
condition still resolves against both inputs in full.

Operators that read every column of their input positionally or by
value — Rename, Union, Distinct, Except/Intersect — and the plan's root
keep every column, so a CTE register always holds its declared columns.
Only joins drop columns: a gather cannot fail, so pruning never hides an
error a dropped projection would have raised.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from ..plan.binding import resolve_column
from ..plan.logical import (
    Field,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalOp,
    LogicalProject,
    LogicalSemiJoin,
    LogicalSort,
    LogicalTempScan,
)
from ..sql import ast

# (the rewritten operator, the positions of its old fields it emits)
_Pruned = tuple[LogicalOp, tuple[int, ...]]


def prune_columns(plan: LogicalOp, keep: Optional[Sequence[int]] = None,
                  reads: Optional[dict[str, set[int]]] = None) -> LogicalOp:
    """``plan`` with every join emitting only the columns read above it.

    The root emits all its columns, or exactly the positions ``keep``
    (the root must then be a join).  ``reads``, when given, collects
    for every temp scan the positions of its fields the plan reads,
    keyed by lower-cased result name.  A plan with no join comes back
    unchanged after one walk.
    """
    if reads is None and not any(isinstance(node, LogicalJoin)
                                 for node in plan.walk()):
        return plan
    if keep is not None and not isinstance(plan, LogicalJoin):
        raise ValueError("only a join root can emit a subset of columns")
    pruned, _ = _prune(plan, None if keep is None else frozenset(keep),
                       reads)
    return pruned


def _refs(exprs: Iterable[ast.Expr], fields: Sequence[Field]) -> set[int]:
    """Positions in ``fields`` of every column ``exprs`` reference."""
    return {resolve_column(fields, node)
            for expr in exprs for node in expr.walk()
            if isinstance(node, ast.ColumnRef)}


def _all(op: LogicalOp) -> tuple[int, ...]:
    return tuple(range(len(op.fields)))


def _prune(op: LogicalOp, required: Optional[frozenset[int]],
           reads: Optional[dict[str, set[int]]]) -> _Pruned:
    """Prune below ``op``, whose parent reads the output positions
    ``required`` (None: all of them)."""
    if isinstance(op, LogicalJoin):
        return _prune_join(op, required, reads)
    if isinstance(op, (LogicalFilter, LogicalSort, LogicalLimit)):
        # Pass-through operators: their fields are their child's.
        if required is not None:
            if isinstance(op, LogicalFilter):
                required |= _refs((op.predicate,), op.child.fields)
            elif isinstance(op, LogicalSort):
                required |= _refs((e for e, _ in op.keys), op.child.fields)
        child, kept = _prune(op.child, required, reads)
        return _rebuilt(op, (child,)), kept
    if isinstance(op, LogicalSemiJoin):
        return _prune_semi_join(op, required, reads)
    if isinstance(op, LogicalProject):
        need = frozenset(_refs((e for e, _ in op.exprs), op.child.fields))
        child, _ = _prune(op.child, need, reads)
        return _rebuilt(op, (child,)), _all(op)
    if isinstance(op, LogicalAggregate):
        exprs = [e for e, _ in op.keys]
        exprs += [arg for spec in op.aggregates for arg in spec.call.args]
        need = frozenset(_refs(exprs, op.child.fields))
        child, _ = _prune(op.child, need, reads)
        return _rebuilt(op, (child,)), _all(op)
    if isinstance(op, LogicalTempScan) and reads is not None:
        reads.setdefault(op.result_name.lower(), set()).update(
            _all(op) if required is None else required)
    # Leaves, and operators that read every input column (Rename, Union,
    # Distinct, Except/Intersect).
    children = op.children()
    if children:
        op = _rebuilt(op, [_prune(child, None, reads)[0]
                           for child in children])
    return op, _all(op)


def _prune_join(op: LogicalJoin, required: Optional[frozenset[int]],
                reads: Optional[dict[str, set[int]]]) -> _Pruned:
    inputs = op.input_fields
    n_left = len(op.left.fields)
    emitted = op.output if op.output is not None else range(len(inputs))
    kept = (tuple(range(len(emitted))) if required is None
            else tuple(sorted(required)))
    wanted = [emitted[i] for i in kept]
    need = set(wanted)
    if op.condition is not None:
        need |= _refs((op.condition,), inputs)
    left, kept_left = _prune(
        op.left, frozenset(p for p in need if p < n_left), reads)
    right, kept_right = _prune(
        op.right, frozenset(p - n_left for p in need if p >= n_left), reads)
    # Old input position -> position in the pruned inputs.
    moved = {p: i for i, p in enumerate(kept_left)}
    moved.update((n_left + p, len(kept_left) + i)
                 for i, p in enumerate(kept_right))
    output = tuple(moved[p] for p in wanted)
    if output == tuple(range(len(kept_left) + len(kept_right))):
        output = None
    if left is op.left and right is op.right and output == op.output:
        return op, kept
    return replace(op, left=left, right=right, output=output), kept


def _prune_semi_join(op: LogicalSemiJoin,
                     required: Optional[frozenset[int]],
                     reads: Optional[dict[str, set[int]]]) -> _Pruned:
    n_left = len(op.left.fields)
    need: set[int] = set()
    if op.condition is not None:
        need = _refs((op.condition,), (*op.left.fields, *op.right.fields))
    need_left = {p for p in need if p < n_left}
    need_right = {p - n_left for p in need if p >= n_left}
    if op.probe_expr is not None:
        need_left |= _refs((op.probe_expr,), op.left.fields)
    if op.key_expr is not None:
        need_right |= _refs((op.key_expr,), op.right.fields)
    left, kept = _prune(
        op.left, None if required is None else required | need_left, reads)
    right, _ = _prune(op.right, frozenset(need_right), reads)
    return _rebuilt(op, (left, right)), kept


def _rebuilt(op: LogicalOp, children: Sequence[LogicalOp]) -> LogicalOp:
    if all(new is old for new, old in zip(children, op.children())):
        return op
    return op.with_children(children)

"""Physical execution of logical plans.

The executor interprets a logical plan tree bottom-up, producing a
:class:`~repro.execution.frame.Frame` per node.  Join strategy is chosen
per node: hash join for equi-conditions (with residual predicates applied
pair-wise before outer padding), nested-loop (cross + filter) otherwise.

Everything is materialized — the paper's engine likewise materializes each
step of the rewritten iterative plan, which is what makes the rename
optimization meaningful.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ExecutionError, PlanError
from ..plan.logical import (
    Field,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalOp,
    LogicalProject,
    LogicalRename,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSetDifference,
    LogicalSort,
    LogicalTempScan,
    LogicalUnion,
    LogicalValues,
)
from ..sql import ast
from ..storage import Column, Table
from ..storage.column import selection
from ..types import SqlType
from .aggregate import compute_aggregate, internal_aggregate_fields
from .context import ExecutionContext
from .expressions import evaluate, evaluate_predicate
from .frame import Frame
from .kernel_cache import GROUPING, PAIRS, TripMemo
from .kernels import (
    JoinPairs,
    build_probe_index,
    distinct_indices,
    encode_keys,
    equi_join_pairs,
    group_keys,
    probe_buckets,
    sort_indices,
)


def execute_plan(op: LogicalOp, ctx: ExecutionContext) -> Frame:
    """Evaluate a logical plan and return its result frame."""
    if isinstance(op, LogicalScan):
        table = ctx.catalog.get(op.table_name)
        ctx.stats.rows_scanned += table.num_rows
        return Frame.from_table(table, op.fields)
    if isinstance(op, LogicalTempScan):
        table = ctx.registry.fetch(op.result_name)
        ctx.stats.rows_scanned += table.num_rows
        return Frame.from_table(table, op.fields)
    if isinstance(op, LogicalValues):
        return _execute_values(op)
    if isinstance(op, LogicalFilter):
        child = execute_plan(op.child, ctx)
        return child.filter(evaluate_predicate(op.predicate, child))
    if isinstance(op, LogicalProject):
        child = execute_plan(op.child, ctx)
        return _execute_project(op, child)
    if isinstance(op, LogicalRename):
        child = execute_plan(op.child, ctx)
        columns = [c if c.sql_type is f.sql_type else c.cast(f.sql_type)
                   for c, f in zip(child.columns, op.fields)]
        return Frame(op.fields, columns, child.num_rows)
    if isinstance(op, LogicalJoin):
        return _execute_join(op, ctx)
    if isinstance(op, LogicalSemiJoin):
        return _execute_semi_join(op, ctx)
    if isinstance(op, LogicalSetDifference):
        return _execute_set_difference(op, ctx)
    if isinstance(op, LogicalAggregate):
        return _execute_aggregate(op, ctx)
    if isinstance(op, LogicalUnion):
        left = execute_plan(op.left, ctx)
        right = execute_plan(op.right, ctx)
        combined = left.concat(right)
        combined = Frame(op.fields, combined.columns, combined.num_rows)
        if op.all:
            return combined
        keep = distinct_indices(combined.columns)
        return combined.take(keep)
    if isinstance(op, LogicalDistinct):
        child = execute_plan(op.child, ctx)
        if not child.columns:
            return child.slice(0, min(1, child.num_rows))
        keep = distinct_indices(child.columns)
        return child.take(keep)
    if isinstance(op, LogicalSort):
        child = execute_plan(op.child, ctx)
        keys = [evaluate(expr, child) for expr, _ in op.keys]
        ascending = [asc for _, asc in op.keys]
        order = sort_indices(keys, ascending)
        return child.take(order)
    if isinstance(op, LogicalLimit):
        child = execute_plan(op.child, ctx)
        start = op.offset
        stop = child.num_rows if op.limit is None else start + op.limit
        return child.slice(start, stop)
    raise PlanError(f"unsupported logical operator: {type(op).__name__}")


def execute_to_table(op: LogicalOp, ctx: ExecutionContext,
                     names: list[str] | None = None) -> Table:
    """Run a plan and materialize its output as a Table."""
    frame = execute_plan(op, ctx)
    table = frame.to_table(names)
    ctx.stats.rows_materialized += table.num_rows
    return table


# ---------------------------------------------------------------------------
# Values / Project
# ---------------------------------------------------------------------------


def _execute_values(op: LogicalValues) -> Frame:
    if not op.fields:
        return Frame((), [], num_rows=len(op.rows))
    columns = []
    for i, field in enumerate(op.fields):
        columns.append(Column.from_values(
            field.sql_type, (row[i] for row in op.rows)))
    return Frame(op.fields, columns, len(op.rows))


def _execute_project(op: LogicalProject, child: Frame) -> Frame:
    columns = []
    for (expr, _name), field in zip(op.exprs, op.fields):
        column = evaluate(expr, child)
        if column.sql_type is not field.sql_type \
                and field.sql_type is not SqlType.NULL:
            column = column.cast(field.sql_type)
        columns.append(column)
    return Frame(op.fields, columns, child.num_rows)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def _refs_within(expr: ast.Expr, fields: tuple[Field, ...]) -> bool:
    """True if every column reference in expr resolves within fields."""
    from ..plan.binding import resolve_column
    from ..errors import BindError
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            try:
                resolve_column(fields, node)
            except BindError:
                return False
    return True


def split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op is ast.BinaryOperator.AND:
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for item in conjuncts[1:]:
        result = ast.BinaryOp(ast.BinaryOperator.AND, result, item)
    return result


def _extract_equi_keys(condition: ast.Expr | None,
                       left_fields: tuple[Field, ...],
                       right_fields: tuple[Field, ...]):
    """Split a join condition into equi-key pairs and residual conjuncts."""
    if condition is None:
        return [], []
    equi: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for conjunct in split_conjuncts(condition):
        if (isinstance(conjunct, ast.BinaryOp)
                and conjunct.op is ast.BinaryOperator.EQ):
            a, b = conjunct.left, conjunct.right
            if _refs_within(a, left_fields) and _refs_within(b, right_fields):
                equi.append((a, b))
                continue
            if _refs_within(b, left_fields) and _refs_within(a, right_fields):
                equi.append((b, a))
                continue
        residual.append(conjunct)
    return equi, residual


def _encode_join_sides(left_keys: list[Column], right_keys: list[Column],
                       ctx: ExecutionContext):
    """Codes for both sides of an equi join in one shared space.

    Preferred path: treat the right side as the build side — factorize it
    into per-column dictionaries and bucket its rows by code (memoized by
    the kernel cache, so a loop-invariant build input is factorized and
    indexed once per loop) and binary-search the probe side's values in
    those dictionaries.  Probe values absent from the build dictionaries
    cannot match and encode as -1, so the resulting pairs are identical
    to the joint encoding.  The joint encoding runs whenever the cache
    has no index for the build side: the cache-off configuration,
    mixed-radix overflow, and the first sighting of every build side —
    so a build side that is new on every trip (PageRank's
    ``LEFT JOIN PageRank AS IncomingRank``) is jointly encoded on every
    trip that does not reuse the last trip's pairs (see
    :func:`_equi_pairs`).

    Returns (left_codes, right_codes, right ProbeIndex-or-None).
    """
    from ..types import common_type
    casted_left, casted_right = [], []
    for lk, rk in zip(left_keys, right_keys):
        target = common_type(lk.sql_type, rk.sql_type)
        casted_left.append(lk if lk.sql_type is target
                           else lk.cast(target))
        casted_right.append(rk if rk.sql_type is target
                            else rk.cast(target))
    cache = ctx.active_kernel_cache()
    if cache is not None:
        index = cache.join_index(casted_right, ctx.stats)
        if index is not None:
            return index.probe(casted_left), index.codes, index.probe_index
    # Joint encoding: one dictionary over both sides, built per call.
    joint = [lk.concat(rk) for lk, rk in zip(casted_left, casted_right)]
    codes = encode_keys(joint, nulls_match=False)
    n_left = len(casted_left[0])
    return codes[:n_left], codes[n_left:], None


def _equi_pairs(equi, left: Frame, right: Frame, ctx: ExecutionContext,
                site: LogicalJoin | None = None,
                pad: ast.JoinKind | None = None) -> JoinPairs:
    """The join's pairs (:class:`~repro.execution.kernels.JoinPairs`).

    A join ``site`` inside a running loop keeps its key columns and
    pairs in the loop's :class:`~.kernel_cache.TripMemo` and reuses the
    pairs on a later trip whose key columns repeat bit for bit.  ``pad``
    is the join kind whose outer padding is part of the kept pairs; None
    keeps them unpadded, for a residual to filter first."""
    left_keys = [evaluate(a, left) for a, _ in equi]
    right_keys = [evaluate(b, right) for _, b in equi]
    memo = ctx.trip_memo if site is not None else None
    keys = (*left_keys, *right_keys)
    pairs = memo.reuse(site, PAIRS, keys) if memo is not None else None
    if pairs is not None:
        ctx.stats.join_pair_reuses += 1
    else:
        left_codes, right_codes, right_index = _encode_join_sides(
            left_keys, right_keys, ctx)
        pairs = equi_join_pairs(left_codes, right_codes, right_index)
        if pad is not None:
            pairs = JoinPairs(*_pad_outer(
                pad, pairs.left_idx, pairs.right_idx, left.num_rows,
                right.num_rows), pairs.single_match)
        if memo is not None:
            memo.keep(site, PAIRS, keys, pairs)
    if pairs.single_match:
        ctx.stats.single_match_joins += 1
    return pairs


def _pad_outer(kind: ast.JoinKind, left_idx: np.ndarray | None,
               right_idx: np.ndarray, n_left: int, n_right: int
               ) -> tuple[np.ndarray | None, np.ndarray]:
    """LEFT / FULL outer padding after the matched pairs.  Pairs that
    match every left row once (``left_idx`` None) need none under
    LEFT."""
    if kind is ast.JoinKind.INNER \
            or (left_idx is None and kind is ast.JoinKind.LEFT):
        return left_idx, right_idx
    if left_idx is None:
        left_idx = np.arange(n_left, dtype=np.int64)
    matched_left = np.zeros(n_left, dtype=np.bool_)
    matched_left[left_idx] = True
    pad_left = np.nonzero(~matched_left)[0]
    pad_right = np.zeros(0, dtype=np.int64)
    if kind is ast.JoinKind.FULL:
        matched_right = np.zeros(n_right, dtype=np.bool_)
        matched_right[right_idx] = True
        pad_right = np.nonzero(~matched_right)[0]
    left_idx = np.concatenate(
        [left_idx, pad_left, np.full(len(pad_right), -1, dtype=np.int64)])
    right_idx = np.concatenate(
        [right_idx, np.full(len(pad_left), -1, dtype=np.int64), pad_right])
    return left_idx, right_idx


def _memo_take(memo: TripMemo, site: LogicalJoin, stats):
    """``Frame.join_pairs``' gather through the trip memo: an output
    column whose index vector and source column repeat last trip's is
    last trip's column.  A gather is kept only on a trip that reused the
    site's pairs: its index vector repeats only after a pair reuse, so
    a site whose pairs never repeat keeps no gathers."""
    keep = memo.reused(site, PAIRS)

    def take(slot: int, column: Column, indices: np.ndarray,
             padded: bool) -> Column:
        inputs = (indices, column)
        taken = memo.reuse(site, slot, inputs)
        if taken is not None:
            stats.gather_reuses += 1
            return taken
        taken = column.take(indices, padded)
        if keep:
            memo.keep(site, slot, inputs, taken)
        return taken
    return take


def _execute_join(op: LogicalJoin, ctx: ExecutionContext,
                  site: LogicalJoin | None = None) -> Frame:
    """``site`` keys the join's trip memo entries: the node itself, or
    for a RIGHT join mirrored afresh on every call, the original
    node."""
    n_left = len(op.left.fields)
    positions = (op.output if op.output is not None
                 else range(n_left + len(op.right.fields)))
    if op.kind is ast.JoinKind.RIGHT:
        # Mirror: RIGHT JOIN == LEFT JOIN with sides swapped, gathering
        # the same columns in the original order.
        n_right = len(op.right.fields)
        mirrored = LogicalJoin(
            ast.JoinKind.LEFT, op.right, op.left, op.condition,
            tuple(p + n_right if p < n_left else p - n_left
                  for p in positions))
        result = _execute_join(mirrored, ctx, site=op)
        return Frame(op.fields, result.columns, result.num_rows)

    left = execute_plan(op.left, ctx)
    right = execute_plan(op.right, ctx)

    if op.kind is ast.JoinKind.CROSS:
        left_idx, right_idx = _all_pairs(left, right)
        joined = left.join_pairs(right, left_idx, right_idx, positions)
        ctx.stats.rows_joined += joined.num_rows
        return Frame(op.fields, joined.columns, joined.num_rows)

    equi, residual = _extract_equi_keys(op.condition, left.fields,
                                        right.fields)
    pad = None if residual else op.kind
    site = op if site is None else site
    if equi:
        left_idx, right_idx, _ = _equi_pairs(equi, left, right, ctx, site,
                                             pad)
    else:
        # Nested-loop join expressed as all-pairs.
        left_idx, right_idx = _all_pairs(left, right)
        if pad is not None:
            left_idx, right_idx = _pad_outer(pad, left_idx, right_idx,
                                             left.num_rows, right.num_rows)

    # The final (left_idx, right_idx) is worked out first and every output
    # column gathered once at the end.  Only a residual predicate needs
    # matched pairs gathered early: an inner join gathers its outputs and
    # the columns the residual reads and filters that frame; an outer
    # join gathers just the residual's columns and pads what survives.
    # Pairs that match every left row once (left_idx None) need neither
    # padding nor a left gather: the left columns pass through.
    if residual:
        if left_idx is None:
            left_idx = np.arange(left.num_rows, dtype=np.int64)
        if op.kind is ast.JoinKind.INNER:
            matched, gathered, keep = _residual_pairs(
                residual, left, right, left_idx, right_idx, positions)
            rows, count = selection(keep)
            columns = [matched.columns[gathered.index(p)].select(rows)
                       for p in positions]
            ctx.stats.rows_joined += count
            return Frame(op.fields, columns, count)
        _, _, keep = _residual_pairs(residual, left, right, left_idx,
                                     right_idx)
        left_idx, right_idx = _pad_outer(op.kind, left_idx[keep],
                                         right_idx[keep], left.num_rows,
                                         right.num_rows)

    memo = ctx.trip_memo
    take = (_memo_take(memo, site, ctx.stats)
            if memo is not None and equi and not residual else None)
    joined = left.join_pairs(right, left_idx, right_idx, positions, take)
    ctx.stats.rows_joined += joined.num_rows
    return Frame(op.fields, joined.columns, joined.num_rows)


def _all_pairs(left: Frame, right: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Every (left_row, right_row) pair, grouped by left row."""
    left_idx = np.repeat(np.arange(left.num_rows, dtype=np.int64),
                         right.num_rows)
    right_idx = np.tile(np.arange(right.num_rows, dtype=np.int64),
                        left.num_rows)
    return left_idx, right_idx


def _residual_pairs(residual: list[ast.Expr], left: Frame, right: Frame,
                    left_idx: np.ndarray, right_idx: np.ndarray,
                    also: Iterable[int] = ()
                    ) -> tuple[Frame, list[int], np.ndarray]:
    """The matched pairs gathered on the join input positions the
    residual reads plus ``also`` (ascending, returned too), and the
    residual over them."""
    from ..plan.binding import resolve_column
    predicate = conjoin(residual)
    fields = (*left.fields, *right.fields)
    gathered = sorted({resolve_column(fields, node)
                       for node in predicate.walk()
                       if isinstance(node, ast.ColumnRef)}.union(also))
    pairs = left.join_pairs(right, left_idx, right_idx, gathered)
    return pairs, gathered, evaluate_predicate(predicate, pairs)


def _execute_semi_join(op: LogicalSemiJoin, ctx: ExecutionContext) -> Frame:
    """Semi/anti join with optional NOT IN null-awareness."""
    left = execute_plan(op.left, ctx)
    right = execute_plan(op.right, ctx)

    if op.condition is None:
        # Uncorrelated EXISTS: all or nothing.
        keep_all = right.num_rows > 0
        if keep_all != op.anti:
            return left
        return left.slice(0, 0)

    equi, residual = _extract_equi_keys(op.condition, left.fields,
                                        right.fields)
    if equi:
        left_idx, right_idx, _ = _equi_pairs(equi, left, right, ctx)
    else:
        left_idx, right_idx = _all_pairs(left, right)
    if left_idx is None:
        if not residual:
            # Every left row matched.
            ctx.stats.rows_joined += left.num_rows
            return left.slice(0, 0) if op.anti else left
        left_idx = np.arange(left.num_rows, dtype=np.int64)

    if residual and len(left_idx):
        _, _, keep = _residual_pairs(residual, left, right, left_idx,
                                     right_idx)
        left_idx = left_idx[keep]

    matched = np.zeros(left.num_rows, dtype=np.bool_)
    matched[left_idx] = True
    ctx.stats.rows_joined += int(matched.sum())

    if not op.anti:
        return left.filter(matched)

    keep = ~matched
    if op.null_aware:
        # SQL NOT IN: a NULL probe, or any NULL subquery value, turns an
        # unmatched row UNKNOWN — WHERE drops it.
        if op.probe_expr is not None:
            probe = evaluate(op.probe_expr, left)
            keep &= ~probe.mask
        if op.key_expr is not None:
            key_values = evaluate(op.key_expr, right)
            if key_values.mask.any():
                keep[:] = False
    return left.filter(keep)


def _execute_set_difference(op: LogicalSetDifference,
                            ctx: ExecutionContext) -> Frame:
    """EXCEPT / INTERSECT with SQL's distinct semantics."""
    left = execute_plan(op.left, ctx)
    right = execute_plan(op.right, ctx)
    left = Frame(op.fields, [
        c.cast(f.sql_type) for c, f in zip(left.columns, op.fields)],
        left.num_rows)
    right_cast = [c.cast(f.sql_type)
                  for c, f in zip(right.columns, op.fields)]

    joint = [lc.concat(rc) for lc, rc in zip(left.columns, right_cast)]
    if not joint:
        return left.slice(0, 0)
    codes = encode_keys(joint, nulls_match=True)
    left_codes = codes[:left.num_rows]
    _, counts = probe_buckets(left_codes, build_probe_index(
        codes[left.num_rows:], left.num_rows))
    in_right = counts > 0
    keep = in_right if op.intersect else ~in_right
    filtered = left.filter(keep)
    if not filtered.columns:
        return filtered
    unique = distinct_indices(filtered.columns)
    return filtered.take(unique)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _execute_aggregate(op: LogicalAggregate, ctx: ExecutionContext) -> Frame:
    child = execute_plan(op.child, ctx)

    if op.keys:
        key_columns = [evaluate(expr, child) for expr, _ in op.keys]
        # The leading key's grouping is kept in the loop's trip memo and
        # reused while that column repeats; the other keys' per-group
        # check runs every trip.
        memo = ctx.trip_memo
        lead = (memo.reuse(op, GROUPING, key_columns[:1])
                if memo is not None else None)
        if lead is not None:
            ctx.stats.grouping_reuses += 1
        gids, first_index, determinant, kept = group_keys(key_columns, lead)
        if memo is not None and lead is None and kept is not None:
            memo.keep(op, GROUPING, key_columns[:1], kept)
        if determinant is True:
            ctx.stats.determinant_groupings += 1
        elif determinant is False:
            ctx.stats.determinant_fallbacks += 1
        n_groups = len(first_index)
        key_slots = [column.take(first_index) for column in key_columns]
    else:
        gids = np.zeros(child.num_rows, dtype=np.int64)
        n_groups = 1
        key_slots = []

    agg_slots = [compute_aggregate(spec.call, child, gids, n_groups)
                 for spec in op.aggregates]

    internal_fields = internal_aggregate_fields(op, op.child.fields)
    internal = Frame(internal_fields, key_slots + agg_slots, n_groups)

    if op.having is not None:
        keep = evaluate_predicate(op.having, internal)
        internal = internal.filter(keep)

    columns = []
    for (expr, _name), field in zip(op.outputs, op.fields):
        column = evaluate(expr, internal)
        if column.sql_type is not field.sql_type \
                and field.sql_type is not SqlType.NULL:
            column = column.cast(field.sql_type)
        columns.append(column)
    return Frame(op.fields, columns, internal.num_rows)

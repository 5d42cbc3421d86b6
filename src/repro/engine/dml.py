"""DML execution: INSERT, UPDATE, DELETE.

The iterative-CTE rewrite never needs DML — that is the point of the paper
— but the middleware and stored-procedure baselines drive the engine
exactly this way (Fig. 1), so the engine supports the full statement set,
with the locking/metadata overheads instrumented.
"""

from __future__ import annotations

import numpy as np

from ..errors import CatalogError, ExecutionError, TypeCheckError
from ..execution import ExecutionContext, Frame, evaluate, evaluate_predicate
from ..execution.kernels import scatter_update
from ..execution.operators import execute_plan
from ..plan import Field, LogicalTempScan, PlanContext, build_relation
from ..sql import ast
from ..storage import Column, SegmentedTable, Table
from ..types import SqlType


def execute_insert(stmt: ast.Insert, ctx: ExecutionContext,
                   plan_context: PlanContext,
                   select_runner) -> int:
    """Append rows; returns the number of rows inserted.

    ``select_runner`` runs a SELECT statement and returns a Table (the
    engine provides its full pipeline so INSERT ... SELECT supports
    iterative CTEs too).
    """
    table = ctx.catalog.get(stmt.table)
    target_names = [c.name for c in table.schema.columns]
    if stmt.columns is not None:
        provided = [c.lower() for c in stmt.columns]
        unknown = set(provided) - {n.lower() for n in target_names}
        if unknown:
            raise CatalogError(
                f"unknown column(s) in INSERT: {sorted(unknown)}")
    else:
        provided = [n.lower() for n in target_names]

    if isinstance(stmt.source, list):
        rows = _rows_from_values(stmt.source, len(provided))
    else:
        source = select_runner(stmt.source)
        if len(source.schema) != len(provided):
            raise TypeCheckError(
                f"INSERT provides {len(provided)} columns but the query "
                f"produces {len(source.schema)}")
        rows = source.rows()

    full_rows = []
    position = {name.lower(): i for i, name in enumerate(provided)}
    for row in rows:
        full = []
        for name in target_names:
            index = position.get(name.lower())
            full.append(None if index is None else row[index])
        full_rows.append(tuple(full))

    appended = Table.from_rows(table.schema, full_rows)
    ctx.kernel_cache.invalidate_table(table)
    if table.num_rows and full_rows:
        # Append a segment in O(|inserted|) instead of copying the whole
        # table; scans consolidate lazily.  The pre-append schema lets
        # the catalog detect in-place widening (wrap may alias `table`).
        prior_schema = table.schema
        segmented = SegmentedTable.wrap(table)
        segmented.append(appended)
        ctx.catalog.put(stmt.table, segmented, prior_schema=prior_schema)
    elif full_rows:
        ctx.catalog.put(stmt.table, appended)
    else:
        ctx.catalog.put(stmt.table, table)
    ctx.stats.rows_moved += len(full_rows)
    return len(full_rows)


def _rows_from_values(rows: list[list[ast.Expr]], width: int):
    out = []
    dual = Frame.dual()
    for row in rows:
        if len(row) != width:
            raise TypeCheckError(
                f"INSERT row has {len(row)} values, expected {width}")
        values = []
        for expr in row:
            column = evaluate(expr, dual)
            values.append(column[0])
        out.append(tuple(values))
    return out


def execute_delete(stmt: ast.Delete, ctx: ExecutionContext,
                   plan_context: PlanContext) -> int:
    table = ctx.catalog.get(stmt.table)
    # The replaced columns' cached dictionaries must never be served for
    # the table's new contents; new columns carry new versions, so this
    # is eager memory release as much as invalidation.
    ctx.kernel_cache.invalidate_table(table)
    if stmt.where is None:
        ctx.catalog.put(stmt.table, Table.empty(table.schema))
        return table.num_rows
    frame = _target_frame(table, stmt.table)
    doomed = evaluate_predicate(stmt.where, frame)
    survivors = table.filter(~doomed)
    ctx.catalog.put(stmt.table, survivors)
    return int(doomed.sum())


def execute_update(stmt: ast.Update, ctx: ExecutionContext,
                   plan_context: PlanContext) -> int:
    """UPDATE ... [FROM ...] [WHERE ...]; returns rows updated.

    Each assigned column is scattered over the matched rows; unassigned
    columns stay the same objects, so their versions and kernel-cache
    state survive the statement."""
    table = ctx.catalog.get(stmt.table)

    if stmt.from_clause is None:
        frame = _target_frame(table, stmt.table)
        if stmt.where is not None:
            hit = evaluate_predicate(stmt.where, frame)
        else:
            hit = np.ones(table.num_rows, dtype=np.bool_)
        matched = frame.filter(hit)
        row_ids = np.nonzero(hit)[0]
    else:
        matched, row_ids = _join_from(stmt, table, ctx, plan_context)
        # Several FROM matches for one target row: last match wins
        # (deterministic here; PostgreSQL leaves it unspecified).  NumPy
        # does not order repeated-index assignment, so keep only each
        # row's last match before scattering.
        _, from_end = np.unique(row_ids[::-1], return_index=True)
        last = len(row_ids) - 1 - from_end
        matched, row_ids = matched.take(last), row_ids[last]

    if len(row_ids) == 0:
        return 0

    index_of = {c.name.lower(): i
                for i, c in enumerate(table.schema.columns)}
    columns = list(table.columns)
    for column_name, expr in stmt.assignments:
        index = index_of.get(column_name.lower())
        if index is None:
            raise CatalogError(
                f"no column {column_name!r} in table {stmt.table!r}")
        columns[index], _ = scatter_update(columns[index], row_ids,
                                           evaluate(expr, matched))

    # The replaced columns' cached dictionaries must never be served for
    # the new contents; new columns carry new versions, so this is eager
    # memory release as much as invalidation.
    ctx.kernel_cache.invalidate_columns(
        [old for old, new in zip(table.columns, columns) if new is not old])
    ctx.catalog.put(stmt.table, Table(table.schema, columns))
    ctx.stats.rows_moved += len(row_ids)
    return len(row_ids)


def _target_frame(table: Table, name: str) -> Frame:
    alias = name.lower()
    fields = tuple(Field(alias, c.name.lower(), c.sql_type)
                   for c in table.schema.columns)
    return Frame(fields, table.columns, table.num_rows)


def _join_from(stmt: ast.Update, table: Table, ctx: ExecutionContext,
               plan_context: PlanContext):
    """Join the target table with the FROM relation under WHERE.

    Implemented by staging the target (plus a synthetic row id) as a
    temporary result and reusing the executor's join machinery, so equi
    predicates get a hash join instead of a quadratic loop.
    """
    from ..plan.logical import LogicalJoin

    alias = stmt.table.lower()
    rowid_field = Field(alias, "__rowid", SqlType.INTEGER)
    fields = tuple(Field(alias, c.name.lower(), c.sql_type)
                   for c in table.schema.columns) + (rowid_field,)
    rowid = Column.from_numpy(
        SqlType.INTEGER, np.arange(table.num_rows, dtype=np.int64))
    staged = Frame(fields, list(table.columns) + [rowid],
                   table.num_rows).to_table()

    stage_name = plan_context.fresh_name("update_target")
    ctx.registry.store(stage_name, staged)
    try:
        target_scan = LogicalTempScan(stage_name, alias, fields)
        from_plan = build_relation(stmt.from_clause, plan_context.child())
        join = LogicalJoin(ast.JoinKind.INNER, target_scan, from_plan,
                           stmt.where)
        joined = execute_plan(join, ctx)
    finally:
        ctx.registry.drop(stage_name)
    row_ids = np.asarray(
        joined.resolve(ast.ColumnRef("__rowid", alias)).data,
        dtype=np.int64)
    return joined, row_ids

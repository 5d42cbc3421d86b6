"""Loop termination-condition evaluation (§VI-B).

The loop operator checks a single ``continue`` variable at the end of each
iteration.  How that variable is computed depends on the termination
family:

* **Metadata** — an iteration counter (``N ITERATIONS``) or a cumulative
  updated-row counter (``N UPDATES``).
* **Data** — the count of CTE-table rows satisfying the user's SQL
  expression (``UNTIL [ANY|ALL] expr``), evaluated exactly like
  ``SELECT count(*) FROM cteTable WHERE expr``.
* **Delta** — the number of rows changed by the current iteration relative
  to the previous one (``UNTIL DELTA <op> N``).

This module is pure condition evaluation plus the one "which rows
changed" kernel behind the per-trip diff step, which feeds the UPDATES /
DELTA counters and captures delta state; the loop *engine* that owns
each loop's state lives in :mod:`repro.runtime.loop_engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ExecutionError
from ..execution import ExecutionContext, Frame, evaluate_predicate
from ..execution.kernel_cache import probe_dictionary
from ..execution.kernels import (build_dictionary, comparable_values,
                                 equi_join_pairs)
from ..plan.logical import Field
from ..plan.program import LoopSpec
from ..sql import ast
from ..storage import Column, Table
from ..types import common_type

if TYPE_CHECKING:
    from .loop_engine import LoopState
    from .strategies import SolutionSet


def should_continue(state: LoopState, ctx: ExecutionContext) -> bool:
    """Evaluate the loop's continue variable after an iteration."""
    decision = _evaluate_continue(state, ctx)
    tracer = ctx.tracer
    if tracer.enabled:
        tracer.event("loop_check", kind="loop_check",
                     loop_id=state.spec.loop_id,
                     iterations=state.iterations,
                     last_delta=state.last_delta,
                     total_updates=state.total_updates,
                     decision="continue" if decision else "stop")
    return decision


def _evaluate_continue(state: LoopState, ctx: ExecutionContext) -> bool:
    if state.spec.until_empty is not None:
        # Fixed-point loop (recursive CTE): run while new rows appear.
        working = ctx.registry.fetch(state.spec.until_empty)
        return working.num_rows > 0
    termination = state.spec.termination
    kind = termination.kind

    if kind is ast.TerminationKind.ITERATIONS:
        return state.iterations < termination.count
    if kind is ast.TerminationKind.UPDATES:
        return state.total_updates < termination.count
    if kind is ast.TerminationKind.DELTA:
        return not _compare(state.last_delta, termination.comparator,
                            termination.count)
    # Data conditions: count satisfying rows in the CTE table.
    table = ctx.registry.fetch(state.spec.cte_result)
    satisfied = _count_satisfying(table, state.spec, termination.expr)
    if kind is ast.TerminationKind.DATA_ANY:
        return satisfied == 0
    if kind is ast.TerminationKind.DATA_ALL:
        return satisfied < table.num_rows
    raise ExecutionError(f"unknown termination kind: {kind}")


def _compare(value: int, comparator: str, target: int) -> bool:
    if comparator == "=":
        return value == target
    if comparator == "<":
        return value < target
    if comparator == "<=":
        return value <= target
    if comparator == ">":
        return value > target
    if comparator == ">=":
        return value >= target
    raise ExecutionError(f"unknown DELTA comparator: {comparator!r}")


def _count_satisfying(table: Table, spec: LoopSpec,
                      expr: ast.Expr) -> int:
    fields = tuple(
        Field(spec.cte_name.lower(), name.lower(), column.sql_type)
        for name, column in zip(spec.columns, table.columns))
    frame = Frame(fields, table.columns, table.num_rows)
    keep = evaluate_predicate(expr, frame)
    return int(keep.sum())


def changed_rows(previous: Table, current: Table, key_index: int,
                 solution: Optional["SolutionSet"] = None) -> np.ndarray:
    """Mask of ``current`` rows whose non-key values differ from
    ``previous``.

    Rows are aligned by the key column; rows whose key is new (not present
    in ``previous``) count as changed.  NULL-to-NULL is *not* a change
    (IS DISTINCT FROM semantics).

    The previous key is probed against an index of the current key: a
    dictionary built here, or the delta loop's ``solution`` set built
    over exactly ``current``'s keys.  Keys present only in ``previous``,
    and NULL keys, encode as -1, which is exactly right: they pair with
    nothing, and only unmatched *current* rows count as changes.
    """
    if previous.num_rows == 0:
        return np.ones(current.num_rows, dtype=np.bool_)
    prev_key = previous.columns[key_index]
    if solution is not None:
        prev_codes = np.full(len(prev_key), -1, dtype=np.int64)
        valid = ~prev_key.mask
        prev_codes[valid] = solution.codes(
            comparable_values(prev_key.data[valid]))
        prev_idx = np.flatnonzero(prev_codes >= 0)
        cur_idx = solution.rows[prev_codes[prev_idx]]
    else:
        cur_idx, prev_idx = _pair_by_dictionary(
            prev_key, current.columns[key_index])

    # New keys count as changes.
    changed = np.ones(current.num_rows, dtype=np.bool_)
    changed[cur_idx] = False
    if len(cur_idx):
        differs = np.zeros(len(cur_idx), dtype=np.bool_)
        for i, (cur_col, prev_col) in enumerate(
                zip(current.columns, previous.columns)):
            if i == key_index:
                continue
            pair_cur = cur_col.take(cur_idx)
            pair_prev = prev_col.take(prev_idx)
            differs |= pair_cur.is_distinct_from(pair_prev)
        # A key matched by several previous rows changed when any
        # pairing differs.
        changed[cur_idx[differs]] = True
    return changed


def _pair_by_dictionary(prev_key: Column, cur_key: Column
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(current rows, previous rows) whose keys match, through a
    dictionary over the current key."""
    target = common_type(cur_key.sql_type, prev_key.sql_type)
    dictionary = build_dictionary(cur_key.cast(target))
    cur_codes = dictionary.codes
    prev_codes = probe_dictionary(dictionary, prev_key.cast(target))
    valid = cur_codes >= 0
    if dictionary.cardinality == int(valid.sum()):
        # Unique current keys (the usual case): each code names one
        # current row, so previous rows pair by direct lookup instead of
        # a sorted join.
        row_of_code = np.empty(dictionary.cardinality, dtype=np.int64)
        row_of_code[cur_codes[valid]] = np.flatnonzero(valid)
        prev_idx = np.flatnonzero(prev_codes >= 0)
        return row_of_code[prev_codes[prev_idx]], prev_idx
    pairs = equi_join_pairs(cur_codes, prev_codes)
    return pairs.left_rows(), pairs.right_idx

"""Semi-naive delta evaluation: the fused delta pass and delta capture.

The handlers own the *mechanics* of the delta path; the decision of
whether the loop should stay on it belongs to the
:class:`~repro.runtime.strategies.SemiNaiveDelta` strategy, which every
measured frontier is fed back into through
:meth:`LoopEngine.note_frontier` — that is the channel mid-loop demotion
rides on, and it works identically for traced and untraced runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import DuplicateKeyError, ExecutionError
from ...execution import execute_to_table
from ...execution.kernels import (comparable_values, expand_ranges, factorize,
                                  lookup_sorted, scatter_update)
from ...plan.program import DeltaCaptureStep, DeltaFusedStep
from ...storage import Table
from ..registry import handles
from ..strategies import DeltaLoopRuntime


def _apply_delta(runner, step: DeltaFusedStep, runtime: DeltaLoopRuntime,
                 working: Table) -> int:
    """Scatter the recomputed partition back by key and derive the next
    frontier — the back half of the fused delta pass."""
    ctx = runner.ctx
    spec = step.spec
    engine = runner.engine
    w_keys = comparable_values(working.columns[0].data)
    positions = _key_positions_of(runtime, w_keys, strict=True)

    if spec.guard_keyset and not np.array_equal(
            np.sort(positions), runtime.pending_positions):
        # INNER-join body without a WHERE clause: the full body may drop
        # keys whose join partners vanished, which the keyed scatter
        # cannot express.  Keys outside the partition are unaffected (no
        # input of theirs changed), so comparing the delta body's output
        # keyset against the partition keyset is a complete check.  On
        # mismatch, permanently fall back to the always-compiled full
        # body and rerun this iteration through it.
        runtime.disabled = True
        runtime.active = False
        runtime.pending_positions = None
        ctx.stats.delta_guard_fallbacks += 1
        return step.jump_full

    changed = np.zeros(working.num_rows, dtype=np.bool_)
    new_columns = list(runtime.columns)
    for i in range(1, len(new_columns)):
        # scatter_update keeps the old column object when nothing
        # changed, so its version — and any kernel-cache state keyed by
        # it — survives.
        merged, col_changed = scatter_update(
            runtime.columns[i], positions, working.columns[i])
        changed |= col_changed
        new_columns[i] = merged
    ctx.stats.rows_moved += working.num_rows
    ctx.stats.bytes_moved += working.nbytes()

    runtime.frontier_keys = w_keys[changed]
    runtime.last_frontier = int(changed.sum())

    if spec.merge_by_key:
        # The full body's merge join emits matched (working) rows
        # first, then the rest; replicate that reordering from the
        # membership flags so delta iterations stay bit-identical.
        in_working = runtime.in_working.copy()
        in_working[runtime.pending_positions] = False
        in_working[positions] = True
        perm = np.concatenate([np.flatnonzero(in_working),
                               np.flatnonzero(~in_working)])
        if not np.array_equal(perm,
                              np.arange(len(perm), dtype=perm.dtype)):
            new_columns = [c.take(perm) for c in new_columns]
            in_working = in_working[perm]
            # Same key set, moved rows: old row perm[j] is now row j, so
            # the sorted keys stay and their positions follow the move.
            moved_to = np.empty_like(perm)
            moved_to[perm] = np.arange(len(perm), dtype=perm.dtype)
            runtime.key_positions = moved_to[runtime.key_positions]
            ctx.stats.rows_moved += int(len(perm))
        runtime.in_working = in_working

    new_table = Table(runtime.schema, new_columns)
    ctx.registry.store(spec.cte_result, new_table)
    runtime.columns = new_columns
    runtime.pending_positions = None
    if engine.counts_updates(spec.loop_id):
        engine.record_updates(spec.loop_id, runtime.last_frontier)
    ctx.stats.delta_iterations += 1
    engine.note_frontier(spec.loop_id, runtime.last_frontier,
                         new_table.num_rows)
    return step.jump_to


@handles(DeltaFusedStep)
def run_delta_fused(runner, step: DeltaFusedStep) -> int:
    """The fused semi-naive delta pass: gate, partition, recompute,
    duplicate check and apply in one batched columnar dispatch, with an
    O(1) empty-frontier short-circuit and a keyset-guard fallback to the
    full body.
    """
    ctx = runner.ctx
    engine = runner.engine
    spec = step.spec
    runtime = engine.delta_runtime(spec)

    # -- gate ---------------------------------------------------------------
    if runtime.disabled or not runtime.active:
        return step.jump_full
    if runtime.frontier_keys is None or not len(runtime.frontier_keys):
        # Empty frontier: no input of any key changed last iteration,
        # so no output can change this iteration (or ever after) —
        # this iteration costs O(1).
        runtime.last_frontier = 0
        if engine.counts_updates(spec.loop_id):
            engine.record_updates(spec.loop_id, 0)
        ctx.stats.delta_iterations += 1
        return step.jump_to

    # -- partition ----------------------------------------------------------
    frontier = runtime.frontier_keys
    # A changed key always influences itself (its own row is
    # recomputed); links add the keys reachable through base tables.
    position_sets = [_key_positions_of(runtime, frontier, strict=True)]
    for link in spec.influences:
        influenced = _expand_influence(runner, runtime, link, frontier)
        position_sets.append(
            _key_positions_of(runtime, influenced, strict=False))
    positions = np.unique(np.concatenate(position_sets))
    table = ctx.registry.fetch(spec.cte_result)
    partition = table.take(positions)
    # The delta body's anchor scan reads the partition by name.
    ctx.registry.store(spec.partition, partition)
    runtime.pending_positions = positions
    ctx.stats.rows_moved += int(len(positions))
    ctx.stats.bytes_moved += partition.nbytes()

    # -- recompute the affected partition through the delta body ------------
    working = execute_to_table(step.plan, ctx, step.column_names)
    ctx.registry.store(spec.delta_working, working)

    # -- duplicate check (merge-by-key bodies only) -------------------------
    if step.dup_check:
        key = working.column(spec.key_column)
        codes, cardinality = factorize(key, nulls_match=True,
                                       cache=ctx.active_kernel_cache())
        if len(codes) and cardinality < len(codes):
            raise DuplicateKeyError(
                "the iterative part produced duplicate values for key "
                f"{spec.key_column!r}; add an aggregation to resolve "
                "them (paper §II)")

    # -- apply --------------------------------------------------------------
    return _apply_delta(runner, step, runtime, working)


@handles(DeltaCaptureStep)
def run_delta_capture(runner, step: DeltaCaptureStep) -> Optional[int]:
    ctx = runner.ctx
    engine = runner.engine
    spec = step.spec
    runtime = engine.delta_runtime(spec)
    if runtime.disabled:
        if runtime.demoted:
            # Demoted (not disqualified) loop: keep measuring the
            # changed-row frontier of every full iteration without
            # re-activating the delta machinery — the movement
            # fallback's promotion watcher consumes these and hands the
            # loop back to semi-naive delta when the frontier collapses.
            table = ctx.registry.fetch(spec.cte_result)
            key_column = table.columns[0]
            if not key_column.mask.any():
                values = comparable_values(key_column.data)
                previous = ctx.registry.fetch(step.previous)
                changed = _diff_by_key(table, previous, values)
                engine.note_frontier(spec.loop_id, int(changed.sum()),
                                     table.num_rows)
        return None
    table = ctx.registry.fetch(spec.cte_result)
    key_column = table.columns[0]
    if key_column.mask.any():
        # NULL keys cannot be tracked by key; stay on the full path.
        runtime.disabled = True
        runtime.active = False
        return None
    values = comparable_values(key_column.data)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if len(sorted_values) > 1 \
            and (sorted_values[1:] == sorted_values[:-1]).any():
        # Duplicate keys break per-key alignment; full path forever.
        runtime.disabled = True
        runtime.active = False
        return None
    runtime.schema = table.schema
    runtime.columns = list(table.columns)
    runtime.key_sorted = sorted_values
    runtime.key_positions = order.astype(np.int64)
    previous = ctx.registry.fetch(step.previous)
    changed = _diff_by_key(table, previous, values)
    runtime.frontier_keys = values[changed]
    runtime.last_frontier = int(changed.sum())
    if spec.merge_by_key:
        working = ctx.registry.fetch(spec.working)
        w_keys = comparable_values(working.columns[0].data)
        flags = np.zeros(table.num_rows, dtype=np.bool_)
        flags[_key_positions_of(runtime, w_keys, strict=False)] = True
        runtime.in_working = flags
    runtime.active = True
    engine.note_frontier(spec.loop_id, runtime.last_frontier,
                         table.num_rows)
    return None


def _key_positions_of(runtime: DeltaLoopRuntime, keys, strict: bool):
    """Row positions of comparable ``keys`` in the CTE table."""
    positions, found = lookup_sorted(runtime.key_sorted, keys)
    if strict and not found.all():
        raise ExecutionError(
            "delta evaluation lost track of a CTE key; this is a bug "
            "in the delta safety analysis")
    return runtime.key_positions[positions[found]]


def _expand_influence(runner, runtime: DeltaLoopRuntime,
                      link: tuple[str, str, str], frontier):
    """Keys influenced by ``frontier`` through one base-table link."""
    entry = runtime.link_indexes.get(link)
    if entry is None:
        table_name, src_name, dst_name = link
        base = runner.ctx.catalog.get(table_name)
        src = base.column(src_name)
        dst = base.column(dst_name)
        # A NULL on either side of an equi join never matches.
        valid = ~(src.mask | dst.mask)
        src_values = comparable_values(src.data[valid])
        dst_values = comparable_values(dst.data[valid])
        order = np.argsort(src_values, kind="stable")
        entry = (src_values[order], dst_values[order])
        runtime.link_indexes[link] = entry
    src_sorted, dst_by_src = entry
    left = np.searchsorted(src_sorted, frontier, side="left")
    right = np.searchsorted(src_sorted, frontier, side="right")
    return dst_by_src[expand_ranges(left, right - left)]


def _diff_by_key(current: Table, previous: Table, current_keys):
    """Mask of ``current`` rows whose non-key values differ from the row
    of ``previous`` with the same key (new keys count as changed)."""
    if previous.num_rows == 0:
        return np.ones(current.num_rows, dtype=np.bool_)
    prev_values = comparable_values(previous.columns[0].data)
    order = np.argsort(prev_values, kind="stable")
    positions, found = lookup_sorted(prev_values[order], current_keys)
    changed = ~found
    if found.any():
        idx_cur = np.flatnonzero(found)
        idx_prev = order[positions[found]]
        differs = np.zeros(len(idx_cur), dtype=np.bool_)
        for i in range(1, len(current.columns)):
            cur_col = current.columns[i].take(idx_cur)
            prev_col = previous.columns[i].take(idx_prev)
            differs |= cur_col.is_distinct_from(prev_col)
        changed[idx_cur] = differs
    return changed

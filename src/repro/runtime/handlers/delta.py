"""Semi-naive delta evaluation: the fused delta pass and delta capture.

The handlers own the *mechanics* of the delta path and keep their state
in the loop's :class:`~repro.runtime.loop_engine.LoopState`; whether the
loop stays on the path is its ``mode``, which every measured frontier
moves through :meth:`LoopEngine.note_frontier` — the channel mid-loop
demotion and promotion ride on, identical for traced and untraced runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import ExecutionError
from ...execution import execute_to_table
from ...execution.kernels import (build_probe_index, comparable_values,
                                  expand_ranges, probe_buckets,
                                  scatter_update, unique_sorted)
from ...plan.program import DeltaCaptureStep, DeltaFusedStep
from ...storage import Table
from ..conditions import changed_rows
from ..loop_engine import LoopState
from ..registry import handles
from ..strategies import CAPTURE, DELTA, DEMOTED, OFF, SolutionSet
from .loop_control import check_unique_key


def _apply_delta(runner, step: DeltaFusedStep, state: LoopState,
                 working: Table) -> int:
    """Scatter the recomputed partition back by key and derive the next
    frontier — the back half of the fused delta pass."""
    ctx = runner.ctx
    spec = step.spec
    engine = runner.engine
    solution = state.solution
    w_codes = _known_codes(solution,
                           comparable_values(working.columns[0].data))
    positions = solution.rows[w_codes]

    if spec.guard_keyset and not np.array_equal(
            np.sort(positions), state.pending_positions):
        # INNER-join body without a WHERE clause: the full body may drop
        # keys whose join partners vanished, which the keyed scatter
        # cannot express.  Keys outside the partition are unaffected (no
        # input of theirs changed), so comparing the delta body's output
        # keyset against the partition keyset is a complete check.  On
        # mismatch, permanently fall back to the always-compiled full
        # body and rerun this iteration through it.
        state.mode = OFF
        state.pending_positions = None
        ctx.stats.delta_guard_fallbacks += 1
        return step.jump_full

    changed = np.zeros(working.num_rows, dtype=np.bool_)
    new_columns = list(state.columns)
    for i in range(1, len(new_columns)):
        # scatter_update keeps the old column object when nothing
        # changed, so its version — and any kernel-cache state keyed by
        # it — survives.
        merged, col_changed = scatter_update(
            state.columns[i], positions, working.columns[i])
        changed |= col_changed
        new_columns[i] = merged
    ctx.stats.rows_moved += working.num_rows
    ctx.stats.bytes_moved += working.nbytes()

    state.frontier_codes = w_codes[changed]
    state.last_frontier = int(changed.sum())

    if spec.merge_by_key:
        # The full body's merge join emits matched (working) rows
        # first, then the rest; replicate that reordering from the
        # membership flags so delta iterations stay bit-identical.
        in_working = state.in_working.copy()
        in_working[state.pending_positions] = False
        in_working[positions] = True
        perm = np.concatenate([np.flatnonzero(in_working),
                               np.flatnonzero(~in_working)])
        if not np.array_equal(perm,
                              np.arange(len(perm), dtype=perm.dtype)):
            new_columns = [c.take(perm) for c in new_columns]
            in_working = in_working[perm]
            # Same key set, moved rows: old row perm[j] is now row j, so
            # the codes stay and their rows follow the move.
            moved_to = np.empty_like(perm)
            moved_to[perm] = np.arange(len(perm), dtype=perm.dtype)
            solution.permute(moved_to)
            ctx.stats.rows_moved += int(len(perm))
        state.in_working = in_working

    new_table = Table(state.schema, new_columns)
    ctx.registry.store(spec.cte_result, new_table)
    state.columns = new_columns
    state.pending_positions = None
    if engine.counts_updates(spec.loop_id):
        state.record_updates(state.last_frontier)
    ctx.stats.delta_iterations += 1
    engine.note_frontier(state, state.last_frontier, new_table.num_rows)
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
    state = engine.state(spec.loop_id)

    # -- gate ---------------------------------------------------------------
    if not state.active:
        return step.jump_full
    if state.frontier_codes is None or not len(state.frontier_codes):
        # Empty frontier: no input of any key changed last iteration,
        # so no output can change this iteration (or ever after) —
        # this iteration costs O(1).
        state.last_frontier = 0
        if engine.counts_updates(spec.loop_id):
            state.record_updates(0)
        ctx.stats.delta_iterations += 1
        return step.jump_to

    # -- partition ----------------------------------------------------------
    frontier = state.frontier_codes
    solution = state.solution
    # A changed key always influences itself (its own row is
    # recomputed); links add the keys reachable through base tables.
    code_sets = [frontier]
    for link in spec.influences:
        code_sets.append(_expand_influence(runner, solution, link, frontier))
    positions = unique_sorted(solution.rows[np.concatenate(code_sets)])
    table = ctx.registry.fetch(spec.cte_result)
    partition = table.take(positions)
    # The delta body's anchor scan reads the partition by name.
    ctx.registry.store(spec.partition, partition)
    state.pending_positions = positions
    ctx.stats.rows_moved += int(len(positions))
    ctx.stats.bytes_moved += partition.nbytes()

    # -- recompute the affected partition through the delta body ------------
    working = execute_to_table(step.plan, ctx, step.column_names)
    ctx.registry.store(spec.delta_working, working)

    # -- duplicate check (merge-by-key bodies only) -------------------------
    if step.dup_check:
        check_unique_key(working, spec.key_column)

    # -- apply --------------------------------------------------------------
    return _apply_delta(runner, step, state, working)


@handles(DeltaCaptureStep)
def run_delta_capture(runner, step: DeltaCaptureStep) -> Optional[int]:
    """After a full iteration: diff the CTE table against the previous
    one by key, once, for the UPDATES/DELTA counter, the capture of
    delta state (mode CAPTURE) and the promotion watch (mode DEMOTED)."""
    ctx = runner.ctx
    engine = runner.engine
    spec = step.spec
    state = engine.state(spec.loop_id)
    table = ctx.registry.fetch(spec.cte_result)
    solution = None
    if state.mode == CAPTURE:
        key_column = table.columns[0]
        keys = comparable_values(key_column.data)
        solution = None if key_column.mask.any() \
            else SolutionSet.build(keys)
        if solution is None:
            # NULL or duplicate keys cannot be tracked by key: full path
            # forever.
            state.mode = OFF
    counts = engine.counts_updates(spec.loop_id)
    if state.mode == OFF and not counts:
        return None
    index = solution
    if state.mode == DEMOTED:
        index = _repoint(state.solution, table)
    changed = changed_rows(ctx.registry.fetch(step.previous), table, 0,
                           index)
    frontier = int(changed.sum())
    if counts:
        state.record_updates(frontier)
    if solution is not None:
        state.schema = table.schema
        state.columns = list(table.columns)
        state.solution = solution
        state.frontier_codes = solution.codes(keys[changed])
        state.last_frontier = frontier
        if spec.merge_by_key:
            working = ctx.registry.fetch(spec.working)
            w_codes = solution.codes(
                comparable_values(working.columns[0].data))
            flags = np.zeros(table.num_rows, dtype=np.bool_)
            flags[solution.rows[w_codes[w_codes >= 0]]] = True
            state.in_working = flags
        state.mode = DELTA
    # A demoted loop keeps measuring every full iteration's frontier
    # without re-activating the delta machinery; that is what promotes
    # it back once the frontier collapses.
    engine.note_frontier(state, frontier, table.num_rows)
    return None


def _known_codes(solution: SolutionSet, keys):
    """Solution-set codes of comparable ``keys`` the CTE table must hold."""
    codes = solution.codes(keys)
    if (codes < 0).any():
        raise ExecutionError(
            "delta evaluation lost track of a CTE key; this is a bug "
            "in the delta safety analysis")
    return codes


def _repoint(solution: SolutionSet, table: Table) -> SolutionSet:
    """``solution``'s codes with code -> row pointing into ``table`` (-1
    for a key it lacks).  A full iteration of a per-key body keeps the
    key set, or drops keys, but moves rows."""
    codes = _known_codes(solution, comparable_values(table.columns[0].data))
    rows = np.full(len(solution.sorted_keys), -1, dtype=np.int64)
    rows[codes] = np.arange(len(codes), dtype=np.int64)
    return SolutionSet(solution.sorted_keys, rows)


def _expand_influence(runner, solution: SolutionSet,
                      link: tuple[str, str, str], frontier):
    """Codes of the keys influenced by the ``frontier`` codes through one
    base-table link."""
    index = solution.links.get(link)
    if index is None:
        table_name, src_name, dst_name = link
        base = runner.ctx.catalog.get(table_name)
        src = base.column(src_name)
        dst = base.column(dst_name)
        # A NULL on either side of an equi join never matches.
        valid = ~(src.mask | dst.mask)
        src_codes = solution.codes(comparable_values(src.data[valid]))
        dst_codes = solution.codes(comparable_values(dst.data[valid]))
        # A link row whose destination is no CTE key influences nothing.
        src_codes[dst_codes < 0] = -1
        index = build_probe_index(src_codes)
        # Each bucket carries the destination codes of its link rows
        # instead of their row numbers, so a probe lands on codes.
        index = index._replace(positions=dst_codes[index.positions])
        solution.links[link] = index
    lo, counts = probe_buckets(frontier, index)
    return index.positions[expand_ranges(lo, counts)]

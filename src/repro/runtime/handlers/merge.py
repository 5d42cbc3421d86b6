"""Recursive-CTE merge: UNION / UNION ALL fixed-point bookkeeping."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...plan.program import RecursiveMergeStep
from ...storage import SegmentedTable, Table
from ..registry import handles


@handles(RecursiveMergeStep)
def run_recursive_merge(runner, step: RecursiveMergeStep) -> Optional[int]:
    ctx = runner.ctx
    result = ctx.registry.fetch(step.result)
    candidate = ctx.registry.fetch(step.candidate)

    if not step.distinct:
        # UNION ALL: everything is new.
        _append_segment(runner, step.result, result, candidate)
        ctx.registry.store(step.working, candidate)
        return None

    if candidate.num_rows == 0:
        ctx.registry.store(step.working, candidate)
        return None

    if not len(result.schema):
        # Zero-column rows are all identical: nothing is ever new.
        new_mask = np.zeros(candidate.num_rows, dtype=np.bool_)
    elif ctx.options.enable_kernel_cache:
        new_mask = _merge_incremental(runner, step, result, candidate)
    else:
        new_mask = _merge_rescan(result, candidate)
    new_rows = candidate.filter(new_mask)
    _append_segment(runner, step.result, result, new_rows)
    ctx.registry.store(step.working, new_rows)
    return None


def _append_segment(runner, name: str, result: Table,
                    new_rows: Table) -> None:
    """``result ++ delta`` in O(|delta|): append a segment instead of
    copying the accumulated result (read paths consolidate lazily).
    Only the delta is charged as data movement."""
    ctx = runner.ctx
    segmented = SegmentedTable.wrap(result)
    segmented.append(new_rows)
    if ctx.options.enable_plan_verifier:
        from ...verify.storage import verify_segmented_table
        # Metadata invariants only — forcing a consolidation here would
        # defeat the O(|delta|) append this path exists for.
        verify_segmented_table(segmented, "recursive-merge append")
    ctx.registry.store(name, segmented)
    ctx.stats.rows_moved += new_rows.num_rows
    ctx.stats.bytes_moved += new_rows.nbytes()


def _merge_incremental(runner, step: RecursiveMergeStep, result: Table,
                       candidate: Table) -> np.ndarray:
    """Dedup the candidate delta against the persistent seen-row index
    instead of re-encoding ``result ++ candidate``.

    The index lives in the loop's state for the duration of one program
    run; it is rebuilt (one O(result) scan) whenever the result table
    changed outside this merge step or the UNION's common column types
    drifted."""
    from ...execution.kernel_cache import IncrementalDistinctIndex
    from ...types import common_type

    ctx = runner.ctx
    # Types come from the schemas: reading .columns on a segmented
    # result would force a consolidation every iteration.
    types = tuple(
        common_type(rc.sql_type, cc.sql_type)
        for rc, cc in zip(result.schema.columns,
                          candidate.schema.columns))
    state = runner.engine.state(step.loop_id)
    entry = state.distinct_index
    index = None
    repacks_before = 0
    if entry is not None:
        entry_types, entry_index = entry
        if entry_index is None and entry_types == types:
            # The index genuinely needs more than 62 id bits; stay on
            # the rescan path rather than rebuild every merge.
            return _merge_rescan(result, candidate)
        if entry_index is not None and entry_types == types \
                and entry_index.rows_absorbed == result.num_rows:
            index = entry_index
            repacks_before = index.repacks
            ctx.stats.merge_index_hits += 1
    if index is None:
        index = IncrementalDistinctIndex(len(types))
        result_cols = [rc if rc.sql_type is t else rc.cast(t)
                       for rc, t in zip(result.columns, types)]
        if index.absorb(result_cols, result.num_rows) is None:
            state.distinct_index = (types, None)
            ctx.stats.merge_index_overflows += 1
            ctx.stats.merge_index_repacks += index.repacks
            return _merge_rescan(result, candidate)
        state.distinct_index = (types, index)
        ctx.stats.merge_index_rebuilds += 1
    candidate_cols = [cc if cc.sql_type is t else cc.cast(t)
                      for cc, t in zip(candidate.columns, types)]
    new_mask = index.filter_new(candidate_cols, candidate.num_rows)
    ctx.stats.merge_index_repacks += index.repacks - repacks_before
    if new_mask is None:
        # Even a repack cannot fit the per-column id spaces into 62
        # bits, so every later merge of this result full-rescans.
        # Counted (once per transition) for EXPLAIN ANALYZE and the
        # repack-on-overflow trigger.
        state.distinct_index = (types, None)
        ctx.stats.merge_index_overflows += 1
        return _merge_rescan(result, candidate)
    return new_mask


def _merge_rescan(result: Table, candidate: Table):
    """Cache-off UNION DISTINCT dedup: joint-encode ``result ++
    candidate`` from scratch each iteration, but with bucket-lookup
    membership instead of a per-row set loop.  Produces exactly the masks
    of the incremental path."""
    from ...execution.kernels import (
        build_probe_index, encode_keys, probe_buckets, unique_sorted)

    joint = [rc.concat(cc) for rc, cc in
             zip(result.columns, candidate.columns)]
    codes = encode_keys(joint, nulls_match=True)
    cand_codes = codes[result.num_rows:]
    _, seen = probe_buckets(cand_codes, build_probe_index(
        codes[:result.num_rows], candidate.num_rows))

    _, first_index = unique_sorted(cand_codes, return_index=True)
    first_mask = np.zeros(candidate.num_rows, dtype=np.bool_)
    first_mask[first_index] = True
    return first_mask & (seen == 0)

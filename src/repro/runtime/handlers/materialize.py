"""Plan-running steps: materialize, snapshot, return, drop."""

from __future__ import annotations

from typing import Optional

from ...execution import execute_to_table
from ...plan.program import (
    DropStep,
    MaterializeStep,
    ReturnStep,
    SnapshotStep,
)
from ..registry import handles


@handles(MaterializeStep)
def run_materialize(runner, step: MaterializeStep) -> Optional[int]:
    table = execute_to_table(step.plan, runner.ctx, step.column_names)
    runner.ctx.registry.store(step.result_name, table)
    if step.counts == "common":
        runner.ctx.stats.common_results_built += 1
    elif step.counts == "pushdown":
        runner.ctx.stats.predicate_pushdowns += 1
    return None


@handles(SnapshotStep)
def run_snapshot(runner, step: SnapshotStep) -> Optional[int]:
    snapshot = runner.ctx.registry.fetch(step.source).copy()
    runner.ctx.registry.store(step.target, snapshot)
    return None


@handles(ReturnStep)
def run_return(runner, step: ReturnStep) -> Optional[int]:
    runner.set_result(execute_to_table(step.plan, runner.ctx))
    return None


@handles(DropStep)
def run_drop(runner, step: DropStep) -> Optional[int]:
    registry = runner.ctx.registry
    dropped = [registry.fetch(name) for name in step.names
               if registry.exists(name)]
    for name in step.names:
        registry.drop(name)
    cache = runner.ctx.active_kernel_cache()
    if cache is not None and dropped:
        # A dropped result's versions never recur: release its
        # join indexes now, not at LRU eviction.
        cache.invalidate_tables(*dropped)
    return None

"""Loop-control steps: init / increment / loop check / update counting.

These handlers only *route* — all loop state lives in the
:class:`~repro.runtime.loop_engine.LoopEngine`, so the MPP and baseline
drivers share the exact same control path.
"""

from __future__ import annotations

from typing import Optional

from ...errors import DuplicateKeyError
from ...execution.kernels import factorize
from ...plan.program import (
    CountUpdatesStep,
    DuplicateCheckStep,
    IncrementLoopStep,
    InitLoopStep,
    LoopStep,
)
from ...storage import Table
from ..conditions import changed_rows
from ..registry import handles


@handles(InitLoopStep)
def run_init_loop(runner, step: InitLoopStep) -> Optional[int]:
    runner.engine.init_loop(step.spec)
    return None


@handles(IncrementLoopStep)
def run_increment_loop(runner, step: IncrementLoopStep) -> Optional[int]:
    runner.engine.state(step.loop_id).iterations += 1
    runner.ctx.stats.iterations += 1
    return None


@handles(LoopStep)
def run_loop(runner, step: LoopStep) -> Optional[int]:
    return runner.engine.evaluate(step)


@handles(CountUpdatesStep)
def run_count_updates(runner, step: CountUpdatesStep) -> Optional[int]:
    ctx = runner.ctx
    previous = ctx.registry.fetch(step.previous)
    current = ctx.registry.fetch(step.current)
    key_index = current.schema.index_of(step.key_column)
    changed = changed_rows(previous, current, key_index)
    runner.engine.state(step.loop_id).record_updates(int(changed.sum()))
    return None


@handles(DuplicateCheckStep)
def run_duplicate_check(runner, step: DuplicateCheckStep) -> Optional[int]:
    check_unique_key(runner.ctx.registry.fetch(step.result_name),
                     step.key_column)
    return None


def check_unique_key(table: Table, key_column: str) -> None:
    """Raise when ``table`` holds a ``key_column`` value (NULL included)
    twice: a merge by key cannot tell which row wins (paper §II)."""
    codes, cardinality = factorize(table.column(key_column),
                                   nulls_match=True)
    if len(codes) and cardinality < len(codes):
        raise DuplicateKeyError(
            "the iterative part produced duplicate values for key "
            f"{key_column!r}; add an aggregation to resolve "
            "them (paper §II)")

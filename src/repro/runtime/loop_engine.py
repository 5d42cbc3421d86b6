"""The unified loop engine: one control shell for every loop.

:class:`LoopRun` is the generic per-loop instrument: wall-clock and
counter metering per iteration, span emission, and
:class:`~repro.obs.telemetry.LoopTelemetry` accumulation.  The SQL
interpreter (through :class:`LoopEngine`), the MPP driver
(:func:`repro.mpp.iterative.distributed_pagerank`), and the middleware /
stored-procedure baselines all report through it, so kernel-cache
counters, data-motion accounting and span tracing behave identically
whichever layer runs the loop.

:class:`LoopEngine` adds what step programs need on top: one
:class:`LoopState` record per loop — termination counters, strategy
mode, delta-path state, switch log, telemetry — termination evaluation,
and the frontier-feedback channel that drives mid-loop demotion and
promotion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import ExecutionError
from ..obs.telemetry import IterationRecord, LoopTelemetry
from ..obs.trace import NULL_TRACER
from ..plan.program import LoopSpec, LoopStep, Program
from ..sql import ast
from ..storage import Schema
from . import strategies
from .conditions import should_continue
from .strategies import (CAPTURE, DELTA, OFF, SELECTION_REASONS,
                         SolutionSet, StrategySwitch, strategy_name)


class LoopRun:
    """Meter one loop: telemetry records, spans, and counter deltas.

    ``snapshot`` (optional) samples a ``{name: number}`` counter dict at
    iteration boundaries; ``derive`` maps the per-iteration counter diff
    to :class:`IterationRecord` field overrides (e.g. cache hits for the
    SQL engine, motion for the cluster).  ``span_attributes`` land on the
    loop span.
    """

    def __init__(self, loop_id: int, name: str, kind: str,
                 tracer=NULL_TRACER,
                 snapshot: Optional[Callable[[], dict]] = None,
                 derive: Optional[Callable[[dict], dict]] = None,
                 strategy: Optional[str] = None,
                 span_attributes: Optional[dict] = None):
        self.telemetry = LoopTelemetry(loop_id, name, kind,
                                       strategy=strategy)
        self._name = name
        self._tracer = tracer
        self._snapshot_fn = snapshot
        self._derive = derive
        self._span_attributes = span_attributes or {}
        self._loop_span = None
        self._iter_span = None
        self._mark: Optional[tuple[float, Optional[dict]]] = None

    def begin(self) -> None:
        """Mark the start of the first iteration (and open spans)."""
        snapshot = self._snapshot_fn() if self._snapshot_fn else None
        self._mark = (time.perf_counter(), snapshot)
        if self._tracer.enabled:
            self._loop_span = self._tracer.start(
                f"loop:{self._name}", kind="loop",
                **self._span_attributes)
            self._iter_span = self._tracer.start(
                "iteration", kind="iteration", index=1)

    def finish_iteration(self, continuing: bool, *, delta_rows: int,
                         working_rows: int, total_rows: int,
                         **extra) -> IterationRecord:
        """Record one completed trip; re-mark for the next one.

        ``extra`` fields override anything ``derive`` computed from the
        counter diff."""
        now = time.perf_counter()
        mark_time, mark_snapshot = self._mark
        fields = dict(extra)
        snapshot = None
        if self._snapshot_fn is not None:
            snapshot = self._snapshot_fn()
            if self._derive is not None and mark_snapshot is not None:
                diff = {key: snapshot[key] - mark_snapshot.get(key, 0)
                        for key in snapshot}
                for key, value in self._derive(diff).items():
                    fields.setdefault(key, value)
        record = IterationRecord(
            index=self.telemetry.iterations + 1,
            seconds=now - mark_time,
            delta_rows=delta_rows,
            working_rows=working_rows,
            total_rows=total_rows,
            **fields)
        self.telemetry.records.append(record)
        self._mark = (now, snapshot)
        if self._iter_span is not None:
            self._iter_span.set(**record.to_dict())
            self._tracer.end(self._iter_span)
            self._iter_span = None
            if continuing:
                self._iter_span = self._tracer.start(
                    "iteration", kind="iteration",
                    index=self.telemetry.iterations + 1)
            else:
                self._close_loop_span()
        return record

    def close(self) -> None:
        """End any spans still open (abnormal loop termination)."""
        if self._iter_span is not None:
            self._tracer.end(self._iter_span)
            self._iter_span = None
        self._close_loop_span()

    def _close_loop_span(self) -> None:
        if self._loop_span is not None:
            self._loop_span.set(iterations=self.telemetry.iterations)
            self._tracer.end(self._loop_span)
        self._loop_span = None


@dataclass(eq=False)
class LoopState:
    """Everything one loop owns for one program run."""

    spec: LoopSpec
    # Termination counters (§VI-B).
    iterations: int = 0
    total_updates: int = 0
    last_delta: int = 0
    # Strategy mode (see repro.runtime.strategies) and the length of the
    # current run of frontiers across its switch threshold.
    mode: str = OFF
    streak: int = 0
    # Delta path: captured by DeltaCaptureStep after a full iteration,
    # advanced by DeltaFusedStep on every delta iteration.
    schema: Optional[Schema] = None
    # Column objects of the current CTE table (shared, immutable).
    columns: list = field(default_factory=list)
    # The key index over the CTE table.
    solution: Optional[SolutionSet] = None
    # Merge path only: per-row "key was in last iteration's working
    # table" flags, which drive the merge join's row ordering.
    in_working: Optional[np.ndarray] = None
    # Solution-set codes of the keys changed by the last iteration.
    frontier_codes: Optional[np.ndarray] = None
    last_frontier: int = 0
    # Row positions gathered by the pending partition step.
    pending_positions: Optional[np.ndarray] = None
    # Mid-loop demotions and promotions, in the order taken.
    switches: list[StrategySwitch] = field(default_factory=list)
    # Telemetry and spans, when the run is observed.
    run: Optional[LoopRun] = None
    # Recursive UNION: (common column types, IncrementalDistinctIndex),
    # the index None once it needs more than 62 id bits.
    distinct_index: Optional[tuple] = None

    @property
    def active(self) -> bool:
        """Whether the fused step takes the delta path."""
        return self.mode == DELTA

    def record_updates(self, changed: int) -> None:
        self.last_delta = changed
        self.total_updates += changed

    def strategy_chain(self) -> str:
        """Every strategy the loop ran under, ``"->"``-joined, e.g.
        ``"semi-naive-delta->rename-in-place->semi-naive-delta"``."""
        names = [switch.to_name for switch in self.switches]
        if self.switches:
            names.insert(0, self.switches[0].from_name)
        current = strategy_name(self.spec, self.mode)
        if not names or names[-1] != current:
            # A disqualified loop ran its last trips on the full body
            # without a logged switch.
            names.append(current)
        return "->".join(names)


class LoopEngine:
    """Loop control for one program run.

    Owns one :class:`LoopState` per loop of the run.  Step handlers
    reach loop state only through this engine.
    """

    def __init__(self, program: Program, ctx):
        self._program = program
        self._ctx = ctx
        self.loops: dict[int, LoopState] = {}

    def begin_run(self) -> None:
        """Reset all loop state for exactly one program run."""
        self.loops = {}

    # -- loop control --------------------------------------------------------

    def init_loop(self, spec: LoopSpec) -> None:
        state = LoopState(spec, mode=CAPTURE if spec.delta is not None
                          else OFF)
        self.loops[spec.loop_id] = state
        tracer = self._ctx.tracer
        if tracer.enabled:
            name = strategy_name(spec, state.mode)
            tracer.event("strategy_selection", kind="decision",
                         loop_id=spec.loop_id, cte=spec.cte_name,
                         strategy=name, reason=SELECTION_REASONS[name])

    def state(self, loop_id: int) -> LoopState:
        state = self.loops.get(loop_id)
        if state is None:
            raise ExecutionError(
                "loop step executed before initialization")
        return state

    def evaluate(self, step: LoopStep) -> Optional[int]:
        """The loop operator's decision: the back-jump target or None."""
        if should_continue(self.state(step.loop_id), self._ctx):
            return step.jump_to
        return None

    def counts_updates(self, loop_id: int) -> bool:
        """Whether the loop's termination reads the updated-row counter."""
        spec = self._program.loops.get(loop_id)
        return (spec is not None and spec.termination is not None
                and spec.termination.kind in (ast.TerminationKind.UPDATES,
                                              ast.TerminationKind.DELTA))

    def note_frontier(self, state: LoopState, frontier: int,
                      total: int) -> None:
        """Feed a measured frontier to the loop's hysteresis and log the
        ``"demotion"`` or ``"promotion"`` it triggers: append it to the
        loop's switch list, count it and emit its decision event."""
        switch = strategies.note_frontier(state, frontier, total)
        if switch is None:
            return
        state.switches.append(switch)
        if switch.kind == "demotion":
            self._ctx.stats.strategy_demotions += 1
        else:
            self._ctx.stats.strategy_promotions += 1
        tracer = self._ctx.tracer
        if tracer.enabled:
            tracer.event(f"strategy_{switch.kind}", kind="decision",
                         loop_id=state.spec.loop_id,
                         cte=state.spec.cte_name,
                         from_strategy=switch.from_name,
                         to_strategy=switch.to_name,
                         iteration=switch.iteration,
                         frontier=frontier, total=total,
                         budget_frontier=switch.budget_frontier,
                         reason=switch.reason)

    # -- observation (telemetry + spans) -------------------------------------

    @property
    def telemetry(self) -> dict[int, LoopTelemetry]:
        """Per-loop telemetry of the current observed run."""
        return {loop_id: state.run.telemetry
                for loop_id, state in self.loops.items()
                if state.run is not None}

    def observe_loop(self, spec: LoopSpec, tracer) -> None:
        state = self.state(spec.loop_id)
        kind = "fixpoint" if spec.until_empty is not None else "iterative"
        state.run = LoopRun(
            spec.loop_id, spec.cte_name, kind, tracer=tracer,
            snapshot=self._ctx.stats.snapshot,
            derive=_engine_record_fields,
            strategy=state.strategy_chain(),
            span_attributes={"loop_id": spec.loop_id, "loop_kind": kind})
        state.run.begin()

    def observe_iteration(self, loop_id: int, continuing: bool) -> None:
        state = self.loops.get(loop_id)
        if state is None or state.run is None:
            return
        spec = state.spec
        total_rows = self._registry_rows(spec.cte_result)
        if spec.until_empty is not None:
            # Fixpoint loop: the working table holds the new rows.
            working_rows = self._registry_rows(spec.until_empty)
            delta_rows = working_rows
        else:
            working_rows = total_rows
            if state.active:
                # Delta-mode loop: report the true changed-row frontier,
                # whatever the termination condition counts.
                delta_rows = state.last_frontier
            elif self.counts_updates(loop_id):
                delta_rows = state.last_delta
            else:
                # Full-refresh loop (e.g. PageRank): every row rewritten.
                delta_rows = total_rows
        state.run.telemetry.strategy = state.strategy_chain()
        state.run.finish_iteration(continuing, delta_rows=delta_rows,
                                   working_rows=working_rows,
                                   total_rows=total_rows)

    def close(self) -> None:
        """Close spans a raising step left open so the trace tree stays
        well formed."""
        for state in self.loops.values():
            if state.run is not None:
                state.run.close()

    def _registry_rows(self, name: Optional[str]) -> int:
        registry = self._ctx.registry
        if name is None or not registry.exists(name):
            return 0
        return registry.fetch(name).num_rows


def _engine_record_fields(diff: dict) -> dict:
    """IterationRecord fields from an ExecutionStats counter diff."""
    return {
        "kernel_cache_hits": (diff["join_index_hits"]
                              + diff["merge_index_hits"]),
        "kernel_cache_misses": (diff["join_index_misses"]
                                + diff["merge_index_rebuilds"]),
        "rows_moved": diff["rows_moved"],
        "bytes_moved": diff["bytes_moved"],
    }

"""The unified loop engine: one control shell for every loop.

:class:`LoopRun` is the generic per-loop instrument: wall-clock and
counter metering per iteration, span emission, and
:class:`~repro.obs.telemetry.LoopTelemetry` accumulation.  The SQL
interpreter (through :class:`LoopEngine`), the MPP driver
(:func:`repro.mpp.iterative.distributed_pagerank`), and the middleware /
stored-procedure baselines all report through it, so kernel-cache
counters, data-motion accounting and span tracing behave identically
whichever layer runs the loop.

:class:`LoopEngine` adds what step programs need on top: per-loop
:class:`~repro.runtime.conditions.LoopState`, termination evaluation,
the pluggable :class:`~repro.runtime.strategies.LoopStrategy` objects,
and the frontier-feedback channel that drives mid-loop strategy
demotion.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import ExecutionError
from ..obs.telemetry import IterationRecord, LoopTelemetry
from ..obs.trace import NULL_TRACER
from ..plan.program import DeltaSpec, LoopSpec, LoopStep, Program
from ..sql import ast
from .conditions import LoopState, should_continue
from .strategies import (
    DeltaLoopRuntime,
    LoopStrategy,
    SemiNaiveDelta,
    StrategySwitch,
    choose_strategy,
)


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


class LoopEngine:
    """Loop control for one program run.

    Owns every per-loop artifact of the run: termination states, strategy
    objects (with their delta runtimes), strategy switches, and — when the
    run is observed — one :class:`LoopRun` per loop for telemetry and
    spans.  Step handlers never touch loop state directly; they go
    through this engine, which is what makes the strategies pluggable.
    """

    def __init__(self, program: Program, ctx):
        self._program = program
        self._ctx = ctx
        self.states: dict[int, LoopState] = {}
        self.strategies: dict[int, LoopStrategy] = {}
        self.delta_runtimes: dict[int, DeltaLoopRuntime] = {}
        # Mid-loop demotions and promotions per loop, in the order taken.
        self.switches: dict[int, list[StrategySwitch]] = {}
        # (strategy name, selection reason) per loop, for the decision
        # timeline in EXPLAIN ANALYZE.
        self.selections: dict[int, tuple[str, str]] = {}
        self._runs: dict[int, LoopRun] = {}

    def begin_run(self) -> None:
        """Reset all loop state for exactly one program run."""
        self.states = {}
        self.strategies = {}
        self.delta_runtimes = {}
        self.switches = {}
        self.selections = {}
        self._runs = {}

    # -- loop control --------------------------------------------------------

    def init_loop(self, spec: LoopSpec) -> None:
        self.states[spec.loop_id] = LoopState(spec)
        runtime = None if spec.delta is None \
            else self.delta_runtime(spec.delta)
        strategy = choose_strategy(spec, runtime)
        self.strategies[spec.loop_id] = strategy
        self.selections[spec.loop_id] = (strategy.name, strategy.reason)
        tracer = self._ctx.tracer
        if tracer.enabled:
            tracer.event("strategy_selection", kind="decision",
                         loop_id=spec.loop_id, strategy=strategy.name,
                         reason=strategy.reason)

    def state(self, loop_id: int) -> LoopState:
        state = self.states.get(loop_id)
        if state is None:
            raise ExecutionError(
                "loop step executed before initialization")
        return state

    def evaluate(self, step: LoopStep) -> Optional[int]:
        """The loop operator's decision: the back-jump target or None."""
        if should_continue(self.state(step.loop_id), self._ctx):
            return step.jump_to
        return None

    def record_updates(self, loop_id: int, changed: int) -> None:
        self.state(loop_id).record_updates(changed)

    def counts_updates(self, loop_id: int) -> bool:
        """Whether the loop's termination reads the updated-row counter."""
        spec = self._program.loops.get(loop_id)
        return (spec is not None and spec.termination is not None
                and spec.termination.kind in (ast.TerminationKind.UPDATES,
                                              ast.TerminationKind.DELTA))

    # -- delta strategy plumbing ---------------------------------------------

    def delta_runtime(self, spec: DeltaSpec) -> DeltaLoopRuntime:
        """The loop's delta runtime (created on demand).

        The runtime outlives strategy demotion on purpose: a demoted
        loop's gate must keep seeing ``disabled`` and route to the full
        body."""
        runtime = self.delta_runtimes.get(spec.loop_id)
        if runtime is None:
            runtime = DeltaLoopRuntime(spec)
            self.delta_runtimes[spec.loop_id] = runtime
        return runtime

    def note_frontier(self, loop_id: int, frontier: int,
                      total: int) -> None:
        """Feed a measured frontier to the loop's strategy, adopting
        whatever strategy it hands back (the demotion channel)."""
        strategy = self.strategies.get(loop_id)
        if strategy is not None:
            self.strategies[loop_id] = strategy.note_frontier(
                frontier, total, self)

    def record_switch(self, kind: str, loop_id: int,
                      from_strategy: LoopStrategy,
                      to_strategy: LoopStrategy, frontier: int,
                      total: int, budget_frontier: int = 0,
                      reason: str = "") -> None:
        """Log one mid-loop ``"demotion"`` or ``"promotion"``: append it
        to the loop's switch list, count it, emit its decision event and
        extend the telemetry's strategy chain."""
        state = self.states.get(loop_id)
        record = StrategySwitch(
            kind=kind,
            iteration=(state.iterations + 1) if state is not None else 0,
            from_name=from_strategy.name, to_name=to_strategy.name,
            frontier=frontier, total=total)
        self.switches.setdefault(loop_id, []).append(record)
        if kind == "demotion":
            self._ctx.stats.strategy_demotions += 1
        else:
            self._ctx.stats.strategy_promotions += 1
        tracer = self._ctx.tracer
        if tracer.enabled:
            tracer.event(f"strategy_{kind}", kind="decision",
                         loop_id=loop_id,
                         from_strategy=record.from_name,
                         to_strategy=record.to_name,
                         iteration=record.iteration,
                         frontier=frontier, total=total,
                         budget_frontier=budget_frontier,
                         reason=reason)
        run = self._runs.get(loop_id)
        if run is not None:
            # One "->next" per switch, e.g.
            # "semi-naive-delta->rename-in-place->semi-naive-delta".
            prior = run.telemetry.strategy or record.from_name
            run.telemetry.strategy = f"{prior}->{record.to_name}"

    # -- observation (telemetry + spans) -------------------------------------

    @property
    def telemetry(self) -> dict[int, LoopTelemetry]:
        """Per-loop telemetry of the current observed run."""
        return {loop_id: run.telemetry
                for loop_id, run in self._runs.items()}

    def observe_loop(self, spec: LoopSpec, tracer) -> None:
        kind = "fixpoint" if spec.until_empty is not None else "iterative"
        strategy = self.strategies.get(spec.loop_id)
        run = LoopRun(
            spec.loop_id, spec.cte_name, kind, tracer=tracer,
            snapshot=self._ctx.stats.snapshot,
            derive=_engine_record_fields,
            strategy=strategy.name if strategy is not None else None,
            span_attributes={"loop_id": spec.loop_id, "loop_kind": kind})
        self._runs[spec.loop_id] = run
        run.begin()

    def observe_iteration(self, loop_id: int, continuing: bool) -> None:
        run = self._runs.get(loop_id)
        if run is None:
            return
        spec = self._program.loops[loop_id]
        state = self.states.get(loop_id)
        total_rows = self._registry_rows(spec.cte_result)
        if spec.until_empty is not None:
            # Fixpoint loop: the working table holds the new rows.
            working_rows = self._registry_rows(spec.until_empty)
            delta_rows = working_rows
        else:
            working_rows = total_rows
            runtime = self.delta_runtimes.get(loop_id)
            if runtime is not None and runtime.active \
                    and not runtime.disabled:
                # Delta-mode loop: report the true changed-row frontier,
                # whatever the termination condition counts.
                delta_rows = runtime.last_frontier
            elif self.counts_updates(loop_id) and state is not None:
                delta_rows = state.last_delta
            else:
                # Full-refresh loop (e.g. PageRank): every row rewritten.
                delta_rows = total_rows
        run.finish_iteration(continuing, delta_rows=delta_rows,
                             working_rows=working_rows,
                             total_rows=total_rows)

    def close(self) -> None:
        """Close spans a raising step left open so the trace tree stays
        well formed."""
        for run in self._runs.values():
            run.close()

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

"""The step interpreter: a program counter over registered handlers.

This is the engine-side half of the paper's execution-engine changes
(§VI): materialize steps run ordinary plans; the *rename* step updates the
intermediate-result lookup table; the *loop* step evaluates the
termination condition and conditionally jumps backwards.  What each step
*does* lives in :mod:`repro.runtime.handlers`; how loops behave lives in
the :class:`~repro.runtime.loop_engine.LoopEngine`.  The interpreter only
advances the program counter, meters the safety budget, and profiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..errors import IterationLimitError
from ..execution import ExecutionContext
from ..obs.profile import decision_events, render_decision_timeline
from ..obs.telemetry import LoopTelemetry, render_iteration_table
from ..plan.program import InitLoopStep, LoopStep, Program, Step
from ..storage import Table
from . import handlers  # noqa: F401  (registers all step handlers)
from .loop_engine import LoopEngine
from .registry import dispatch
from .strategies import strategy_name


@dataclass
class StepProfile:
    """Accumulated runtime of one program step (EXPLAIN ANALYZE)."""

    executions: int = 0
    rows: int = 0
    seconds: float = 0.0


class ProgramRunner:
    """Executes one program against an execution context.

    Instrumentation (per-step profiles, the stats snapshot backing the
    cache report, and per-iteration loop telemetry) is reset explicitly
    at the start of every :meth:`run` call, so a runner reused for
    back-to-back runs — or an EXPLAIN ANALYZE issued after
    ``ExecutionStats.reset()`` — reports exactly one run, never a
    double-counted accumulation.
    """

    def __init__(self, program: Program, ctx: ExecutionContext,
                 instrument: bool = False):
        self._program = program
        self.ctx = ctx
        self.engine = LoopEngine(ctx)
        self._instrument = instrument
        self._result: Optional[Table] = None
        # Profiles are keyed by step identity (id of the Step object),
        # not list position: strategies may reorder or re-enter steps,
        # and identity keys keep each step's numbers attached to *it*.
        self.profiles: dict[int, StepProfile] = {}
        self._stats_at_start: Optional[dict[str, int]] = None

    def set_result(self, table: Optional[Table]) -> None:
        self._result = table

    @property
    def loop_telemetry(self) -> dict[int, LoopTelemetry]:
        """Per-loop telemetry of the last observed run."""
        return self.engine.telemetry

    def _begin_run(self, observe: bool) -> None:
        """Reset all instrumentation state for exactly one run."""
        self.profiles = {}
        self._result = None
        self.engine.begin_run()
        self._stats_at_start = (self.ctx.stats.snapshot() if observe
                                else None)

    def run(self) -> Optional[Table]:
        ctx = self.ctx
        tracer = ctx.tracer
        observe = self._instrument or tracer.enabled
        self._begin_run(observe)
        pc = 0
        safety_budget = ctx.options.max_iterations
        steps = self._program.steps
        try:
            while pc < len(steps):
                if observe:
                    jump = self._run_observed_step(pc, steps[pc], tracer)
                else:
                    jump = dispatch(self, steps[pc])
                if jump is not None:
                    if jump <= pc:
                        # Only backward jumps (new iterations) consume the
                        # budget; the delta gate's forward jumps within one
                        # iteration do not.
                        safety_budget -= 1
                        if safety_budget <= 0:
                            raise IterationLimitError(
                                "iterative query exceeded max_iterations "
                                f"({ctx.options.max_iterations}); raise "
                                "the session option if this is "
                                "intentional")
                    pc = jump
                else:
                    pc += 1
        finally:
            # Close spans a raising step left open so the trace tree
            # stays well formed.
            self.engine.close()
        return self._result

    def _run_observed_step(self, pc: int, step: Step,
                           tracer) -> Optional[int]:
        """One step with profiling, span emission, and loop telemetry."""
        started = time.perf_counter()
        before = self.ctx.stats.rows_materialized
        span = None
        if tracer.enabled:
            span = tracer.start(type(step).__name__, kind="step",
                                index=pc + 1, detail=step.describe())
        try:
            jump = dispatch(self, step)
        finally:
            if span is not None:
                tracer.end(span)
        profile = self.profiles.setdefault(id(step), StepProfile())
        profile.executions += 1
        profile.seconds += time.perf_counter() - started
        profile.rows += self.ctx.stats.rows_materialized - before
        if isinstance(step, InitLoopStep):
            self.engine.observe_loop(step.spec, tracer)
        elif isinstance(step, LoopStep):
            self.engine.observe_iteration(step.loop_id, jump is not None)
        return jump

    # -- reporting -----------------------------------------------------------

    def report(self) -> str:
        """Render the program with measured per-step counters, the
        kernel-cache counter deltas, per-loop strategy outcomes, and a
        per-iteration breakdown for every loop the run executed."""
        lines = []
        for index, step in enumerate(self._program.steps):
            profile = self.profiles.get(id(step), StepProfile())
            timing = (f"(executions={profile.executions}, "
                      f"rows={profile.rows}, "
                      f"time={profile.seconds * 1000:.2f}ms)")
            lines.append(f"{index + 1:>3}  {step.describe()}  {timing}")
            if isinstance(step, LoopStep):
                spec = self._program.loops[step.loop_id]
                lines.append(f"     loop {spec.annotation()}")
        lines.extend(self._cache_report())
        lines.extend(self._strategy_report())
        if self.ctx.tracer.enabled:
            lines.extend(render_decision_timeline(
                decision_events(self.ctx.tracer.root.to_dict())))
        loop_telemetry = self.loop_telemetry
        for loop_id in sorted(loop_telemetry):
            lines.extend(render_iteration_table(loop_telemetry[loop_id]))
        return "\n".join(lines)

    def _cache_report(self) -> list[str]:
        """Kernel-cache counter deltas for this run (EXPLAIN ANALYZE)."""
        if self._stats_at_start is None:
            return []
        delta = self.ctx.stats.delta_since(self._stats_at_start)
        state = ("on" if self.ctx.options.enable_kernel_cache else "off")
        return [
            f"kernel cache ({state}): "
            f"invalidations={delta['kernel_cache_invalidations']}",
            f"join index: hits={delta['join_index_hits']}, "
            f"misses={delta['join_index_misses']}, "
            f"overflows={delta['join_index_overflows']}, "
            f"pair reuses={delta['join_pair_reuses']}, "
            f"gather reuses={delta['gather_reuses']}, "
            f"grouping reuses={delta['grouping_reuses']}",
            f"merge index: hits={delta['merge_index_hits']}, "
            f"rebuilds={delta['merge_index_rebuilds']}, "
            f"overflows={delta['merge_index_overflows']}, "
            f"repacks={delta['merge_index_repacks']}",
        ]

    def _strategy_report(self) -> list[str]:
        """The strategy that finished owning each loop, with its
        mid-loop demotion if it took one."""
        lines = []
        for loop_id in sorted(self.engine.loops):
            state = self.engine.loops[loop_id]
            line = (f"loop {state.spec.cte_name}: strategy "
                    f"{strategy_name(state.spec, state.mode)}")
            if state.demotion is not None:
                line += f" ({state.demotion.describe()})"
            lines.append(line)
        return lines

    def loop_iteration_counts(self) -> dict[str, int]:
        """Measured iteration count per CTE name from the last run
        (loops that ran no iteration are left out)."""
        counts: dict[str, int] = {}
        for state in self.engine.loops.values():
            if state.iterations:
                counts[state.spec.cte_name] = state.iterations
        return counts

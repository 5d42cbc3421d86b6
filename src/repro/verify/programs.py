"""Step-program verifier: control-flow, dataflow and strategy invariants.

A compiled :class:`repro.plan.program.Program` is a small CFG: most steps
fall through, ``LoopStep`` may jump backward, and ``DeltaFusedStep``
carries two forward jumps (the full body, or past it to the increment).
This module checks the invariants every emitter and rewrite must
preserve:

* **control flow** — jump targets in range (no unpatched ``-1``), loops
  well-nested, one ``InitLoopStep``/``LoopStep`` pair per loop (plus an
  ``IncrementLoopStep`` for counted loops), the ``ReturnStep`` present
  and reachable, every step reachable;
* **dataflow** — no step reads a registry name before a
  ``MaterializeStep``/``CopyStep``/``SnapshotStep`` defines it on *every*
  path (must-defined analysis over the CFG; ``RenameStep``/``CopyStep``
  kill their source), every ``SnapshotStep`` is consumed downstream, and
  ``DropStep`` never kills a live name (backward liveness);
* **strategy legality** — semi-naive delta programs carry a single
  ``DeltaFusedStep`` paired with the capture step, its jumps entering
  the full body before the capture and skipping past it, and its plan
  equal to the full body's with only the anchor scan rebound to the
  partition; rename-in-place
  only moves a table straight onto the CTE name when the body has no WHERE
  clause (WHERE bodies must move the *merge* result, built from the
  duplicate-checked working table);
* **schema flow** — every embedded logical plan passes the plan verifier
  (:mod:`repro.verify.plans`), materialization column lists match plan
  arity, and a temp scan reads as many columns as its result is stored
  with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import VerificationError
from ..plan.logical import LogicalOp, LogicalTempScan, rebind_temp_scans
from ..plan.program import (
    CopyStep,
    CountUpdatesStep,
    DeltaCaptureStep,
    DeltaFusedStep,
    DropStep,
    DuplicateCheckStep,
    IncrementLoopStep,
    InitLoopStep,
    LoopStep,
    MaterializeStep,
    Program,
    RecursiveMergeStep,
    RenameStep,
    ReturnStep,
    SnapshotStep,
    Step,
)
from ..sql import ast
from .plans import PlanChecker


@dataclass
class VerificationReport:
    """Outcome of one successful verification pass."""

    pass_name: str
    steps: int
    checks: int

    def verdict(self) -> str:
        return f"ok ({self.checks} checks over {self.steps} steps)"


@dataclass
class _Flow:
    """Registry-name effects of one step, for the dataflow analyses."""

    reads: frozenset[str]
    defines: frozenset[str]
    kills: frozenset[str]


_EMPTY = frozenset()


def _plan_temp_reads(plan: LogicalOp) -> frozenset[str]:
    return frozenset(op.result_name.lower() for op in plan.walk()
                     if isinstance(op, LogicalTempScan))


def _step_flow(step: Step) -> _Flow:
    if isinstance(step, MaterializeStep):
        return _Flow(_plan_temp_reads(step.plan),
                     frozenset({step.result_name.lower()}), _EMPTY)
    if isinstance(step, (RenameStep, CopyStep)):
        # The copy handler releases its source after the physical move,
        # so both movement steps kill the source name.
        source = frozenset({step.source.lower()})
        return _Flow(source, frozenset({step.target.lower()}), source)
    if isinstance(step, SnapshotStep):
        return _Flow(frozenset({step.source.lower()}),
                     frozenset({step.target.lower()}), _EMPTY)
    if isinstance(step, DuplicateCheckStep):
        return _Flow(frozenset({step.result_name.lower()}), _EMPTY, _EMPTY)
    if isinstance(step, CountUpdatesStep):
        return _Flow(frozenset({step.previous.lower(),
                                step.current.lower()}), _EMPTY, _EMPTY)
    if isinstance(step, RecursiveMergeStep):
        return _Flow(frozenset({step.result.lower(),
                                step.candidate.lower()}),
                     frozenset({step.result.lower(),
                                step.working.lower()}), _EMPTY)
    if isinstance(step, DeltaFusedStep):
        # One batched pass: reads the CTE table (and whatever temp
        # results the delta body scans), defines the partition, the
        # recomputed delta-working rows, and the merged CTE table.  The
        # delta body's anchor scan reads the partition this same step
        # defines internally, so it is excluded from the reads.
        defines = frozenset({step.spec.cte_result.lower(),
                             step.spec.partition.lower(),
                             step.spec.delta_working.lower()})
        reads = (frozenset({step.spec.cte_result.lower()})
                 | _plan_temp_reads(step.plan)) \
            - frozenset({step.spec.partition.lower(),
                         step.spec.delta_working.lower()})
        return _Flow(reads, defines, _EMPTY)
    if isinstance(step, DeltaCaptureStep):
        return _Flow(frozenset({step.spec.cte_result.lower(),
                                step.previous.lower()}), _EMPTY, _EMPTY)
    if isinstance(step, ReturnStep):
        return _Flow(_plan_temp_reads(step.plan), _EMPTY, _EMPTY)
    if isinstance(step, DropStep):
        return _Flow(_EMPTY, _EMPTY,
                     frozenset(name.lower() for name in step.names))
    if isinstance(step, LoopStep):
        return _Flow(_EMPTY, _EMPTY, _EMPTY)  # spec reads added below
    return _Flow(_EMPTY, _EMPTY, _EMPTY)


class ProgramChecker:
    """Accumulates violations over one step program."""

    def __init__(self, program: Program, catalog=None,
                 checked: Mapping[int, int] | None = None):
        self.program = program
        self.steps = program.steps
        self.catalog = catalog
        # Index of a step whose plan a pass already verified -> the
        # invariants that took.
        self.checked = checked or {}
        self.violations: list[str] = []
        self.checks = 0

    def _note(self, index: int, message: str) -> None:
        step = self.steps[index]
        self.violations.append(
            f"step {index + 1} ({type(step).__name__}): {message}")

    # -- CFG ---------------------------------------------------------------

    def _successors(self, index: int) -> list[int]:
        step = self.steps[index]
        n = len(self.steps)
        if isinstance(step, LoopStep):
            succ = [step.jump_to, index + 1]
        elif isinstance(step, DeltaFusedStep):
            # Never falls through: full body, or past it.
            succ = [step.jump_to, step.jump_full]
        else:
            succ = [index + 1]
        return [s for s in succ if 0 <= s < n]

    def _jump_targets(self, step: Step) -> list[tuple[str, int]]:
        if isinstance(step, LoopStep):
            return [("jump_to", step.jump_to)]
        if isinstance(step, DeltaFusedStep):
            return [("jump_to", step.jump_to),
                    ("jump_full", step.jump_full)]
        return []

    # -- structural checks -------------------------------------------------

    def check_structure(self) -> None:
        n = len(self.steps)
        self.checks += 1
        if n == 0:
            self.violations.append("program has no steps")
            return
        for i, step in enumerate(self.steps):
            for name, target in self._jump_targets(step):
                self.checks += 1
                if target < 0:
                    self._note(i, f"{name} was never patched "
                                  f"(still {target})")
                elif target >= n:
                    self._note(i, f"{name} targets step {target + 1}, "
                                  f"past the end of the program ({n})")
            if isinstance(step, (MaterializeStep, DeltaFusedStep)):
                self.checks += 1
                if len(step.column_names) != len(step.plan.fields):
                    self._note(i, f"stores {len(step.column_names)} "
                                  f"column names for a plan producing "
                                  f"{len(step.plan.fields)} columns")
        self._check_returns()
        self._check_loops()

    def _check_returns(self) -> None:
        returns = [i for i, s in enumerate(self.steps)
                   if isinstance(s, ReturnStep)]
        self.checks += 1
        if len(returns) != 1:
            self.violations.append(
                f"program has {len(returns)} ReturnSteps, expected 1")

    def _check_loops(self) -> None:
        inits: dict[int, int] = {}
        increments: dict[int, int] = {}
        loop_steps: dict[int, int] = {}
        for i, step in enumerate(self.steps):
            if isinstance(step, InitLoopStep):
                if step.spec.loop_id in inits:
                    self._note(i, f"duplicate InitLoopStep for loop "
                                  f"{step.spec.loop_id}")
                inits[step.spec.loop_id] = i
            elif isinstance(step, IncrementLoopStep):
                increments[step.loop_id] = i
            elif isinstance(step, LoopStep):
                if step.loop_id in loop_steps:
                    self._note(i, f"duplicate LoopStep for loop "
                                  f"{step.loop_id}")
                loop_steps[step.loop_id] = i
            spec = getattr(step, "spec", None)
            loop_id = getattr(spec, "loop_id", None)
            if loop_id is None:
                loop_id = getattr(step, "loop_id", None)
            if loop_id is not None:
                self.checks += 1
                if loop_id not in self.program.loops:
                    self._note(i, f"references unknown loop {loop_id}")
        for loop_id, i in loop_steps.items():
            self.checks += 1
            if loop_id not in self.program.loops:
                self._note(i, f"loop {loop_id} has no LoopSpec")
                continue
            spec = self.program.loops[loop_id]
            step = self.steps[i]
            if not (0 <= step.jump_to < i):
                self._note(i, f"loop {loop_id} jump_to {step.jump_to + 1} "
                              "is not a backward jump")
                continue
            self.checks += 1
            init = inits.get(loop_id)
            if init is None or init >= step.jump_to:
                self._note(i, f"loop {loop_id} body starts at step "
                              f"{step.jump_to + 1} without a preceding "
                              "InitLoopStep")
            self.checks += 1
            if spec.termination is not None:
                inc = increments.get(loop_id)
                if inc is None or not (step.jump_to <= inc < i):
                    self._note(i, f"counted loop {loop_id} has no "
                                  "IncrementLoopStep inside its body")
        for loop_id in self.program.loops:
            self.checks += 1
            if loop_id not in loop_steps:
                self.violations.append(
                    f"LoopSpec {loop_id} has no LoopStep in the program")
            if loop_id not in inits:
                self.violations.append(
                    f"LoopSpec {loop_id} has no InitLoopStep")
        self._check_nesting(loop_steps)

    def _check_nesting(self, loop_steps: dict[int, int]) -> None:
        ranges = []
        for loop_id, i in loop_steps.items():
            step = self.steps[i]
            if 0 <= step.jump_to < i:
                ranges.append((step.jump_to, i, loop_id))
        for a_start, a_end, a_id in ranges:
            for b_start, b_end, b_id in ranges:
                if a_id >= b_id:
                    continue
                self.checks += 1
                disjoint = a_end < b_start or b_end < a_start
                nested = (a_start <= b_start and b_end <= a_end) or \
                         (b_start <= a_start and a_end <= b_end)
                if not (disjoint or nested):
                    self.violations.append(
                        f"loops {a_id} and {b_id} overlap without "
                        f"nesting: [{a_start + 1}, {a_end + 1}] vs "
                        f"[{b_start + 1}, {b_end + 1}]")

    # -- reachability ------------------------------------------------------

    def check_reachability(self) -> set[int]:
        seen: set[int] = set()
        stack = [0]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(self._successors(i))
        for i, step in enumerate(self.steps):
            self.checks += 1
            if i not in seen:
                self._note(i, "unreachable from the program entry")
        returns = [i for i, s in enumerate(self.steps)
                   if isinstance(s, ReturnStep)]
        for i in returns:
            self.checks += 1
            if i not in seen:
                self._note(i, "ReturnStep is unreachable")
        return seen

    # -- dataflow ----------------------------------------------------------

    def _flows(self) -> list[_Flow]:
        flows = []
        for step in self.steps:
            flow = _step_flow(step)
            if isinstance(step, LoopStep):
                spec = self.program.loops.get(step.loop_id)
                reads = set()
                if spec is not None:
                    # The continue decision reads the working table
                    # (fixpoint) or the CTE table (data conditions).
                    if spec.until_empty is not None:
                        reads.add(spec.until_empty.lower())
                    elif spec.termination is not None and \
                            spec.termination.kind in (
                                ast.TerminationKind.DATA_ANY,
                                ast.TerminationKind.DATA_ALL):
                        reads.add(spec.cte_result.lower())
                flow = _Flow(frozenset(reads), flow.defines, flow.kills)
            flows.append(flow)
        return flows

    def check_dataflow(self) -> None:
        n = len(self.steps)
        flows = self._flows()
        universe = frozenset().union(
            *(f.reads | f.defines | f.kills for f in flows)) \
            if flows else frozenset()
        preds: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for s in self._successors(i):
                preds[s].append(i)

        # Must-defined: IN[s] = ∩ OUT[pred]; OUT[s] = (IN − kills) ∪ defs.
        defined_in = [universe] * n
        defined_in[0] = frozenset()

        def out_of(i: int) -> frozenset[str]:
            return (defined_in[i] - flows[i].kills) | flows[i].defines

        changed = True
        while changed:
            changed = False
            for i in range(n):
                if i == 0:
                    continue
                if preds[i]:
                    new = frozenset.intersection(
                        *(out_of(p) for p in preds[i]))
                else:
                    new = universe  # unreachable; reachability flags it
                if new != defined_in[i]:
                    defined_in[i] = new
                    changed = True

        for i in range(n):
            for name in sorted(flows[i].reads):
                self.checks += 1
                if name not in defined_in[i]:
                    self._note(i, f"reads {name!r} before any "
                                  "materialize/copy/snapshot defines it "
                                  "on every path")

        # Backward liveness: LIVE_OUT[s] = ∪ LIVE_IN[succ];
        # LIVE_IN[s] = reads ∪ (LIVE_OUT − defines).
        live_in = [frozenset()] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                live_out = frozenset().union(
                    *(live_in[s] for s in self._successors(i))) \
                    if self._successors(i) else frozenset()
                new = flows[i].reads | (live_out - flows[i].defines)
                if new != live_in[i]:
                    live_in[i] = new
                    changed = True

        def live_out_of(i: int) -> frozenset[str]:
            succ = self._successors(i)
            return frozenset().union(*(live_in[s] for s in succ)) \
                if succ else frozenset()

        for i, step in enumerate(self.steps):
            if isinstance(step, DropStep):
                self.checks += 1
                live = sorted(flows[i].kills & live_out_of(i))
                if live:
                    self._note(i, f"drops live result(s): "
                                  f"{', '.join(live)}")
            elif isinstance(step, SnapshotStep):
                self.checks += 1
                if step.target.lower() not in live_out_of(i):
                    self._note(i, f"snapshot {step.target!r} is never "
                                  "consumed by a CountUpdatesStep, "
                                  "DeltaCaptureStep (which counts a "
                                  "delta loop's updates) or plan")

    # -- strategy legality -------------------------------------------------

    def check_strategies(self) -> None:
        for loop_id, spec in self.program.loops.items():
            loop_idx = next(
                (i for i, s in enumerate(self.steps)
                 if isinstance(s, LoopStep) and s.loop_id == loop_id),
                None)
            if loop_idx is None:
                continue
            start = self.steps[loop_idx].jump_to
            if not (0 <= start < loop_idx):
                continue
            body = range(start, loop_idx)
            if spec.until_empty is not None:
                self._check_fixpoint_body(spec, body)
            elif spec.termination is not None:
                self._check_iterative_body(spec, body, loop_idx)
            if spec.delta is not None:
                self._check_delta_fused(spec.delta, body, loop_idx)

    def _check_fixpoint_body(self, spec, body: range) -> None:
        self.checks += 1
        merges = [self.steps[i] for i in body
                  if isinstance(self.steps[i], RecursiveMergeStep)]
        if not any(m.result.lower() == spec.cte_result.lower()
                   and m.working.lower() == spec.until_empty.lower()
                   for m in merges):
            self.violations.append(
                f"fixpoint loop {spec.loop_id} body lacks a "
                f"RecursiveMergeStep feeding {spec.until_empty!r}")

    def _check_iterative_body(self, spec, body: range,
                              loop_idx: int) -> None:
        target = spec.cte_result.lower()
        movements = [(i, self.steps[i]) for i in body
                     if isinstance(self.steps[i], (RenameStep, CopyStep))
                     and self.steps[i].target.lower() == target]
        self.checks += 1
        if len(movements) != 1:
            self.violations.append(
                f"loop {spec.loop_id} body moves {target!r} "
                f"{len(movements)} times, expected exactly once")
            return
        index, movement = movements[0]
        self.checks += 1
        wanted = RenameStep if spec.movement == "rename" else CopyStep
        if not isinstance(movement, wanted):
            self._note(index, f"loop {spec.loop_id} declares movement "
                              f"{spec.movement!r} but the body uses "
                              f"{type(movement).__name__}")
        if spec.has_where:
            self._check_merge_before_move(spec, body, index, movement)

    def _check_merge_before_move(self, spec, body: range, move_idx: int,
                                 movement) -> None:
        """A WHERE body updates a subset of rows: the moved table must be
        the *merge* of the duplicate-checked working table into the main
        table, never the working table itself (rename-in-place is only
        legal for full-dataset updates — §VI-A)."""
        checked = {self.steps[i].result_name.lower() for i in body
                   if isinstance(self.steps[i], DuplicateCheckStep)}
        self.checks += 1
        if not checked:
            self._note(move_idx, f"loop {spec.loop_id} has a WHERE body "
                                 "but no DuplicateCheckStep on the "
                                 "working table")
            return
        source = movement.source.lower()
        producer = next(
            (self.steps[i] for i in body
             if isinstance(self.steps[i], MaterializeStep)
             and self.steps[i].result_name.lower() == source),
            None)
        self.checks += 1
        if producer is None:
            self._note(move_idx, f"moves {source!r} onto the CTE table "
                                 "but nothing in the body materializes it")
            return
        self.checks += 1
        if not (_plan_temp_reads(producer.plan) & checked):
            self._note(move_idx, f"WHERE body moves {source!r} onto "
                                 f"{spec.cte_result!r} without merging "
                                 "the duplicate-checked working table "
                                 "(rename-in-place needs a no-WHERE body)")

    def _check_delta_fused(self, delta, body: range,
                           loop_idx: int) -> None:
        """Exactly one DeltaFusedStep paired with the capture step, its
        two jumps entering the full body and skipping past it."""
        fused = [i for i in body
                 if isinstance(self.steps[i], DeltaFusedStep)
                 and self.steps[i].spec.loop_id == delta.loop_id]
        self.checks += 1
        if len(fused) != 1:
            for i in fused[1:]:
                self._note(i, f"duplicate DeltaFusedStep for loop "
                              f"{delta.loop_id}")
            if not fused:
                self.violations.append(
                    f"delta loop {delta.loop_id} has no DeltaFusedStep")
            return
        fused_i = fused[0]
        step = self.steps[fused_i]
        captures = [i for i in body
                    if isinstance(self.steps[i], DeltaCaptureStep)
                    and self.steps[i].spec.loop_id == delta.loop_id]
        self.checks += 1
        if len(captures) != 1:
            self.violations.append(
                f"fused delta loop {delta.loop_id} has {len(captures)} "
                "DeltaCaptureSteps, expected exactly 1")
            return
        capture_i = captures[0]
        self.checks += 1
        if not fused_i < capture_i:
            self._note(fused_i, "fused delta pass must precede the "
                                "capture step")
            return
        self.checks += 1
        names = [c.lower() for c in step.column_names]
        if names != [c.lower() for c in delta.columns]:
            self._note(fused_i, "fused delta columns diverge from the "
                                "DeltaSpec's column list")
        self.checks += 1
        if step.dup_check != delta.merge_by_key:
            self._note(fused_i, "fused delta pass must duplicate-check "
                                "the recomputed partition exactly for "
                                "merge-by-key bodies")
        self.checks += 1
        if not (fused_i < step.jump_full <= capture_i):
            self._note(fused_i, f"jump_full ({step.jump_full + 1}) must "
                                "enter the full body before the capture "
                                "step")
        self.checks += 1
        if not (capture_i < step.jump_to <= loop_idx):
            self._note(fused_i, f"jump_to ({step.jump_to + 1}) must skip "
                                "past the capture step")
        # The delta body is the full body's working-table plan with
        # exactly its anchor scan rebound to the partition: it shares the
        # §V-A common results and the join order, which keeps the two
        # bodies bit-identical.
        working = next(
            (self.steps[i].plan for i in body
             if isinstance(self.steps[i], MaterializeStep)
             and self.steps[i].result_name.lower()
             == delta.working.lower()),
            None)
        restored, rebound = rebind_temp_scans(step.plan, delta.partition,
                                              delta.cte_result)
        self.checks += 1
        if rebound != 1:
            self._note(fused_i, f"delta body reads the partition "
                                f"{rebound} times, expected exactly once "
                                "(the anchor)")
        elif restored != working:
            self._note(fused_i, "delta body is not the full body with "
                                "only its anchor scan rebound")

    # -- embedded plans ----------------------------------------------------

    def check_embedded_plans(self) -> None:
        widths: dict[str, set[int]] = {}
        for step in self.steps:
            if isinstance(step, MaterializeStep):
                widths.setdefault(step.result_name.lower(), set()).add(
                    len(step.column_names))
        for i, step in enumerate(self.steps):
            if isinstance(step, (MaterializeStep, ReturnStep,
                                 DeltaFusedStep)):
                if i in self.checked:
                    self.checks += self.checked[i]
                else:
                    checker = PlanChecker(self.catalog)
                    for violation in checker.check(step.plan):
                        self._note(i, violation)
                    self.checks += checker.checks
                self._check_scan_widths(i, step.plan, widths)

    def _check_scan_widths(self, index: int, plan: LogicalOp,
                           widths: dict[str, set[int]]) -> None:
        """A temp scan reads as many columns as every step that
        materializes its result stores (a narrowed §V-A block and its
        scans shrink together)."""
        for op in plan.walk():
            if not isinstance(op, LogicalTempScan):
                continue
            stored = widths.get(op.result_name.lower(), ())
            self.checks += 1
            if any(width != len(op.fields) for width in stored):
                self._note(index, f"{op.label()} reads {len(op.fields)} "
                                  f"columns of a result stored with "
                                  f"{', '.join(map(str, sorted(stored)))}")

    # -- entry point -------------------------------------------------------

    def check(self) -> list[str]:
        self.check_structure()
        if self.violations:
            # Structural breakage (dangling jumps, missing loops) makes
            # the CFG analyses meaningless; report what we have.
            return self.violations
        self.check_reachability()
        self.check_dataflow()
        self.check_strategies()
        self.check_embedded_plans()
        return self.violations


def check_program(program: Program, catalog=None) -> list[str]:
    """All violations in ``program`` (empty when well-formed)."""
    return ProgramChecker(program, catalog).check()


def verify_program(program: Program, pass_name: str, catalog=None,
                   checked: Mapping[int, int] | None = None
                   ) -> VerificationReport:
    """Raise :class:`VerificationError` if ``program`` is malformed.

    ``checked`` maps the index of a step whose plan a pass already
    verified to the invariants that took; that plan is not checked
    again.
    """
    checker = ProgramChecker(program, catalog, checked)
    violations = checker.check()
    if violations:
        raise VerificationError(pass_name, violations)
    return VerificationReport(pass_name, len(program.steps),
                              checker.checks)

"""Step programs: the execution-plan form of iterative queries.

The paper's planner rewrites an iterative CTE into a *single plan* that is
a sequence of steps with a conditional backward jump (Table I).  This
module defines that representation: a list of :class:`Step` objects run by
a program counter, where the ``loop`` step may jump backwards and every
other step advances by one.

Steps hold logical plans (materializations) or registry manipulations
(rename / snapshot / drop).  The executor for programs lives in
:mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sql import ast
from .logical import LogicalOp, plan_to_text


class Step:
    """One step of a plan program."""

    def describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


@dataclass
class MaterializeStep(Step):
    """Execute a plan and store its result in the registry.

    This is the workhorse: the non-iterative part, the iterative part, the
    merge of Algorithm 1 line 8, and common-result blocks are all
    materializations.
    """

    result_name: str
    plan: LogicalOp
    column_names: list[str]
    comment: str = ""
    # What one run of the step counts in ExecutionStats: "common" (a
    # §V-A block) or "pushdown" (an R0 carrying a pushed predicate).
    # Counted when the step runs, so a cached program counts too.
    counts: str = ""

    def describe(self) -> str:
        suffix = f" — {self.comment}" if self.comment else ""
        return f"Materialize {self.result_name}{suffix}"


@dataclass
class RenameStep(Step):
    """The paper's new *rename* operator (§VI-A): O(1) registry relabel."""

    source: str
    target: str

    def describe(self) -> str:
        return f"Rename {self.source} to {self.target}"


@dataclass
class CopyStep(Step):
    """Baseline data movement: physically copy a result to another name.

    Used (instead of rename) when the rename optimization is disabled, to
    model the data movement the paper's Fig. 8 baseline performs.
    """

    source: str
    target: str

    def describe(self) -> str:
        return f"Copy {self.source} into {self.target}"


@dataclass
class SnapshotStep(Step):
    """Retain a reference copy of a result under another name.

    Columns are immutable, so this is O(1); it gives the DELTA/UPDATES
    termination conditions the previous iteration to compare against.
    """

    source: str
    target: str

    def describe(self) -> str:
        return f"Snapshot {self.source} as {self.target}"


@dataclass
class DuplicateCheckStep(Step):
    """Raise DuplicateKeyError if a result has duplicate key values (§II)."""

    result_name: str
    key_column: str

    def describe(self) -> str:
        return (f"Check {self.result_name} has unique "
                f"{self.key_column} values")


@dataclass
class TripDiffStep(Step):
    """Diff a loop's CTE table against ``previous`` by key after a full
    trip of its body.

    The one per-trip diff, keyed by ``loop_id``: it reads the loop's
    :class:`LoopSpec`, captures delta state while the loop awaits it, and
    feeds the UPDATES/DELTA counter when the termination counts updates.
    """

    loop_id: int
    previous: str

    def describe(self) -> str:
        return f"Diff the CTE table against {self.previous} by key."


@dataclass
class LoopSpec:
    """Static description of one loop: the paper's loop-operator payload.

    Captures the three pieces of §IV: the termination type, N, and the SQL
    expression for data/delta conditions.  Recursive CTEs reuse the same
    loop operator with fixed-point semantics: ``until_empty`` names the
    working table whose emptiness stops the loop.
    """

    loop_id: int
    termination: Optional[ast.Termination]
    cte_result: str
    cte_name: str
    # Declared CTE columns, for binding data-condition expressions.
    columns: list[str]
    # Fixed-point loops (recursive CTEs): continue while this result has
    # rows; ``termination`` is None in that case.
    until_empty: Optional[str] = None
    # How the full body moves the working table back onto the CTE name:
    # "rename" (O(1) relabel) or "copy" (physical move, the Fig. 8
    # baseline).  Drives run-time strategy selection.
    movement: str = "rename"
    # The loop's semi-naive delta rewrite, when the safety analyzer
    # proved one; None keeps the loop on its full-body strategy.
    delta: Optional[DeltaSpec] = None
    # Whether the iterative part carries a WHERE clause.  A WHERE body
    # updates a subset of rows, so the working table must be merged into
    # the main table before any rename/copy — the verifier uses this to
    # reject rename-in-place programs that bypass the merge.
    has_where: bool = False

    @property
    def counts_updates(self) -> bool:
        """Whether the termination reads the updated-row counter."""
        return self.termination is not None and self.termination.kind in (
            ast.TerminationKind.UPDATES, ast.TerminationKind.DELTA)

    def annotation(self) -> str:
        if self.termination is None:
            return f"<<Type:fixpoint, Until:{self.until_empty} empty>>"
        return self.termination.describe()


@dataclass
class InitLoopStep(Step):
    """Initialize the loop counter (Table I step 2)."""

    spec: LoopSpec

    def describe(self) -> str:
        return f"Initialize counter to zero."


@dataclass
class IncrementLoopStep(Step):
    """Increment the loop counter (Table I step 5)."""

    loop_id: int

    def describe(self) -> str:
        return "Increment counter by 1."


@dataclass
class LoopStep(Step):
    """The paper's new *loop* operator (§VI-B): conditional backward jump.

    Holds two execution pointers — the next iteration (``jump_to``) and
    fall-through — and a single ``continue`` decision computed from the
    loop spec.
    """

    loop_id: int
    jump_to: int

    def describe(self) -> str:
        return f"Go to step {self.jump_to + 1} if loop continues."


@dataclass
class RecursiveMergeStep(Step):
    """Fixed-point bookkeeping for recursive CTEs.

    Appends ``candidate`` rows to ``result`` and stores the genuinely new
    rows (under UNION semantics: rows not already in ``result``) as
    ``working`` — the input of the next recursive step.  With
    ``distinct=False`` (UNION ALL) every candidate row is both appended
    and carried forward.
    """

    result: str
    candidate: str
    working: str
    distinct: bool
    loop_id: int

    def describe(self) -> str:
        mode = "UNION" if self.distinct else "UNION ALL"
        return (f"Merge {self.candidate} into {self.result} ({mode}); "
                f"new rows become {self.working}")


@dataclass
class DeltaSpec:
    """Static description of a loop's semi-naive delta rewrite.

    Emitted only when the safety analyzer (:mod:`repro.rewrite.delta`)
    proves the step query evolves each key independently — the per-key
    property behind Fig. 10 predicate pushdown.  ``influences`` lists the
    equi-join links (cte ref, base table, src column, dst column) used to
    expand the changed-row frontier into the affected key set.
    """

    loop_id: int
    cte_name: str
    cte_result: str
    working: str
    # Registry name the affected partition of the CTE table is stored
    # under; the delta step plan's anchor scan is rebound to it.
    partition: str
    # Registry name the recomputed partition rows are stored under.
    delta_working: str
    key_column: str
    columns: list[str]
    # True when the original loop body merges the working table back by
    # key (WHERE present); False for the whole-table rename/copy body.
    merge_by_key: bool
    # (base table, frontier-side column, affected-side column) per link.
    influences: list[tuple[str, str, str]] = field(default_factory=list)
    # INNER-join body without a WHERE clause: delta apply must verify the
    # recomputed partition reproduced its keyset exactly (an inner join
    # can drop keys, which a keyed scatter cannot express) and fall back
    # to the full body when it did not.
    guard_keyset: bool = False


@dataclass
class DeltaFusedStep(Step):
    """The semi-naive delta pass: gate, partition, recompute and apply in
    one batched columnar step.

    One dispatch runs the whole delta iteration (plus the duplicate check
    on the recomputed rows when ``dup_check``), keeping intermediate code
    arrays and positions in registers across the phases.  It never falls
    through: it jumps to ``jump_full`` (the original loop body) when
    delta state is missing, invalid, or the keyset guard trips, and to
    ``jump_to`` (the loop increment, past both bodies) after a delta
    iteration — including the O(1) one an empty frontier costs.  Jump
    targets are patched after emission.
    """

    spec: DeltaSpec
    plan: LogicalOp
    column_names: list[str]
    dup_check: bool
    jump_to: int = -1
    jump_full: int = -1

    def describe(self) -> str:
        return (f"Fused delta pass for {self.spec.cte_name}: full body at "
                f"step {self.jump_full + 1}, done to step "
                f"{self.jump_to + 1}.")


@dataclass
class ReturnStep(Step):
    """Evaluate the final query and return its result."""

    plan: LogicalOp

    def describe(self) -> str:
        return "Return final query result."


@dataclass
class DropStep(Step):
    """Release intermediate results."""

    names: list[str]

    def describe(self) -> str:
        return f"Drop {', '.join(self.names)}"


@dataclass
class Program:
    """A full plan program for one statement."""

    steps: list[Step]
    loops: dict[int, LoopSpec] = field(default_factory=dict)
    # Verdict string set by the IR verifier when ``enable_plan_verifier``
    # is on (e.g. "ok (41 checks over 12 steps)"); surfaces in EXPLAIN
    # and in the compile span of traced runs.
    verifier_verdict: Optional[str] = None

    def explain(self, verbose: bool = False) -> str:
        """Render the program in the numbered-step style of Table I."""
        lines = []
        for i, step in enumerate(self.steps):
            lines.append(f"{i + 1:>3}  {step.describe()}")
            if isinstance(step, LoopStep):
                spec = self.loops[step.loop_id]
                lines.append(f"     loop {spec.annotation()}")
            if verbose and isinstance(step, (MaterializeStep, ReturnStep,
                                             DeltaFusedStep)):
                plan_text = plan_to_text(step.plan, indent=3)
                lines.append(plan_text)
        if self.verifier_verdict is not None:
            lines.append(f"verifier: {self.verifier_verdict}")
        return "\n".join(lines)

"""Loop-execution strategies: names, modes and the demotion watch.

A loop's strategy is not an object.  It is a pure function of the loop's
:class:`~repro.plan.program.LoopSpec` and the ``mode`` of its
:class:`~repro.runtime.loop_engine.LoopState`:

* ``fixpoint-incremental`` — recursive CTEs: the working table *is* the
  frontier, and ``RecursiveMergeStep`` appends only genuinely new rows
  per trip.
* ``semi-naive-delta`` — a delta-safe loop in mode ``CAPTURE`` or
  ``DELTA``: only the rows affected by the previous iteration's changes
  are rebuilt, and the delta is scattered back by key (bit-identical to
  the full body).
* ``rename-in-place`` — the Fig. 8 data-movement optimization: the
  rebuilt working table replaces the CTE table by an O(1) registry
  relabel (``RenameStep``).
* ``full-recompute`` — the Fig. 8 baseline: every iteration rebuilds the
  working table and physically copies it back (``CopyStep``).

The compiler emits delta steps exactly when the safety analyzer proves
per-key evolution, so such a loop starts in ``CAPTURE``; every other
loop is ``OFF`` from the start.  A delta loop's mode only moves
forward::

    CAPTURE --diff step--> DELTA --near-full frontiers--> OFF
    CAPTURE or DELTA --NULL/duplicate keys, keyset guard--> OFF

Demotion (:func:`note_frontier`) fires when the frontier stays
near-full — the per-iteration bookkeeping (partition gather + keyed
scatter) then costs more than the recomputation it saves, which is
exactly the PageRank shape where every rank changes every trip.  ``OFF``
loops run the always-compiled full body, so results stay bit-identical
by construction, and ``OFF`` is for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..execution.kernels import lookup_sorted, unique_sorted
from ..plan.program import LoopSpec

# Delta-safe, awaiting the diff step's key index.
CAPTURE = "capture"
# Captured: the fused step takes the delta path.
DELTA = "delta"
# Full body for good: no delta rewrite, or the loop was demoted or
# disqualified.
OFF = "off"

# Why each strategy owns a loop, published as the strategy_selection
# decision event.
SELECTION_REASONS = {
    "fixpoint-incremental": ("recursive UNTIL-empty loop: the working "
                             "table is its own frontier"),
    "semi-naive-delta": ("delta-safety analysis proved per-key "
                         "evolution; frontier-driven recomputation is "
                         "statically cheapest"),
    "rename-in-place": ("full refresh with rename enabled: pointer "
                        "swap replaces the copy-back"),
    "full-recompute": ("no provable delta path and rename "
                       "unavailable: copy-back baseline"),
}


def strategy_name(spec: LoopSpec, mode: str) -> str:
    """The strategy a loop runs under in ``mode``."""
    if spec.until_empty is not None:
        return "fixpoint-incremental"
    if mode in (CAPTURE, DELTA):
        return "semi-naive-delta"
    return "rename-in-place" if spec.movement == "rename" \
        else "full-recompute"


class SolutionSet:
    """The delta loop's one index over its unique CTE key column:
    key -> code -> row, where a key's code is its rank among the sorted
    keys.

    Codes stay fixed for the life of the set, because a per-key
    independent body keeps the key set invariant.  Only code -> row
    changes, when the merge-by-key reorder moves rows (:meth:`permute`).
    Building and probing go through :func:`unique_sorted` and
    :func:`lookup_sorted`, so dense integer keys are direct-addressed
    there and every other key binary-searches.
    """

    __slots__ = ("sorted_keys", "rows", "links")

    def __init__(self, sorted_keys, rows):
        self.sorted_keys = sorted_keys
        # Code -> row position.
        self.rows = rows
        # Base-table link -> ProbeIndex over its source codes whose
        # payload is the destination codes (see _expand_influence).
        self.links: dict = {}

    @classmethod
    def build(cls, keys: np.ndarray) -> Optional["SolutionSet"]:
        """Index comparable ``keys``; None when a key repeats."""
        sorted_keys, rows = unique_sorted(keys, return_index=True)
        if len(sorted_keys) < len(keys):
            return None
        return cls(sorted_keys, rows.astype(np.int64, copy=False))

    def codes(self, keys: np.ndarray) -> np.ndarray:
        """Code of each comparable key, -1 for keys not in the set."""
        positions, found = lookup_sorted(self.sorted_keys, keys)
        return np.where(found, positions, -1)

    def permute(self, moved_to: np.ndarray) -> None:
        """Follow a reorder that moved old row ``r`` to ``moved_to[r]``."""
        self.rows = moved_to[self.rows]


@dataclass
class StrategySwitch:
    """A loop's one mid-loop demotion (delta -> full body), for reports
    and telemetry; ``reason`` explains it in its decision event."""

    iteration: int
    from_name: str
    to_name: str
    frontier: int
    total: int
    budget_frontier: int
    reason: str = ""

    def describe(self) -> str:
        return (f"demoted {self.from_name} -> {self.to_name} after "
                f"iteration {self.iteration} (frontier {self.frontier}"
                f"/{self.total} rows vs budget {self.budget_frontier})")


# Demote once DEMOTION_PATIENCE consecutive measured frontiers cover at
# least DEMOTION_THRESHOLD of the table.
DEMOTION_THRESHOLD = 0.8
DEMOTION_PATIENCE = 2


def note_frontier(state, frontier: int,
                  total: int) -> Optional[StrategySwitch]:
    """Feed one measured changed-row frontier of a ``total``-row table
    into a ``DELTA`` loop's demotion watch; return the demotion it
    triggers, if any.  A demoted loop is ``OFF`` for good."""
    if state.mode != DELTA:
        return None
    if total <= 0 or frontier < DEMOTION_THRESHOLD * total:
        state.streak = 0
        return None
    state.streak += 1
    if state.streak < DEMOTION_PATIENCE:
        return None
    switch = StrategySwitch(
        iteration=state.iterations + 1,
        from_name=strategy_name(state.spec, DELTA),
        to_name=strategy_name(state.spec, OFF),
        frontier=frontier, total=total,
        budget_frontier=int(DEMOTION_THRESHOLD * total),
        reason=(f"measured frontier covered >= {DEMOTION_THRESHOLD:.0%} "
                f"of the table for {DEMOTION_PATIENCE} consecutive "
                f"iteration(s); delta bookkeeping costs more than the "
                f"recomputation it saves"))
    state.leave_delta()
    return switch

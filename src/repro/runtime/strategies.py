"""Loop-execution strategies: names, modes and the frontier hysteresis.

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
loop is ``OFF`` from the start.  A delta loop's mode then moves on
measured frontiers (:func:`note_frontier`)::

    CAPTURE --capture step--> DELTA --near-full frontiers--> DEMOTED
    DEMOTED --small frontiers--> CAPTURE
    CAPTURE or DELTA --NULL/duplicate keys, keyset guard--> OFF

Demotion fires when the frontier stays near-full — the per-iteration
bookkeeping (partition gather + keyed scatter) then costs more than the
recomputation it saves, which is exactly the PageRank shape where every
rank changes every trip.  ``DEMOTED`` and ``OFF`` loops run the
always-compiled full body, so results stay bit-identical by
construction; only ``OFF`` is for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..execution.kernels import lookup_sorted, unique_sorted
from ..plan.program import LoopSpec

# Delta-safe, awaiting the capture step's key index.
CAPTURE = "capture"
# Captured: the fused step takes the delta path.
DELTA = "delta"
# Full body while the frontier stays large; capture watches for promotion.
DEMOTED = "demoted"
# Full body for good: no delta rewrite, or the loop was disqualified.
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
    """One mid-loop strategy switch, for reports and telemetry.

    ``kind`` is ``"demotion"`` (delta -> full body) or ``"promotion"``
    (full body -> delta); ``reason`` explains the switch in its
    decision event."""

    kind: str
    iteration: int
    from_name: str
    to_name: str
    frontier: int
    total: int
    budget_frontier: int
    reason: str = ""

    def describe(self) -> str:
        verb = "demoted" if self.kind == "demotion" else "promoted"
        return (f"{verb} {self.from_name} -> {self.to_name} after "
                f"iteration {self.iteration} (frontier {self.frontier}"
                f"/{self.total} rows vs budget {self.budget_frontier})")


# Demote once DEMOTION_PATIENCE consecutive measured frontiers cover at
# least DEMOTION_THRESHOLD of the table; promote back once
# PROMOTION_PATIENCE consecutive frontiers fall below PROMOTION_THRESHOLD.
# The promote threshold sits well under the demote threshold so the pair
# forms a hysteresis band and cannot ping-pong every iteration.
DEMOTION_THRESHOLD = 0.8
DEMOTION_PATIENCE = 2
PROMOTION_THRESHOLD = 0.5
PROMOTION_PATIENCE = 2


def note_frontier(state, frontier: int,
                  total: int) -> Optional[StrategySwitch]:
    """Feed one measured changed-row frontier of a ``total``-row table
    into ``state``'s hysteresis; return the switch it triggers, if any.

    Only ``DELTA`` (demotion watch) and ``DEMOTED`` (promotion watch)
    loops react.  A promoted loop lands in ``CAPTURE``: the next full
    iteration re-captures delta state, and the one after takes the
    delta path again.
    """
    if state.mode == DELTA:
        kind, target = "demotion", DEMOTED
        threshold, patience = DEMOTION_THRESHOLD, DEMOTION_PATIENCE
        crossed = frontier >= threshold * total
        reason = (f"measured frontier covered >= {threshold:.0%} of the "
                  f"table for {patience} consecutive iteration(s); delta "
                  f"bookkeeping costs more than the recomputation it "
                  f"saves")
    elif state.mode == DEMOTED:
        kind, target = "promotion", CAPTURE
        threshold, patience = PROMOTION_THRESHOLD, PROMOTION_PATIENCE
        crossed = frontier < threshold * total
        reason = (f"measured frontier stayed < {threshold:.0%} of the "
                  f"table for {patience} consecutive iteration(s); the "
                  f"delta path is profitable again")
    else:
        return None
    if total <= 0 or not crossed:
        state.streak = 0
        return None
    state.streak += 1
    if state.streak < patience:
        return None
    switch = StrategySwitch(
        kind=kind, iteration=state.iterations + 1,
        from_name=strategy_name(state.spec, state.mode),
        to_name=strategy_name(state.spec, target),
        frontier=frontier, total=total,
        budget_frontier=int(threshold * total), reason=reason)
    state.mode = target
    state.streak = 0
    return switch


# ---------------------------------------------------------------------------
# Exchange strategies (distributed supersteps)
# ---------------------------------------------------------------------------
#
# The loop strategies above decide how one iteration's data moves
# between *trips*; exchange strategies decide how one superstep's data
# moves between *workers*.  They classify every outbound piece per
# channel (an (origin, destination) pair) into SEND / EMPTY / UNCHANGED,
# and live here rather than in repro.mpp so workers can depend on them
# without the runtime depending on the distribution layer.

SEND = "send"
EMPTY = "empty"
UNCHANGED = "unchanged"


class ExchangeStrategy:
    """Ship every non-empty piece (the naive exchange).

    Instances hold per-channel state and are owned by one sender — the
    coordinator builds one per worker (or per inline segment) so
    channels never alias across senders.
    """

    name = "naive-exchange"

    def classify(self, channel: tuple[int, int], piece) -> str:
        """SEND / EMPTY / UNCHANGED for ``piece`` on ``channel``."""
        if piece.num_rows == 0:
            return EMPTY
        return SEND


class DeltaShuffleExchange(ExchangeStrategy):
    """Suppress motion for a piece identical to the channel's last.

    The semi-naive idea applied to the wire: each channel remembers the
    last piece it shipped; when the new piece is byte-identical the
    sender ships an UNCHANGED marker and the receiver replays its cached
    copy.  Empty pieces bypass the cache entirely (they were never sent,
    so there is nothing to replay), matching the inline simulation's
    accounting.  Only legal under semi-naive plans — enforced statically
    by :func:`repro.verify.exchange.check_exchange_plan`.
    """

    name = "delta-shuffle"

    def __init__(self):
        self._sent: dict[tuple[int, int], list] = {}

    def classify(self, channel: tuple[int, int], piece) -> str:
        if piece.num_rows == 0:
            return EMPTY
        arrays = []
        for column in piece.columns:
            arrays.append(column.data)
            arrays.append(column.mask)
        previous = self._sent.get(channel)
        self._sent[channel] = arrays
        if previous is not None and len(previous) == len(arrays) and all(
                np.array_equal(a, b) for a, b in zip(previous, arrays)):
            return UNCHANGED
        return SEND


def make_exchange_strategy(delta_shuffle: bool) -> ExchangeStrategy:
    return DeltaShuffleExchange() if delta_shuffle else ExchangeStrategy()

"""Pluggable loop-execution strategies.

Every loop the engine runs is owned by exactly one :class:`LoopStrategy`,
chosen when the loop initializes:

* :class:`FullRecompute` — the Fig. 8 baseline: every iteration rebuilds
  the working table and physically copies it back (``CopyStep``).
* :class:`RenameInPlace` — the Fig. 8 data-movement optimization: the
  rebuilt working table replaces the CTE table by an O(1) registry
  relabel (``RenameStep``).
* :class:`SemiNaiveDelta` — frontier-driven partition recomputation: only
  the rows affected by the previous iteration's changes are rebuilt, and
  the delta is scattered back by key (bit-identical to the full body).
* :class:`FixpointIncremental` — recursive CTEs: the working table *is*
  the frontier, and ``RecursiveMergeStep`` appends only genuinely new
  rows per trip.

Selection is cost-based and feedback-driven.  The compiler picks the
statically cheapest strategy (delta when the safety analyzer proves
per-key evolution, rename when enabled); at run time the engine feeds
every measured frontier back into the strategy, and
:class:`SemiNaiveDelta` *demotes itself* to the plain full-body strategy
when the frontier stays near-full — the per-iteration bookkeeping
(partition gather + keyed scatter) then costs more than the recomputation
it saves, which is exactly the PageRank shape where every rank changes
every trip.  Demotion routes iterations down the always-compiled full
body, so results stay bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..execution.kernels import lookup_sorted
from ..plan.program import DeltaSpec, LoopSpec


class LoopStrategy:
    """How the iterations of one loop move data between trips."""

    name = "abstract"
    # Why this strategy owns the loop — set by choose_strategy() at
    # selection and surfaced as a strategy_selection decision event.
    reason = ""

    def __init__(self, spec: LoopSpec):
        self.spec = spec

    def note_frontier(self, frontier: int, total: int,
                      engine) -> "LoopStrategy":
        """Feed one measured changed-row frontier back into the strategy.

        Returns the strategy that should own the loop from here on —
        usually ``self``, or the demoted replacement."""
        return self

    def describe(self) -> str:
        return self.name


class FullRecompute(LoopStrategy):
    """Rebuild everything, copy it back (the Fig. 8 baseline)."""

    name = "full-recompute"


class RenameInPlace(LoopStrategy):
    """Rebuild everything, swap the result pointer (Fig. 8 optimized)."""

    name = "rename-in-place"


class FixpointIncremental(LoopStrategy):
    """Recursive CTEs: per-trip work is the new-row frontier itself."""

    name = "fixpoint-incremental"


class SolutionSet:
    """The delta loop's one index over its unique CTE key column:
    key -> dense code -> row.

    Codes stay fixed for the life of the set, because a per-key
    independent body keeps the key set invariant.  Only code -> row
    changes, when the merge-by-key reorder moves rows (:meth:`permute`).
    Integer keys whose span is at most twice their count (the bound
    :func:`build_probe_index` uses) are addressed directly, code =
    key - base.  Sparse integer, TEXT and FLOAT keys binary-search their
    sorted values, code = rank.
    """

    __slots__ = ("base", "sorted_keys", "rows", "links")

    def __init__(self, base, sorted_keys, rows):
        self.base = base
        self.sorted_keys = sorted_keys
        # Code -> row position; -1 marks an empty direct-address slot.
        self.rows = rows
        # Base-table link -> ProbeIndex over its source codes whose
        # payload is the destination codes (see _expand_influence).
        self.links: dict = {}

    @classmethod
    def build(cls, keys: np.ndarray) -> Optional["SolutionSet"]:
        """Index comparable ``keys``; None when a key repeats."""
        count = len(keys)
        if count and keys.dtype.kind == "i":
            base = int(keys.min())
            span = int(keys.max()) - base + 1
            if span <= 2 * count:
                rows = np.full(span, -1, dtype=np.int64)
                rows[keys - base] = np.arange(count, dtype=np.int64)
                if np.count_nonzero(rows >= 0) < count:
                    return None
                return cls(base, None, rows)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if count > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
            return None
        return cls(None, sorted_keys, order.astype(np.int64))

    def codes(self, keys: np.ndarray) -> np.ndarray:
        """Code of each comparable key, -1 for keys not in the set."""
        if self.sorted_keys is None and keys.dtype.kind == "i":
            slots = keys - self.base
            inside = (slots >= 0) & (slots < len(self.rows))
            slots = np.where(inside, slots, 0)
            return np.where(inside & (self.rows[slots] >= 0), slots, -1)
        if self.sorted_keys is None:
            # Non-integer probes of a direct-addressed set.
            occupied = np.flatnonzero(self.rows >= 0)
            positions, found = lookup_sorted(occupied + self.base, keys)
            return np.where(found, occupied[positions], -1)
        positions, found = lookup_sorted(self.sorted_keys, keys)
        return np.where(found, positions, -1)

    def permute(self, moved_to: np.ndarray) -> None:
        """Follow a reorder that moved old row ``r`` to ``moved_to[r]``."""
        occupied = self.rows >= 0
        self.rows = np.where(occupied, moved_to[self.rows], -1)


class DeltaLoopRuntime:
    """Mutable per-loop state for the semi-naive delta path.

    Created when the loop initializes, populated by
    :class:`DeltaCaptureStep` after a full iteration, consumed and updated
    by :class:`DeltaFusedStep` on every delta iteration.
    """

    __slots__ = ("spec", "active", "disabled", "demoted", "schema",
                 "columns", "solution", "in_working", "frontier_codes",
                 "last_frontier", "pending_positions")

    def __init__(self, spec: DeltaSpec):
        self.spec = spec
        # Delta state captured and valid: the gate may take the delta path.
        self.active = False
        # Off for this run (key validation failed, the keyset guard
        # tripped, or the strategy demoted itself).
        self.disabled = False
        # True only for threshold demotions: the delta machinery is
        # sound, just not profitable right now — the loop stays eligible
        # for re-promotion.  Permanent disqualifications (NULL or
        # duplicate keys, a tripped keyset guard) leave this False.
        self.demoted = False
        self.schema = None
        # Column objects of the current CTE table (shared, immutable).
        self.columns: list = []
        # The key index over the CTE table, built at capture.
        self.solution: Optional[SolutionSet] = None
        # Merge path only: per-row "key was in last iteration's working
        # table" flags, which drive the merge join's row ordering.
        self.in_working = None
        # Solution-set codes of the keys changed by the last iteration.
        self.frontier_codes = None
        self.last_frontier = 0
        # Row positions gathered by the pending partition step.
        self.pending_positions = None


# Demote once DEMOTION_PATIENCE consecutive measured frontiers cover at
# least DEMOTION_THRESHOLD of the table; promote back once
# PROMOTION_PATIENCE consecutive frontiers fall below PROMOTION_THRESHOLD.
# The promote threshold sits well under the demote threshold so the pair
# forms a hysteresis band and cannot ping-pong every iteration.
DEMOTION_THRESHOLD = 0.8
DEMOTION_PATIENCE = 2
PROMOTION_THRESHOLD = 0.5
PROMOTION_PATIENCE = 2


class SemiNaiveDelta(LoopStrategy):
    """Frontier-driven partition recomputation, with self-demotion.

    Each measured frontier (from delta capture after a full iteration, or
    from delta apply after a delta iteration) feeds
    :meth:`note_frontier`.  Once ``DEMOTION_PATIENCE`` consecutive
    frontiers cover at least ``DEMOTION_THRESHOLD`` of the table,
    the strategy disables its runtime — the gate then routes every later
    iteration down the full body — and hands the loop to the strategy the
    compiler emitted for that body (rename or copy).
    """

    name = "semi-naive-delta"

    def __init__(self, spec: LoopSpec, runtime: DeltaLoopRuntime):
        super().__init__(spec)
        self.runtime = runtime
        self._streak = 0

    def note_frontier(self, frontier: int, total: int,
                      engine) -> LoopStrategy:
        if self.runtime.disabled:
            return self
        if total <= 0 or frontier < DEMOTION_THRESHOLD * total:
            self._streak = 0
            return self
        self._streak += 1
        if self._streak < DEMOTION_PATIENCE:
            return self
        self.runtime.disabled = True
        self.runtime.active = False
        self.runtime.demoted = True
        base = (RenameInPlace(self.spec)
                if self.spec.movement == "rename"
                else FullRecompute(self.spec))
        fallback = MovementFallback(self.spec, self.runtime, base)
        engine.record_switch(
            "demotion", self.spec.loop_id, self, fallback, frontier, total,
            budget_frontier=int(DEMOTION_THRESHOLD * total),
            reason=(f"measured frontier covered >= "
                    f"{DEMOTION_THRESHOLD:.0%} of the table for "
                    f"{DEMOTION_PATIENCE} consecutive iteration(s); delta "
                    f"bookkeeping costs more than the recomputation it "
                    f"saves"))
        return fallback


class MovementFallback(LoopStrategy):
    """The full-body strategy a demoted delta loop lands on — plus the
    *promotion* watcher, the demotion mirror.

    Delta capture keeps measuring the changed-row frontier of every full
    iteration while the loop is demoted (without re-activating the delta
    machinery).  Once ``PROMOTION_PATIENCE`` consecutive frontiers
    fall below ``PROMOTION_THRESHOLD`` of the table, the watcher
    re-enables the runtime and hands the loop back to a fresh
    :class:`SemiNaiveDelta` — the next full iteration re-captures delta
    state, and the one after takes the delta path again.  The promote
    threshold sits below the demote threshold (hysteresis), so the pair
    cannot ping-pong every iteration.
    """

    def __init__(self, spec: LoopSpec, runtime: DeltaLoopRuntime,
                 base: LoopStrategy):
        super().__init__(spec)
        # Reports and telemetry see the movement fallback's own name.
        self.name = base.name
        self.base = base
        self.runtime = runtime
        self._streak = 0

    def note_frontier(self, frontier: int, total: int,
                      engine) -> LoopStrategy:
        if not self.runtime.demoted:
            return self
        if total <= 0 or frontier >= PROMOTION_THRESHOLD * total:
            self._streak = 0
            return self
        self._streak += 1
        if self._streak < PROMOTION_PATIENCE:
            return self
        self.runtime.disabled = False
        self.runtime.active = False
        self.runtime.demoted = False
        promoted = SemiNaiveDelta(self.spec, self.runtime)
        engine.record_switch(
            "promotion", self.spec.loop_id, self, promoted, frontier, total,
            budget_frontier=int(PROMOTION_THRESHOLD * total),
            reason=(f"measured frontier stayed < "
                    f"{PROMOTION_THRESHOLD:.0%} of the table for "
                    f"{PROMOTION_PATIENCE} consecutive iteration(s); the "
                    f"delta path is profitable again"))
        return promoted


def choose_strategy(spec: LoopSpec,
                    runtime: DeltaLoopRuntime = None) -> LoopStrategy:
    """The statically best strategy for ``spec``.

    This mirrors what the compiler emitted: delta steps exist exactly when
    ``spec.delta`` is set, and the full body moves data by rename or copy
    according to ``spec.movement``.

    The returned strategy carries a ``reason`` string explaining the
    pick; the loop engine publishes it as a ``strategy_selection``
    decision event.
    """
    if spec.until_empty is not None:
        strategy = FixpointIncremental(spec)
        strategy.reason = ("recursive UNTIL-empty loop: the working "
                           "table is its own frontier")
    elif spec.delta is not None and runtime is not None:
        strategy = SemiNaiveDelta(spec, runtime)
        strategy.reason = ("delta-safety analysis proved per-key "
                           "evolution; frontier-driven recomputation is "
                           "statically cheapest")
    elif spec.movement == "rename":
        strategy = RenameInPlace(spec)
        strategy.reason = ("full refresh with rename enabled: pointer "
                           "swap replaces the copy-back")
    else:
        strategy = FullRecompute(spec)
        strategy.reason = ("no provable delta path and rename "
                           "unavailable: copy-back baseline")
    return strategy


@dataclass
class StrategySwitch:
    """One mid-loop strategy switch, for reports and telemetry.

    ``kind`` is ``"demotion"`` (delta -> movement fallback) or
    ``"promotion"`` (movement fallback -> delta)."""

    kind: str
    iteration: int
    from_name: str
    to_name: str
    frontier: int
    total: int
    budget_frontier: int

    def describe(self) -> str:
        verb = "demoted" if self.kind == "demotion" else "promoted"
        return (f"{verb} {self.from_name} -> {self.to_name} after "
                f"iteration {self.iteration} (frontier {self.frontier}"
                f"/{self.total} rows vs budget {self.budget_frontier})")


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

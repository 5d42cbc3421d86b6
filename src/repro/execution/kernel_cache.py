"""Iteration-aware kernel cache: loop-invariant state carried across
iterations.

DBSpinner's whole argument is that an iterative CTE runs as *one* plan,
so per-iteration overheads dominate end-to-end time.  Three such
overheads are pure recomputation of state that outlives one iteration,
and this module removes them.  It keeps no dictionary of a column
computed from the CTE table: such a column is new on every trip, so its
dictionary is built where it is used and freed with it.

* **Join build-side indexes** — for an equi join the executor needs the
  build side factorized *and bucketed by code*.  When the build input is
  loop-invariant (base tables, and the COMMON#k blocks the common-result
  rewrite materializes before the loop) its columns are the same objects
  every iteration, so the whole index — dictionaries, mixed-radix codes,
  bucket offsets — is cached keyed by the tuple of column versions and
  reused.  The probe side is encoded *against* the build dictionaries
  with a binary search instead of the concat-and-re-unique of both sides.
  Columns are immutable — every mutation in the engine constructs a new
  column with a fresh version — so a version-keyed entry can never be
  stale.  DML still *invalidates* the replaced table's entries eagerly
  (memory hygiene and belt-and-braces; see :mod:`repro.engine.dml`).

* **Incremental distinct state** — UNION DISTINCT fixed-point loops
  deduplicated each candidate delta by re-encoding ``result ++
  candidate`` from scratch (and then walking a Python set row by row).
  :class:`IncrementalDistinctIndex` keeps per-column value→id
  dictionaries plus a sorted row index of everything seen, so each delta
  is deduplicated with vectorized searches and an O(delta + seen)
  merge — amortized O(1) per row over the loop, the precursor of full
  semi-naive delta evaluation.

* **Trip-stable work** — from PageRank's third trip on, both of its
  joins see key columns equal, value for value, to the last trip's,
  although they are new objects.  :class:`TripMemo` is one memo per
  running loop with three kinds of entry under one rule: a join site's
  pairs, its gathered output columns and an aggregate's leading-key
  grouping are handed back while the inputs they were derived from
  repeat bit for bit.  Each depends only on those inputs, so the reuse
  is exact.  It is freed when the loop ends.

All structures are observable: hits/misses/overflows/invalidations are
counted on :class:`~repro.execution.context.ExecutionStats` and surfaced
by EXPLAIN ANALYZE.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from ..storage import Column
from .kernels import (ColumnDictionary, build_dictionary, build_probe_index,
                      comparable_values, lookup_sorted, unique_sorted)

# Mixed-radix combination of per-column codes must stay inside int64.
_RADIX_LIMIT = 1 << 62

# Join indexes kept (LRU); four times as many candidate version tuples.
MAX_INDEXES = 64


def probe_dictionary(dictionary: ColumnDictionary,
                     column: Column) -> np.ndarray:
    """Codes of ``column`` in ``dictionary``'s space; values absent from
    the dictionary — which therefore cannot match its column — and NULLs
    get -1."""
    codes = np.full(len(column), -1, dtype=np.int64)
    valid = ~column.mask
    if not valid.any() or dictionary.cardinality == 0:
        return codes
    values = comparable_values(column.data[valid])
    positions, found = lookup_sorted(dictionary.uniques, values)
    codes[valid] = np.where(found, positions, -1)
    return codes


class JoinIndex:
    """A reusable equi-join build side: per-column dictionaries, combined
    mixed-radix codes, and the :class:`ProbeIndex` over them.
    """

    __slots__ = ("dictionaries", "radices", "codes", "probe_index")

    def __init__(self, dictionaries: list[ColumnDictionary],
                 radices: list[int], codes: np.ndarray):
        codes.setflags(write=False)
        self.dictionaries = dictionaries
        self.radices = radices
        self.codes = codes
        self.probe_index = build_probe_index(codes)

    def probe(self, columns: Sequence[Column]) -> np.ndarray:
        """Encode probe-side key columns into this index's code space."""
        combined: Optional[np.ndarray] = None
        for dictionary, radix, column in zip(self.dictionaries,
                                             self.radices, columns):
            codes = probe_dictionary(dictionary, column)
            if combined is None:
                combined = codes
                continue
            bad = (combined < 0) | (codes < 0)
            combined = combined * radix + codes
            combined[bad] = -1
        assert combined is not None
        return combined

    def nbytes(self) -> int:
        payload = sum(d.nbytes() for d in self.dictionaries)
        return payload + int(self.codes.nbytes) + sum(
            int(a.nbytes) for a in self.probe_index if a is not None)


def build_join_index(columns: Sequence[Column]) -> Optional[JoinIndex]:
    """Build an index over the build-side key columns.

    Returns None when the mixed-radix combination would overflow int64
    (the joint-encoding fallback re-densifies instead; see
    ``encode_keys``).
    """
    dictionaries = [build_dictionary(c) for c in columns]
    radices = [max(d.cardinality, 1) for d in dictionaries]
    combined: Optional[np.ndarray] = None
    combined_card = 1
    for dictionary, radix in zip(dictionaries, radices):
        if combined is None:
            combined = dictionary.codes
            combined_card = radix
            continue
        combined_card *= radix
        if combined_card > _RADIX_LIMIT:
            return None
        bad = (combined < 0) | (dictionary.codes < 0)
        combined = combined * radix + dictionary.codes
        combined[bad] = -1
    assert combined is not None
    return JoinIndex(dictionaries, radices, combined)


class KernelCache:
    """Version-keyed memoization of join build-side indexes.

    Entries are LRU-evicted; correctness never depends on residency
    because a column version is never reused (an eviction or invalidation
    only costs a recompute).

    The cache is engine-level state shared by every session, so all map
    mutations happen under one lock.  Cached payloads are immutable
    (read-only code arrays), so returning them outside the lock is
    safe."""

    def __init__(self, stats=None):
        self._lock = threading.RLock()
        self._indexes: OrderedDict[tuple[int, ...], JoinIndex] = \
            OrderedDict()
        # Build-side version tuples seen exactly once.  An index is only
        # built on the *second* request for the same versions: a build
        # side that changes every iteration never repeats, so this skips
        # index construction for it entirely (it would never be reused).
        # The value turns False once a build overflowed, so the doomed
        # build is not retried on every later request.
        self._index_candidates: OrderedDict[tuple[int, ...], bool] = \
            OrderedDict()
        self.stats = stats

    # -- join build-side indexes -------------------------------------------

    def join_index(self, columns: Sequence[Column],
                   stats=None) -> Optional[JoinIndex]:
        """The index over ``columns``, or None.  Hits, misses and
        overflows count on ``stats`` (the run's), else on the cache's."""
        stats = self.stats if stats is None else stats
        key = tuple(c.version for c in columns)
        with self._lock:
            entry = self._indexes.get(key)
            if entry is not None:
                self._indexes.move_to_end(key)
                if stats is not None:
                    stats.join_index_hits += 1
                return entry
            if stats is not None:
                stats.join_index_misses += 1
            buildable = self._index_candidates.get(key)
            if buildable is None:
                # First sighting: loop-invariance unproven, let the
                # caller use the one-shot joint encoding (see
                # ``_index_candidates``).
                self._index_candidates[key] = True
                while len(self._index_candidates) > 4 * MAX_INDEXES:
                    self._index_candidates.popitem(last=False)
                return None
            if not buildable:
                return None
            entry = build_join_index(columns)
            if entry is None:
                # Mixed-radix overflow: the combined key cardinality does
                # not fit int64, so the caller must fall back to one-shot
                # joint encoding.  Counted once per version tuple so
                # EXPLAIN ANALYZE can surface how often this silent
                # fallback fires (ROADMAP: repack-on-overflow).
                self._index_candidates[key] = False
                if stats is not None:
                    stats.join_index_overflows += 1
                return None
            self._index_candidates.pop(key, None)
            self._indexes[key] = entry
            while len(self._indexes) > MAX_INDEXES:
                self._indexes.popitem(last=False)
            return entry

    # -- invalidation ------------------------------------------------------

    def invalidate_columns(self, columns: Sequence[Column]) -> int:
        """Drop cached state derived from ``columns`` (DML hook)."""
        versions = {c.version for c in columns}
        dropped = 0
        with self._lock:
            for key in [k for k in self._indexes
                        if not versions.isdisjoint(k)]:
                del self._indexes[key]
                dropped += 1
            for key in [k for k in self._index_candidates
                        if not versions.isdisjoint(k)]:
                del self._index_candidates[key]
        if dropped and self.stats is not None:
            self.stats.kernel_cache_invalidations += dropped
        return dropped

    def invalidate_tables(self, *tables) -> int:
        columns = []
        for table in tables:
            # Segmented tables expose their backing columns without
            # forcing a consolidation (invalidating must not copy).
            known = getattr(table, "known_columns", None)
            columns.extend(known() if known is not None else table.columns)
        return self.invalidate_columns(columns)

    def clear(self) -> None:
        with self._lock:
            self._indexes.clear()
            self._index_candidates.clear()

    def nbytes(self) -> int:
        with self._lock:
            return sum(i.nbytes() for i in self._indexes.values())


# ---------------------------------------------------------------------------
# Trip-stable work: pairs, gathers and groupings
# ---------------------------------------------------------------------------


def same_values(a: Column, b: Column) -> bool:
    """True when two columns hold the same values bit for bit: the same
    object, or the same type, length and mask and bitwise-equal data.
    Floats compare by their bits, so -0.0 differs from 0.0 and a NaN
    equals only its own bit pattern; TEXT compares its strings."""
    if a is b:
        return True
    if a.sql_type is not b.sql_type or len(a.data) != len(b.data) \
            or a.data.dtype != b.data.dtype \
            or not np.array_equal(a.mask, b.mask):
        return False
    left, right = a.data, b.data
    if left.dtype.kind == "f":
        bits = np.dtype(f"u{left.dtype.itemsize}")
        left, right = left.view(bits), right.view(bits)
    return bool(np.array_equal(left, right))


# Slots of a site's entries other than its gathered output columns,
# whose slot is their output position.
PAIRS = "pairs"
GROUPING = "grouping"


def _repeats(kept, new) -> bool:
    """An index vector repeats only as the same object; a column also
    by :func:`same_values`."""
    return kept is new or (isinstance(new, Column)
                           and same_values(kept, new))


class TripMemo:
    """What a running loop's body derived on its last trip, handed back
    while the inputs it was derived from repeat.

    An entry is keyed by a plan node and a slot, and holds its inputs
    and the value derived from them.  Three kinds share one rule:

    * a join's pairs (slot :data:`PAIRS`), from its key columns;
    * a join's gathered output column (slot: its output position), from
      the index vector and the source column;
    * an aggregate's leading-key grouping (slot :data:`GROUPING`), from
      the leading key column.

    An entry is reused when every input repeats (:func:`_repeats`).  A
    miss drops the entry's arrays before the new value is computed, and
    a slot that misses on ``STOP_AFTER_MISSES`` trips in a row keeps
    nothing more: its inputs change with the loop, as a delta body's
    partition does, and a kept value would be held for nothing.
    PageRank's pairs miss once, on trip 2, and are reused from trip 3
    on.  An index vector repeats only after a pair reuse handed back the
    kept arrays, so a gather is kept only on a trip whose pairs were
    reused (:meth:`reused`): a join whose pairs never repeat, as a delta
    body's, keeps none of its gathers.

    The node is held beside its entry so that its id cannot be recycled
    while the memo lives.  The memo belongs to one program run
    (``ExecutionContext.trip_memo``), never to a plan, which a plan-cache
    hit shares across sessions, and is dropped when its loop ends.
    Reuses are counted by the caller on the run's own
    :class:`~repro.execution.context.ExecutionStats`.
    """

    STOP_AFTER_MISSES = 2

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # (id(site), slot) -> (site, kept inputs or None, value or None,
        # misses in a row, whether the last lookup reused the value).
        self._entries: dict[tuple, tuple] = {}

    def reuse(self, site, slot, inputs: Sequence):
        """The value kept for ``(site, slot)`` when every input
        repeats, else None."""
        key = (id(site), slot)
        entry = self._entries.get(key)
        if entry is None or entry[1] is None:
            return None
        _, kept, value, misses, _ = entry
        if len(kept) == len(inputs) and all(map(_repeats, kept, inputs)):
            self._entries[key] = (site, tuple(inputs), value, 0, True)
            return value
        self._entries[key] = (site, None, None, misses + 1, False)
        return None

    def keep(self, site, slot, inputs: Sequence, value) -> None:
        key = (id(site), slot)
        entry = self._entries.get(key)
        misses = 0 if entry is None else entry[3]
        if misses < self.STOP_AFTER_MISSES:
            self._entries[key] = (site, tuple(inputs), value, misses, False)

    def reused(self, site, slot) -> bool:
        """Whether the last lookup of ``(site, slot)`` reused its
        value."""
        entry = self._entries.get((id(site), slot))
        return entry is not None and entry[4]


# ---------------------------------------------------------------------------
# Incremental distinct (UNION DISTINCT fixed points)
# ---------------------------------------------------------------------------


class _ValueDictionary:
    """An *incremental* value→id dictionary for one column.

    Ids are stable across batches (id 0 is reserved for NULL, matching
    nulls-match-grouping semantics), so row identities built from them
    survive dictionary growth — the property mixed-radix codes lack."""

    __slots__ = ("values", "ids", "next_id")

    def __init__(self) -> None:
        self.values: Optional[np.ndarray] = None
        self.ids = np.empty(0, dtype=np.int64)
        self.next_id = 1

    def encode(self, column: Column) -> np.ndarray:
        ids = np.zeros(len(column), dtype=np.int64)
        valid = ~column.mask
        if not valid.any():
            return ids
        values = comparable_values(column.data[valid])
        if self.values is None or not len(self.values):
            uniques, inverse = unique_sorted(values, return_inverse=True)
            assigned = self.next_id + np.arange(len(uniques),
                                                dtype=np.int64)
            self.next_id += len(uniques)
            self.values = uniques
            self.ids = assigned
            ids[valid] = assigned[inverse]
            return ids
        positions, found = lookup_sorted(self.values, values)
        batch = np.where(found, self.ids[positions], 0)
        missing = ~found
        if missing.any():
            new_uniques, new_inverse = unique_sorted(values[missing],
                                                     return_inverse=True)
            assigned = self.next_id + np.arange(len(new_uniques),
                                                dtype=np.int64)
            self.next_id += len(new_uniques)
            batch[missing] = assigned[new_inverse]
            merged_values = np.concatenate([self.values, new_uniques])
            order = np.argsort(merged_values, kind="stable")
            self.values = merged_values[order]
            self.ids = np.concatenate([self.ids, assigned])[order]
        ids[valid] = batch
        return ids


class IncrementalDistinctIndex:
    """Seen-row index for UNION DISTINCT fixed-point loops.

    Each column gets a :class:`_ValueDictionary`; a row's identity packs
    the per-column ids into one int64 with a fixed bit budget per column
    (62 bits split evenly), so membership tests are a single vectorized
    binary search over a plain int64 array — structured dtypes compare
    element-at-a-time in numpy and are ~100x slower.  Because ids are
    stable, the packed identity survives dictionary growth; when a
    dictionary outgrows its bit budget the index *repacks*: it re-splits
    the 62 bits according to each dictionary's actual size and rewrites
    the seen set under the new widths (O(seen), once per exhaustion)
    instead of abandoning incrementality.  Only when the dictionaries
    genuinely need more than 62 bits combined do ``filter_new``/``absorb``
    return None and the caller falls back to re-encoding from scratch.

    The index absorbs each accepted delta, so per-iteration work is
    proportional to the delta (plus one O(seen) sorted insert) instead of
    re-encoding the whole accumulated result."""

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("IncrementalDistinctIndex needs >= 1 column")
        self._dictionaries = [_ValueDictionary() for _ in range(width)]
        # Per-column bit widths; start with an even split of the budget.
        self._shifts = [62 // width] * width
        self._seen = np.empty(0, dtype=np.int64)
        self.rows_absorbed = 0
        self.repacks = 0

    def _pack(self, columns: Sequence[Column]) -> Optional[np.ndarray]:
        all_ids = [dictionary.encode(column)
                   for dictionary, column in zip(self._dictionaries,
                                                 columns)]
        if any(dictionary.next_id >= (1 << shift)
               for dictionary, shift in zip(self._dictionaries,
                                            self._shifts)):
            if not self._repack():
                return None  # >62 bits genuinely needed: caller rescans
        packed: Optional[np.ndarray] = None
        for ids, shift in zip(all_ids, self._shifts):
            packed = ids if packed is None else (packed << shift) | ids
        return packed

    def _repack(self) -> bool:
        """Re-split the 62-bit budget by actual dictionary sizes.

        Each column needs enough bits for its current ``next_id``; the
        slack is spread round-robin as growth headroom.  The seen set is
        unpacked under the old widths and repacked under the new ones —
        per-column ids are stable, so row identities survive."""
        required = [max(d.next_id.bit_length(), 1)
                    for d in self._dictionaries]
        if sum(required) > 62:
            return False
        shifts = list(required)
        slack = 62 - sum(required)
        for i in range(slack):
            shifts[i % len(shifts)] += 1
        old = self._shifts
        if len(self._seen):
            remaining = self._seen
            parts = []
            # Later columns occupy the low bits; peel them off in reverse.
            for shift in reversed(old[1:]):
                parts.append(remaining & ((1 << shift) - 1))
                remaining = remaining >> shift
            parts.append(remaining)
            parts.reverse()
            packed = parts[0]
            for ids, shift in zip(parts[1:], shifts[1:]):
                packed = (packed << shift) | ids
            self._seen = np.sort(packed)
        self._shifts = shifts
        self.repacks += 1
        return True

    def _insert(self, rows: np.ndarray) -> None:
        """Merge strictly increasing ``rows`` none of which is seen."""
        if not len(rows):
            return
        positions = np.searchsorted(self._seen, rows)
        self._seen = np.insert(self._seen, positions, rows)

    def absorb(self, columns: Sequence[Column],
               num_rows: int) -> Optional[bool]:
        """Add every (distinct) row of ``columns`` to the seen set.
        Returns None on id overflow (the index is then unusable)."""
        packed = self._pack(columns)
        if packed is None:
            return None
        self._insert(unique_sorted(packed))
        self.rows_absorbed += num_rows
        return True

    def filter_new(self, columns: Sequence[Column],
                   num_rows: int) -> Optional[np.ndarray]:
        """Mask of candidate rows not seen before (first occurrence wins
        within the batch); the surviving rows are absorbed.  Returns None
        on id overflow (the index is then unusable)."""
        packed = self._pack(columns)
        if packed is None:
            return None
        uniques, first_index = unique_sorted(packed, return_index=True)
        if len(self._seen):
            # Probe with the batch's uniques, not every candidate row.
            _, found = lookup_sorted(self._seen, uniques)
            uniques, first_index = uniques[~found], first_index[~found]
        new_mask = np.zeros(num_rows, dtype=np.bool_)
        new_mask[first_index] = True
        self._insert(uniques)
        self.rows_absorbed += len(uniques)
        return new_mask

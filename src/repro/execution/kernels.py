"""Vectorized kernels shared by join, aggregation, distinct and sort.

The central abstraction is *key encoding*: a list of columns is turned into
a single int64 code per row via per-column factorization and mixed-radix
combination.  Join keys encode NULL as -1 (never matches); grouping keys
encode NULL as an ordinary bucket (SQL groups NULLs together).

Integer keys within :func:`dense_span` (a span of at most twice their
count plus 64) are factorized and looked up by direct addressing — a
presence bitmap plus ``cumsum`` in :func:`unique_sorted`, a position
table in :func:`lookup_sorted` — instead of sorting or searching.  The
first index of each unique is ``np.minimum.at`` over the inverse on
every path.  Everything in the package that would call ``np.unique``
calls :func:`unique_sorted`: on numpy 2.x a plain ``np.unique`` takes a
hash path several times slower than a sort.

GROUP BY groups through :func:`group_keys`, which groups on an integer
leading key alone when a per-group check shows that it determines the
other keys, and otherwise encodes them all as above.

Dictionaries are built per call: the columns these kernels see inside a
loop are new on every iteration, so there is nothing to reuse.  The one
loop-invariant consumer, a join's build side, keeps whole indexes in
:class:`~repro.execution.kernel_cache.KernelCache` instead.  Code arrays
may be read-only; kernels that combine codes always allocate fresh
output.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..storage import Column


def comparable_values(values: np.ndarray) -> np.ndarray:
    """Object (TEXT) payloads become fixed-width numpy strings so that
    sorting/searching uses well-defined comparisons."""
    if values.dtype == object:
        return values.astype(str)
    return values


def dense_span(lo: int, hi: int, count: int) -> bool:
    """Whether integers in ``[lo, hi]`` are dense enough for ``count``
    items to address a table of ``hi - lo + 1`` slots directly: at most
    two slots per item plus a constant.  Callers pass Python ints, so
    the int64 extremes cannot overflow."""
    return hi - lo + 1 <= 2 * count + 64


def _offsets(values: np.ndarray, lo: int) -> np.ndarray:
    """``values - lo`` as intp slots; the caller has bounded the span.
    Narrow ints widen to int64 first so the difference cannot wrap."""
    wide = values if values.dtype.itemsize == 8 else values.astype(np.int64)
    return (wide - wide.dtype.type(lo)).astype(np.intp, copy=False)


def unique_sorted(values: np.ndarray, return_index: bool = False,
                  return_inverse: bool = False):
    """Exactly what ``np.unique(values, return_index=, return_inverse=)``
    returns for a 1-D array, without sorting where a sort is waste.

    * Integers whose span is :func:`dense_span` of their count are
      factorized by direct addressing: a presence bitmap over the span,
      then a ``cumsum`` remap gives each value its rank — O(n + span).
    * Other integers with nothing but the uniques requested are sorted
      and deduplicated by an adjacent diff: numpy 2.x's plain
      ``np.unique`` takes a hash path several times slower than a sort.
    * Everything else (sparse integers with an index or inverse, floats,
      strings, bools) is ``np.unique(return_inverse=True)``.

    The first index of each unique comes from ``np.minimum.at`` over
    the inverse on every path: no stable sort, and no reliance on the
    order of repeated-index assignment.
    """
    values = np.asarray(values)
    want_inverse = return_index or return_inverse
    uniques = inverse = None
    if values.dtype.kind in "iu" and len(values):
        lo, hi = int(values.min()), int(values.max())
        if dense_span(lo, hi, len(values)):
            slots = _offsets(values, lo)
            present = np.zeros(hi - lo + 1, dtype=np.bool_)
            present[slots] = True
            occupied = np.flatnonzero(present)
            uniques = (occupied.astype(values.dtype)
                       + values.dtype.type(lo))
            if want_inverse:
                rank = np.cumsum(present, dtype=np.intp) - 1
                inverse = rank[slots]
        elif not want_inverse:
            uniques = np.sort(values)
            keep = np.ones(len(uniques), dtype=np.bool_)
            np.not_equal(uniques[1:], uniques[:-1], out=keep[1:])
            uniques = uniques[keep]
    if uniques is None:
        uniques, inverse = np.unique(values, return_inverse=True)
    if not want_inverse:
        return uniques
    result = (uniques,)
    if return_index:
        first = np.full(len(uniques), len(values), dtype=np.intp)
        np.minimum.at(first, inverse, np.arange(len(values), dtype=np.intp))
        result += (first,)
    if return_inverse:
        result += (inverse,)
    return result


def lookup_sorted(haystack: np.ndarray,
                  needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``needles`` in the strictly increasing ``haystack``
    plus a found mask; positions of needles not found are unspecified
    but in range.

    An integer haystack whose span is :func:`dense_span` of both sides'
    lengths builds a position table and indexes it; everything else
    binary-searches.  NaN probes match a NaN entry (np.unique collapses
    NaNs to one slot at the end, matching the joint-encoding behaviour
    this replaces).
    """
    if not len(haystack):
        return (np.zeros(len(needles), dtype=np.int64),
                np.zeros(len(needles), dtype=np.bool_))
    if haystack.dtype.kind == "i" and needles.dtype.kind == "i":
        lo, hi = int(haystack[0]), int(haystack[-1])
        if dense_span(lo, hi, len(haystack) + len(needles)):
            table = np.full(hi - lo + 1, -1, dtype=np.int64)
            table[_offsets(haystack, lo)] = np.arange(len(haystack),
                                                      dtype=np.int64)
            probe = needles.astype(np.int64, copy=False)
            inside = (probe >= lo) & (probe <= hi)
            positions = table[_offsets(np.where(inside, probe, lo), lo)]
            found = inside & (positions >= 0)
            return np.where(found, positions, 0), found
    positions = np.searchsorted(haystack, needles)
    inside = positions < len(haystack)
    clipped = np.where(inside, positions, 0)
    found = inside & (haystack[clipped] == needles)
    if needles.dtype.kind == "f":
        nan_probe = np.isnan(needles)
        if nan_probe.any() and np.isnan(haystack[-1]):
            clipped = np.where(nan_probe, len(haystack) - 1, clipped)
            found = found | nan_probe
    return clipped.astype(np.int64, copy=False), found


class ColumnDictionary:
    """One column's factorization: sorted unique valid values and dense
    per-row codes (-1 for NULL).  ``codes`` is marked read-only because
    the same array is handed to every consumer."""

    __slots__ = ("uniques", "codes")

    def __init__(self, uniques: np.ndarray, codes: np.ndarray):
        codes.setflags(write=False)
        self.uniques = uniques
        self.codes = codes

    @property
    def cardinality(self) -> int:
        return len(self.uniques)

    def nbytes(self) -> int:
        return int(self.uniques.nbytes) + int(self.codes.nbytes)


def build_dictionary(column: Column) -> ColumnDictionary:
    """Factorize one column."""
    if not column.mask.any():
        # No NULL: the inverse already is the codes.
        uniques, inverse = unique_sorted(comparable_values(column.data),
                                         return_inverse=True)
        return ColumnDictionary(uniques,
                                inverse.astype(np.int64, copy=False))
    codes = np.full(len(column), -1, dtype=np.int64)
    valid = ~column.mask
    if valid.any():
        values = comparable_values(column.data[valid])
        uniques, inverse = unique_sorted(values, return_inverse=True)
        codes[valid] = inverse
    else:
        uniques = np.empty(0, dtype=np.int64)
    return ColumnDictionary(uniques, codes)


class ProbeIndex(NamedTuple):
    """Build rows with a valid code, stably sorted by code, plus either
    CSR bucket ``offsets`` (code c's rows are ``positions[offsets[c]:
    offsets[c + 1]]``; the last bucket is empty) or, for a sparse code
    space, the ``sorted_codes`` to binary-search."""

    positions: np.ndarray
    offsets: Optional[np.ndarray]
    sorted_codes: Optional[np.ndarray]


def build_probe_index(codes: np.ndarray, probe_rows: int = 0) -> ProbeIndex:
    """Index a build side's codes (-1 = no match) so every iteration of a
    loop can share it.  Offsets cost a slot per code up to the largest;
    past :func:`dense_span` of the rows of both sides (a sparse
    mixed-radix space) the sorted codes are kept instead."""
    valid = codes >= 0
    positions = np.flatnonzero(valid)
    valid_codes = codes[valid]
    order = np.argsort(valid_codes, kind="stable")
    positions = positions[order]
    cardinality = int(valid_codes.max()) + 1 if len(valid_codes) else 0
    if not dense_span(0, cardinality - 1, len(codes) + probe_rows):
        return ProbeIndex(positions, None, valid_codes[order])
    offsets = np.zeros(cardinality + 2, dtype=np.int64)
    np.cumsum(np.bincount(valid_codes, minlength=cardinality + 1),
              out=offsets[1:])
    return ProbeIndex(positions, offsets, None)


def factorize(column: Column,
              nulls_match: bool) -> tuple[np.ndarray, int]:
    """Per-column dense codes.

    Returns (codes, cardinality).  Valid values get codes in
    [0, n_unique); NULLs get ``n_unique`` when ``nulls_match`` (they form
    their own group) or -1 otherwise (they never match anything).
    ``cardinality`` counts the codes that occur: the NULL code is only
    reserved when the column has NULLs, so ``cardinality < len(codes)``
    exactly when some code repeats (the §II duplicate-key check).

    The returned array may be read-only; callers must not mutate it in
    place.  It is copied only to write the NULL group code.
    """
    dictionary = build_dictionary(column)
    n_unique = dictionary.cardinality
    if nulls_match and column.mask.any():
        codes = np.array(dictionary.codes)
        codes[column.mask] = n_unique
        return codes, n_unique + 1
    return dictionary.codes, n_unique


def encode_keys(columns: Sequence[Column],
                nulls_match: bool) -> np.ndarray:
    """Combine key columns into one int64 code per row (-1 = no-match)."""
    if not columns:
        raise ValueError("encode_keys needs at least one column")
    codes, cardinality = factorize(columns[0], nulls_match)
    return _combine_codes(codes, cardinality, columns[1:], nulls_match)


def _combine_codes(combined: np.ndarray, combined_card: int,
                   columns: Sequence[Column],
                   nulls_match: bool) -> np.ndarray:
    """Append ``columns`` to the codes of the keys before them as minor
    mixed-radix digits."""
    combined_card = max(combined_card, 1)
    for column in columns:
        codes, cardinality = factorize(column, nulls_match)
        bad = (combined < 0) | (codes < 0)
        combined = combined * max(cardinality, 1) + codes
        combined[bad] = -1
        combined_card *= max(cardinality, 1)
        if combined_card > (1 << 62):
            # Mixed-radix overflow: re-densify before continuing.
            valid = combined >= 0
            if valid.any():
                _, inverse = unique_sorted(combined[valid],
                                           return_inverse=True)
                combined = combined.copy()
                combined[valid] = inverse
                combined_card = int(inverse.max()) + 1 if len(inverse) else 1
            else:
                combined_card = 1
    return combined


def probe_buckets(left_codes: np.ndarray, index: ProbeIndex
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per probe row, the start of its bucket in ``index.positions`` and
    the bucket's size (0 for -1 codes and codes the build side lacks)."""
    if index.offsets is not None:
        # Direct addressing: out-of-range codes go to the trailing
        # empty bucket.
        empty = len(index.offsets) - 2
        codes = np.where((left_codes >= 0) & (left_codes < empty),
                         left_codes, empty)
        lo = index.offsets[codes]
        return lo, index.offsets[codes + 1] - lo
    # The sorted codes are all valid, so -1 finds an empty range.
    lo = np.searchsorted(index.sorted_codes, left_codes, "left")
    hi = np.searchsorted(index.sorted_codes, left_codes, "right")
    return lo, hi - lo


class JoinPairs(NamedTuple):
    """Matching (left_row, right_row) index pairs.

    ``left_idx`` is None when every left row matches exactly once: the
    pairs are then ``(arange(len(left)), right_idx)``, and ``right_idx``
    holds no -1.  ``single_match`` says that no left row matched more
    than one right row.
    """

    left_idx: Optional[np.ndarray]
    right_idx: np.ndarray
    single_match: bool

    def left_rows(self) -> np.ndarray:
        """``left_idx`` with the identity form spelled out."""
        if self.left_idx is None:
            return np.arange(len(self.right_idx), dtype=np.int64)
        return self.left_idx


def equi_join_pairs(left_codes: np.ndarray,
                    right_codes: np.ndarray,
                    right_index: Optional[ProbeIndex] = None
                    ) -> JoinPairs:
    """All matching (left_row, right_row) index pairs for equal codes.

    Codes of -1 never match.  Pairs are grouped by left row in left-row
    order, which downstream outer-join padding relies on, with right
    rows ascending within a left row.  When no left row matches twice
    (a key lookup into a unique build side) the pairs are read straight
    off the buckets, without expanding ranges.

    ``right_index`` is an optional prebuilt :class:`ProbeIndex` for the
    right side — a cached :class:`~repro.execution.kernel_cache.JoinIndex`
    supplies it so a loop-invariant build side is indexed once per loop,
    not per iteration.
    """
    if right_index is None:
        right_index = build_probe_index(right_codes, len(left_codes))
    lo, counts = probe_buckets(left_codes, right_index)
    if len(counts) and counts.max() <= 1:
        matched = np.flatnonzero(counts)
        right_idx = right_index.positions[lo[matched]]
        if len(matched) == len(counts):
            return JoinPairs(None, right_idx, True)
        return JoinPairs(matched, right_idx, True)
    left_idx = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    return JoinPairs(left_idx,
                     right_index.positions[expand_ranges(lo, counts)],
                     False)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + counts[i])``."""
    firsts = np.cumsum(counts) - counts
    return (np.repeat(starts - firsts, counts)
            + np.arange(int(counts.sum()), dtype=np.int64))


def group_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids plus the first-row index of each group.

    ``codes`` must have no -1 entries (use nulls_match=True encoding).
    """
    _, first_index, inverse = unique_sorted(
        codes, return_index=True, return_inverse=True)
    return inverse.astype(np.int64), first_index.astype(np.int64)


class LeadGroups(NamedTuple):
    """The leading GROUP BY key's factorization: its codes and
    cardinality, the groups they form, and ``rep``, each row's group's
    first row (None with a single key).  A loop's trip memo keeps it
    while the leading column repeats; its arrays are read-only."""

    codes: np.ndarray
    cardinality: int
    gids: np.ndarray
    first_index: np.ndarray
    rep: Optional[np.ndarray]


class Grouping(NamedTuple):
    """GROUP BY's dense group ids, the first row of each group, and how
    they were found: ``determinant`` is None when every key was encoded,
    True when the leading key decided every group, False when the check
    refuted it and the keys were encoded in full.  ``lead`` is the
    leading key's :class:`LeadGroups` when they were grouped from it."""

    gids: np.ndarray
    first_index: np.ndarray
    determinant: Optional[bool]
    lead: Optional[LeadGroups] = None


def lead_groups(column: Column, with_rep: bool) -> LeadGroups:
    """:class:`LeadGroups` of ``column``; ``rep`` only ``with_rep``."""
    codes, cardinality = factorize(column, nulls_match=True)
    gids, first_index = _dense_groups(codes, cardinality)
    rep = first_index[gids] if with_rep else None
    for array in (codes, gids, first_index, rep):
        if array is not None:
            array.setflags(write=False)
    return LeadGroups(codes, cardinality, gids, first_index, rep)


def group_keys(columns: Sequence[Column],
               lead: Optional[LeadGroups] = None) -> Grouping:
    """Exactly the ids and first rows of
    ``group_ids(encode_keys(columns, nulls_match=True))``.

    With two or more keys and an integer leading column, the leading
    column is grouped alone and every other key is checked to be
    constant within each group.  Then those keys are the minor digits of
    the mixed radix with one value per group, so full encoding would
    find the same groups in the same order.  On a mismatch the leading
    column's codes are combined with the rest, as :func:`encode_keys`
    does.  ``lead``, when given, is ``columns[0]``'s
    :class:`LeadGroups`, derived on an earlier call from equal values.
    """
    first = columns[0]
    if len(columns) >= 2 and first.data.dtype.kind not in "iu":
        gids, first_index = group_ids(encode_keys(columns, nulls_match=True))
        return Grouping(gids, first_index, None)
    if lead is None:
        lead = lead_groups(first, len(columns) >= 2)
    if len(columns) < 2:
        return Grouping(lead.gids, lead.first_index, None, lead)
    if all(_constant_per_group(column, lead.rep) for column in columns[1:]):
        return Grouping(lead.gids, lead.first_index, True, lead)
    gids, first_index = group_ids(_combine_codes(
        lead.codes, lead.cardinality, columns[1:], nulls_match=True))
    return Grouping(gids, first_index, False, lead)


def _dense_groups(codes: np.ndarray,
                  cardinality: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_ids` of codes that already are dense ranks, as
    :func:`factorize` returns them: the codes are the group ids, and
    one ``np.minimum.at`` finds each group's first row."""
    first_index = np.full(cardinality, len(codes), dtype=np.int64)
    np.minimum.at(first_index, codes, np.arange(len(codes), dtype=np.int64))
    return codes.astype(np.int64, copy=False), first_index


def _constant_per_group(column: Column, rep: np.ndarray) -> bool:
    """Whether every row holds the key value of its group's first row
    ``rep``, by full encoding's equality: NULL equals NULL, NaN equals
    NaN, -0.0 equals 0.0 and TEXT compares as :func:`comparable_values`."""
    mask = column.mask
    has_nulls = bool(mask.any())
    if has_nulls and not np.array_equal(mask[rep], mask):
        return False
    data = comparable_values(column.data)
    rep_data = data[rep]
    same = rep_data == data
    if data.dtype.kind == "f":
        same |= np.isnan(rep_data) & np.isnan(data)
    if has_nulls:
        same |= mask
    return bool(same.all())


def distinct_indices(columns: Sequence[Column]) -> np.ndarray:
    """Row indices keeping the first occurrence of each distinct row."""
    if not columns:
        return np.zeros(1, dtype=np.int64)
    codes = encode_keys(columns, nulls_match=True)
    _, first_index = group_ids(codes)
    return np.sort(first_index)


def scatter_update(old: Column, positions: np.ndarray,
                   new_values: Column) -> tuple[Column, np.ndarray]:
    """Keyed merge: scatter ``new_values`` over ``positions`` of ``old``.

    Returns (merged column, changed mask over ``positions``) where
    *changed* is SQL ``IS DISTINCT FROM`` between the old and new value
    at each position.  When nothing changed, the original column object
    is returned unchanged so its version — and any kernel-cache state
    keyed by it — survives.
    """
    if new_values.sql_type is not old.sql_type:
        new_values = new_values.cast(old.sql_type)
    changed = old.take(positions).is_distinct_from(new_values)
    if not changed.any():
        return old, changed
    data = old.data.copy()
    mask = old.mask.copy()
    data[positions] = new_values.data
    mask[positions] = new_values.mask
    return Column(old.sql_type, data, mask), changed


def sort_indices(key_columns: Sequence[Column],
                 ascending: Sequence[bool]) -> np.ndarray:
    """Stable multi-key sort order.  NULLs sort last under ASC and first
    under DESC (treated as the largest value, PostgreSQL's default)."""
    if not key_columns:
        return np.arange(0, dtype=np.int64)
    sort_keys = []
    for column, asc in zip(key_columns, ascending):
        codes, cardinality = factorize(column, nulls_match=False)
        # NULLs become the largest rank.
        ranks = np.where(codes < 0, cardinality, codes)
        if not asc:
            ranks = -ranks
        sort_keys.append(ranks)
    # np.lexsort uses the *last* key as primary.
    return np.lexsort(tuple(reversed(sort_keys))).astype(np.int64)

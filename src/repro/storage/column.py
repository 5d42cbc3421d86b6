"""Columnar storage primitive: a typed vector with a validity mask.

A :class:`Column` is the unit the vectorized executor operates on.  Values
live in a numpy array; NULLs are tracked in a parallel boolean mask (True
means NULL).  Masked slots hold an arbitrary in-band value that must never be
observed — every consumer is required to respect the mask.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

import numpy as np

from ..errors import ExecutionError, TypeCheckError
from ..types import SqlType, coerce_scalar, is_null

# Monotonic version source shared by every column.  A version uniquely
# identifies one column's contents for the lifetime of the process, which
# is what makes it safe to use as a kernel-cache key (see
# repro.execution.kernel_cache): two columns never share a version, and a
# "mutation" in this engine is always the construction of a new column.
_column_versions = itertools.count(1)

_FILL_VALUES = {
    SqlType.INTEGER: 0,
    SqlType.FLOAT: 0.0,
    SqlType.NUMERIC: 0.0,
    SqlType.BOOLEAN: False,
    SqlType.TEXT: None,
    SqlType.NULL: None,
}


_TWO_63 = 2.0 ** 63
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
# Inferred dtypes whose values the per-value coercion leaves unchanged
# (up to int -> float widening, which numpy rounds as float() does).
_WHOLE_DTYPES = {
    SqlType.INTEGER: (_INT64,),
    SqlType.FLOAT: (_INT64, _FLOAT64),
    SqlType.NUMERIC: (_INT64, _FLOAT64),
    SqlType.BOOLEAN: (np.dtype(np.bool_),),
}


def _convert_whole(sql_type: SqlType, values: list) -> np.ndarray | None:
    """``values`` as one array of ``sql_type``'s dtype when one pass is
    provably what per-value coercion gives with no NULL, else None."""
    accepted = _WHOLE_DTYPES.get(sql_type)
    if accepted is None or not values:
        return None
    try:
        data = np.array(values)
    except (TypeError, ValueError, OverflowError):
        return None
    if data.ndim != 1 or data.dtype not in accepted:
        return None
    if data.dtype == _FLOAT64 and np.isnan(data).any():
        return None  # NaN is NULL: the per-value path masks it
    return data.astype(sql_type.numpy_dtype, copy=False)


def has_padding(indices: np.ndarray) -> bool:
    """True when a gather vector holds a negative (NULL-padding) index."""
    return len(indices) > 0 and int(indices.min()) < 0


class Column:
    """An immutable typed vector of SQL values with NULL tracking."""

    __slots__ = ("sql_type", "data", "mask", "version")

    def __init__(self, sql_type: SqlType, data: np.ndarray, mask: np.ndarray):
        if len(data) != len(mask):
            raise ValueError("data and mask lengths differ")
        self.sql_type = sql_type
        self.data = data
        self.mask = mask
        self.version = next(_column_versions)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, sql_type: SqlType, values: Iterable[Any]) -> "Column":
        """Build a column from Python scalars, coercing to ``sql_type``.

        One ``np.array`` pass builds a numeric or BOOLEAN column when the
        inferred dtype proves that the per-value coercion below would give
        the same data and no NULL (:func:`_convert_whole`); anything else
        — NULLs, NaN, strings, out-of-range ints, cross-type values —
        takes the per-value path, so values, masks and raised errors stay
        its own.
        """
        values = list(values)
        data = _convert_whole(sql_type, values)
        if data is not None:
            return cls(sql_type, data, np.zeros(len(data), dtype=np.bool_))
        mask = np.fromiter((is_null(v) for v in values), dtype=np.bool_,
                           count=len(values))
        fill = _FILL_VALUES[sql_type]
        coerced = [fill if is_null(v) else coerce_scalar(v, sql_type)
                   for v in values]
        data = np.array(coerced, dtype=sql_type.numpy_dtype)
        return cls(sql_type, data, mask)

    @classmethod
    def from_numpy(cls, sql_type: SqlType, data: np.ndarray,
                   mask: np.ndarray | None = None) -> "Column":
        """Wrap an existing numpy array (no copy) as a column."""
        if mask is None:
            mask = np.zeros(len(data), dtype=np.bool_)
        return cls(sql_type, data, mask)

    @classmethod
    def nulls(cls, sql_type: SqlType, count: int) -> "Column":
        """A column of ``count`` NULLs of the given type."""
        fill = _FILL_VALUES[sql_type]
        data = np.full(count, fill, dtype=sql_type.numpy_dtype)
        return cls(sql_type, data, np.ones(count, dtype=np.bool_))

    @classmethod
    def constant(cls, sql_type: SqlType, value: Any, count: int) -> "Column":
        """A column repeating one scalar ``count`` times."""
        if is_null(value):
            return cls.nulls(sql_type, count)
        coerced = coerce_scalar(value, sql_type)
        data = np.full(count, coerced, dtype=sql_type.numpy_dtype)
        return cls(sql_type, data, np.zeros(count, dtype=np.bool_))

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def __getitem__(self, index: int) -> Any:
        if self.mask[index]:
            return None
        value = self.data[index]
        return self._to_python(value)

    def _to_python(self, value: Any) -> Any:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        return value

    def to_list(self) -> list[Any]:
        """Materialize as a list of Python scalars (None for NULL).

        ``ndarray.tolist`` converts the whole vector in one C pass (numpy
        scalars become native ints/floats/bools); only the NULL slots are
        then patched, so cost is O(n) + O(nulls) instead of n per-element
        numpy indexing round-trips.
        """
        values = self.data.tolist()
        if self.mask.any():
            for i in np.nonzero(self.mask)[0].tolist():
                values[i] = None
        return values

    # -- vector operations used by operators -------------------------------

    def take(self, indices: np.ndarray,
             padded: bool | None = None) -> "Column":
        """Gather rows by position.  Negative indices mean 'emit NULL'.

        The NULL-on-negative convention is what the left outer join uses to
        pad unmatched probe rows.  ``padded`` says whether ``indices`` holds
        a negative index (:func:`has_padding`); a caller gathering many
        columns by one vector classifies it once and passes the answer.
        Without padding the data is one ``ndarray.take`` and the mask is
        gathered only when the column holds a NULL.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if padded is None:
            padded = has_padding(indices)
        if not padded and len(self.data):
            if self.mask.any():
                mask = self.mask.take(indices)
            else:
                mask = np.zeros(len(indices), dtype=np.bool_)
            return Column(self.sql_type, self.data.take(indices), mask)
        null_out = indices < 0
        safe = np.where(null_out, 0, indices)
        if len(self.data):
            data = self.data[safe]
            mask = self.mask[safe] | null_out
        else:
            # Gathering from an empty column only makes sense if every
            # index demands a NULL.
            if not null_out.all():
                raise IndexError("take from empty column with real indices")
            data = np.full(len(indices), _FILL_VALUES[self.sql_type],
                           dtype=self.sql_type.numpy_dtype)
            mask = np.ones(len(indices), dtype=np.bool_)
        return Column(self.sql_type, data, mask)

    def filter(self, keep: np.ndarray) -> "Column":
        """Keep rows where the boolean vector ``keep`` is True."""
        return Column(self.sql_type, self.data[keep], self.mask[keep])

    def slice(self, start: int, stop: int) -> "Column":
        return Column(self.sql_type, self.data[start:stop],
                      self.mask[start:stop])

    def cast(self, target: SqlType) -> "Column":
        """CAST to ``target``, preserving NULLs."""
        if target is self.sql_type:
            return self
        if self.sql_type is SqlType.NULL:
            # An untyped all-NULL column: retype without touching data.
            return Column.nulls(target, len(self))
        from ..types import can_cast
        if not can_cast(self.sql_type, target):
            raise TypeCheckError(
                f"cannot cast {self.sql_type} to {target}")
        if target is SqlType.TEXT:
            # Bulk-convert via tolist (one C pass), then stringify; the
            # masked slots keep an arbitrary in-band value.
            raw = self.data.tolist()
            if self.sql_type is SqlType.BOOLEAN:
                strings = ["true" if v else "false" for v in raw]
            else:
                strings = [str(v) for v in raw]
            data = np.empty(len(strings), dtype=object)
            data[:] = strings
            return Column(target, data, self.mask.copy())
        if self.sql_type is SqlType.TEXT:
            raw = self.data.tolist()
            nulls = self.mask.tolist()
            values = [None if null else coerce_scalar(value, target)
                      for value, null in zip(raw, nulls)]
            return Column.from_values(target, values)
        source = self.data
        if target is SqlType.INTEGER and source.dtype.kind == "f":
            if self.mask.any():
                source = np.where(self.mask, 0.0, source)
            # Float -> int64 truncates; outside [-2^63, 2^63), NaN and
            # ±inf astype would wrap with only a RuntimeWarning.
            if not ((source >= -_TWO_63) & (source < _TWO_63)).all():
                raise ExecutionError("integer out of range")
        data = source.astype(target.numpy_dtype)
        return Column(target, data, self.mask.copy())

    def concat(self, other: "Column") -> "Column":
        """Append another column of a compatible type."""
        from ..types import common_type
        target = common_type(self.sql_type, other.sql_type)
        left = self if self.sql_type is target else self.cast(target)
        right = other if other.sql_type is target else other.cast(target)
        data = np.concatenate([left.data, right.data])
        mask = np.concatenate([left.mask, right.mask])
        return Column(target, data, mask)

    def equals(self, other: "Column") -> np.ndarray:
        """Element-wise SQL equality as a boolean vector where NULL = NULL
        yields False (used for change detection the DELTA condition needs a
        separate helper: :meth:`is_distinct_from`)."""
        both_valid = ~self.mask & ~other.mask
        eq = np.zeros(len(self), dtype=np.bool_)
        if both_valid.any():
            eq[both_valid] = self.data[both_valid] == other.data[both_valid]
        return eq

    def is_distinct_from(self, other: "Column") -> np.ndarray:
        """SQL IS DISTINCT FROM: NULL vs NULL is *not* distinct."""
        if len(self) != len(other):
            raise ValueError("length mismatch")
        both_null = self.mask & other.mask
        either_null = self.mask | other.mask
        differs = np.zeros(len(self), dtype=np.bool_)
        both_valid = ~either_null
        if both_valid.any():
            differs[both_valid] = (self.data[both_valid]
                                   != other.data[both_valid])
        return (either_null & ~both_null) | differs

    def nbytes(self) -> int:
        """Approximate memory footprint (drives movement accounting)."""
        if self.sql_type is SqlType.TEXT:
            payload = sum(len(v) for v, m in zip(self.data, self.mask)
                          if not m and isinstance(v, str))
            return payload + self.mask.nbytes
        return self.data.nbytes + self.mask.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = self.to_list()[:8]
        suffix = "..." if len(self) > 8 else ""
        return f"Column({self.sql_type}, {preview}{suffix})"

"""Runtime row batches.

A :class:`Frame` is the value flowing between physical operators: an
ordered set of columns labelled with :class:`~repro.plan.logical.Field`
descriptors.  Resolution of column references against a frame uses exactly
the same rules as bind-time resolution (see :mod:`repro.plan.binding`), so
anything the builder accepted will resolve at run time.

This module also owns the typed columnar **wire format**
(:func:`table_to_wire` / :func:`table_from_wire`) used by the MPP
exchange operators: a batch decomposes into a small picklable header
plus one raw ndarray block per column buffer (data and validity mask),
which the pipe transport pickles as contiguous buffers.
"""

from __future__ import annotations

import pickle
from typing import Callable, Sequence

import numpy as np

from ..errors import ExecutionError
from ..plan.binding import resolve_column
from ..plan.logical import Field
from ..sql import ast
from ..storage import Column, ColumnSchema, Schema, Table
from ..storage.column import has_padding, selection
from ..types import SqlType


class Frame:
    """Columns + field labels + an explicit row count.

    The explicit count matters for zero-column frames (the one-row "dual"
    frame behind ``SELECT 1``).
    """

    __slots__ = ("fields", "columns", "num_rows")

    def __init__(self, fields: Sequence[Field], columns: Sequence[Column],
                 num_rows: int | None = None):
        fields = tuple(fields)
        columns = list(columns)
        if len(fields) != len(columns):
            raise ExecutionError("frame fields/columns length mismatch")
        if num_rows is None:
            if not columns:
                raise ExecutionError(
                    "zero-column frame needs an explicit row count")
            num_rows = len(columns[0])
        for column in columns:
            if len(column) != num_rows:
                raise ExecutionError("ragged frame columns")
        self.fields = fields
        self.columns = columns
        self.num_rows = num_rows

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, fields: Sequence[Field]) -> "Frame":
        """Label a stored table's columns with the plan's fields.

        Types are reconciled: a stored column whose type drifted (e.g. an
        all-NULL column typed NULL) is cast to the declared field type.
        """
        fields = tuple(fields)
        if len(fields) != len(table.columns):
            raise ExecutionError(
                f"stored result has {len(table.columns)} columns, "
                f"plan expects {len(fields)}")
        columns = []
        for field, column in zip(fields, table.columns):
            if column.sql_type is not field.sql_type:
                column = column.cast(field.sql_type)
            columns.append(column)
        return cls(fields, columns, table.num_rows)

    @classmethod
    def dual(cls) -> "Frame":
        """The one-row, zero-column frame behind SELECT-without-FROM."""
        return cls((), [], num_rows=1)

    # -- access ---------------------------------------------------------------

    def resolve(self, ref: ast.ColumnRef) -> Column:
        return self.columns[resolve_column(self.fields, ref)]

    def to_table(self, names: Sequence[str] | None = None) -> Table:
        """Materialize as a Table, optionally renaming columns.

        SQL allows duplicate output column names (``SELECT a.x, b.x``);
        Table schemas do not, so duplicates are suffixed ``_2``, ``_3``…
        """
        if names is None:
            names = [f.name for f in self.fields]
            seen: dict[str, int] = {}
            deduped = []
            for name in names:
                count = seen.get(name, 0) + 1
                seen[name] = count
                deduped.append(name if count == 1 else f"{name}_{count}")
            names = deduped
        schema = Schema(tuple(
            ColumnSchema(name, column.sql_type)
            for name, column in zip(names, self.columns)))
        return Table(schema, list(self.columns))

    # -- transforms -------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Frame":
        padded = has_padding(indices)
        return Frame(self.fields,
                     [c.take(indices, padded) for c in self.columns],
                     num_rows=len(indices))

    def filter(self, keep: np.ndarray) -> "Frame":
        rows, count = selection(keep)
        return Frame(self.fields, [c.select(rows) for c in self.columns],
                     num_rows=count)

    def slice(self, start: int, stop: int) -> "Frame":
        stop = min(stop, self.num_rows)
        start = min(start, stop)
        return Frame(self.fields,
                     [c.slice(start, stop) for c in self.columns],
                     num_rows=stop - start)

    def concat(self, other: "Frame") -> "Frame":
        if len(self.fields) != len(other.fields):
            raise ExecutionError("cannot concat frames of different widths")
        columns = [a.concat(b)
                   for a, b in zip(self.columns, other.columns)]
        fields = tuple(
            Field(f.qualifier, f.name, c.sql_type)
            for f, c in zip(self.fields, columns))
        return Frame(fields, columns, self.num_rows + other.num_rows)

    def join_pairs(self, other: "Frame", left_idx: np.ndarray | None,
                   right_idx: np.ndarray, positions: Sequence[int],
                   take: Callable[[int, Column, np.ndarray, bool], Column]
                   | None = None) -> "Frame":
        """Gather a joined frame from index pairs; -1 emits NULL (outer pad).

        ``positions`` picks, in order, the columns to gather out of
        ``self``'s then ``other``'s.  Each side's index vector is
        classified once, so a side with no padding gathers every column
        on the pad-free path.  A ``left_idx`` of None pairs every row of
        ``self`` once, in order, with a pad-free ``right_idx``
        (:class:`~repro.execution.kernels.JoinPairs`): ``self``'s columns
        pass through as the same objects.  ``take(position, column,
        indices, padded)``, when given, does each gather in place of
        ``column.take(indices, padded)``.
        """
        if take is None:
            take = _take
        n_left = len(self.columns)
        if left_idx is None:
            right_padded = False
        else:
            left_padded = has_padding(left_idx)
            right_padded = has_padding(right_idx)
        fields, columns = [], []
        for i in positions:
            if i < n_left:
                column = self.columns[i]
                if left_idx is not None:
                    column = take(i, column, left_idx, left_padded)
                fields.append(self.fields[i])
                columns.append(column)
            else:
                fields.append(other.fields[i - n_left])
                columns.append(take(i, other.columns[i - n_left],
                                    right_idx, right_padded))
        return Frame(fields, columns, len(right_idx))


def _take(_position: int, column: Column, indices: np.ndarray,
          padded: bool) -> Column:
    return column.take(indices, padded)


# ---------------------------------------------------------------------------
# Columnar wire format (MPP exchange batches)
# ---------------------------------------------------------------------------
#
# A wire batch is ``(meta, blocks)``: ``meta`` is a tiny plain dict
# (column names/types, row count, per-column encoding) and ``blocks`` is
# a flat list of buffers — for a fixed-width column its data ndarray
# followed by its mask ndarray; for a TEXT (object-dtype) column a
# pickled bytes payload followed by the mask ndarray.

_WIRE_NDARRAY = "ndarray"
_WIRE_PICKLE = "pickle"


def table_to_wire(table: Table) -> tuple[dict, list]:
    """Decompose a table into a picklable header and raw buffer blocks."""
    meta = {
        "names": [c.name for c in table.schema.columns],
        "types": [c.sql_type.name for c in table.schema.columns],
        "num_rows": table.num_rows,
        "encodings": [],
    }
    blocks: list = []
    for column in table.columns:
        if column.data.dtype == object:
            meta["encodings"].append(_WIRE_PICKLE)
            blocks.append(pickle.dumps(column.data,
                                       protocol=pickle.HIGHEST_PROTOCOL))
        else:
            meta["encodings"].append(_WIRE_NDARRAY)
            blocks.append(np.ascontiguousarray(column.data))
        blocks.append(np.ascontiguousarray(column.mask))
    return meta, blocks


def table_from_wire(meta: dict, blocks: list) -> Table:
    """Rebuild a table from its wire decomposition."""
    schema = Schema(tuple(
        ColumnSchema(name, SqlType[type_name])
        for name, type_name in zip(meta["names"], meta["types"])))
    columns = []
    for i, encoding in enumerate(meta["encodings"]):
        data, mask = blocks[2 * i], blocks[2 * i + 1]
        if encoding == _WIRE_PICKLE:
            data = pickle.loads(data)
        elif encoding != _WIRE_NDARRAY:
            raise ExecutionError(f"unknown wire encoding {encoding!r}")
        columns.append(Column.from_numpy(
            schema.columns[i].sql_type, data, mask))
    return Table(schema, columns)

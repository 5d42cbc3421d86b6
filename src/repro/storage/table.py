"""Tables and schemas.

A :class:`Table` is an ordered collection of equally long named
:class:`~repro.storage.column.Column` objects.  Tables are the value flowing
between executor operators; base tables living in the catalog are also
Tables (plus catalog metadata such as the primary key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CatalogError, TypeCheckError
from ..types import SqlType
from .column import Column


@dataclass(frozen=True)
class ColumnSchema:
    """Name and type of one column."""

    name: str
    sql_type: SqlType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} {self.sql_type}"


@dataclass(frozen=True)
class Schema:
    """Ordered column definitions plus an optional primary-key column.

    The primary key matters to iterative CTEs: it is the row identity used
    to merge the working table back into the main CTE table (paper §II).
    """

    columns: tuple[ColumnSchema, ...]
    primary_key: str | None = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        if self.primary_key is not None and self.primary_key not in names:
            raise CatalogError(
                f"primary key {self.primary_key!r} is not a column")

    @classmethod
    def of(cls, *pairs: tuple[str, SqlType],
           primary_key: str | None = None) -> "Schema":
        return cls(tuple(ColumnSchema(n, t) for n, t in pairs), primary_key)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def type_of(self, name: str) -> SqlType:
        for column in self.columns:
            if column.name == name:
                return column.sql_type
        raise CatalogError(f"no such column: {name!r}")

    def index_of(self, name: str) -> int:
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise CatalogError(f"no such column: {name!r}")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[ColumnSchema]:
        return iter(self.columns)


class Table:
    """A materialized relation: a schema and one Column per schema entry."""

    def __init__(self, schema: Schema, columns: Sequence[Column]):
        if len(schema) != len(columns):
            raise TypeCheckError(
                f"schema has {len(schema)} columns, got {len(columns)}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise TypeCheckError(f"ragged columns: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = list(columns)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, [Column.from_values(c.sql_type, [])
                            for c in schema])

    @classmethod
    def from_rows(cls, schema: Schema,
                  rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from an iterable of row tuples."""
        rows = list(rows)
        columns = []
        for i, col_schema in enumerate(schema):
            columns.append(Column.from_values(
                col_schema.sql_type, (row[i] for row in rows)))
        return cls(schema, columns)

    @classmethod
    def from_columns(cls, names_types_values) -> "Table":
        """Build from [(name, type, values), ...] triples."""
        schema = Schema(tuple(ColumnSchema(n, t)
                              for n, t, _ in names_types_values))
        columns = [Column.from_values(t, vals)
                   for _, t, vals in names_types_values]
        return cls(schema, columns)

    # -- accessors ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0])

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def rows(self) -> list[tuple[Any, ...]]:
        """Materialize all rows as Python tuples (None for NULL)."""
        lists = [c.to_list() for c in self.columns]
        return list(zip(*lists)) if lists else []

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows()]

    def nbytes(self) -> int:
        return sum(c.nbytes() for c in self.columns)

    # -- row-level transforms used by operators ----------------------------

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.schema, [c.take(indices) for c in self.columns])

    def filter(self, keep: np.ndarray) -> "Table":
        return Table(self.schema, [c.filter(keep) for c in self.columns])

    def slice(self, start: int, stop: int) -> "Table":
        return Table(self.schema,
                     [c.slice(start, stop) for c in self.columns])

    def rename_columns(self, names: Sequence[str]) -> "Table":
        if len(names) != len(self.schema):
            raise TypeCheckError(
                f"expected {len(self.schema)} names, got {len(names)}")
        schema = Schema(tuple(ColumnSchema(n, c.sql_type)
                              for n, c in zip(names, self.schema.columns)),
                        self.schema.primary_key
                        if self.schema.primary_key in names else None)
        return Table(schema, self.columns)

    def concat(self, other: "Table") -> "Table":
        """UNION ALL two compatible tables; keeps this table's names."""
        if len(self.schema) != len(other.schema):
            raise TypeCheckError("UNION arms have different column counts")
        columns = [a.concat(b)
                   for a, b in zip(self.columns, other.columns)]
        schema = Schema(tuple(
            ColumnSchema(s.name, c.sql_type)
            for s, c in zip(self.schema.columns, columns)),
            self.schema.primary_key)
        return Table(schema, columns)

    def copy(self) -> "Table":
        """A snapshot safe to retain across updates (columns are immutable,
        so sharing them is enough)."""
        return Table(self.schema, list(self.columns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Table({', '.join(map(str, self.schema.columns))};"
                f" {self.num_rows} rows)")


def pretty_table(table: Table, limit: int = 20) -> str:
    """Render a table as aligned text (used by examples and EXPLAIN)."""
    names = table.schema.names
    rows = table.rows()[:limit]
    cells = [[("NULL" if v is None else
               f"{v:.5f}".rstrip("0").rstrip(".") if isinstance(v, float)
               else str(v)) for v in row] for row in rows]
    widths = [max([len(n)] + [len(r[i]) for r in cells])
              for i, n in enumerate(names)]
    header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in cells]
    lines = [header, rule, *body]
    if table.num_rows > limit:
        lines.append(f"... ({table.num_rows} rows total)")
    return "\n".join(lines)

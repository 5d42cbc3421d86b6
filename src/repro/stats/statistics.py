"""Table and column statistics (the ANALYZE subsystem).

MPPDB's cost-based optimizations rest on a statistics subsystem the paper
explicitly leaves untouched ("No changes are needed for cost based
optimizations or the cost subsystems (statistics, cost formulas, ..)").
This module provides that substrate: per-table row counts and per-column
null fraction, distinct count and min/max, collected by ``ANALYZE`` and
consumed by the cost model in :mod:`repro.stats.costing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..execution.kernels import unique_sorted
from ..storage import Catalog, Column, Table
from ..types import SqlType


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary of one column's value distribution."""

    null_fraction: float
    distinct_count: int
    min_value: Optional[float]
    max_value: Optional[float]

    @property
    def selectivity_of_equality(self) -> float:
        """Estimated fraction of rows matched by ``col = constant``."""
        if self.distinct_count <= 0:
            return 0.0
        return (1.0 - self.null_fraction) / self.distinct_count

    def selectivity_of_range(self, low: Optional[float],
                             high: Optional[float]) -> float:
        """Estimated fraction matched by a range predicate, assuming a
        uniform distribution between min and max."""
        if self.min_value is None or self.max_value is None:
            return 0.33  # no numeric statistics: textbook default
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0 - self.null_fraction
        lo = self.min_value if low is None else max(low, self.min_value)
        hi = self.max_value if high is None else min(high, self.max_value)
        if hi <= lo:
            return 0.0
        return (1.0 - self.null_fraction) * (hi - lo) / span


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics."""

    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())


def analyze_column(column: Column) -> ColumnStatistics:
    """Collect statistics for one column in a single pass."""
    count = len(column)
    if count == 0:
        return ColumnStatistics(0.0, 0, None, None)
    nulls = int(column.mask.sum())
    null_fraction = nulls / count
    valid = ~column.mask
    if not valid.any():
        return ColumnStatistics(1.0, 0, None, None)
    values = column.data[valid]
    if column.sql_type is SqlType.TEXT:
        distinct = len(unique_sorted(values.astype(str)))
        return ColumnStatistics(null_fraction, distinct, None, None)
    distinct = len(unique_sorted(values))
    if column.sql_type is SqlType.BOOLEAN:
        return ColumnStatistics(null_fraction, distinct, None, None)
    return ColumnStatistics(null_fraction, distinct,
                            float(values.min()), float(values.max()))


def analyze_table(table: Table) -> TableStatistics:
    columns = {
        schema.name.lower(): analyze_column(column)
        for schema, column in zip(table.schema.columns, table.columns)
    }
    return TableStatistics(table.num_rows, columns)


class StatisticsCatalog:
    """Statistics per base table, refreshed by ANALYZE."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._tables: dict[str, TableStatistics] = {}

    def analyze(self, table_name: Optional[str] = None) -> list[str]:
        """Collect statistics for one table (or all).  Returns the names
        analyzed."""
        if table_name is not None:
            names = [table_name.lower()]
            # Raises CatalogError for unknown tables.
            self._catalog.get(table_name)
        else:
            names = self._catalog.table_names()
        for name in names:
            self._tables[name] = analyze_table(self._catalog.get(name))
        return names

    def table(self, name: str) -> Optional[TableStatistics]:
        """Stored statistics, or a row-count-only fallback computed on
        demand (real engines estimate from physical size similarly)."""
        key = name.lower()
        stored = self._tables.get(key)
        if stored is not None:
            return stored
        if self._catalog.exists(key):
            return TableStatistics(self._catalog.get(key).num_rows)
        return None

    def invalidate(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def analyzed_tables(self) -> list[str]:
        return sorted(self._tables)

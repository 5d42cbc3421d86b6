"""Statistics (ANALYZE) and the cardinality estimates join reordering
reads."""

from .costing import CardinalityEstimator
from .statistics import (
    ColumnStatistics,
    StatisticsCatalog,
    TableStatistics,
    analyze_column,
    analyze_table,
)

__all__ = [
    "CardinalityEstimator",
    "ColumnStatistics",
    "StatisticsCatalog",
    "TableStatistics",
    "analyze_column",
    "analyze_table",
]

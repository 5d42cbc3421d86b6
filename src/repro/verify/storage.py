"""Storage-layer verifier: SegmentedTable consolidation invariants.

The append-only loop path accumulates immutable segments and rebuilds
contiguous columns lazily (see :mod:`repro.storage.segmented`).  Two
families of invariants must survive every append/consolidate cycle:

* **watermarks** — the per-segment cumulative row counts are strictly
  increasing (appends are never empty) and the final watermark equals
  the table's ``num_rows``;
* **consolidated columns** — after consolidation, every column's dtype
  matches its schema type's numpy dtype, every column (and its validity
  mask) has exactly ``num_rows`` entries, and the flat table agrees
  with the pre-consolidation row count.

The merge handler runs these checks after every fixpoint append when the
session's ``enable_plan_verifier`` option is on (the default),
so a regression in the O(|delta|) append path fails loudly instead of
silently corrupting loop results.
"""

from __future__ import annotations

from ..errors import VerificationError
from ..storage.segmented import SegmentedTable


def check_segmented_table(table: SegmentedTable,
                          consolidate: bool = False) -> list[str]:
    """All invariant violations in ``table`` (empty when well-formed).

    With ``consolidate=True`` the check forces a consolidation and also
    validates the contiguous columns; otherwise only the metadata
    invariants (watermarks, schema arity) are checked, leaving the
    table's lazy state untouched.
    """
    violations: list[str] = []
    marks = table.watermarks
    total = table.num_rows
    if len(marks) != table.segment_count:
        violations.append(
            f"{len(marks)} watermarks for {table.segment_count} segments")
    previous = 0
    for i, mark in enumerate(marks):
        if mark <= previous and not (mark == 0 and previous == 0):
            violations.append(
                f"watermark {i} is {mark}, not above the preceding "
                f"{previous} (segments must never be empty)")
        previous = mark
    if marks and marks[-1] != total:
        violations.append(
            f"final watermark {marks[-1]} disagrees with num_rows "
            f"{total}")
    for segment in table._segments:
        if len(segment.schema) != len(table.schema):
            violations.append(
                f"segment arity {len(segment.schema)} diverges from the "
                f"table schema arity {len(table.schema)}")
            break
    if not consolidate:
        return violations

    columns = table.columns  # forces consolidation
    for col_schema, column in zip(table.schema.columns, columns):
        expected = col_schema.sql_type.numpy_dtype
        if column.data.dtype != expected:
            violations.append(
                f"consolidated column {col_schema.name!r} has dtype "
                f"{column.data.dtype}, schema says {expected}")
        if len(column) != total:
            violations.append(
                f"consolidated column {col_schema.name!r} has "
                f"{len(column)} rows, table has {total}")
        if len(column.mask) != len(column.data):
            violations.append(
                f"consolidated column {col_schema.name!r} mask length "
                f"{len(column.mask)} diverges from data length "
                f"{len(column.data)}")
    if table.num_rows != total:
        violations.append(
            f"consolidation changed num_rows from {total} to "
            f"{table.num_rows}")
    return violations


def verify_segmented_table(table: SegmentedTable, pass_name: str,
                           consolidate: bool = False) -> None:
    """Raise :class:`VerificationError` if ``table`` violates the
    consolidation invariants."""
    violations = check_segmented_table(table, consolidate=consolidate)
    if violations:
        raise VerificationError(pass_name, violations)

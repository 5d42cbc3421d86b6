"""Boolean filters gather by a selection vector.

``Column.filter``, ``Table.filter``, ``Frame.filter`` and the MPP
``split_table`` turn a keep mask into row indices once
(``storage.column.selection``) and gather every column by them, or by
the mask itself when it keeps nearly every row.  These tests hold each
of them to plain ``data[keep]`` / ``mask[keep]`` on data, mask, dtype,
SQL type and row count, across masks on both sides of the crossover.
"""

import numpy as np
import pytest

from repro.execution.frame import Frame
from repro.mpp import hash_partition_indices, split_table
from repro.plan.logical import Field
from repro.storage import Column, Schema, Table
from repro.storage.column import DENSE_KEEP, selection
from repro.types import SqlType

ROWS = 2000
TYPES = (SqlType.INTEGER, SqlType.FLOAT, SqlType.TEXT, SqlType.BOOLEAN)
SHARES = {"none": 0.0, "one": None, "1%": 0.01, "50%": 0.5, "90%": 0.9,
          "99.9%": 0.999, "all": 1.0}


def make_column(sql_type, rows, nulls, rng):
    if sql_type is SqlType.INTEGER:
        data = rng.integers(-(1 << 40), 1 << 40, rows)
    elif sql_type is SqlType.FLOAT:
        data = rng.standard_normal(rows)
    elif sql_type is SqlType.BOOLEAN:
        data = rng.random(rows) < 0.5
    else:
        data = np.empty(rows, dtype=object)
        data[:] = [f"v{i}" for i in rng.integers(0, 50, rows)]
    mask = (rng.random(rows) < 0.2 if nulls
            else np.zeros(rows, dtype=np.bool_))
    return Column.from_numpy(sql_type, data, mask)


def make_table(rows, nulls, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema.of(*((f"c{i}", t) for i, t in enumerate(TYPES)))
    return Table(schema, [make_column(t, rows, nulls, rng) for t in TYPES])


def make_keep(share, rows, seed=1):
    """A random keep mask with about ``share`` of ``rows`` set; a share
    of None keeps exactly one row."""
    rng = np.random.default_rng(seed)
    if share is None:
        keep = np.zeros(rows, dtype=np.bool_)
        if rows:
            keep[rng.integers(rows)] = True
        return keep
    if share in (0.0, 1.0):
        return np.full(rows, share == 1.0, dtype=np.bool_)
    return rng.random(rows) < share


def assert_column_is(got, data, mask, sql_type):
    assert got.sql_type is sql_type
    assert got.data.dtype == data.dtype
    assert got.mask.dtype == np.bool_
    assert len(got.data) == len(got.mask) == len(data)
    assert np.array_equal(got.data, data)
    assert np.array_equal(got.mask, mask)


def assert_filtered(got_columns, columns, keep):
    assert len(got_columns) == len(columns)
    for got, column in zip(got_columns, columns):
        assert_column_is(got, column.data[keep], column.mask[keep],
                         column.sql_type)


@pytest.fixture(params=[False, True], ids=["no-nulls", "nulls"])
def nulls(request):
    return request.param


@pytest.fixture(params=list(SHARES), ids=list(SHARES))
def share(request):
    return SHARES[request.param]


@pytest.mark.parametrize("rows", [ROWS, 0], ids=["rows", "empty"])
class TestFilterMatchesBooleanMasking:
    def test_column(self, rows, nulls, share):
        table = make_table(rows, nulls)
        keep = make_keep(share, rows)
        assert_filtered([c.filter(keep) for c in table.columns],
                        table.columns, keep)

    def test_table(self, rows, nulls, share):
        table = make_table(rows, nulls)
        keep = make_keep(share, rows)
        filtered = table.filter(keep)
        assert filtered.schema == table.schema
        assert filtered.num_rows == int(keep.sum())
        assert_filtered(filtered.columns, table.columns, keep)

    def test_frame(self, rows, nulls, share):
        table = make_table(rows, nulls)
        fields = [Field("t", c.name, c.sql_type) for c in table.schema]
        frame = Frame(fields, table.columns)
        keep = make_keep(share, rows)
        filtered = frame.filter(keep)
        assert filtered.fields == frame.fields
        assert filtered.num_rows == int(keep.sum())
        assert_filtered(filtered.columns, frame.columns, keep)


def test_zero_column_frame_counts_kept_rows(share):
    keep = make_keep(share, ROWS)
    assert Frame((), [], num_rows=ROWS).filter(keep).num_rows == \
        int(keep.sum())


def test_selection_switches_at_the_crossover():
    """Past DENSE_KEEP the keep mask gathers as is; below, by indices."""
    for share in (0.0, 0.01, 0.5, DENSE_KEEP - 0.05):
        keep = make_keep(share, ROWS)
        rows, count = selection(keep)
        assert rows.dtype == np.int64 and count == int(keep.sum())
        assert np.array_equal(rows, np.flatnonzero(keep))
    for share in (DENSE_KEEP + 0.05, 0.999, 1.0):
        keep = make_keep(share, ROWS)
        rows, count = selection(keep)
        assert rows is keep and count == int(keep.sum())


@pytest.mark.parametrize("segments", [1, 2, 4])
@pytest.mark.parametrize("rows", [ROWS, 0], ids=["rows", "empty"])
def test_split_table_matches_boolean_masking(segments, rows, nulls):
    table = make_table(rows, nulls, seed=segments)
    assignment = hash_partition_indices(table.column("c0"), segments)
    pieces = split_table(table, assignment, segments)
    assert len(pieces) == segments
    for s, piece in enumerate(pieces):
        assert piece.schema == table.schema
        assert_filtered(piece.columns, table.columns, assignment == s)
    # Concatenated, the pieces are the input grouped by segment, each
    # segment's rows in input order.
    joined = pieces[0]
    for piece in pieces[1:]:
        joined = joined.concat(piece)
    order = np.argsort(assignment, kind="stable")
    assert joined.num_rows == rows
    for got, column in zip(joined.columns, table.columns):
        assert_column_is(got, column.data[order], column.mask[order],
                         column.sql_type)

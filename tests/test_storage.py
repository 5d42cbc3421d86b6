"""Storage tests: columns, tables, catalog, and the result registry."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import CatalogError, TypeCheckError
from repro.storage import Catalog, Column, ResultRegistry, Schema, Table
from repro.storage.column import has_padding
from repro.storage.table import ColumnSchema, pretty_table
from repro.types import SqlType

values_with_nulls = st.lists(
    st.one_of(st.none(), st.integers(-1000, 1000)), max_size=30)


class TestColumn:
    def test_from_values_tracks_nulls(self):
        column = Column.from_values(SqlType.INTEGER, [1, None, 3])
        assert column.to_list() == [1, None, 3]
        assert column.mask.tolist() == [False, True, False]

    def test_getitem(self):
        column = Column.from_values(SqlType.FLOAT, [1.5, None])
        assert column[0] == 1.5
        assert column[1] is None

    def test_python_scalars_returned(self):
        column = Column.from_values(SqlType.INTEGER, [1])
        assert type(column[0]) is int

    def test_constant_and_nulls(self):
        assert Column.constant(SqlType.INTEGER, 7, 3).to_list() == [7, 7, 7]
        assert Column.nulls(SqlType.FLOAT, 2).to_list() == [None, None]

    def test_take_with_null_pad(self):
        column = Column.from_values(SqlType.INTEGER, [10, 20, 30])
        taken = column.take(np.array([2, -1, 0]))
        assert taken.to_list() == [30, None, 10]

    def test_take_from_empty_all_pads(self):
        column = Column.from_values(SqlType.INTEGER, [])
        taken = column.take(np.array([-1, -1]))
        assert taken.to_list() == [None, None]

    def test_take_from_empty_with_real_index_fails(self):
        column = Column.from_values(SqlType.INTEGER, [])
        with pytest.raises(IndexError):
            column.take(np.array([0]))

    def test_filter(self):
        column = Column.from_values(SqlType.INTEGER, [1, 2, 3, 4])
        kept = column.filter(np.array([True, False, True, False]))
        assert kept.to_list() == [1, 3]

    def test_cast_int_to_float(self):
        column = Column.from_values(SqlType.INTEGER, [1, None])
        cast = column.cast(SqlType.FLOAT)
        assert cast.sql_type is SqlType.FLOAT
        assert cast.to_list() == [1.0, None]

    def test_cast_float_to_text(self):
        column = Column.from_values(SqlType.FLOAT, [1.0, None])
        assert column.cast(SqlType.TEXT).to_list() == ["1.0", None]

    def test_cast_text_to_int(self):
        column = Column.from_values(SqlType.TEXT, ["42", None])
        assert column.cast(SqlType.INTEGER).to_list() == [42, None]

    def test_invalid_cast_raises(self):
        column = Column.from_values(SqlType.TEXT, ["x"])
        with pytest.raises(TypeCheckError):
            column.cast(SqlType.BOOLEAN)

    def test_concat_widens(self):
        ints = Column.from_values(SqlType.INTEGER, [1])
        floats = Column.from_values(SqlType.FLOAT, [2.5])
        combined = ints.concat(floats)
        assert combined.sql_type is SqlType.FLOAT
        assert combined.to_list() == [1.0, 2.5]

    def test_is_distinct_from(self):
        a = Column.from_values(SqlType.INTEGER, [1, None, 3, None])
        b = Column.from_values(SqlType.INTEGER, [1, None, 4, 5])
        assert a.is_distinct_from(b).tolist() == [False, False, True, True]

    def test_equals_null_is_false(self):
        a = Column.from_values(SqlType.INTEGER, [None])
        b = Column.from_values(SqlType.INTEGER, [None])
        assert a.equals(b).tolist() == [False]

    @given(values_with_nulls)
    def test_roundtrip_property(self, values):
        column = Column.from_values(SqlType.INTEGER, values)
        assert column.to_list() == values

    @given(values_with_nulls)
    def test_filter_then_len(self, values):
        column = Column.from_values(SqlType.INTEGER, values)
        keep = np.array([v is not None for v in values], dtype=bool)
        assert len(column.filter(keep)) == int(keep.sum())

    @given(values_with_nulls, values_with_nulls)
    def test_is_distinct_from_is_symmetric(self, a_vals, b_vals):
        size = min(len(a_vals), len(b_vals))
        a = Column.from_values(SqlType.INTEGER, a_vals[:size])
        b = Column.from_values(SqlType.INTEGER, b_vals[:size])
        assert (a.is_distinct_from(b) == b.is_distinct_from(a)).all()

    @given(values_with_nulls)
    def test_never_distinct_from_itself(self, values):
        column = Column.from_values(SqlType.INTEGER, values)
        assert not column.is_distinct_from(column).any()


SAMPLES = {
    SqlType.INTEGER: [3, None, -7],
    SqlType.FLOAT: [1.5, None, -0.25],
    SqlType.NUMERIC: [2.0, None, 9.75],
    SqlType.BOOLEAN: [True, None, False],
    SqlType.TEXT: ["x", None, "yz"],
    SqlType.NULL: [None, None, None],
}


def reference_take(column, indices):
    """The padded gather, written out: -1 reads row 0 and masks it."""
    null_out = indices < 0
    safe = np.where(null_out, 0, indices)
    return column.data[safe], column.mask[safe] | null_out


class TestColumnTake:
    """The gather contract both paths of ``Column.take`` keep."""

    @pytest.mark.parametrize("sql_type", list(SAMPLES))
    def test_minus_one_pads_to_null_on_every_type(self, sql_type):
        column = Column.from_values(sql_type, SAMPLES[sql_type])
        taken = column.take(np.array([2, -1, 0, -1]))
        assert taken.sql_type is sql_type
        assert taken.data.dtype == column.data.dtype
        expected = SAMPLES[sql_type]
        assert taken.to_list() == [expected[2], None, expected[0], None]
        assert taken.mask.tolist()[1::2] == [True, True]

    @pytest.mark.parametrize("sql_type", list(SAMPLES))
    def test_unpadded_gather_matches_reference(self, sql_type):
        column = Column.from_values(sql_type, SAMPLES[sql_type])
        indices = np.array([2, 1, 1, 0], dtype=np.int64)
        taken = column.take(indices)
        data, mask = reference_take(column, indices)
        assert taken.data.dtype == data.dtype
        assert taken.data.tolist() == data.tolist()
        assert taken.mask.tolist() == mask.tolist()

    def test_no_pad_no_null_mask_is_fresh(self):
        column = Column.from_values(SqlType.INTEGER, [10, 20, 30])
        taken = column.take(np.array([2, 0, 0]))
        assert taken.to_list() == [30, 10, 10]
        assert not taken.mask.any()
        assert taken.mask.dtype == np.bool_
        assert taken.mask.flags.writeable
        assert not np.shares_memory(taken.mask, column.mask)

    def test_null_survives_gather_without_pad(self):
        column = Column.from_values(SqlType.FLOAT, [1.0, None, 3.0])
        taken = column.take(np.array([1, 2, 1]))
        assert taken.to_list() == [None, 3.0, None]
        assert not np.shares_memory(taken.mask, column.mask)

    @pytest.mark.parametrize("indices", [[0, 3], [-1, 3], [3, -1]])
    def test_out_of_range_raises_on_both_paths(self, indices):
        column = Column.from_values(SqlType.INTEGER, [1, 2, 3])
        with pytest.raises(IndexError):
            column.take(np.array(indices))

    def test_empty_column(self):
        column = Column.from_values(SqlType.TEXT, [])
        assert column.take(np.array([-1, -1])).to_list() == [None, None]
        assert len(column.take(np.array([], dtype=np.int64))) == 0
        with pytest.raises(IndexError):
            column.take(np.array([0]))

    @pytest.mark.parametrize("indices", [[0, 1], [-1, 1]])
    def test_result_has_fresh_version(self, indices):
        column = Column.from_values(SqlType.INTEGER, [1, 2])
        taken = column.take(np.array(indices))
        assert taken.version > column.version

    @given(values_with_nulls, st.lists(st.integers(-1, 29), max_size=40))
    def test_bit_identical_to_padded_reference(self, values, raw):
        assume(values)
        column = Column.from_values(SqlType.INTEGER, values)
        indices = np.array([i for i in raw if i < len(values)],
                           dtype=np.int64)
        data, mask = reference_take(column, indices)
        for padded in (None, has_padding(indices)):
            taken = column.take(indices, padded)
            assert taken.data.tolist() == data.tolist()
            assert taken.mask.tolist() == mask.tolist()


class TestTable:
    def _table(self):
        return Table.from_columns([
            ("a", SqlType.INTEGER, [1, 2, 3]),
            ("b", SqlType.TEXT, ["x", None, "z"]),
        ])

    def test_rows(self):
        assert self._table().rows() == [(1, "x"), (2, None), (3, "z")]

    def test_to_dicts(self):
        assert self._table().to_dicts()[0] == {"a": 1, "b": "x"}

    def test_empty(self):
        schema = Schema.of(("a", SqlType.INTEGER))
        assert Table.empty(schema).num_rows == 0

    def test_ragged_columns_rejected(self):
        schema = Schema.of(("a", SqlType.INTEGER), ("b", SqlType.INTEGER))
        with pytest.raises(TypeCheckError):
            Table(schema, [Column.from_values(SqlType.INTEGER, [1]),
                           Column.from_values(SqlType.INTEGER, [1, 2])])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", SqlType.INTEGER), ("a", SqlType.FLOAT))

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", SqlType.INTEGER), primary_key="missing")

    def test_concat(self):
        table = self._table()
        doubled = table.concat(table)
        assert doubled.num_rows == 6

    def test_rename_columns(self):
        renamed = self._table().rename_columns(["x", "y"])
        assert renamed.schema.names == ["x", "y"]

    def test_rename_wrong_count(self):
        with pytest.raises(TypeCheckError):
            self._table().rename_columns(["only_one"])

    def test_take_and_filter(self):
        table = self._table()
        assert table.take(np.array([2, 0])).rows() == [(3, "z"), (1, "x")]
        assert table.filter(np.array([True, False, True])).num_rows == 2

    def test_pretty_table_renders(self):
        text = pretty_table(self._table())
        assert "a" in text and "NULL" in text

    def test_pretty_table_truncates(self):
        table = Table.from_columns([
            ("a", SqlType.INTEGER, list(range(100)))])
        text = pretty_table(table, limit=5)
        assert "100 rows total" in text


class TestCatalog:
    def test_create_get_drop(self):
        catalog = Catalog()
        catalog.create("t", Schema.of(("a", SqlType.INTEGER)))
        assert catalog.get("t").num_rows == 0
        catalog.drop("t")
        assert not catalog.exists("t")

    def test_names_are_case_insensitive(self):
        catalog = Catalog()
        catalog.create("MyTable", Schema.of(("a", SqlType.INTEGER)))
        assert catalog.exists("mytable")
        assert catalog.exists("MYTABLE")

    def test_duplicate_create_raises(self):
        catalog = Catalog()
        catalog.create("t", Schema.of(("a", SqlType.INTEGER)))
        with pytest.raises(CatalogError):
            catalog.create("t", Schema.of(("a", SqlType.INTEGER)))

    def test_if_not_exists_suppresses(self):
        catalog = Catalog()
        catalog.create("t", Schema.of(("a", SqlType.INTEGER)))
        catalog.create("t", Schema.of(("a", SqlType.INTEGER)),
                       if_not_exists=True)

    def test_drop_missing_raises(self):
        with pytest.raises(CatalogError):
            Catalog().drop("nope")

    def test_drop_if_exists(self):
        Catalog().drop("nope", if_exists=True)

    def test_stats_counters(self):
        catalog = Catalog()
        catalog.create("t", Schema.of(("a", SqlType.INTEGER)))
        catalog.get("t")
        catalog.drop("t")
        snapshot = catalog.stats.snapshot()
        assert snapshot["tables_created"] == 1
        assert snapshot["tables_dropped"] == 1
        assert snapshot["lookups"] == 1


class TestResultRegistry:
    def _table(self, values):
        return Table.from_columns([("a", SqlType.INTEGER, values)])

    def test_store_fetch(self):
        registry = ResultRegistry()
        registry.store("r", self._table([1]))
        assert registry.fetch("r").num_rows == 1

    def test_fetch_missing_raises(self):
        with pytest.raises(CatalogError):
            ResultRegistry().fetch("nope")

    def test_rename_moves_pointer(self):
        registry = ResultRegistry()
        registry.store("working", self._table([1, 2]))
        registry.rename("working", "main")
        assert registry.fetch("main").num_rows == 2
        assert not registry.exists("working")

    def test_rename_releases_old_target(self):
        """§VI-A: when the new name exists, its memory is released."""
        registry = ResultRegistry()
        registry.store("main", self._table([1, 2, 3]))
        registry.store("working", self._table([9]))
        registry.rename("working", "main")
        assert registry.fetch("main").rows() == [(9,)]
        assert registry.bytes_released > 0
        assert registry.renames == 1

    def test_rename_missing_source_raises(self):
        registry = ResultRegistry()
        with pytest.raises(CatalogError):
            registry.rename("ghost", "main")

    def test_rename_is_constant_time_pointer_update(self):
        """The stored table object is *the same object* after rename —
        no data movement happens (the heart of Fig. 8)."""
        registry = ResultRegistry()
        table = self._table(list(range(1000)))
        registry.store("working", table)
        registry.rename("working", "main")
        assert registry.fetch("main") is table

    def test_drop_and_clear(self):
        registry = ResultRegistry()
        registry.store("a", self._table([1]))
        registry.store("b", self._table([2]))
        registry.drop("a")
        assert registry.names() == ["b"]
        registry.clear()
        assert registry.names() == []

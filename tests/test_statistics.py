"""Statistics subsystem tests: ANALYZE, column stats, selectivities."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Database
from repro.stats import analyze_column, analyze_table
from repro.storage import Column, Table
from repro.types import SqlType


class TestColumnStatistics:
    def test_basic(self):
        column = Column.from_values(SqlType.INTEGER,
                                    [1, 2, 2, 3, None])
        stats = analyze_column(column)
        assert stats.null_fraction == pytest.approx(0.2)
        assert stats.distinct_count == 3
        assert stats.min_value == 1.0
        assert stats.max_value == 3.0

    def test_empty_column(self):
        stats = analyze_column(Column.from_values(SqlType.INTEGER, []))
        assert stats.distinct_count == 0
        assert stats.min_value is None

    def test_all_null(self):
        stats = analyze_column(
            Column.from_values(SqlType.FLOAT, [None, None]))
        assert stats.null_fraction == 1.0
        assert stats.distinct_count == 0

    def test_text_column_has_distinct_but_no_range(self):
        stats = analyze_column(
            Column.from_values(SqlType.TEXT, ["a", "b", "a"]))
        assert stats.distinct_count == 2
        assert stats.min_value is None

    def test_equality_selectivity(self):
        column = Column.from_values(SqlType.INTEGER, list(range(100)))
        stats = analyze_column(column)
        assert stats.selectivity_of_equality == pytest.approx(0.01)

    def test_range_selectivity_uniform(self):
        column = Column.from_values(SqlType.INTEGER, list(range(101)))
        stats = analyze_column(column)
        # col < 50 covers half the [0, 100] range.
        assert stats.selectivity_of_range(None, 50) \
            == pytest.approx(0.5, abs=0.01)

    def test_range_selectivity_out_of_bounds(self):
        column = Column.from_values(SqlType.INTEGER, list(range(10)))
        stats = analyze_column(column)
        assert stats.selectivity_of_range(100, None) == 0.0

    @given(st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                    min_size=1, max_size=50))
    def test_distinct_count_matches_set(self, values):
        stats = analyze_column(
            Column.from_values(SqlType.INTEGER, values))
        expected = len({v for v in values if v is not None})
        assert stats.distinct_count == expected

    @given(st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                    min_size=1, max_size=50))
    def test_null_fraction_exact(self, values):
        stats = analyze_column(
            Column.from_values(SqlType.INTEGER, values))
        expected = sum(v is None for v in values) / len(values)
        assert stats.null_fraction == pytest.approx(expected)


class TestAnalyzeStatement:
    def test_analyze_one_table(self, graph_db):
        result = graph_db.execute("ANALYZE edges")
        assert result.rows() == [("edges",)]
        stats = graph_db.statistics.table("edges")
        assert stats.row_count == 5
        assert stats.column("src").distinct_count == 4

    def test_analyze_all(self, graph_vs_db):
        result = graph_vs_db.execute("ANALYZE")
        assert sorted(r[0] for r in result.rows()) \
            == ["edges", "vertexstatus"]

    def test_analyze_unknown_table(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.execute("ANALYZE ghost")

    def test_unanalyzed_table_has_rowcount_fallback(self, graph_db):
        stats = graph_db.statistics.table("edges")
        assert stats.row_count == 5
        assert stats.column("src") is None  # no column stats yet

    def test_dml_invalidates(self, graph_db):
        graph_db.execute("ANALYZE edges")
        assert graph_db.statistics.table("edges").column("src") is not None
        graph_db.execute("INSERT INTO edges VALUES (9, 9, 1.0)")
        stats = graph_db.statistics.table("edges")
        assert stats.column("src") is None  # back to fallback
        assert stats.row_count == 6         # but the count is fresh

    def test_drop_invalidates(self, graph_db):
        graph_db.execute("ANALYZE edges")
        graph_db.execute("DROP TABLE edges")
        assert graph_db.statistics.table("edges") is None

    def test_analyzed_tables_listing(self, graph_db):
        graph_db.execute("ANALYZE edges")
        assert graph_db.statistics.analyzed_tables() == ["edges"]


class TestReadsLeaveStatisticsAlone:
    def test_iterative_select_leaves_statistics_untouched(self):
        """Only statements under the write lock (ANALYZE, DML, DDL)
        change the engine-shared statistics catalog; a query does not."""
        db = Database()
        db.execute("CREATE TABLE t (k int)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("ANALYZE")
        before = {name: copy.copy(value) if isinstance(value, dict)
                  else value
                  for name, value in vars(db.statistics).items()}
        sql = """
        WITH ITERATIVE r (k) AS (
          SELECT k FROM t ITERATE SELECT k + 1 FROM r
          UNTIL 6 ITERATIONS
        ) SELECT k FROM r"""
        assert sorted(db.execute(sql).rows()) == [(7,), (8,)]
        db.explain_analyze(sql)
        assert vars(db.statistics) == before

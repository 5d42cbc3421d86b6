"""Database façade tests: results, scripts, options, stats."""

import pytest

from repro import Database
from repro.errors import ReproError
from repro.types import SqlType


class TestQueryResult:
    def test_rows_and_dicts(self, people_db):
        result = people_db.execute("SELECT id, name FROM people "
                                   "WHERE id = 1")
        assert result.rows() == [(1, "ada")]
        assert result.to_dicts() == [{"id": 1, "name": "ada"}]
        assert result.column_names() == ["id", "name"]

    def test_scalar(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(*) FROM people").scalar() == 5

    def test_scalar_rejects_non_scalar(self, people_db):
        with pytest.raises(ReproError):
            people_db.execute("SELECT id, name FROM people").scalar()

    def test_pretty_renders(self, people_db):
        text = people_db.execute("SELECT * FROM people").pretty()
        assert "ada" in text

    def test_dml_result_has_rowcount(self, people_db):
        result = people_db.execute("DELETE FROM people WHERE id = 1")
        assert result.rowcount == 1
        assert result.rows() == []
        assert "rows affected" in result.pretty()


class TestScripts:
    def test_execute_script(self, db):
        results = db.execute_script("""
            CREATE TABLE t (a int);
            INSERT INTO t VALUES (1), (2);
            SELECT COUNT(*) FROM t;
        """)
        assert len(results) == 3
        assert results[-1].scalar() == 2


class TestOptions:
    def test_set_option(self, db):
        db.set_option("enable_rename", False)
        assert db.options.enable_rename is False

    def test_unknown_option(self, db):
        with pytest.raises(ReproError):
            db.set_option("enable_warp_drive", True)

    def test_options_object_injection(self):
        from repro.engine import SessionOptions
        options = SessionOptions(enable_rename=False)
        db = Database(options)
        assert db.options.enable_rename is False


class TestStats:
    def test_statement_counter(self, db):
        db.execute("SELECT 1")
        db.execute("SELECT 2")
        assert db.stats.statements == 2

    def test_reset(self, db):
        db.execute("SELECT 1")
        db.reset_stats()
        assert db.stats.statements == 0
        assert db.workload.units_admitted == 0

    def test_scan_counters(self, graph_db):
        graph_db.reset_stats()
        graph_db.execute("SELECT * FROM edges")
        assert graph_db.stats.rows_scanned == 5

    def test_snapshot_is_plain_dict(self, db):
        db.execute("SELECT 1")
        snapshot = db.stats.snapshot()
        assert isinstance(snapshot, dict)
        assert snapshot["statements"] == 1


class TestLoaders:
    def test_create_table_helper(self, db):
        db.create_table("t", [("a", SqlType.INTEGER)], primary_key="a")
        assert db.table("t").schema.primary_key == "a"

    def test_load_rows(self, db):
        db.create_table("t", [("a", SqlType.INTEGER)])
        assert db.load_rows("t", [(i,) for i in range(10)]) == 10
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 10

    def test_load_rows_appends(self, db):
        db.create_table("t", [("a", SqlType.INTEGER)])
        db.load_rows("t", [(1,)])
        db.load_rows("t", [(2,)])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

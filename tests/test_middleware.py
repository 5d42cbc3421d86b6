"""Middleware-baseline tests: result equivalence with the native path and
the per-statement overhead the paper's §II argues about."""

import threading

import pytest

from repro import Database
from repro.datasets import dblp_like, fresh_database, generate_edges
from repro.errors import IterationLimitError, PlanError
from repro.middleware import MiddlewareDriver
from repro.workloads import ff_query, pagerank_query, sssp_query

SPEC = dblp_like(nodes=120, seed=9)


@pytest.fixture
def native_db():
    return fresh_database(SPEC)


@pytest.fixture
def middleware_db():
    return fresh_database(SPEC)


class TestEquivalence:
    @pytest.mark.parametrize("sql_builder", [
        lambda: pagerank_query(iterations=4),
        lambda: sssp_query(source=1, iterations=5),
        lambda: ff_query(iterations=3, selectivity_mod=10,
                         order_and_limit=False),
    ], ids=["pr", "sssp", "ff"])
    def test_same_results_as_native(self, sql_builder, native_db,
                                    middleware_db):
        sql = sql_builder()
        native = sorted(native_db.execute(sql).rows())
        driver = MiddlewareDriver(middleware_db)
        external = sorted(driver.run(sql).rows())
        assert len(native) == len(external)
        for native_row, external_row in zip(native, external):
            assert native_row == pytest.approx(external_row)

    def test_data_termination_equivalence(self, native_db, middleware_db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 1 ITERATE SELECT k, v * 2 FROM r UNTIL v > 500
        ) SELECT v FROM r"""
        assert native_db.execute(sql).scalar() \
            == MiddlewareDriver(middleware_db).run(sql).scalar()

    def test_delta_termination_equivalence(self, native_db, middleware_db):
        sql = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 64 ITERATE
          SELECT k, CASE WHEN v > 1 THEN v / 2 ELSE v END FROM r
          UNTIL DELTA = 0
        ) SELECT v FROM r"""
        assert native_db.execute(sql).scalar() \
            == MiddlewareDriver(middleware_db).run(sql).scalar()
        # A NULL that becomes a value is a changed row, as the engine
        # counts it: row 1 changes in the first trip, so a second trip
        # runs and sets its flag.
        sql = """
        WITH ITERATIVE r (id, v, c) AS (
          SELECT id, v, c FROM t ITERATE
          SELECT r.id, COALESCE(r.v, 5),
                 CASE WHEN r.v IS NOT NULL AND r.c = 0 THEN 1 ELSE r.c END
          FROM r
          UNTIL DELTA < 1
        ) SELECT id, v, c FROM r"""
        for db in (native_db, middleware_db):
            db.execute("CREATE TABLE t (id int, v int, c int)")
            db.execute("INSERT INTO t VALUES (1, NULL, 0), (2, 3, 1)")
        native = sorted(native_db.execute(sql).rows())
        assert native == [(1, 5, 1), (2, 3, 1)]
        assert sorted(MiddlewareDriver(middleware_db).run(sql).rows()) \
            == native

    def test_step_without_where_replaces_the_table(self, native_db,
                                                   middleware_db):
        """Algorithm 1 renames the working table over a step without
        WHERE: keys the step adds enter the result and keys it drops
        leave it, rather than being merged into the old rows by key."""
        sql = """
        WITH ITERATIVE r (id, v) AS (
          SELECT id, v FROM t ITERATE
          SELECT r.id + 1, r.v FROM r
          UNTIL 2 ITERATIONS
        ) SELECT id, v FROM r"""
        for db in (native_db, middleware_db):
            db.execute("CREATE TABLE t (id int, v int)")
            db.execute("INSERT INTO t VALUES (1, 1), (2, 5)")
        native = sorted(native_db.execute(sql).rows())
        assert native == [(3, 1), (4, 5)]
        assert sorted(MiddlewareDriver(middleware_db).run(sql).rows()) \
            == native


class TestOverheadAccounting:
    def test_statement_explosion(self, middleware_db):
        """§II: middleware turns one query into dozens of statements."""
        driver = MiddlewareDriver(middleware_db)
        driver.run(pagerank_query(iterations=10))
        report = driver.report
        # PageRank's step has no WHERE, so each trip replaces the main
        # table: 1 probe + 2 CREATE + 1 initial INSERT + 10 * (DELETE +
        # INSERT into working, DELETE + INSERT into main) + final + 2 DROP
        # = 47.
        assert report.statements_issued == 47
        assert report.ddl_statements == 4
        assert report.dml_statements == 41  # initial + 10x(DEL/INS/DEL/INS)
        assert report.probe_queries == 2    # schema probe + final query

    def test_workload_manager_sees_many_units(self, middleware_db):
        middleware_db.reset_stats()
        driver = MiddlewareDriver(middleware_db)
        driver.run(pagerank_query(iterations=5))
        assert middleware_db.workload.units_admitted > 15

    def test_native_is_one_scheduling_unit(self, native_db):
        native_db.reset_stats()
        native_db.execute(pagerank_query(iterations=5))
        assert native_db.workload.units_admitted == 1

    def test_middleware_acquires_many_locks(self, middleware_db,
                                            native_db):
        driver = MiddlewareDriver(middleware_db)
        driver.run(pagerank_query(iterations=5))
        native_db.execute(pagerank_query(iterations=5))
        assert middleware_db.transactions.stats.locks_acquired > 10
        assert native_db.transactions.stats.locks_acquired == 0

    def test_temp_tables_cleaned_up(self, middleware_db):
        driver = MiddlewareDriver(middleware_db)
        driver.run(ff_query(iterations=2, selectivity_mod=10,
                            order_and_limit=False))
        leftovers = [name for name in middleware_db.catalog.table_names()
                     if name.startswith("__mw_")]
        assert leftovers == []

    def test_cleanup_happens_on_failure(self, middleware_db):
        driver = MiddlewareDriver(middleware_db)
        bad = """
        WITH ITERATIVE r (k, v) AS (
          SELECT 1, 1 ITERATE SELECT k, no_such_column FROM r
          UNTIL 2 ITERATIONS
        ) SELECT v FROM r"""
        with pytest.raises(Exception):
            driver.run(bad)
        leftovers = [name for name in middleware_db.catalog.table_names()
                     if name.startswith("__mw_")]
        assert leftovers == []


class TestIterationCap:
    def test_runaway_loop_raises_like_native(self, native_db,
                                              middleware_db):
        """A loop whose UPDATES budget is never reached stops at
        ``max_iterations`` with IterationLimitError on both paths."""
        sql = """
        WITH ITERATIVE r (id, v) AS (
          SELECT id, v FROM t ITERATE SELECT r.id, r.v FROM r
          UNTIL 1 UPDATES
        ) SELECT id, v FROM r"""
        for db in (native_db, middleware_db):
            db.set_option("max_iterations", 20)
            db.execute("CREATE TABLE t (id int, v int)")
            db.execute("INSERT INTO t VALUES (1, 1)")
        with pytest.raises(IterationLimitError):
            native_db.execute(sql)

        driver = MiddlewareDriver(middleware_db)
        outcome = {}

        def drive():
            try:
                driver.run(sql)
            except Exception as exc:  # handed to the test thread
                outcome["error"] = exc

        # A daemon thread, so a driver without a cap fails the test
        # instead of hanging the suite.
        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "middleware loop ignored the cap"
        assert isinstance(outcome.get("error"), IterationLimitError)
        leftovers = [name for name in middleware_db.catalog.table_names()
                     if name.startswith("__mw_")]
        assert leftovers == []


class TestValidation:
    def test_rejects_plain_query(self, middleware_db):
        with pytest.raises(PlanError):
            MiddlewareDriver(middleware_db).run("SELECT 1")

    def test_rejects_multiple_iterative_ctes(self, middleware_db):
        sql = """
        WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x FROM a
                                 UNTIL 1 ITERATIONS),
             ITERATIVE b (y) AS (SELECT 2 ITERATE SELECT y FROM b
                                 UNTIL 1 ITERATIONS)
        SELECT * FROM a, b"""
        with pytest.raises(PlanError):
            MiddlewareDriver(middleware_db).run(sql)

"""Stored-procedure baseline tests (§VII-E)."""

import pytest

from repro import Database
from repro.datasets import dblp_like, fresh_database, generate_edges
from repro.errors import ReproError
from repro.procedures import (
    ExecuteSql,
    Loop,
    Procedure,
    ProcedureCatalog,
    ReturnQuery,
)
from repro.workloads import friends, pagerank, pagerank_query, sssp

SPEC = dblp_like(nodes=120, seed=5)


def _statements_executed(db, procedure):
    catalog = ProcedureCatalog(db)
    catalog.register(procedure)
    catalog.call(procedure.name)
    return catalog.last_report.statements_executed


class TestProcedureIr:
    def test_statement_count_expands_loops(self, db):
        procedure = Procedure("p", [
            ExecuteSql("SELECT 1"),
            Loop(5, [ExecuteSql("SELECT 2"), ExecuteSql("SELECT 3")]),
            ReturnQuery("SELECT 4"),
        ])
        assert _statements_executed(db, procedure) == 1 + 5 * 2 + 1

    def test_nested_loops(self, db):
        procedure = Procedure("p", [
            Loop(3, [Loop(2, [ExecuteSql("SELECT 1")])]),
        ])
        assert _statements_executed(db, procedure) == 6


class TestRunner:
    def test_call_executes_and_returns(self, db):
        db.execute("CREATE TABLE t (v int)")
        catalog = ProcedureCatalog(db)
        catalog.register(Procedure("fill", [
            ExecuteSql("INSERT INTO t VALUES (1)"),
            Loop(3, [ExecuteSql("UPDATE t SET v = v * 10")]),
            ReturnQuery("SELECT v FROM t"),
        ]))
        assert catalog.call("fill").scalar() == 1000
        assert catalog.last_report.statements_executed == 5

    def test_unknown_procedure(self, db):
        with pytest.raises(ReproError):
            ProcedureCatalog(db).call("ghost")

    def test_duplicate_registration(self, db):
        catalog = ProcedureCatalog(db)
        catalog.register(Procedure("p", []))
        with pytest.raises(ReproError):
            catalog.register(Procedure("P", []))

    def test_each_statement_is_a_scheduling_unit(self, db):
        db.execute("CREATE TABLE t (v int)")
        db.reset_stats()
        catalog = ProcedureCatalog(db)
        catalog.register(Procedure("p", [
            ExecuteSql("INSERT INTO t VALUES (1)"),
            Loop(5, [ExecuteSql("UPDATE t SET v = v + 1")]),
        ]))
        catalog.call("p")
        # 6 DML units: the optimizer saw 6 isolated statements.
        assert db.workload.units_admitted == 6


class TestEquivalenceWithNative:
    """The §VII-E procedures compute exactly what the CTEs compute."""

    def _procedure_result(self, script, final_sql):
        db = fresh_database(SPEC)
        catalog = ProcedureCatalog(db)
        ops = [ExecuteSql(sql) for sql in script]
        ops.append(ReturnQuery(final_sql))
        catalog.register(Procedure("q", ops))
        return sorted(catalog.call("q").rows())

    def test_pagerank_procedure_matches_cte(self):
        native = fresh_database(SPEC)
        expected = sorted(native.execute(
            pagerank_query(iterations=4)).rows())
        script = pagerank.stored_procedure_script(iterations=4)
        actual = self._procedure_result(
            script, "SELECT node, rank FROM __pr_result")
        assert len(actual) == len(expected)
        for have, want in zip(actual, expected):
            assert have == pytest.approx(want)

    def test_sssp_procedure_matches_cte(self):
        from repro.workloads import sssp_query
        native = fresh_database(SPEC)
        expected = sorted(native.execute(
            sssp_query(source=1, iterations=4)).rows())
        script = sssp.stored_procedure_script(source=1, iterations=4)
        actual = self._procedure_result(
            script, "SELECT node, distance FROM __sssp_result")
        for have, want in zip(actual, expected):
            assert have == pytest.approx(want)

    def test_ff_procedure_matches_cte(self):
        from repro.workloads import ff_query
        native = fresh_database(SPEC)
        expected = sorted(native.execute(
            ff_query(iterations=3, selectivity_mod=10,
                     order_and_limit=False)).rows())
        script = friends.stored_procedure_script(iterations=3)
        actual = self._procedure_result(
            script,
            "SELECT node, friends FROM __ff_result WHERE MOD(node, 10) = 0")
        for have, want in zip(actual, expected):
            assert have == pytest.approx(want)

"""Tier-1 stored-procedure smoke: the Fig. 11 baseline must keep running
and keep agreeing with the native iterative-CTE path.

The full Fig. 11 measurement is the ``fig11`` arm of
``benchmarks/figures.py``; this guard compiles the same procedure
scripts against the tiny shared graph so a regression in the procedure
runtime (ProcedureCatalog / ExecuteSql / ReturnQuery) or a
divergence between the two implementations fails on every change, not
just when the benchmarks are run.

Fast by construction: tiny graph, few iterations.
"""

import pytest

from repro import Database
from repro.procedures import (
    ExecuteSql,
    Procedure,
    ProcedureCatalog,
    ReturnQuery,
)
from repro.types import SqlType
from repro.workloads import friends, sssp
from repro.workloads import ff_query, sssp_query
from tests.conftest import SMALL_EDGES

ITERATIONS = 4


def _graph_db() -> Database:
    db = Database()
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", SMALL_EDGES)
    return db


def _run_procedure(db, script, final_sql, cleanup):
    for sql in cleanup:
        db.execute(sql)
    catalog = ProcedureCatalog(db)
    ops = [ExecuteSql(s) for s in script]
    ops.append(ReturnQuery(final_sql))
    catalog.register(Procedure("smoke", ops))
    try:
        return catalog.call("smoke")
    finally:
        for sql in cleanup:
            db.execute(sql)


CASES = [
    ("sssp",
     sssp_query(source=1, iterations=ITERATIONS),
     sssp.stored_procedure_script(source=1, iterations=ITERATIONS),
     "SELECT node, distance FROM __sssp_result",
     ["DROP TABLE IF EXISTS __sssp_intermediate",
      "DROP TABLE IF EXISTS __sssp_result"]),
    ("friends",
     ff_query(iterations=ITERATIONS, selectivity_mod=2,
              order_and_limit=False),
     friends.stored_procedure_script(iterations=ITERATIONS),
     "SELECT node, friends FROM __ff_result WHERE MOD(node, 2) = 0",
     ["DROP TABLE IF EXISTS __ff_intermediate",
      "DROP TABLE IF EXISTS __ff_result"]),
]


@pytest.mark.parametrize("name,cte_sql,script,final_sql,cleanup", CASES,
                         ids=[case[0] for case in CASES])
def test_procedure_baseline_matches_native_cte(name, cte_sql, script,
                                               final_sql, cleanup):
    db = _graph_db()
    cte_rows = sorted(db.execute(cte_sql).rows())
    procedure_rows = sorted(
        _run_procedure(db, script, final_sql, cleanup).rows())
    assert len(procedure_rows) == len(cte_rows)
    for have, want in zip(procedure_rows, cte_rows):
        assert have == pytest.approx(want)


def test_procedure_statements_bypass_loop_optimizations():
    """The baseline must stay a baseline: statement-at-a-time execution
    with none of the one-plan loop machinery engaged."""
    _, _, script, final_sql, cleanup = CASES[0]
    db = _graph_db()
    db.reset_stats()
    _run_procedure(db, script, final_sql, cleanup)
    assert db.workload.units_admitted > 3 * ITERATIONS
    assert db.stats.renames == 0
    assert db.stats.delta_iterations == 0
    assert db.stats.common_results_built == 0

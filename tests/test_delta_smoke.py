"""Tier-1 delta-evaluation smoke: delta mode must stay bit-identical to
full recomputation, the frontier must actually drive the loop, and the
recursive fixpoint's segmented append must move O(|delta|) rows per
iteration.

Fast by construction (tiny graphs, few iterations) so the guard can run
on every change alongside the bench and observability smokes.
"""

import pytest

from repro import Database
from repro.execution import SessionOptions
from repro.types import SqlType
from repro.workloads import ff_query, pagerank_query, sssp_query
from tests.conftest import SMALL_EDGES


def _graph_db(delta_on):
    db = Database(SessionOptions(enable_delta_iteration=delta_on))
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", SMALL_EDGES)
    return db


@pytest.mark.parametrize("sql", [
    sssp_query(source=1, iterations=6),
    pagerank_query(iterations=6),
    ff_query(iterations=4, selectivity_mod=100),
], ids=["sssp", "pagerank", "friends"])
def test_delta_mode_bit_identical(sql):
    full = _graph_db(False).execute(sql).rows()
    db = _graph_db(True)
    assert db.execute(sql).rows() == full
    assert db.stats.delta_iterations > 0


def test_frontier_drives_the_telemetry():
    db = _graph_db(True)
    db.set_option("enable_tracing", True)
    db.execute(sssp_query(source=1, iterations=6))
    records = db.last_trace().loops[0].records
    # The 5-node graph settles fast; delta mode must report the shrunken
    # frontier, not the full table, from iteration 2 onward.
    assert records[-1].delta_rows < records[0].working_rows


def test_recursive_append_is_delta_sized():
    db = Database(SessionOptions(enable_tracing=True))
    db.create_table("edge", [("a", SqlType.INTEGER),
                             ("b", SqlType.INTEGER)])
    db.load_rows("edge", [(i, i + 1) for i in range(1, 30)])
    db.execute("""
    WITH RECURSIVE reach (a, b) AS (
      SELECT a, b FROM edge
      UNION
      SELECT r.a, e.b FROM reach r JOIN edge e ON r.b = e.a
    ) SELECT count(*) FROM reach""")
    for record in db.last_trace().loops[0].records:
        assert record.rows_moved <= record.delta_rows

"""Workload correctness: the paper's PR / PR-VS / SSSP / FF queries checked
against direct reference implementations and (for PR/SSSP) against
networkx; plus the central invariant that every optimization is
result-preserving."""

import itertools

import pytest

from repro import Database
from repro.datasets import (
    dblp_like,
    fresh_database,
    generate_edges,
    generate_vertex_status,
    load_graph,
    pokec_like,
)
from repro.workloads import (
    INFINITY,
    components_query,
    ff_query,
    pagerank_query,
    reference_components,
    reference_ff,
    reference_pagerank,
    reference_sssp,
    sssp_query,
    true_shortest_paths,
)

SPEC = dblp_like(nodes=250, seed=42)
EDGES = generate_edges(SPEC)
STATUS = generate_vertex_status(SPEC, available_fraction=0.7)


@pytest.fixture(scope="module")
def loaded_db():
    db = Database()
    load_graph(db, SPEC, with_vertex_status=True,
               available_fraction=0.7)
    return db


class TestPageRank:
    def test_matches_reference(self, loaded_db):
        rows = dict(loaded_db.execute(pagerank_query(iterations=6)).rows())
        reference = reference_pagerank(EDGES, iterations=6)
        assert rows.keys() == reference.keys()
        for node, rank in rows.items():
            assert rank == pytest.approx(reference[node], abs=1e-9)

    def test_converges_to_networkx_ranking(self, loaded_db):
        """After many iterations the delta-accumulative PR orders nodes
        like networkx's PageRank (same damping, weighted)."""
        networkx = pytest.importorskip("networkx")
        rows = dict(loaded_db.execute(
            pagerank_query(iterations=40, coalesced=True)).rows())
        graph = networkx.DiGraph()
        graph.add_nodes_from(rows.keys())
        graph.add_weighted_edges_from(EDGES)
        nx_rank = networkx.pagerank(graph, alpha=0.85, weight="weight")
        ours_top = sorted(rows, key=rows.get, reverse=True)[:10]
        theirs_top = sorted(nx_rank, key=nx_rank.get, reverse=True)[:10]
        # Top-10 sets agree (scores are scaled by n relative to networkx).
        assert len(set(ours_top) & set(theirs_top)) >= 8

    def test_pr_vs_matches_reference(self, loaded_db):
        available = {node: bool(flag) for node, flag in STATUS}
        rows = dict(loaded_db.execute(
            pagerank_query(iterations=5, with_vertex_status=True)).rows())
        reference = reference_pagerank(EDGES, iterations=5,
                                       available=available)
        for node, rank in rows.items():
            assert rank == pytest.approx(reference[node], abs=1e-9)

    def test_unavailable_nodes_keep_initial_rank(self, loaded_db):
        rows = dict(loaded_db.execute(
            pagerank_query(iterations=5, with_vertex_status=True)).rows())
        for node, flag in STATUS:
            if not flag and node in rows:
                assert rows[node] == 0


class TestSssp:
    def test_matches_reference(self, loaded_db):
        rows = dict(loaded_db.execute(
            sssp_query(source=1, iterations=8)).rows())
        reference = reference_sssp(EDGES, source=1, iterations=8)
        for node, distance in rows.items():
            assert distance == pytest.approx(reference[node], abs=1e-9)

    def test_converges_to_dijkstra(self, loaded_db):
        rows = dict(loaded_db.execute(
            sssp_query(source=1, iterations=60)).rows())
        truth = true_shortest_paths(EDGES, source=1)
        for node, distance in rows.items():
            if truth[node] == INFINITY:
                assert distance == INFINITY
            else:
                assert distance == pytest.approx(truth[node], abs=1e-9)

    def test_source_distance_reaches_zero(self, loaded_db):
        # Fig. 7's recurrence only assigns the source its 0 once some
        # in-neighbour of the source becomes reachable (the query takes
        # LEAST(distance, previous delta) for rows entering the working
        # table) — so this needs enough iterations, not just one.
        rows = dict(loaded_db.execute(
            sssp_query(source=1, iterations=40)).rows())
        assert rows[1] == 0

    def test_final_filter(self, loaded_db):
        rows = loaded_db.execute(
            sssp_query(source=1, iterations=5,
                       final_where="Node = 10")).rows()
        assert len(rows) == 1
        assert rows[0][0] == 10


class TestFf:
    def test_matches_reference(self, loaded_db):
        rows = dict(loaded_db.execute(
            ff_query(iterations=5, selectivity_mod=10,
                     order_and_limit=False)).rows())
        reference = reference_ff(EDGES, iterations=5, selectivity_mod=10)
        assert rows.keys() == reference.keys()
        for node, friends in rows.items():
            assert friends == pytest.approx(reference[node], rel=1e-9)

    def test_selectivity_controls_output_size(self, loaded_db):
        dense = loaded_db.execute(
            ff_query(iterations=2, selectivity_mod=2,
                     order_and_limit=False)).rows()
        sparse = loaded_db.execute(
            ff_query(iterations=2, selectivity_mod=50,
                     order_and_limit=False)).rows()
        assert len(dense) > len(sparse)

    def test_order_and_limit(self, loaded_db):
        rows = loaded_db.execute(
            ff_query(iterations=3, selectivity_mod=2)).rows()
        assert len(rows) <= 10
        friends = [f for _, f in rows]
        assert friends == sorted(friends, reverse=True)


# The five result-neutral switches: the paper's three optimizations,
# the kernel cache and semi-naive delta iteration.
SWITCHES = ("enable_rename", "enable_common_results",
            "enable_predicate_pushdown", "enable_kernel_cache",
            "enable_delta_iteration")
OPTION_GRID = list(itertools.product([True, False], repeat=len(SWITCHES)))


# Delta-safe and converging: every row moves on trips 1-3, which demotes
# the delta loop, and the full body then counts its updates down to 0.
DEMOTING_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node, CASE WHEN r.v < 3.0 THEN r.v + 1.0 ELSE r.v END
          FROM r
  UNTIL DELTA = 0
) SELECT node, v FROM r"""


# Relative tolerance of a FLOAT result whose arithmetic may run in
# another order than the oracle's Python loop (PageRank's SUM, FF's
# rounded products); INTEGER and MIN/MAX results are compared exactly
# (tolerance None).
FLOAT_SUM_RTOL = 1e-9
AVAILABLE = {node: bool(flag) for node, flag in STATUS}


class TestOptimizationInvariance:
    """The paper's optimizations must never change results — only cost.

    Every combination of the five switches is run over every workload on
    the same dataset and compared row-for-row, bit for bit, together
    with the number of loop iterations it took.  The first vector's rows
    are also checked against the workload's direct oracle, so a defect
    every vector shares still fails.
    """

    @pytest.mark.parametrize("query_builder,delta_demotions,oracle,rtol", [
        pytest.param(lambda: pagerank_query(iterations=4), None,
                     lambda: reference_pagerank(EDGES, iterations=4),
                     FLOAT_SUM_RTOL, id="pr"),
        pytest.param(
            lambda: pagerank_query(iterations=4, with_vertex_status=True),
            None, lambda: reference_pagerank(EDGES, iterations=4,
                                             available=AVAILABLE),
            FLOAT_SUM_RTOL, id="pr-vs"),
        pytest.param(lambda: sssp_query(source=1, iterations=5), None,
                     lambda: reference_sssp(EDGES, source=1, iterations=5),
                     None, id="sssp"),
        pytest.param(lambda: sssp_query(source=1, iterations=4,
                                        with_vertex_status=True),
                     None, lambda: reference_sssp(EDGES, source=1,
                                                  iterations=4,
                                                  available=AVAILABLE),
                     None, id="sssp-vs"),
        pytest.param(lambda: ff_query(iterations=4, selectivity_mod=10,
                                      order_and_limit=False),
                     None, lambda: reference_ff(EDGES, iterations=4,
                                                selectivity_mod=10),
                     FLOAT_SUM_RTOL, id="ff"),
        # UNTIL DELTA = 0 without a delta rewrite: the diff step only
        # counts updates.
        pytest.param(components_query, 0,
                     lambda: reference_components(EDGES), None, id="cc"),
        # A delta loop that demotes, then counts updates on the full body.
        pytest.param(lambda: DEMOTING_SQL, 1, None, None, id="demote"),
    ])
    def test_options_do_not_change_results(self, query_builder,
                                           delta_demotions, oracle, rtol,
                                           loaded_db):
        sql = query_builder()
        defaults = {name: getattr(loaded_db.options, name)
                    for name in SWITCHES}
        expected = None
        try:
            for vector in OPTION_GRID:
                options = dict(zip(SWITCHES, vector))
                for name, value in options.items():
                    loaded_db.set_option(name, value)
                before = loaded_db.stats.snapshot()
                rows = sorted(loaded_db.execute(sql).rows())
                counted = loaded_db.stats.delta_since(before)
                outcome = (rows, counted["iterations"])
                if expected is None:
                    expected = outcome
                    if oracle is not None:
                        assert_matches_oracle(rows, oracle(), rtol)
                else:
                    assert outcome == expected, (
                        f"options {options} changed the result")
                if delta_demotions is not None:
                    wanted = (delta_demotions
                              if options["enable_delta_iteration"] else 0)
                    assert counted["strategy_demotions"] == wanted, options
        finally:
            # Restore defaults for other tests in the module-scoped
            # fixture.
            for name, value in defaults.items():
                loaded_db.set_option(name, value)


def assert_matches_oracle(rows, oracle, rtol):
    """``rows`` (sorted ``(key, value)`` pairs) hold the oracle's keys
    and values: exactly, or within ``rtol`` when it is not None."""
    assert [key for key, _ in rows] == sorted(oracle)
    for key, value in rows:
        if rtol is None:
            assert value == oracle[key], key
        else:
            assert value == pytest.approx(oracle[key], rel=rtol), key


class TestDeterminantCounters:
    """GROUP BY reports how its keys were grouped: on the leading integer
    key alone, or, after the per-group check failed, on every key."""

    @staticmethod
    def grouping_counts(db, sql):
        before = db.stats.snapshot()
        db.execute(sql)
        delta = db.stats.delta_since(before)
        return delta["determinant_groupings"], delta["determinant_fallbacks"]

    def test_pagerank_groups_on_the_node(self, loaded_db):
        groupings, fallbacks = self.grouping_counts(
            loaded_db, pagerank_query(iterations=10))
        assert groupings >= 10
        assert fallbacks == 0

    def test_broken_dependency_and_single_key(self):
        db = Database()
        db.execute("CREATE TABLE t (a int, b int, c int)")
        db.execute("INSERT INTO t VALUES (1, 10, NULL), (2, 20, 5), "
                   "(3, NULL, 5), (4, 40, NULL), (5, 50, 2), (6, 60, 2), "
                   "(7, NULL, NULL), (8, 20, 9)")
        assert self.grouping_counts(
            db, "SELECT b, c, COUNT(*) FROM t GROUP BY b, c") == (0, 1)
        assert self.grouping_counts(
            db, "SELECT c, COUNT(*) FROM t GROUP BY c") == (0, 0)


class TestDatasets:
    def test_dblp_ratio(self):
        from repro.datasets import edge_list_stats
        stats = edge_list_stats(EDGES)
        assert stats["edges_per_node"] == pytest.approx(3.31, abs=0.6)

    def test_pokec_is_denser_than_dblp(self):
        pokec_edges = generate_edges(pokec_like(nodes=250))
        assert len(pokec_edges) > len(EDGES) * 3

    def test_determinism(self):
        again = generate_edges(dblp_like(nodes=250, seed=42))
        assert again == EDGES

    def test_every_node_has_an_incoming_edge(self):
        # Keeps the faithful (non-COALESCE) PR query NULL-free.
        destinations = {dst for _, dst, _ in EDGES}
        nodes = {src for src, _, _ in EDGES} | destinations
        assert nodes == destinations

    def test_weights_are_transition_probabilities(self):
        from collections import defaultdict
        totals = defaultdict(float)
        for src, _, weight in EDGES:
            totals[src] += weight
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_vertex_status_covers_all_nodes(self):
        assert len(STATUS) == SPEC.nodes
        fraction = sum(flag for _, flag in STATUS) / len(STATUS)
        assert 0.6 < fraction < 0.8

    def test_fresh_database_loads(self):
        db = fresh_database(dblp_like(nodes=50))
        count = db.execute("SELECT COUNT(*) FROM edges").scalar()
        assert count > 50

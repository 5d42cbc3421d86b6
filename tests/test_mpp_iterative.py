"""Distributed iterative PageRank tests: correctness vs the single-node
reference, and the motion properties the shared-nothing design predicts."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_like, generate_edges
from repro.mpp import Cluster, distributed_pagerank, distributed_sssp
from repro.workloads import reference_pagerank, reference_sssp
from repro.workloads.sssp import INFINITY

EDGES = generate_edges(dblp_like(nodes=250, seed=31))


@st.composite
def graphs(draw):
    """Small edge lists over nodes 1..n: self-loops and duplicate edges
    come up as drawn, and the source may lie outside every edge."""
    nodes = draw(st.integers(1, 9))
    node = st.integers(1, nodes)
    weight = st.sampled_from([0.1, 0.25, 0.3, 1.0, 1.5, 2.0, 7.0])
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=1,
                          max_size=30))
    source = draw(st.integers(1, nodes + 1))
    return edges, source


class TestDistributedPageRank:
    def test_matches_reference_exactly(self):
        result = distributed_pagerank(Cluster(4), EDGES, iterations=8)
        reference = reference_pagerank(EDGES, iterations=8)
        assert result.ranks.keys() == reference.keys()
        for node, rank in result.ranks.items():
            assert rank == pytest.approx(reference[node], abs=1e-12)

    def test_segment_count_does_not_change_results(self):
        baseline = distributed_pagerank(Cluster(1), EDGES,
                                        iterations=5).ranks
        for segments in (2, 3, 8):
            ranks = distributed_pagerank(Cluster(segments), EDGES,
                                         iterations=5).ranks
            assert ranks == pytest.approx(baseline)

    def test_single_segment_moves_nothing(self):
        result = distributed_pagerank(Cluster(1), EDGES, iterations=5)
        assert result.rows_moved == 0

    def test_motion_grows_with_iterations(self):
        short = distributed_pagerank(Cluster(4), EDGES, iterations=2)
        long = distributed_pagerank(Cluster(4), EDGES, iterations=8)
        assert long.rows_moved > short.rows_moved
        assert long.shuffles == 8
        assert short.shuffles == 2

    def test_per_iteration_motion_bounded_by_cross_segment_edges(self):
        cluster = Cluster(4)
        result = distributed_pagerank(cluster, EDGES, iterations=1)
        # At most one partial per edge crosses the interconnect.
        assert result.rows_moved <= len(EDGES)

    def test_matches_sql_engine(self, graph_db):
        """The distributed loop computes what the SQL query computes."""
        from tests.conftest import SMALL_EDGES
        from repro.workloads import pagerank_query
        sql_ranks = dict(graph_db.execute(
            pagerank_query(iterations=6, coalesced=True)).rows())
        distributed = distributed_pagerank(Cluster(3), SMALL_EDGES,
                                           iterations=6).ranks
        assert distributed == pytest.approx(sql_ranks)


class TestDistributedSssp:
    EDGES = generate_edges(dblp_like(nodes=200, seed=13))

    @staticmethod
    def _bellman_ford(edges, source):
        nodes = {e[0] for e in edges} | {e[1] for e in edges} | {source}
        dist = {v: float("inf") for v in nodes}
        dist[source] = 0.0
        for _ in range(len(nodes)):
            changed = False
            for src, dst, weight in edges:
                candidate = dist[src] + weight
                if candidate < dist[dst]:
                    dist[dst] = candidate
                    changed = True
            if not changed:
                break
        return dist

    def test_matches_bellman_ford(self):
        from repro.mpp import distributed_sssp
        result = distributed_sssp(Cluster(4), self.EDGES, source=1)
        reference = self._bellman_ford(self.EDGES, source=1)
        assert result.distances.keys() == reference.keys()
        for node, dist in result.distances.items():
            assert dist == pytest.approx(reference[node], abs=1e-12)

    def test_segment_count_does_not_change_results(self):
        from repro.mpp import distributed_sssp
        baseline = distributed_sssp(Cluster(1), self.EDGES,
                                    source=1).distances
        for segments in (2, 3, 8):
            assert distributed_sssp(Cluster(segments), self.EDGES,
                                    source=1).distances == baseline

    def test_converges_before_the_iteration_cap(self):
        from repro.mpp import distributed_sssp
        result = distributed_sssp(Cluster(4), self.EDGES, source=1,
                                  max_iterations=64)
        assert result.iterations < 64
        # The last trip relaxed nothing (the convergence proof).
        assert result.telemetry.records[-1].delta_rows == 0

    def test_unreachable_nodes_stay_infinite(self):
        from repro.mpp import distributed_sssp
        edges = [(1, 2, 1.0), (2, 3, 1.0), (9, 10, 1.0)]
        result = distributed_sssp(Cluster(2), edges, source=1)
        assert result.distances[3] == 2.0
        assert result.distances[9] == float("inf")
        assert result.distances[10] == float("inf")

    def test_single_segment_moves_nothing(self):
        from repro.mpp import distributed_sssp
        result = distributed_sssp(Cluster(1), self.EDGES, source=1)
        assert result.rows_moved == 0


class TestAgainstTheOracles:
    """Both loops against the single-node oracles, on 1-4 inline
    segments (the pool's parity with inline is pinned on fixed inputs
    in test_mpp_workers.py)."""

    @given(graphs(), st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_pagerank_matches_reference(self, graph, segments, trips):
        # Weighted 1/out-degree, the transition matrix the query expects.
        drawn, _ = graph
        out_degree = Counter(src for src, _, _ in drawn)
        edges = [(src, dst, 1.0 / out_degree[src]) for src, dst, _ in drawn]
        result = distributed_pagerank(Cluster(segments), edges,
                                      iterations=trips)
        reference = reference_pagerank(edges, iterations=trips)
        assert result.ranks.keys() == reference.keys()
        for node, rank in result.ranks.items():
            assert rank == pytest.approx(reference[node], abs=1e-12)

    @given(graphs(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sssp_matches_reference(self, graph, segments):
        # The oracle mirrors the SQL query: an unreached node reads
        # INFINITY, and the source's own distance is its shortest walk
        # back to itself, never 0.  Given a trip per node, every other
        # node's distance is exact.
        edges, source = graph
        result = distributed_sssp(Cluster(segments), edges, source=source)
        reference = reference_sssp(edges, source=source,
                                   iterations=len(result.distances) + 1)
        assert result.distances.pop(source) == 0.0
        reference.pop(source, None)
        assert result.distances == {
            node: math.inf if dist == INFINITY else dist
            for node, dist in reference.items()}

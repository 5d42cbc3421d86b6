"""Dataset IO tests: SNAP edge lists, weight normalization, and EXPLAIN
ANALYZE output."""

import pytest

from repro import Database
from repro.datasets import (
    load_edge_file,
    normalize_weights,
    read_snap_edge_list,
)
from repro.errors import ReproError


SNAP_SAMPLE = """\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
0\t1
0\t2
1\t2
2\t0
"""


@pytest.fixture
def snap_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(SNAP_SAMPLE)
    return path


class TestSnapReader:
    def test_reads_edges_skipping_comments(self, snap_file):
        edges = read_snap_edge_list(snap_file)
        assert edges == [(0, 1), (0, 2), (1, 2), (2, 0)]

    def test_undirected_doubles_edges(self, snap_file):
        edges = read_snap_edge_list(snap_file, directed=False)
        assert len(edges) == 8
        assert (1, 0) in edges

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ReproError):
            read_snap_edge_list(path)

    def test_non_integer_ids(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\tb\n")
        with pytest.raises(ReproError):
            read_snap_edge_list(path)


class TestWeightNormalization:
    def test_weights_sum_to_one_per_source(self):
        weighted = normalize_weights([(1, 2), (1, 3), (2, 3)])
        totals = {}
        for src, _, weight in weighted:
            totals[src] = totals.get(src, 0.0) + weight
        assert totals == pytest.approx({1: 1.0, 2: 1.0})

    def test_empty(self):
        assert normalize_weights([]) == []


class TestLoadEdgeFile:
    def test_load_and_query(self, snap_file):
        db = Database()
        count = load_edge_file(db, snap_file)
        assert count == 4
        assert db.execute("SELECT COUNT(*) FROM edges").scalar() == 4
        # Node 0 has two outgoing edges, each weighted 0.5.
        weight = db.execute(
            "SELECT weight FROM edges WHERE src = 0 AND dst = 1").scalar()
        assert weight == 0.5

    def test_loaded_graph_runs_pagerank(self, snap_file):
        from repro.workloads import pagerank_query, reference_pagerank
        db = Database()
        load_edge_file(db, snap_file)
        rows = dict(db.execute(
            pagerank_query(iterations=5, coalesced=True)).rows())
        edges = normalize_weights(read_snap_edge_list(snap_file))
        reference = reference_pagerank(edges, iterations=5)
        for node, rank in rows.items():
            assert rank == pytest.approx(reference[node])


class TestExplainAnalyze:
    def test_iterative_step_counts(self, graph_db):
        from repro.workloads import pagerank_query
        text = graph_db.explain_analyze(pagerank_query(iterations=7))
        assert "executions=7" in text  # the iterative materialize
        assert "executions=1" in text  # the non-iterative part
        assert "ms)" in text

    def test_rows_counted(self, graph_db):
        text = graph_db.explain_analyze("SELECT * FROM edges")
        assert "rows=5" in text

    def test_rejects_dml(self, graph_db):
        with pytest.raises(ReproError):
            graph_db.explain_analyze("DELETE FROM edges")

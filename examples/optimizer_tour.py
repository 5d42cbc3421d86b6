"""A tour of the optimizer substrate: ANALYZE statistics, cardinality
estimation, cost-based join reordering, and EXPLAIN ANALYZE.

Run:  python examples/optimizer_tour.py
"""

from repro import Database
from repro.datasets import dblp_like, load_graph
from repro.workloads import pagerank_query


def main() -> None:
    db = Database()
    load_graph(db, dblp_like(nodes=2000), with_vertex_status=True)

    # -- ANALYZE fills the statistics catalog -------------------------------
    analyzed = db.execute("ANALYZE").rows()
    print("analyzed tables:", [name for (name,) in analyzed])
    stats = db.statistics.table("edges")
    src = stats.column("src")
    print(f"edges: {stats.row_count} rows, src has {src.distinct_count} "
          f"distinct values in [{src.min_value:.0f}, {src.max_value:.0f}]")

    # -- cost-based join reordering (paper §V-A future work) ----------------
    sql = """
        SELECT COUNT(*) FROM edges e1
        JOIN edges e2 ON e1.dst = e2.src
        JOIN vertexStatus v ON v.node = e2.dst
        WHERE v.status != 0"""
    print("\njoin order chosen by the cost model:")
    print(db.explain(sql, verbose=True))

    # -- EXPLAIN ANALYZE: measured per-step behaviour -----------------------
    print("\nEXPLAIN ANALYZE (PR, 5 iterations):")
    print(db.explain_analyze(pagerank_query(iterations=5)))


if __name__ == "__main__":
    main()

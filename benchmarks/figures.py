#!/usr/bin/env python3
"""The paper's evaluation (§VII: Table I, Figs. 8–11) and the engine's
ablations, from one command.

    python3 benchmarks/figures.py [--scale S] [--arm NAME ...] [--out PATH]

Each arm in ``ARMS`` names the artifact it reproduces and the switch
that tells its two sides apart: one ``SessionOptions`` field off/on over
the same SQL, a stored procedure or the middleware driver against the
native CTE, the inline MPP simulation against a worker pool.  Every arm
goes through one timing loop (``Arm.time``): one warm-up sample per
side, then ``samples`` samples per side taken alternately, each against
the state ``setup`` readies outside the timed window: a fresh database
where the arm measures cold-state execution (caches and loop strategies
that warm inside one query), the same database with the switch flipped
where it measures warm execution.  After the loop the two sides' last
results are compared (bit-identical tables, sorted rows where only row
order differs, or floats within 1e-6 where a side sums in another
order), counters are read from the timed runs, and the arm's floors
are judged.

``--scale`` shrinks the paper-figure graphs, the MPP graph and the
serving mix; the engine ablations (columnar, kernel cache, delta,
middleware, common-size) have fixed inputs.  A floor of a scaled arm
records the smallest scale at which it was measured to hold; below it
the floor prints as ``unchecked (needs scale ≥ S)``, never as passed.

The report goes to stdout as markdown tables (EXPERIMENTS.md quotes
them).  ``--out`` writes the JSON document: every sample, each side's
median and quartiles, the checks, the floor verdicts and one host-speed
reading (``benchmarks/e2e/hostspeed.py``) per arm.  Nothing is written
without ``--out``.  The exit status is 1 when a check or a checked floor
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import platform
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from hostspeed import Thermometer  # noqa: E402

from repro import Database  # noqa: E402
from repro.core.rewrite import compile_statement  # noqa: E402
from repro.datasets import (dblp_like, fresh_database,  # noqa: E402
                            generate_edges, load_graph, pokec_like)
from repro.execution import ExecutionStats, SessionOptions  # noqa: E402
from repro.middleware import MiddlewareDriver  # noqa: E402
from repro.mpp import (Cluster, WorkerPool, distributed_pagerank,  # noqa: E402
                       distributed_sssp)
from repro.plan import PlanContext  # noqa: E402
from repro.procedures import (ExecuteSql, Procedure,  # noqa: E402
                              ProcedureCatalog, ReturnQuery)
from repro.server import serve  # noqa: E402
from repro.sql import parse  # noqa: E402
from repro.types import SqlType  # noqa: E402
from repro.workloads import (ff_query, friends, pagerank,  # noqa: E402
                             pagerank_query, sssp, sssp_query)

ITERATIONS = 25  # the paper's §VII-B/C/E iteration count
EDGE_COLUMNS = [("src", SqlType.INTEGER), ("dst", SqlType.INTEGER),
                ("weight", SqlType.FLOAT)]
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def dag_graph(num_nodes=3000, num_edges=12000, seed=5):
    """Random DAG (edges point to higher ids): SSSP's delta wave dies."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(1, num_nodes + 1, size=2)
        if a < b:
            edges.add((int(a), int(b)))
    return [(a, b, round(float(rng.uniform(0.1, 2.0)), 3))
            for a, b in sorted(edges)]


def pagerank_graph(num_nodes, num_edges, first_id, seed=11):
    """Random digraph without self-loops, weights 1/out-degree."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(first_id, num_nodes + first_id, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    out_degree = Counter(a for a, _ in edges)
    return sorted((a, b, 1.0 / out_degree[a]) for a, b in edges)


def closure_graph(num_nodes=2200, num_edges=6600, seed=7):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(0, num_nodes, size=2)
        edges.add((int(a), int(b)))
    return sorted(edges)


CLOSURE_SQL = """
WITH RECURSIVE reach (a, b) AS (
  SELECT a, b FROM edge
  UNION
  SELECT reach.a, edge.b FROM reach JOIN edge ON reach.b = edge.a
) SELECT a, b FROM reach"""


def wide_pr_vs(iterations, extra_invariant_joins):
    """PR-VS whose iterative part joins 1 + ``extra_invariant_joins``
    invariant status tables: the knob for how much per-iteration work is
    loop-invariant (the quantity behind the paper's DBLP-vs-Pokec
    difference, §VII-C)."""
    joins = ["""
     JOIN vertexStatus AS avail_pr
       ON avail_pr.node = IncomingEdges.dst"""]
    filters = ["avail_pr.status != 0"]
    for i in range(extra_invariant_joins):
        joins.append(f"""
     JOIN vertexStatus AS avail_{i}
       ON avail_{i}.node = avail_pr.node""")
        filters.append(f"avail_{i}.status != 0")
    return f"""
WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
      FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
  ITERATE
   SELECT PageRank.node,
     PageRank.rank + PageRank.delta,
     0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
   FROM PageRank
     LEFT JOIN edges AS IncomingEdges
       ON PageRank.node = IncomingEdges.dst
     LEFT JOIN PageRank AS IncomingRank
       ON IncomingRank.node = IncomingEdges.src{"".join(joins)}
   WHERE {" AND ".join(filters)}
   GROUP BY PageRank.node, PageRank.rank + PageRank.delta
  UNTIL {iterations} ITERATIONS )
SELECT Node, Rank FROM PageRank"""


def table_db(name, columns, rows, option, on):
    """Cold state: a new database holding one table, ``option`` set."""
    db = Database()
    db.set_option(option, on)
    db.create_table(name, columns)
    db.load_rows(name, rows)
    return db


def toggle(db, option):
    """Warm state: one database, ``option`` set and counters reset per
    sample."""
    def setup(on):
        db.set_option(option, on)
        db.reset_stats()
        return db
    return setup


def query(sql, *counters):
    """Run ``sql``; return its table and the named ``db.stats`` counters."""
    def run(db):
        table = db.execute(sql).table
        return table, {name: getattr(db.stats, name) for name in counters}
    return run


# ---------------------------------------------------------------------------
# Result checks
# ---------------------------------------------------------------------------


def identical(left, right) -> bool:
    """Row-for-row equality; masked (NULL) slots compare by mask only."""
    if left.num_rows != right.num_rows:
        return False
    for lc, rc in zip(left.columns, right.columns):
        if not (lc.mask == rc.mask).all():
            return False
        valid = ~lc.mask
        if not (lc.data[valid] == rc.data[valid]).all():
            return False
    return True


def close_rows(left, right) -> bool:
    """Sorted rows equal, floats within a relative 1e-6."""
    left, right = sorted(left.rows()), sorted(right.rows())
    return len(left) == len(right) and all(
        x == y or math.isclose(x, y, rel_tol=1e-6, abs_tol=1e-12)
        for lrow, rrow in zip(left, right) for x, y in zip(lrow, rrow))


def same_tables(left, right) -> bool:
    return identical(left[0], right[0])


def same_rows(left, right) -> bool:
    return sorted(left[0].rows()) == sorted(right[0].rows())


def close_tables(left, right) -> bool:
    return close_rows(left[0], right[0])


# ---------------------------------------------------------------------------
# The timing loop, checks and floors
# ---------------------------------------------------------------------------


def spread(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


@dataclass
class Case:
    name: str
    sides: dict[str, list[float]]
    counters: dict = field(default_factory=dict)

    def median(self, index: int) -> float:
        return statistics.median(list(self.sides.values())[index])

    @property
    def speedup(self) -> float:
        """Baseline median over optimized median."""
        return self.median(0) / self.median(1)

    @property
    def gain(self) -> float:
        """Percent of the baseline's median the optimized side saves."""
        return 100.0 * (1.0 - self.median(1) / self.median(0))

    def to_json(self) -> dict:
        out = {"name": self.name,
               "sides": {side: spread(samples)
                         for side, samples in self.sides.items()}}
        if len(self.sides) == 2:
            out.update(speedup=self.speedup, gain_pct=self.gain)
        if self.counters:
            out["counters"] = self.counters
        return out


@dataclass(frozen=True)
class ArmSpec:
    artifact: str
    switch: str
    sides: tuple[str, ...]
    scaled: bool
    measure: Callable[["Arm"], None]


class Arm:
    """One arm's measurements: cases, inputs, checks and floor verdicts."""

    def __init__(self, spec: ArmSpec, scale: float):
        self.spec, self.scale = spec, scale
        self.inputs: dict = {}
        self.cases: list[Case] = []
        self.checks: dict[str, bool] = {}
        self.floors: list[dict] = []

    def time(self, name, setup, run, *, samples=3, warmup=1,
             same: Optional[Callable] = None,
             metric: Optional[Callable] = None):
        """Time ``run(setup(on))`` per side, alternating sides each round.

        ``setup(on)`` (``on`` is False for the first side) readies the
        state outside the timed window.  A sample is the wall time of
        ``run``, or ``metric(result)`` when the run measures itself.  Returns the case and each side's last
        result; ``same(first, second)`` compares those as a check."""
        sides = self.spec.sides
        samples_by_side = {side: [] for side in sides}
        last = [None] * len(sides)
        for round_no in range(warmup + samples):
            for index, side in enumerate(sides):
                state = setup(bool(index))
                start = time.perf_counter()
                result = run(state)
                elapsed = time.perf_counter() - start
                last[index] = result
                if round_no >= warmup:
                    samples_by_side[side].append(
                        elapsed if metric is None else metric(result))
        case = Case(name, samples_by_side)
        self.cases.append(case)
        if same is not None:
            self.check(f"{name}: same result both sides", same(*last))
        return case, last

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def floor(self, name, value, op, bound, needs_scale=1.0) -> None:
        if self.spec.scaled and self.scale < needs_scale:
            verdict = f"unchecked (needs scale ≥ {needs_scale:g})"
        else:
            verdict = "pass" if OPS[op](value, bound) else "fail"
        self.floors.append({"name": name, "value": value, "op": op,
                            "bound": bound,
                            "needs_scale": needs_scale if self.spec.scaled
                            else None,
                            "verdict": verdict})

    @property
    def failed(self) -> bool:
        return not all(self.checks.values()) or any(
            f["verdict"] == "fail" for f in self.floors)


# ---------------------------------------------------------------------------
# The arms
# ---------------------------------------------------------------------------


def paper_graphs(arm, pokec=True):
    """The scaled dblp-like and pokec-like graphs, with vertexStatus."""
    specs = {"dblp-like": dblp_like(nodes=int(6000 * arm.scale))}
    if pokec:
        specs["pokec-like"] = pokec_like(nodes=int(2200 * arm.scale))
    arm.inputs.update({f"{name} nodes": spec.nodes
                       for name, spec in specs.items()})
    return {name: fresh_database(spec, with_vertex_status=True)
            for name, spec in specs.items()}


def table1(arm):
    """Table I: the PR query compiles to the paper's six-step program."""
    db = paper_graphs(arm, pokec=False)["dblp-like"]
    sql = pagerank_query(iterations=10)

    def compile_pr(_):
        return compile_statement(parse(sql), PlanContext(db.catalog),
                                 SessionOptions(), ExecutionStats())

    case, (program,) = arm.time("PR x10 plan compile", lambda on: None,
                                compile_pr, samples=5)
    text = program.explain()
    case.counters["plan"] = text.splitlines()
    lines = [line.strip() for line in text.splitlines()]
    arm.check("Table I step structure",
              lines[0].startswith("1  Materialize")
              and "Initialize counter" in lines[1]
              and "iterative part" in lines[2]
              and lines[3].startswith("4  Rename")
              and "Increment counter" in lines[4]
              and "Go to step 3" in lines[5]
              and "<<Type:metadata, N:10, Expr:NONE>>" in text)


def fig8(arm):
    """Fig. 8: rename vs merge-back, PR and FF, 25 iterations."""
    sqls = {"PR": pagerank_query(iterations=ITERATIONS),
            "FF": ff_query(iterations=ITERATIONS, selectivity_mod=None,
                           order_and_limit=False)}
    for dataset, db in paper_graphs(arm).items():
        gains = {}
        for label, sql in sqls.items():
            case, last = arm.time(
                f"{label} {dataset}", toggle(db, "enable_rename"),
                query(sql, "rows_moved", "renames"), same=same_rows)
            case.counters = {"merge-back": last[0][1],
                             "rename": last[1][1]}
            gains[label] = case.gain
            arm.check(f"{label} {dataset}: rename moves 0 rows in "
                      f"{ITERATIONS} renames, merge-back moves rows",
                      last[1][1] == {"rows_moved": 0, "renames": ITERATIONS}
                      and last[0][1]["rows_moved"] > 0
                      and last[0][1]["renames"] == 0)
            arm.floor(f"{label} {dataset} rename never loses: gain %",
                      case.gain, ">", -5)
        arm.floor(f"FF {dataset} movement dominates: gain %",
                  gains["FF"], ">", 30)
        arm.floor(f"FF {dataset} gain minus PR gain (points)",
                  gains["FF"] - gains["PR"], ">", 0)


def fig9(arm):
    """Fig. 9: common results (COMMON#1) off vs on, PR-VS and SSSP-VS."""
    sqls = {"PR-VS": pagerank_query(iterations=ITERATIONS,
                                    with_vertex_status=True),
            "SSSP-VS": sssp_query(source=1, iterations=ITERATIONS,
                                  with_vertex_status=True)}
    for dataset, db in paper_graphs(arm).items():
        for label, sql in sqls.items():
            name = f"{label} {dataset}"
            case, _ = arm.time(name, toggle(db, "enable_common_results"),
                               query(sql), same=same_tables)
            arm.floor(f"{name} gain %", case.gain, ">", 0)


def fig10(arm):
    """Fig. 10: predicate pushdown across selectivities, FF x25."""
    spec = dblp_like(nodes=int(150000 * arm.scale), seed=21)
    arm.inputs["ff nodes"] = spec.nodes
    db = fresh_database(spec)
    cases = []
    for mod in (2, 4, 10, 20, 100):
        sql = ff_query(iterations=ITERATIONS, selectivity_mod=mod,
                       order_and_limit=False)
        case, _ = arm.time(f"MOD(node, {mod}) = 0 ({100 / mod:g} %)",
                           toggle(db, "enable_predicate_pushdown"),
                           query(sql), same=same_rows)
        cases.append(case)
    baselines = [case.median(0) for case in cases]
    arm.floor("baseline max/min across selectivities",
              max(baselines) / min(baselines), "<", 2.0)
    arm.floor("pushed at 1 % over pushed at 50 %",
              cases[-1].median(1) / cases[0].median(1), "<", 1.0)
    arm.floor("speedup at 1 %", cases[-1].speedup, ">", 10)


def fig11(arm):
    """Fig. 11: stored procedure vs optimized CTE, 25 iterations."""
    db = paper_graphs(arm, pokec=False)["dblp-like"]
    cases = [
        ("PR-VS", pagerank_query(iterations=ITERATIONS,
                                 with_vertex_status=True),
         pagerank.stored_procedure_script(iterations=ITERATIONS,
                                          with_vertex_status=True),
         "SELECT node, rank FROM __pr_result", "__pr"),
        ("SSSP-VS", sssp_query(source=1, iterations=ITERATIONS,
                               with_vertex_status=True),
         sssp.stored_procedure_script(source=1, iterations=ITERATIONS,
                                      with_vertex_status=True),
         "SELECT node, distance FROM __sssp_result", "__sssp"),
        ("FF@50%", ff_query(iterations=ITERATIONS, selectivity_mod=2,
                            order_and_limit=False),
         friends.stored_procedure_script(iterations=ITERATIONS),
         "SELECT node, friends FROM __ff_result WHERE MOD(node, 2) = 0",
         "__ff"),
    ]
    gains = {}
    for name, cte_sql, script, final_sql, prefix in cases:
        cleanup = [f"DROP TABLE IF EXISTS {prefix}_{table}"
                   for table in ("intermediate", "result")]

        def procedure(script=script, final_sql=final_sql,
                      cleanup=cleanup):
            for sql in cleanup:  # leftovers of an interrupted run
                db.execute(sql)
            catalog = ProcedureCatalog(db)
            catalog.register(Procedure("bench", [
                *(ExecuteSql(sql) for sql in script),
                ReturnQuery(final_sql)]))
            try:
                return catalog.call("bench").table
            finally:
                for sql in cleanup:
                    db.execute(sql)

        def setup(on, cte_sql=cte_sql, procedure=procedure):
            db.reset_stats()
            return (lambda: db.execute(cte_sql).table) if on else procedure

        def run(go):
            return go(), {"renames": db.stats.renames,
                          "common_results_built":
                              db.stats.common_results_built,
                          "units_admitted": db.workload.units_admitted}

        case, last = arm.time(name, setup, run, same=close_tables)
        case.counters = {"procedure": last[0][1], "cte": last[1][1]}
        arm.check(f"{name}: the procedure runs statement at a time",
                  last[0][1]["renames"] == 0
                  and last[0][1]["common_results_built"] == 0
                  and last[0][1]["units_admitted"] > 3 * ITERATIONS)
        gains[name] = case.gain
    arm.floor("PR-VS CTE gain %", gains["PR-VS"], ">", 15)
    arm.floor("SSSP-VS CTE gain %", gains["SSSP-VS"], ">", 15)
    arm.floor("FF@50% CTE gain %", gains["FF@50%"], ">", 50)
    arm.floor("FF@50% gain minus PR-VS gain (points)",
              gains["FF@50%"] - gains["PR-VS"], ">", 0)


def middleware(arm):
    """§II: the external middleware driver vs the native single plan."""
    spec = dblp_like(nodes=2500, seed=17)
    arm.inputs["dblp-like nodes"] = spec.nodes
    sql = pagerank_query(iterations=10)
    native_db, driver_db = fresh_database(spec), fresh_database(spec)
    driver = MiddlewareDriver(driver_db)
    runs = [lambda: driver.run(sql).table,
            lambda: native_db.execute(sql).table]
    case, _ = arm.time("PR x10 dblp-like", lambda on: runs[on],
                       lambda go: go(), same=close_rows)
    arm.floor("native gain %", case.gain, ">", 0)

    for side, db, go in (("middleware", driver_db, runs[0]),
                         ("native", native_db, runs[1])):
        db.reset_stats()
        db.transactions.stats.__init__()
        ddl_before = (db.catalog.stats.tables_created
                      + db.catalog.stats.tables_dropped)
        go()
        case.counters[side] = {
            "statements parsed/planned": db.stats.statements,
            "workload-manager units": db.workload.units_admitted,
            "locks acquired": db.transactions.stats.locks_acquired,
            "temp-table DDL (create+drop)":
                db.catalog.stats.tables_created
                + db.catalog.stats.tables_dropped - ddl_before,
            "rows moved through DML": db.stats.rows_moved}
    native, external = case.counters["native"], case.counters["middleware"]
    arm.check("overhead breakdown: native is one statement, no locks, "
              "no DML movement; middleware pays all three",
              native["statements parsed/planned"] == 1
              and external["statements parsed/planned"] > 30
              and native["locks acquired"] == 0
              and external["locks acquired"] > 30
              and native["rows moved through DML"] == 0
              and external["rows moved through DML"] > 0)


def common_size(arm):
    """§V-A: where the common-result heuristic pays (PR-VS)."""
    spec = dblp_like(nodes=3000, seed=23)
    arm.inputs["dblp-like nodes"] = spec.nodes
    db = fresh_database(spec, with_vertex_status=True)

    def savings(name, sql):
        """Time one sweep point; return it and the input rows the
        baseline re-scans that the optimized plan does not."""
        case, last = arm.time(name, toggle(db, "enable_common_results"),
                              query(sql, "rows_scanned"), same=close_tables)
        case.counters = {"baseline": last[0][1], "common": last[1][1]}
        saved = last[0][1]["rows_scanned"] - last[1][1]["rows_scanned"]
        case.counters["input rows saved"] = saved
        return case, saved

    by_iterations = {n: savings(f"PR-VS x{n}", pagerank_query(
        iterations=n, with_vertex_status=True)) for n in (1, 5, 25)}
    arm.floor("PR-VS x25 common gain %", by_iterations[25][0].gain, ">", 3)
    saved = {n: s for n, (_, s) in by_iterations.items()}
    arm.floor("rows saved x25 - x5 and x5 - x1 (min)",
              min(saved[25] - saved[5], saved[5] - saved[1]), ">", 0)

    by_joins = {extra: savings(f"wide PR-VS x15, {1 + extra} invariant "
                               f"join(s)", wide_pr_vs(15, extra))[1]
                for extra in (0, 2)}
    arm.floor("rows saved, 3 joins - 1 join and 1 join (min)",
              min(by_joins[2] - by_joins[0], by_joins[0]), ">", 0)


def columnar(arm):
    """Fused delta pass on a DAG whose wave dies: 120 iterations."""
    edges = dag_graph()
    arm.inputs.update(nodes=3000, edges=len(edges))
    sql = sssp_query(source=1, iterations=120)
    case, last = arm.time(
        "SSSP DAG x120",
        lambda on: table_db("edges", EDGE_COLUMNS, edges,
                            "enable_delta_iteration", on),
        query(sql, "delta_iterations"), same=same_tables)
    case.counters = last[1][1]
    arm.check("every iteration after the first takes the delta path",
              last[1][1]["delta_iterations"] >= 119)
    arm.floor("SSSP DAG x120 speedup", case.speedup, ">=", 5.0)


def kernel_cache(arm):
    """Kernel cache off vs on, every sample on a fresh database."""
    closure = closure_graph()
    ranks = pagerank_graph(20000, 120000, first_id=0)
    arm.inputs.update(closure_edges=len(closure), pagerank_edges=len(ranks))
    counters = ("join_index_hits", "join_index_misses",
                "merge_index_rebuilds", "merge_index_hits")
    for name, table, columns, rows, sql, bound in (
            ("UNION DISTINCT closure", "edge",
             [("a", SqlType.INTEGER), ("b", SqlType.INTEGER)], closure,
             CLOSURE_SQL, 2.0),
            ("PageRank x25", "edges", EDGE_COLUMNS, ranks,
             pagerank_query(iterations=25, coalesced=True), 0.8)):
        case, last = arm.time(
            name, lambda on: table_db(table, columns, rows,
                                      "enable_kernel_cache", on),
            query(sql, *counters), same=same_tables)
        case.counters = last[1][1]
        arm.floor(f"{name} speedup", case.speedup, ">=", bound)
    warm = arm.cases[0].counters
    arm.check("closure warm loop: join index hits outnumber misses, the "
              "merge index is built once and hit every later trip",
              warm["join_index_hits"] > warm["join_index_misses"]
              and warm["merge_index_rebuilds"] == 1
              and warm["merge_index_hits"] >= warm["join_index_hits"] - 2)


def delta(arm):
    """Semi-naive delta evaluation off vs on, three convergence shapes."""
    for name, sql, edges, bound in (
            ("SSSP DAG x60", sssp_query(source=1, iterations=60),
             dag_graph(), 1.5),
            ("PageRank x12", pagerank_query(iterations=12),
             pagerank_graph(5000, 30000, first_id=1), 0.7),
            ("Friends x5", ff_query(iterations=5, selectivity_mod=7),
             dag_graph(num_nodes=2000, num_edges=8000, seed=9), 0.7)):
        arm.inputs[f"{name} edges"] = len(edges)
        case, last = arm.time(
            name, lambda on: table_db("edges", EDGE_COLUMNS, edges,
                                      "enable_delta_iteration", on),
            query(sql, "delta_iterations"), same=same_tables)
        case.counters = last[1][1]
        arm.check(f"{name}: delta evaluation engaged",
                  last[1][1]["delta_iterations"] > 0)
        arm.floor(f"{name} speedup", case.speedup, ">=", bound)


def mpp(arm):
    """Distributed PageRank x8 and SSSP: inline simulation vs a resident
    worker pool, at 1, 2 and 4 workers."""
    spec = dblp_like(nodes=max(400, int(8000 * arm.scale)), seed=5)
    edges = generate_edges(spec)
    arm.inputs.update(nodes=spec.nodes, edges=len(edges),
                      cpus=os.cpu_count())
    loops = {
        "pagerank": (lambda w, pool: distributed_pagerank(
            Cluster(w), edges, iterations=8, pool=pool), "ranks"),
        "sssp": (lambda w, pool: distributed_sssp(
            Cluster(w), edges, source=1, pool=pool), "distances"),
    }
    for name, (go, payload) in loops.items():
        for workers in (1, 2, 4):
            with WorkerPool(workers) as pool:
                case, last = arm.time(
                    f"{name} {workers}w",
                    lambda on, pool=pool: pool if on else None,
                    lambda pool, workers=workers: go(workers, pool),
                    samples=5,
                    same=lambda a, b, payload=payload: (
                        getattr(a, payload) == getattr(b, payload)
                        and (a.rows_moved, a.bytes_moved)
                        == (b.rows_moved, b.bytes_moved)))
            case.counters = {key: getattr(last[1], key) for key in
                             ("iterations", "rows_moved", "bytes_moved")}
            if workers < 4:  # 4 workers oversubscribe a small host
                arm.floor(f"{name} {workers}w pool/inline",
                          1.0 / case.speedup, "<=", 1.35)


SERVING_CLIENTS = 8


def serving(arm):
    """Shared plan cache off vs on under 8 closed-loop clients."""
    spec = dblp_like(nodes=max(120, int(600 * arm.scale)), seed=29)
    rounds = max(4, int(12 * arm.scale))
    arm.inputs.update(nodes=spec.nodes, clients=SERVING_CLIENTS,
                      rounds=rounds, workers=4)
    statements = ["SELECT COUNT(*) FROM edges WHERE src > 0",
                  "SELECT COUNT(*) FROM edges WHERE src > 0",
                  "SELECT dst, COUNT(*) FROM edges "
                  "GROUP BY dst ORDER BY dst LIMIT 5",
                  sssp_query(source=1, iterations=4),
                  # src < 0 never matches: both sides keep the same rows.
                  "DELETE FROM edges WHERE src < 0"]

    def setup(on):
        db = Database(SessionOptions(enable_plan_cache=on))
        load_graph(db, spec)
        return db

    def storm(db):
        latencies = [[] for _ in range(SERVING_CLIENTS)]
        payloads = [[] for _ in range(SERVING_CLIENTS)]
        errors = []
        with serve(db, workers=4,
                   queue_depth=SERVING_CLIENTS * rounds) as server:
            def client_loop(slot):
                client = server.connect()
                try:
                    for round_no in range(rounds):
                        sql = statements[(round_no + slot) % 5]
                        begin = time.perf_counter()
                        result = client.execute(sql)
                        latencies[slot].append(time.perf_counter() - begin)
                        payloads[slot].append(
                            result.rows() if result.table is not None
                            else None)
                except Exception as exc:  # reported as a failed check
                    errors.append(repr(exc))

            threads = [threading.Thread(target=client_loop, args=(slot,))
                       for slot in range(SERVING_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        flat = [t for slot in latencies for t in slot]
        stats = db.stats
        looked_up = stats.plan_cache_hits + stats.plan_cache_misses
        return {"mean": sum(flat) / len(flat), "payloads": payloads,
                "errors": errors, "hits": stats.plan_cache_hits,
                "hit_rate": stats.plan_cache_hits / looked_up
                if looked_up else 0.0}

    case, (off, on) = arm.time("mixed storm, mean request latency",
                               setup, storm, metric=lambda r: r["mean"],
                               same=lambda a, b: a["payloads"]
                               == b["payloads"])
    case.counters = {"cache-on hit rate": on["hit_rate"],
                     "cache-off hits": off["hits"]}
    arm.check("no request failed", not off["errors"] and not on["errors"])
    arm.check("cache off: no plan-cache hits", off["hits"] == 0)
    arm.floor("plan-cache hit rate", on["hit_rate"], ">=", 0.9,
              needs_scale=0.75)
    arm.floor("mean-latency speedup", case.speedup, ">", 1.0)


ARMS = {
    "table1": ArmSpec("Table I", "none: plan compilation only",
                      ("compile",), True, table1),
    "fig8": ArmSpec("Fig. 8", "enable_rename", ("merge-back", "rename"),
                    True, fig8),
    "fig9": ArmSpec("Fig. 9", "enable_common_results",
                    ("baseline", "common"), True, fig9),
    "fig10": ArmSpec("Fig. 10", "enable_predicate_pushdown",
                     ("baseline", "pushed"), True, fig10),
    "fig11": ArmSpec("Fig. 11", "stored procedure vs iterative CTE",
                     ("procedure", "cte"), True, fig11),
    "middleware": ArmSpec("§II ablation", "middleware driver vs native",
                          ("middleware", "native"), False, middleware),
    "common_size": ArmSpec("§V-A ablation", "enable_common_results",
                           ("baseline", "common"), False, common_size),
    "columnar": ArmSpec("engine: fused delta pass",
                        "enable_delta_iteration",
                        ("delta off", "delta on"), False, columnar),
    "kernel_cache": ArmSpec("engine: kernel cache", "enable_kernel_cache",
                            ("cache off", "cache on"), False,
                            kernel_cache),
    "delta": ArmSpec("engine: semi-naive delta", "enable_delta_iteration",
                     ("delta off", "delta on"), False, delta),
    "mpp": ArmSpec("§III substrate: MPP", "inline simulation vs "
                   "WorkerPool", ("inline", "pool"), True, mpp),
    "serving": ArmSpec("engine: serving", "enable_plan_cache",
                       ("cache off", "cache on"), True, serving),
}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _seconds(stats: dict) -> str:
    return (f"{stats['median']:.4g} "
            f"({stats['q1']:.4g}–{stats['q3']:.4g})")


def render(name: str, arm: dict) -> str:
    sides = arm["sides"]
    lines = [f"### {name}: {arm['artifact']} ({arm['switch']})", "",
             "inputs: " + ", ".join(f"{k} {v}"
                                    for k, v in arm["inputs"].items()),
             ""]
    header = ["case"] + [f"{side} s, median (q1–q3)" for side in sides]
    if len(sides) == 2:
        header += ["speedup", "gain"]
    lines += ["| " + " | ".join(header) + " |",
              "|" + "---|" * len(header)]
    for case in arm["cases"]:
        row = [case["name"]] + [_seconds(case["sides"][side])
                                for side in sides]
        if len(sides) == 2:
            row += [f"{case['speedup']:.2f}x", f"{case['gain_pct']:.1f} %"]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    for check, ok in arm["checks"].items():
        lines.append(f"- check {'ok' if ok else 'FAILED'}: {check}")
    for floor in arm["floors"]:
        lines.append(f"- floor {floor['verdict']}: {floor['name']} = "
                     f"{floor['value']:.3g} (needs {floor['op']} "
                     f"{floor['bound']:g})")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size of the scaled arms' inputs (1.0 = the "
                        "sizes the floors were set at)")
    parser.add_argument("--arm", action="append", choices=list(ARMS),
                        help="run only this arm (repeatable)")
    parser.add_argument("--out", help="write the JSON document here")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")

    thermometer = Thermometer()
    document = {"scale": args.scale,
                "host": {"cpus": os.cpu_count(),
                         "machine": platform.machine(),
                         "python": platform.python_version(),
                         "numpy": np.__version__},
                "arms": {}}
    failed = []
    for name in args.arm or ARMS:
        spec = ARMS[name]
        reading = thermometer.read()
        arm = Arm(spec, args.scale)
        started = time.perf_counter()
        spec.measure(arm)
        document["arms"][name] = {
            "artifact": spec.artifact, "switch": spec.switch,
            "sides": list(spec.sides), "scaled": spec.scaled,
            "host_factor": {"wall": reading.wall, "cpu": reading.cpu},
            "seconds": time.perf_counter() - started,
            "inputs": arm.inputs,
            "cases": [case.to_json() for case in arm.cases],
            "checks": arm.checks, "floors": arm.floors}
        print(render(name, document["arms"][name]), flush=True)
        if arm.failed:
            failed.append(name)
    verdicts = Counter(floor["verdict"].split(" ")[0]
                       for arm in document["arms"].values()
                       for floor in arm["floors"])
    print(f"floors: {verdicts['pass']} pass, {verdicts['fail']} fail, "
          f"{verdicts['unchecked']} unchecked; arms with a failure: "
          f"{', '.join(failed) or 'none'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

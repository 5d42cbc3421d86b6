"""The four workloads: inputs, set-up, one operation, output checks.

Each workload stresses a different set of layers (README has the
rationale and the measured share table):

* ``pr_full``     — PageRank, no WHERE: Algorithm 1's *rename* path,
  every iteration a full join + group-by; ``execution`` kernels.
* ``sssp_delta``  — SSSP with ``vertexStatus`` and delta iteration on:
  the *merge* path, 30 cheap iterations; ``runtime`` carries a large
  share.
* ``serve_mixed`` — two closed-loop clients over ``serve(workers=2)``
  replaying reads, writes and small iterative queries with hot and cold
  literals; compile cost, plan cache, snapshots, write lock, dispatch.
* ``mpp_pr``      — ``distributed_pagerank`` on a resident two-process
  ``WorkerPool``; partition, load, wire, shuffle, barrier.

A workload only ever calls public functions of ``repro``.  Graphs come
from a fixed generator seed and are made isomorphic per ``--seed``
(node ids permuted, row order shuffled); literal schedules are drawn
per seed from fixed-size strata.  A seed therefore changes wiring and
literals but never the amount of work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from repro.datasets import dblp_like, generate_edges, generate_vertex_status
from repro.engine import Database, SessionOptions
from repro import mpp
from repro.mpp import Cluster, WorkerPool
from repro.server import serve
from repro.types import SqlType
from repro.workloads.pagerank import pagerank_query
from repro.workloads.sssp import sssp_query

EDGE_COLUMNS = [("src", SqlType.INTEGER), ("dst", SqlType.INTEGER),
                ("weight", SqlType.FLOAT)]

# Final sizes (README records how they were calibrated).
PR_FULL_NODES = 30_000
SSSP_DELTA_NODES = 15_000
MPP_PR_NODES = 40_000
SERVE_EDGES_NODES = 10_000
SERVE_SMALL_NODES = 300


def engine_options(**overrides) -> SessionOptions:
    """The benchmark's option set: library defaults, except that the IR
    verifier is pinned on.  Its default depends on whether pytest is
    loaded, which would make a smoke-test run and a driver run measure
    different programs; and with it off the ``verify`` layer never runs."""
    return SessionOptions(enable_plan_verifier=True, **overrides)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """One generated graph, relabelled for a seed."""

    nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    relabel: np.ndarray           # generator node id -> this graph's id
    rows: list = field(repr=False)    # (src, dst, weight) Python tuples

    @property
    def edges(self) -> int:
        return len(self.src)


def seeded_graph(nodes: int, rng: np.random.Generator,
                 uniform_weights: bool = False) -> Graph:
    """The ``dblp_like(nodes)`` graph of the generator's own fixed seed,
    with node ids permuted and rows shuffled by ``rng``: every seed gets
    an isomorphic graph, so degree sequence, frontier sizes and
    iteration counts are identical."""
    spec = dblp_like(nodes)
    base = generate_edges(spec, weighted_by_outdegree=not uniform_weights)
    count = len(base)
    relabel = rng.permutation(nodes)
    order = rng.permutation(count)
    src = relabel[np.fromiter((e[0] for e in base), np.int64, count)][order]
    dst = relabel[np.fromiter((e[1] for e in base), np.int64, count)][order]
    weight = np.fromiter((e[2] for e in base), np.float64, count)[order]
    rows = list(zip(src.tolist(), dst.tolist(), weight.tolist()))
    return Graph(nodes, src, dst, weight, relabel, rows)


def scaled(nodes: int, scale: float, floor: int = 60) -> int:
    return max(int(nodes * scale), floor)


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


@dataclass
class SetupTimes:
    """What one set-up spent where (seconds, raw)."""

    load_s: float
    rows_loaded: int
    first_op_s: float


class Workload:
    """Inputs are built in ``__init__``; the harness owns every clock."""

    name = ""
    root_span = "engine.execute"   # the probe's span of one operation

    def __init__(self, seed: int, scale: float):
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    # -- lifecycle (overridden) ----------------------------------------------

    def setup(self) -> SetupTimes:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever the last ``setup`` started; idempotent."""

    def run_slot(self, deadline: float) -> list[float]:
        """Whole operations until ``deadline``; their wall latencies."""
        latencies = []
        clock = time.perf_counter
        while True:
            started = clock()
            self.attempted += 1
            try:
                self.operation()
            except Exception as exc:  # a failed operation, not a crash
                self.fail(f"{type(exc).__name__}: {exc}")
            ended = clock()
            latencies.append(ended - started)
            if ended >= deadline:
                return latencies

    def operation(self) -> None:
        raise NotImplementedError

    def between_slots(self) -> None:
        """Untimed work at a slot boundary (state reset, checks)."""

    def verify(self) -> None:
        """Output checks after the window, outside the clocks."""

    def counters(self) -> dict:
        """Counts read from the engine's public read APIs."""
        raise NotImplementedError


def _load(db: Database, name: str, columns, rows) -> int:
    db.create_table(name, columns)
    return db.load_rows(name, rows)


class _SqlWorkload(Workload):
    """One warm embedded engine, one iterative query text."""

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.db: Database | None = None
        self.query = ""
        self.first_result = None
        self.last_result = None

    def options(self) -> SessionOptions:
        return engine_options()

    def tables(self) -> list[tuple[str, list, list]]:
        raise NotImplementedError

    def setup(self) -> SetupTimes:
        self.first_result = self.last_result = None
        started = time.perf_counter()
        self.db = Database(self.options())
        rows = sum(_load(self.db, *table) for table in self.tables())
        loaded = time.perf_counter()
        self.attempted += 1
        self.operation()
        return SetupTimes(loaded - started, rows,
                          time.perf_counter() - loaded)

    def operation(self) -> None:
        table = self.db.execute(self.query).table
        if self.first_result is None:
            self.first_result = table
        self.last_result = table

    def expected(self) -> np.ndarray:
        raise NotImplementedError

    def verify(self) -> None:
        expected = self.expected()
        for label, table in (("first", self.first_result),
                             ("last", self.last_result)):
            actual = None if table is None else oracles.by_node(
                table.columns[0].data, table.columns[1].data, len(expected))
            self.expect(actual is not None
                        and oracles.close(actual, expected),
                        f"{self.name}: {label} result differs from the "
                        "NumPy oracle")

    def counters(self) -> dict:
        return {"stats": self.db.stats.snapshot(),
                "plan_cache": self.db.engine.plan_cache.snapshot()}


# ---------------------------------------------------------------------------
# pr_full
# ---------------------------------------------------------------------------


class PrFull(_SqlWorkload):
    name = "pr_full"
    ITERATIONS = 10

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.graph = seeded_graph(scaled(PR_FULL_NODES, scale), self.rng)
        self.query = pagerank_query(iterations=self.ITERATIONS)

    def tables(self):
        return [("edges", EDGE_COLUMNS, self.graph.rows)]

    def expected(self) -> np.ndarray:
        g = self.graph
        return oracles.pagerank(g.src, g.dst, g.weight, g.nodes,
                                self.ITERATIONS)


# ---------------------------------------------------------------------------
# sssp_delta
# ---------------------------------------------------------------------------


class SsspDelta(_SqlWorkload):
    name = "sssp_delta"
    ITERATIONS = 30

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        nodes = scaled(SSSP_DELTA_NODES, scale)
        self.graph = seeded_graph(nodes, self.rng, uniform_weights=True)
        g = self.graph
        # vertexStatus comes from the generator's fixed seed too and is
        # relabelled with the graph, so the available set is isomorphic.
        status = generate_vertex_status(dblp_like(nodes))
        self.available = np.zeros(nodes, dtype=np.bool_)
        for node, flag in status:
            self.available[g.relabel[node]] = bool(flag)
        self.status_rows = [(int(g.relabel[node]), flag)
                            for node, flag in status]
        # The hub of the *generated* graph, then relabelled: a source
        # picked by id made the work vary by 11 % across seeds.
        out_degree = np.bincount(g.src, minlength=nodes)
        hub_generated = int(np.argmax(out_degree[g.relabel]))
        self.source = int(g.relabel[hub_generated])
        self.query = sssp_query(source=self.source,
                                iterations=self.ITERATIONS,
                                with_vertex_status=True)

    def options(self) -> SessionOptions:
        return engine_options(enable_delta_iteration=True)

    def tables(self):
        return [("edges", EDGE_COLUMNS, self.graph.rows),
                ("vertexStatus", [("node", SqlType.INTEGER),
                                  ("status", SqlType.INTEGER)],
                 self.status_rows)]

    def expected(self) -> np.ndarray:
        g = self.graph
        return oracles.sssp(g.src, g.dst, g.weight, g.nodes, self.source,
                            self.ITERATIONS, self.available)


# ---------------------------------------------------------------------------
# mpp_pr
# ---------------------------------------------------------------------------


class MppPr(Workload):
    name = "mpp_pr"
    root_span = "mpp.pagerank"
    ITERATIONS = 10
    WORKERS = 2

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.graph = seeded_graph(scaled(MPP_PR_NODES, scale), self.rng)
        self.pool: WorkerPool | None = None
        self.cluster: Cluster | None = None
        self.last_result = None
        self.inline_seconds = 0.0

    def setup(self) -> SetupTimes:
        started = time.perf_counter()
        self.cluster = Cluster(self.WORKERS)
        self.pool = WorkerPool(self.WORKERS)
        spawned = time.perf_counter()
        self.attempted += 1
        self.operation()
        return SetupTimes(spawned - started, 0,
                          time.perf_counter() - spawned)

    def teardown(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown()

    def operation(self) -> None:
        # Looked up on the module at call time, so that a traced run
        # reaches the probe's wrapper.
        self.last_result = mpp.distributed_pagerank(
            self.cluster, self.graph.rows, iterations=self.ITERATIONS,
            pool=self.pool)

    def verify(self) -> None:
        g = self.graph
        pooled = self.last_result
        started = time.perf_counter()
        inline = mpp.distributed_pagerank(Cluster(self.WORKERS), g.rows,
                                          iterations=self.ITERATIONS)
        self.inline_seconds = time.perf_counter() - started
        self.expect(pooled is not None and pooled.ranks == inline.ranks,
                    "mpp_pr: pool ranks are not bit-identical to inline")
        self.expect(pooled is not None
                    and (pooled.rows_moved, pooled.bytes_moved)
                    == (inline.rows_moved, inline.bytes_moved),
                    "mpp_pr: pool motion counters differ from inline")
        expected = oracles.pagerank(g.src, g.dst, g.weight, g.nodes,
                                    self.ITERATIONS)
        actual = np.array([inline.ranks.get(node, np.nan)
                           for node in range(g.nodes)])
        self.expect(oracles.close(actual, expected),
                    "mpp_pr: ranks differ from the NumPy oracle")

    def counters(self) -> dict:
        result = self.last_result
        return {"mpp": {"rows_moved": result.rows_moved,
                        "bytes_moved": result.bytes_moved,
                        "iterations": result.iterations}}


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

# Request classes and how many of each a block of 100 requests holds.
# Calibrated on a direct-engine replay so that read ≈ 40 %, write ≈ 30 %,
# iterate ≈ 30 % of CPU (`run.py --shares`, README).
CLASS_KIND = {"point": "read", "group": "read", "evread": "read",
              "iterate": "iter", "ins1": "write", "ins20": "write",
              "update": "write"}
BLOCK_COUNTS = {"point": 36, "group": 9, "evread": 15, "iterate": 6,
                "ins1": 22, "ins20": 5, "update": 7}
BLOCKS_PER_CLIENT = 100
HOT_VALUES = 32
HOT_SHARE = 0.7
EVENTS_BASE_ROWS = 1_000
INSERT_ID_BASE = 1_000_000
WARMUP_REQUESTS = 400
SSSP_ROUNDS = 4


@dataclass(frozen=True)
class Request:
    cls: str
    sql: str
    key: int     # the literal (reads, update, iterate) or rows inserted


class ServeMixed(Workload):
    name = "serve_mixed"
    root_span = "server.request"
    CLIENTS = 2
    WORKERS = 2

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.edges = seeded_graph(scaled(SERVE_EDGES_NODES, scale), self.rng)
        self.small = seeded_graph(scaled(SERVE_SMALL_NODES, scale, 40),
                                  self.rng, uniform_weights=True)
        self.window = max(self.edges.nodes // 20, 1)
        self.base_rows = [(i, 1.0) for i in range(EVENTS_BASE_ROWS)]
        self.schedules = self._draw_schedules()
        e = self.edges
        self._out_count = np.bincount(e.src, minlength=e.nodes)
        self._out_weight = np.bincount(e.src, weights=e.weight,
                                       minlength=e.nodes)
        self._group_cache: dict[int, list] = {}
        self._sssp_cache: dict[int, np.ndarray] = {}
        self.db: Database | None = None
        self.server = None
        self.clients: list = []
        self.positions = [0] * self.CLIENTS
        self._pending: list[tuple[list, list]] = []
        self._slot_latencies: list[dict[str, list[float]]] = []
        self.segments_end = 1

    # -- inputs --------------------------------------------------------------

    def _draw_schedules(self) -> list[list[Request]]:
        rng = self.rng
        domains = {"point": self.edges.nodes,
                   "group": self.edges.nodes - self.window + 1,
                   "evread": EVENTS_BASE_ROWS,
                   "update": EVENTS_BASE_ROWS,
                   "iterate": self.small.nodes}
        hot = {cls: rng.choice(size, min(HOT_VALUES, size), replace=False)
               for cls, size in domains.items()}
        schedules = []
        for client in range(self.CLIENTS):
            next_id = INSERT_ID_BASE * (client + 1)
            requests: list[Request] = []
            for _ in range(BLOCKS_PER_CLIENT):
                block = []
                for cls, count in BLOCK_COUNTS.items():
                    if cls in ("ins1", "ins20"):
                        rows = 1 if cls == "ins1" else 20
                        for _ in range(count):
                            block.append(self._insert(next_id, rows))
                            next_id += rows
                        continue
                    n_hot = round(count * HOT_SHARE)
                    literals = np.concatenate([
                        rng.choice(hot[cls], n_hot),
                        rng.integers(0, domains[cls], count - n_hot)])
                    block.extend(self._request(cls, int(lit))
                                 for lit in literals)
                requests.extend(block[i]
                                for i in rng.permutation(len(block)))
            schedules.append(requests)
        return schedules

    def _insert(self, first_id: int, rows: int) -> Request:
        values = ", ".join(f"({first_id + i}, 1.0)" for i in range(rows))
        return Request("ins1" if rows == 1 else "ins20",
                       f"INSERT INTO events VALUES {values}", rows)

    def _request(self, cls: str, lit: int) -> Request:
        if cls == "point":
            sql = ("SELECT COUNT(*), SUM(weight) FROM edges "
                   f"WHERE src = {lit}")
        elif cls == "group":
            sql = ("SELECT dst, COUNT(*) AS n FROM edges "
                   f"WHERE src >= {lit} AND src < {lit + self.window} "
                   "GROUP BY dst ORDER BY n DESC, dst LIMIT 5")
        elif cls == "evread":
            sql = f"SELECT COUNT(*), SUM(v) FROM events WHERE id > {lit}"
        elif cls == "update":
            sql = f"UPDATE events SET v = v + 1 WHERE id = {lit}"
        else:
            sql = sssp_query(source=lit, iterations=SSSP_ROUNDS).replace(
                " edges", " small_edges")
        return Request(cls, sql, lit)

    def class_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(CLASS_KIND, 0)
        for schedule in self.schedules:
            for request in schedule:
                counts[request.cls] += 1
        return counts

    # -- lifecycle -----------------------------------------------------------

    def build_engine(self) -> tuple[Database, int]:
        db = Database(engine_options())
        rows = _load(db, "edges", EDGE_COLUMNS, self.edges.rows)
        rows += _load(db, "small_edges", EDGE_COLUMNS, self.small.rows)
        rows += _load(db, "events", [("id", SqlType.INTEGER),
                                     ("v", SqlType.FLOAT)], self.base_rows)
        return db, rows

    def setup(self) -> SetupTimes:
        started = time.perf_counter()
        self.db, rows = self.build_engine()
        loaded = time.perf_counter()
        self.server = serve(self.db, workers=self.WORKERS)
        self.clients = [self.server.connect() for _ in range(self.CLIENTS)]
        self.positions = [0] * self.CLIENTS
        self._drive(limit=WARMUP_REQUESTS // self.CLIENTS)
        first_op = time.perf_counter() - loaded
        self.between_slots()
        self._slot_latencies = []    # the warm-up is not a slot
        return SetupTimes(loaded - started, rows, first_op)

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.shutdown()
        self.clients = []

    def run_slot(self, deadline: float) -> list[float]:
        return self._drive(deadline=deadline)

    def _drive(self, deadline: float | None = None,
               limit: int | None = None) -> list[float]:
        """Both clients replay their schedules concurrently, each
        waiting for every reply (closed loop)."""
        outputs: list = [None] * self.CLIENTS
        threads = [threading.Thread(target=self._client_loop,
                                    args=(i, deadline, limit, outputs),
                                    name=f"e2e-client-{i}")
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies: list[float] = []
        for lat, done in outputs:
            latencies.extend(lat)
            self._pending.append((lat, done))
        self.attempted += len(latencies)
        return latencies

    def _client_loop(self, index: int, deadline, limit, outputs) -> None:
        client = self.clients[index]
        schedule = self.schedules[index]
        size = len(schedule)
        position = self.positions[index]
        latencies: list[float] = []
        done: list = []
        clock = time.perf_counter
        while limit is None or len(done) < limit:
            request = schedule[position % size]
            started = clock()
            try:
                outcome = client.execute(request.sql)
            except Exception as exc:  # incl. AdmissionError: a failed op
                outcome = exc
            ended = clock()
            latencies.append(ended - started)
            done.append((request, outcome))
            position += 1
            if deadline is not None and ended >= deadline:
                break
        self.positions[index] = position
        outputs[index] = (latencies, done)

    # -- checks --------------------------------------------------------------

    def between_slots(self) -> None:
        """Check what the clients got back, check ``events`` against the
        acknowledged writes, and put ``events`` back to its base rows so
        every slot sees the same growth profile."""
        inserted = updates = 0
        pending, self._pending = self._pending, []
        by_class: dict[str, list[float]] = {cls: [] for cls in CLASS_KIND}
        self._slot_latencies.append(by_class)
        for latencies, done in pending:
            for latency, (request, outcome) in zip(latencies, done):
                by_class[request.cls].append(latency)
                if isinstance(outcome, Exception):
                    self.fail(f"{request.cls}: {type(outcome).__name__}: "
                              f"{outcome}")
                elif request.cls in ("ins1", "ins20"):
                    inserted += outcome.rowcount
                    self.expect(outcome.rowcount == request.key,
                                f"{request.cls}: rowcount {outcome.rowcount}")
                elif request.cls == "update":
                    updates += outcome.rowcount
                    self.expect(outcome.rowcount == 1,
                                f"update: rowcount {outcome.rowcount}")
        for _, done in pending:
            for request, outcome in done:
                if not isinstance(outcome, Exception) \
                        and CLASS_KIND[request.cls] != "write":
                    self._check_read(request, outcome, inserted, updates)
        count, total = self.db.execute(
            "SELECT COUNT(*), SUM(v) FROM events").rows()[0]
        self.expect(count == EVENTS_BASE_ROWS + inserted
                    and total == EVENTS_BASE_ROWS + inserted + updates,
                    f"events holds {count} rows / sum {total}, acknowledged "
                    f"writes give {EVENTS_BASE_ROWS + inserted} / "
                    f"{EVENTS_BASE_ROWS + inserted + updates}")
        self.segments_end = getattr(self.db.table("events"),
                                    "segment_count", 1)
        self.db.execute("DELETE FROM events")
        self.db.load_rows("events", self.base_rows)

    def _check_read(self, request: Request, outcome, inserted: int,
                    updates: int) -> None:
        lit = request.key
        rows = outcome.rows()
        if request.cls == "point":
            ok = (len(rows) == 1 and rows[0][0] == self._out_count[lit]
                  and oracles.close(rows[0][1], self._out_weight[lit]))
        elif request.cls == "group":
            ok = rows == self._group_reference(lit)
        elif request.cls == "evread":
            # Writes race with this read, so only bounds are known: the
            # base rows above the literal, plus at most every row and
            # every increment this slot acknowledged.
            base = EVENTS_BASE_ROWS - 1 - lit
            count, total = rows[0]
            ok = (base <= count <= base + inserted
                  and count <= (total or 0) <= count + updates)
        else:
            table = outcome.table
            actual = oracles.by_node(table.columns[0].data,
                                     table.columns[1].data,
                                     self.small.nodes)
            ok = actual is not None and oracles.close(
                actual, self._sssp_reference(lit))
        self.expect(ok, f"{request.cls}({lit}): wrong answer {rows[:3]}")

    def _group_reference(self, lit: int) -> list:
        cached = self._group_cache.get(lit)
        if cached is None:
            e = self.edges
            inside = (e.src >= lit) & (e.src < lit + self.window)
            counts = np.bincount(e.dst[inside], minlength=e.nodes)
            top = np.lexsort((np.arange(e.nodes), -counts))[:5]
            cached = [(int(d), int(counts[d])) for d in top if counts[d]]
            self._group_cache[lit] = cached
        return cached

    def _sssp_reference(self, source: int) -> np.ndarray:
        cached = self._sssp_cache.get(source)
        if cached is None:
            s = self.small
            cached = oracles.sssp(s.src, s.dst, s.weight, s.nodes, source,
                                  SSSP_ROUNDS)
            self._sssp_cache[source] = cached
        return cached

    def verify(self) -> None:
        # The last slot's replies are still pending.
        self.between_slots()

    # -- read APIs -----------------------------------------------------------

    def counters(self) -> dict:
        return {"stats": self.db.stats.snapshot(),
                "plan_cache": self.db.engine.plan_cache.snapshot(),
                "server": self.server.stats.snapshot(),
                "segments_end": self.segments_end}

    def class_latencies(self) -> list[dict[str, list[float]]]:
        """Per slot, raw latencies by request class."""
        return self._slot_latencies


WORKLOADS = {cls.name: cls for cls in (PrFull, SsspDelta, ServeMixed, MppPr)}

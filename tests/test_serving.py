"""The serving layer: dispatch, admission control, snapshots, tracing.

Covers server round trips, snapshot-pinned concurrent reads verified
against serial replay, and backpressure.
"""

import threading

import pytest

from repro import Database
from repro.engine import Engine
from repro.errors import AdmissionError, CatalogError, ReproError
from repro.execution import SessionOptions
from repro.server import DatabaseServer, serve
from repro.types import SqlType

REACH_SQL = """
WITH ITERATIVE r (node, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.node, min(r.v + e.weight)
          FROM r JOIN edges e ON e.src = r.node
          GROUP BY r.node
  UNTIL 3 ITERATIONS
) SELECT node, v FROM r ORDER BY node"""


def _graph_db() -> Database:
    db = Database()
    db.create_table("edges", [("src", SqlType.INTEGER),
                              ("dst", SqlType.INTEGER),
                              ("weight", SqlType.FLOAT)])
    db.load_rows("edges", [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 1.0),
                           (3, 1, 1.0), (4, 1, 1.0)])
    return db


class TestEngineSessions:
    def test_sessions_share_storage_not_options(self):
        engine = Engine()
        a = engine.create_session()
        b = engine.create_session()
        a.execute("CREATE TABLE t (x INTEGER)")
        a.execute("INSERT INTO t VALUES (1)")
        assert b.execute("SELECT x FROM t").rows() == [(1,)]
        a.set_option("enable_tracing", True)
        assert b.options.enable_tracing is False
        assert a.session_id != b.session_id

    def test_database_facade_is_one_session(self, db):
        assert isinstance(db.engine, Engine)
        other = db.engine.create_session()
        db.execute("CREATE TABLE t (x INTEGER)")
        assert other.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_transaction_gets_repeatable_reads(self):
        engine = Engine()
        reader = engine.create_session()
        writer = engine.create_session()
        writer.execute("CREATE TABLE t (x INTEGER)")
        writer.execute("INSERT INTO t VALUES (1), (2)")
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 2
        writer.execute("INSERT INTO t VALUES (3)")
        # Pinned at first read: the concurrent insert stays invisible.
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 2
        reader.execute("COMMIT")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_transaction_reads_its_own_writes(self):
        engine = Engine()
        session = engine.create_session()
        session.execute("CREATE TABLE t (x INTEGER)")
        session.execute("BEGIN")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 0
        session.execute("INSERT INTO t VALUES (1)")
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 1
        session.execute("COMMIT")

    def test_autocommit_pins_per_statement(self):
        engine = Engine()
        reader = engine.create_session()
        writer = engine.create_session()
        writer.execute("CREATE TABLE t (x INTEGER)")
        writer.execute("INSERT INTO t VALUES (1)")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 1
        writer.execute("INSERT INTO t VALUES (2)")
        assert reader.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert reader.last_snapshot.watermarks()["t"] == 2


class TestServerBasics:
    def test_round_trip(self):
        with serve(_graph_db(), workers=2) as server:
            with server.connect() as client:
                count = client.execute(
                    "SELECT COUNT(*) FROM edges").scalar()
                assert count == 5

    def test_per_client_statements_run_in_order(self):
        with serve(_graph_db(), workers=4) as server:
            client = server.connect()
            futures = [client.submit(
                "INSERT INTO edges VALUES (9, 9, 1.0)")]
            futures.append(client.submit("SELECT COUNT(*) FROM edges"))
            futures.append(client.submit(
                "DELETE FROM edges WHERE src = 9"))
            futures.append(client.submit("SELECT COUNT(*) FROM edges"))
            assert futures[1].result().scalar() == 6
            assert futures[3].result().scalar() == 5

    def test_sessions_run_concurrently_but_share_data(self):
        with serve(_graph_db(), workers=4) as server:
            clients = [server.connect() for _ in range(4)]
            futures = [c.submit(REACH_SQL) for c in clients]
            results = [f.result().rows() for f in futures]
            assert all(rows == results[0] for rows in results)

    def test_admission_queue_overflow_is_structured(self):
        server = serve(_graph_db(), workers=2, queue_depth=3)
        try:
            client = server.connect()
            # Stall the write path: the first request blocks on the
            # engine write lock held here, the rest queue behind it on
            # the same session until the bound trips.
            with server.engine.write_lock:
                futures = [client.submit(
                    "INSERT INTO edges VALUES (7, 7, 1.0)")]
                while len(futures) < 3:
                    futures.append(client.submit(
                        "SELECT COUNT(*) FROM edges"))
                with pytest.raises(AdmissionError) as excinfo:
                    client.submit("SELECT 1")
                assert excinfo.value.queue_depth == 3
                assert excinfo.value.outstanding == 3
                assert server.stats.rejected == 1
            for future in futures:
                future.result()
            assert server.stats.completed == 3
        finally:
            server.shutdown()

    def test_closed_client_rejects_submissions(self):
        with serve(_graph_db(), workers=1) as server:
            client = server.connect()
            client.close()
            with pytest.raises(ReproError):
                client.submit("SELECT 1")

    def test_server_tracing_merges_session_spans(self):
        with serve(_graph_db(), workers=2, trace=True) as server:
            clients = [server.connect() for _ in range(2)]
            for client in clients:
                client.execute("SELECT COUNT(*) FROM edges")
            trace = server.trace()
        root = trace.to_dict()["root"]
        requests = [c for c in root["children"] if c["name"] == "request"]
        assert len(requests) == 2
        sessions = {r["attributes"]["session"] for r in requests}
        assert len(sessions) == 2
        statements = [child for request in requests
                      for child in request["children"]
                      if child["name"] == "statement"]
        assert len(statements) == 2

    def test_metrics_include_server_counters(self):
        with serve(_graph_db(), workers=1) as server:
            server.connect().execute("SELECT COUNT(*) FROM edges")
            snapshot = server.metrics_snapshot()
        assert snapshot["gauges"]["server.completed"] == 1
        assert snapshot["gauges"]["server.submitted"] == 1


class TestConcurrentSnapshots:
    """Writers append while many reader sessions scan and iterate; every
    reader result must equal serial execution at its pinned watermark."""

    READERS = 8
    WRITERS = 2
    INSERTS_PER_WRITER = 25
    READS_PER_READER = 10

    def test_readers_see_consistent_prefixes_under_writes(self):
        db = _graph_db()
        db.execute("CREATE TABLE events (x INTEGER)")
        expected_reach = db.execute(REACH_SQL).rows()
        observations = []
        errors = []

        server = serve(db, workers=6, queue_depth=1024)
        try:
            def writer(offset: int) -> None:
                client = server.connect()
                try:
                    for i in range(self.INSERTS_PER_WRITER):
                        client.execute(
                            f"INSERT INTO events VALUES "
                            f"({offset + i})")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def reader() -> None:
                client = server.connect()
                try:
                    local = []
                    for i in range(self.READS_PER_READER):
                        result = client.execute(
                            "SELECT COUNT(*), SUM(x) FROM events")
                        watermark = client.session.last_snapshot \
                            .watermarks().get("events", 0)
                        count, total = result.rows()[0]
                        local.append((watermark, count, total))
                        if i % 4 == 3:
                            assert client.execute(
                                REACH_SQL).rows() == expected_reach
                    observations.append(local)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=writer,
                                        args=(w * 1000,))
                       for w in range(self.WRITERS)]
            threads += [threading.Thread(target=reader)
                        for _ in range(self.READERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.shutdown()

        assert errors == []
        assert len(observations) == self.READERS

        # Serial replay: INSERT-only writers mean the final consolidated
        # row order is the append order, so the snapshot a reader pinned
        # at watermark w is exactly the first w rows.
        final = [row[0] for row in db.execute(
            "SELECT x FROM events").rows()]
        assert len(final) == self.WRITERS * self.INSERTS_PER_WRITER
        replay = Database()
        replay.create_table("events", [("x", SqlType.INTEGER)])
        prefix_sums = [0]
        for value in final:
            prefix_sums.append(prefix_sums[-1] + value)

        for local in observations:
            watermarks = [w for w, _, _ in local]
            assert watermarks == sorted(watermarks), \
                "per-session snapshot watermarks must be monotone"
            for watermark, count, total in local:
                assert count == watermark
                expected_total = prefix_sums[watermark] \
                    if watermark else None
                assert total == expected_total, (
                    f"reader at watermark {watermark} saw SUM {total}, "
                    f"serial replay gives {expected_total}")

        # Spot-check one watermark against a literal serial re-execution
        # in a fresh engine (not just the prefix-sum shortcut).
        mid = max(w for local in observations for w, _, _ in local)
        replay.load_rows("events", [(v,) for v in final[:mid]])
        assert replay.execute(
            "SELECT COUNT(*), SUM(x) FROM events").rows()[0] == (
            mid, prefix_sums[mid] if mid else None)

    def test_plan_cache_amortizes_across_sessions(self):
        db = _graph_db()
        server = serve(db, workers=4)
        try:
            clients = [server.connect() for _ in range(8)]
            futures = []
            for _ in range(4):
                futures.extend(c.submit(
                    "SELECT COUNT(*) FROM edges WHERE src > 0")
                    for c in clients)
            for future in futures:
                future.result()
        finally:
            server.shutdown()
        stats = db.stats
        total = stats.plan_cache_hits + stats.plan_cache_misses
        assert total == 32
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits / total >= 0.9

    def test_ddl_invalidation_under_serving(self):
        db = _graph_db()
        with serve(db, workers=2) as server:
            client = server.connect()
            sql = "SELECT COUNT(*) FROM edges"
            assert client.execute(sql).scalar() == 5
            client.execute("CREATE TABLE scratch (x INTEGER)")
            assert client.execute(sql).scalar() == 5
            client.execute("DROP TABLE scratch")
            assert client.execute(sql).scalar() == 5
        assert db.stats.plan_cache_invalidations == 2


class TestDdlStorm:
    """Plan-cache invalidation under a DDL storm: a writer repeatedly
    drops and recreates a hot table while readers replay one cached
    statement.  Every reader outcome must be either a value the table
    actually held in some round (snapshot-consistent read through a
    fresh or recompiled plan) or a clean :class:`CatalogError` from the
    missing-table window — never a stale-binding failure (KeyError /
    IndexError / wrong schema) from a plan compiled against a dead
    catalog version."""

    ROUNDS = 15
    READERS = 4
    READS_PER_READER = 30

    def test_cached_plans_survive_drop_recreate(self):
        db = Database()
        db.create_table("hot", [("x", SqlType.INTEGER)])
        db.load_rows("hot", [(10,)])
        markers = {(r + 1) * 10 for r in range(self.ROUNDS)}
        observed = []
        errors = []
        tolerated = []

        server = serve(db, workers=4, queue_depth=1024)
        try:
            def writer():
                client = server.connect()
                try:
                    for r in range(1, self.ROUNDS):
                        client.execute("DROP TABLE hot")
                        client.execute("CREATE TABLE hot (x INTEGER)")
                        client.execute(
                            f"INSERT INTO hot VALUES ({(r + 1) * 10})")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def reader():
                client = server.connect()
                local = []
                for _ in range(self.READS_PER_READER):
                    try:
                        local.append(client.execute(
                            "SELECT SUM(x) FROM hot").scalar())
                    except CatalogError as exc:
                        # The drop/create gap: a legitimate, clean
                        # "no such table" answer.
                        tolerated.append(exc)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                observed.append(local)

            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader)
                        for _ in range(self.READERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.shutdown()

        assert errors == []
        assert len(observed) == self.READERS
        # None = the freshly recreated table before its INSERT landed.
        valid = markers | {None}
        for local in observed:
            assert local, "reader produced no outcomes"
            for value in local:
                assert value in valid, f"stale read: {value!r}"
        # The storm really did cycle cached plans through DDL versions.
        assert db.stats.plan_cache_invalidations > 0
        final = db.execute("SELECT SUM(x) FROM hot").scalar()
        assert final == self.ROUNDS * 10

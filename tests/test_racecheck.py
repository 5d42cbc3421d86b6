"""Concurrency safety net: static lock-discipline + dynamic lockset.

The real tree is clean under the static pass (zero false positives),
the seeded mutation harness catches every violation class with
file/line attribution, and the dynamic detector re-finds the PR 9 KernelCache race when its lock is knocked
out while staying silent on the properly locked serving storm.
"""

import json
import threading

import pytest

from repro import Database
from repro.execution.kernel_cache import KernelCache
from repro.server import serve
from repro.types import SqlType
from repro.verify.concurrency import (
    disable_racecheck,
    enable_racecheck,
    load_report,
    racecheck_enabled,
    racecheck_report,
    reset_races,
    run_static,
    write_report,
)
from repro.verify.concurrency.cli import main as racecheck_main


def _tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def _line_of(source: str, needle: str) -> int:
    for lineno, line in enumerate(source.splitlines(), 1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not in seeded source")


# ---------------------------------------------------------------------------
# Static pass: the real tree
# ---------------------------------------------------------------------------


class TestStaticRealTree:
    def test_cli_ok_on_real_tree(self, capsys):
        # Exit 0 means no findings; the CLI prints each one otherwise.
        code = racecheck_main([])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro-racecheck: ok (" in out


# ---------------------------------------------------------------------------
# Static pass: seeded mutation harness
# ---------------------------------------------------------------------------

# Each seed replicates one violation class at the module path where the
# guard map applies; the harness asserts the exact (file, line, rule)
# triples — attribution, not just detection.

SEED_KERNEL_CACHE = '''\
import threading


class KernelCache:
    def __init__(self):
        self._lock = threading.RLock()
        self._indexes = {}

    def poison(self, version, entry):
        self._indexes[version] = entry
'''

SEED_CROSS_MODULE = '''\
from repro.storage.segmented import SegmentedTable


def sneak_append(table, segment):
    table._segments.append(segment)
'''

SEED_INVERSION = '''\
class Cache:
    def promote(self, engine):
        with self._lock:
            with engine.write_lock:
                pass
'''

SEED_SLEEP = '''\
import time


class Cache:
    def nap(self):
        with self._lock:
            time.sleep(0.01)
'''

SEED_QUEUE_GET = '''\
class Pool:
    def steal(self):
        with self._lock:
            return self.ready.get()
'''

SEED_PIPE_RECV = '''\
class Pool:
    def pump(self, conn):
        with self._lock:
            return conn.recv()
'''

SEED_LOCK_API = '''\
class Cache:
    def grab(self):
        self._lock.acquire()
        try:
            return 1
        finally:
            self._lock.release()
'''

SEED_CATALOG_CALL = '''\
def rename(ctx, name, table):
    ctx.catalog.put(name, table)
'''

SEED_SERVER_STATS = '''\
class DatabaseServer:
    def sneak(self):
        self.stats.failed += 1
'''

# Contract-honoring sources that must stay silent: the assumed-held
# contexts from the guard map, and near-miss shapes the rules must not
# overreach on.
CLEAN_DML = '''\
def execute_insert(ctx, name, table):
    ctx.catalog.put(name, table)
'''

CLEAN_SEGMENTED = '''\
import threading


class SegmentedTable:
    def __init__(self):
        self._lock = threading.RLock()
        self._segments = []

    def _consolidate(self):
        self._segments = [sum(self._segments, [])]

    def append(self, rows):
        with self._lock:
            self._segments.append(rows)
'''

CLEAN_NEAR_MISS = '''\
class Lookup:
    def fetch(self, key):
        with self._lock:
            return self.cache.get(key)
'''


class TestSeededViolations:
    def test_harness_catches_every_seeded_violation(self, tmp_path):
        seeds = {
            "execution/kernel_cache.py": SEED_KERNEL_CACHE,
            "verify/storage_helper.py": SEED_CROSS_MODULE,
            "execution/promote.py": SEED_INVERSION,
            "execution/nap.py": SEED_SLEEP,
            "mpp/steal.py": SEED_QUEUE_GET,
            "mpp/pump.py": SEED_PIPE_RECV,
            "execution/grab.py": SEED_LOCK_API,
            "engine/rename.py": SEED_CATALOG_CALL,
            "server/service.py": SEED_SERVER_STATS,
            "engine/dml.py": CLEAN_DML,
            "storage/segmented.py": CLEAN_SEGMENTED,
            "plan/lookup.py": CLEAN_NEAR_MISS,
        }
        root = _tree(tmp_path, seeds)
        issues = run_static(root)

        expected = {
            ("execution/kernel_cache.py",
             _line_of(SEED_KERNEL_CACHE, "self._indexes[version]"),
             "unguarded-mutation"),
            ("verify/storage_helper.py",
             _line_of(SEED_CROSS_MODULE, "table._segments.append"),
             "unguarded-mutation"),
            ("execution/promote.py",
             _line_of(SEED_INVERSION, "with engine.write_lock:"),
             "lock-hierarchy"),
            ("execution/nap.py",
             _line_of(SEED_SLEEP, "time.sleep"),
             "blocking-under-lock"),
            ("mpp/steal.py",
             _line_of(SEED_QUEUE_GET, "self.ready.get()"),
             "blocking-under-lock"),
            ("mpp/pump.py",
             _line_of(SEED_PIPE_RECV, "conn.recv()"),
             "blocking-under-lock"),
            ("execution/grab.py",
             _line_of(SEED_LOCK_API, "self._lock.acquire()"),
             "lock-api"),
            ("execution/grab.py",
             _line_of(SEED_LOCK_API, "self._lock.release()"),
             "lock-api"),
            ("engine/rename.py",
             _line_of(SEED_CATALOG_CALL, "ctx.catalog.put"),
             "unguarded-call"),
            ("server/service.py",
             _line_of(SEED_SERVER_STATS, "self.stats.failed"),
             "unguarded-mutation"),
        }
        actual = {(i.path, i.line, i.rule) for i in issues}
        assert actual == expected
        assert len(issues) == len(expected)

    def test_cli_exits_nonzero_on_seeded_tree(self, tmp_path, capsys):
        root = _tree(tmp_path,
                     {"execution/kernel_cache.py": SEED_KERNEL_CACHE})
        assert racecheck_main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "unguarded-mutation" in out
        assert "execution/kernel_cache.py:" in out

    def test_guarded_mutation_is_silent(self, tmp_path):
        guarded = SEED_KERNEL_CACHE.replace(
            "    def poison(self, version, entry):\n"
            "        self._indexes[version] = entry\n",
            "    def poison(self, version, entry):\n"
            "        with self._lock:\n"
            "            self._indexes[version] = entry\n")
        root = _tree(tmp_path, {"execution/kernel_cache.py": guarded})
        assert run_static(root) == []

    def test_assumed_held_contexts_are_silent(self, tmp_path):
        root = _tree(tmp_path, {"engine/dml.py": CLEAN_DML,
                                "storage/segmented.py": CLEAN_SEGMENTED})
        assert run_static(root) == []


# ---------------------------------------------------------------------------
# Dynamic lockset detector
# ---------------------------------------------------------------------------


@pytest.fixture
def dynamic():
    """Instrumentation on for one test; leave a pre-enabled (CI
    REPRO_RACECHECK=1) session's shim in place on teardown."""
    was_enabled = racecheck_enabled()
    if not was_enabled:
        enable_racecheck()
    reset_races()
    yield
    if not was_enabled:
        disable_racecheck()
    reset_races()


def _hammer(cache: KernelCache, threads: int = 2,
            rounds: int = 5) -> None:
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(rounds):
            cache.clear()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestDynamicLockset:
    def test_redetects_kernel_cache_race_without_lock(self, dynamic):
        cache = KernelCache()
        # Knock out the tracked lock: the PR 9 regression shape (cache
        # mutation with no effective synchronization).  The raw RLock
        # still serializes, but its acquisitions are invisible to the
        # lockset, exactly as if the mutation ran lock-free.
        cache._lock = threading.RLock()
        _hammer(cache)
        races = racecheck_report()
        assert races, "lockset detector missed the seeded race"
        race = races[0]
        assert "KernelCache" in race.location
        assert race.first_thread != race.second_thread
        assert "write" in (race.first_kind, race.second_kind)
        assert race.first_stack and race.second_stack

    def test_clean_with_lock_in_place(self, dynamic):
        cache = KernelCache()
        _hammer(cache)
        assert racecheck_report() == []

    def test_serving_storm_is_clean(self, dynamic):
        db = Database()
        db.create_table("events", [("x", SqlType.INTEGER)])
        errors = []
        server = serve(db, workers=4, queue_depth=256)
        try:
            def writer(offset):
                client = server.connect()
                try:
                    for i in range(8):
                        client.execute(
                            f"INSERT INTO events VALUES ({offset + i})")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def reader():
                client = server.connect()
                try:
                    for _ in range(8):
                        client.execute(
                            "SELECT COUNT(*), SUM(x) FROM events")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(w * 100,))
                       for w in range(2)]
            threads += [threading.Thread(target=reader)
                        for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.shutdown()
        assert errors == []
        assert racecheck_report() == []

    def test_iterative_workload_is_clean(self, dynamic):
        db = Database()
        db.create_table("edges", [("src", SqlType.INTEGER),
                                  ("dst", SqlType.INTEGER),
                                  ("weight", SqlType.FLOAT)])
        db.load_rows("edges", [(1, 2, 0.5), (2, 3, 1.0), (3, 1, 1.0)])
        sql = """
        WITH ITERATIVE r (node, v) AS (
          SELECT src, 0.0 FROM edges GROUP BY src
          ITERATE SELECT r.node, min(r.v + e.weight)
                  FROM r JOIN edges e ON e.src = r.node
                  GROUP BY r.node
          UNTIL 3 ITERATIONS
        ) SELECT node, v FROM r ORDER BY node"""
        first = db.execute(sql).rows()
        assert db.execute(sql).rows() == first
        assert racecheck_report() == []


class TestDynamicReport:
    def test_report_roundtrip_and_replay(self, dynamic, tmp_path,
                                         capsys):
        cache = KernelCache()
        cache._lock = threading.RLock()
        cache.clear()  # exclusive owner: this thread
        other = threading.Thread(target=cache.clear)
        other.start()
        other.join()
        assert racecheck_report()

        path = tmp_path / "report.json"
        write_report(str(path))
        races = load_report(str(path))
        assert len(races) == len(racecheck_report())
        assert races[0].location == racecheck_report()[0].location
        assert racecheck_main(["--replay", str(path)]) == 1
        assert "candidate race" in capsys.readouterr().out

        reset_races()
        write_report(str(path))
        assert racecheck_main(["--replay", str(path)]) == 0
        assert "report clean" in capsys.readouterr().out

    def test_replay_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"races": []}))
        with pytest.raises(ValueError, match="not a racecheck report"):
            load_report(str(path))

    def test_disable_restores_classes(self):
        enabled_before = racecheck_enabled()
        if enabled_before:
            pytest.skip("session-wide REPRO_RACECHECK shim stays on")
        enable_racecheck()
        assert hasattr(KernelCache.clear, "_racecheck_original")
        disable_racecheck()
        assert not hasattr(KernelCache.clear, "_racecheck_original")
        cache = KernelCache()
        assert isinstance(cache._lock, type(threading.RLock()))

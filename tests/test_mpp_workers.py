"""The persistent worker pool: real shared-nothing execution.

Pins the PR's core contract — the pool substrate is **bit-identical**
to the inline simulation (results, motion counters, trace shapes) —
plus the failure-containment behaviour: a dead or wedged worker
surfaces as a structured :class:`~repro.errors.MppWorkerError` naming
the segment and superstep, and the pool never leaves orphan processes
behind.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.datasets import dblp_like, generate_edges
from repro.errors import MppWorkerError
from repro.mpp import (Cluster, WorkerPool, distributed_pagerank,
                       distributed_sssp, hash_partition_indices,
                       pagerank_superstep_spec)
from repro.obs import Tracer, build_trace, validate_trace_dict
from repro.storage import Column
from repro.types import SqlType
from tests.test_trace_context import shape

EDGES = generate_edges(dblp_like(nodes=120, seed=7))
CHAIN = [(i, i + 1, 1.0) for i in range(1, 30)]


def _assert_no_orphans(pool):
    for process in pool._procs:
        assert not process.is_alive(), f"{process.name} survived shutdown"


class TestPoolParity:
    def test_pagerank_bit_identical_to_inline(self):
        inline = distributed_pagerank(Cluster(3), EDGES, iterations=6)
        with WorkerPool(3) as pool:
            pooled = distributed_pagerank(Cluster(3), EDGES,
                                          iterations=6, pool=pool)
        # Exact float equality, not approx: same kernels, same piece
        # assembly order, so the accumulation order is identical.
        assert pooled.ranks == inline.ranks
        assert pooled.rows_moved == inline.rows_moved
        assert pooled.bytes_moved == inline.bytes_moved
        assert pooled.shuffles == inline.shuffles

    def test_sssp_bit_identical_to_inline(self):
        inline = distributed_sssp(Cluster(3), EDGES, source=1)
        with WorkerPool(3) as pool:
            pooled = distributed_sssp(Cluster(3), EDGES, source=1,
                                      pool=pool)
        assert pooled.distances == inline.distances
        assert pooled.iterations == inline.iterations
        assert pooled.rows_moved == inline.rows_moved
        assert pooled.bytes_moved == inline.bytes_moved

    def test_pool_reused_across_loops(self):
        # One spawn, many loops: set_spec resets the per-loop state.
        with WorkerPool(2) as pool:
            first = distributed_pagerank(Cluster(2), EDGES,
                                         iterations=3, pool=pool)
            again = distributed_pagerank(Cluster(2), EDGES,
                                         iterations=3, pool=pool)
            sssp = distributed_sssp(Cluster(2), EDGES, source=1,
                                    pool=pool)
        assert first.ranks == again.ranks
        assert sssp.iterations > 1

    def test_trace_shape_matches_inline(self):
        def traced(pool):
            tracer = Tracer("trace")
            result = distributed_pagerank(Cluster(2), EDGES,
                                          iterations=3, tracer=tracer,
                                          pool=pool)
            return build_trace(tracer, loops=[result.telemetry])

        inline_trace = traced(None)
        with WorkerPool(2) as pool:
            pool_trace = traced(pool)
        assert shape(pool_trace.root) == shape(inline_trace.root)
        validate_trace_dict(json.loads(inline_trace.to_json()))
        validate_trace_dict(json.loads(pool_trace.to_json()))


class TestPiecesLargerThanThePipe:
    """Every cross-segment piece is several times Linux's 64 KiB pipe
    capacity, so each send blocks until its receiver drains it: only
    the sender thread keeps the fleet from deadlocking."""

    WORKERS = 3
    NODES = 30_000
    OUT_DEGREE = 6
    PIECE_FLOOR = 1 << 18  # 256 KiB, 4x the pipe capacity

    @classmethod
    def edges(cls):
        rng = np.random.default_rng(3)
        src = np.repeat(np.arange(1, cls.NODES + 1), cls.OUT_DEGREE)
        dst = rng.integers(1, cls.NODES + 1, size=len(src))
        return src, dst, [(int(s), int(d), 1.0 / cls.OUT_DEGREE)
                          for s, d in zip(src, dst)]

    @pytest.mark.parametrize("delta_shuffle", [False, True])
    def test_pagerank_bit_identical_to_inline(self, delta_shuffle):
        src, dst, edges = self.edges()
        # Edges live on the segment of their src and route on dst; a
        # routed row carries an int64 dst and a float64 contribution.
        origin = hash_partition_indices(
            Column.from_numpy(SqlType.INTEGER, src), self.WORKERS)
        target = hash_partition_indices(
            Column.from_numpy(SqlType.INTEGER, dst), self.WORKERS)
        for i in range(self.WORKERS):
            for j in range(self.WORKERS):
                if i != j:
                    rows = int(np.sum((origin == i) & (target == j)))
                    assert rows * 16 > self.PIECE_FLOOR

        inline = distributed_pagerank(Cluster(self.WORKERS), edges,
                                      iterations=3,
                                      delta_shuffle=delta_shuffle)
        timeout = 60.0
        started = time.monotonic()
        with WorkerPool(self.WORKERS, timeout=timeout) as pool:
            pooled = distributed_pagerank(Cluster(self.WORKERS), edges,
                                          iterations=3, pool=pool,
                                          delta_shuffle=delta_shuffle)
        assert time.monotonic() - started < timeout
        assert pooled.ranks == inline.ranks
        assert pooled.rows_moved == inline.rows_moved
        assert pooled.bytes_moved == inline.bytes_moved
        assert pooled.shuffles == inline.shuffles
        assert pooled.suppressed_bytes == inline.suppressed_bytes
        assert pooled.suppressed_batches == inline.suppressed_batches


class TestDeltaShuffleOnTheWire:
    # A zero-delta wave advances one hop per iteration from node 1; by
    # trip ~30 every partial piece is a constant all-zeros array and the
    # delta shuffle stops re-sending it (see TestDeltaShuffle in
    # test_mpp_iterative.py for the inline version of this argument).
    TRIPS = 40

    def test_suppression_matches_inline_accounting(self):
        inline = distributed_pagerank(Cluster(3), CHAIN,
                                      iterations=self.TRIPS,
                                      delta_shuffle=True)
        with WorkerPool(3) as pool:
            pooled = distributed_pagerank(Cluster(3), CHAIN,
                                          iterations=self.TRIPS,
                                          pool=pool, delta_shuffle=True)
        assert pooled.suppressed_bytes == inline.suppressed_bytes
        assert pooled.suppressed_batches == inline.suppressed_batches
        assert pooled.bytes_moved == inline.bytes_moved
        assert pooled.ranks == inline.ranks

    def test_zero_motion_for_unchanged_partitions(self):
        # Once the chain drains, every outbound piece stops changing —
        # real wire traffic must stop too, while the naive exchange
        # keeps paying for identical pieces.
        with WorkerPool(3) as pool:
            delta = distributed_pagerank(Cluster(3), CHAIN,
                                         iterations=self.TRIPS,
                                         pool=pool, delta_shuffle=True)
        with WorkerPool(3) as pool:
            naive = distributed_pagerank(Cluster(3), CHAIN,
                                         iterations=self.TRIPS,
                                         pool=pool)
        assert delta.suppressed_batches > 0
        assert delta.bytes_moved + delta.suppressed_bytes \
            == naive.bytes_moved
        assert delta.bytes_moved < naive.bytes_moved
        # The chain drains within 8 trips: the last iteration of the
        # delta run ships nothing at all.
        assert delta.telemetry.records[-1].rows_moved == 0


class TestFailureContainment:
    def test_killed_worker_raises_structured_error(self):
        pool = WorkerPool(3, timeout=30.0)
        try:
            distributed_pagerank(Cluster(3), EDGES, iterations=2,
                                 pool=pool)
            pool._procs[1].kill()
            pool._procs[1].join(timeout=5.0)
            with pytest.raises(MppWorkerError) as excinfo:
                distributed_pagerank(Cluster(3), EDGES, iterations=2,
                                     pool=pool)
            error = excinfo.value
            assert error.segment == 1
            assert error.operation in ("load", "spec", "superstep")
            assert "segment 1" in str(error)
        finally:
            pool.shutdown(force=True)
        _assert_no_orphans(pool)

    def test_wedged_worker_times_out(self):
        pool = WorkerPool(2, timeout=0.5)
        try:
            distributed_pagerank(Cluster(2), EDGES, iterations=1,
                                 pool=pool)
            os.kill(pool._procs[0].pid, signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(MppWorkerError) as excinfo:
                pool.fetch("state")
            assert "timed out" in str(excinfo.value)
            assert excinfo.value.segment == 0
            # Bounded: the deadline plus the forced shutdown, not hung.
            assert time.monotonic() - started < 10.0
        finally:
            pool.shutdown(force=True)
        _assert_no_orphans(pool)

    def test_worker_error_reply_is_attributed(self):
        # A superstep without an installed spec fails *inside* the
        # worker; the error must come back attributed, not hang.
        pool = WorkerPool(2)
        try:
            with pytest.raises(MppWorkerError) as excinfo:
                pool.superstep()
            assert excinfo.value.superstep == 1
            assert excinfo.value.segment == 0
        finally:
            pool.shutdown(force=True)
        _assert_no_orphans(pool)

    # A coordinator in its own session: runs a PageRank on a two-worker
    # pool, reports the worker pids, then dies without shutdown().
    COORDINATOR = """
import os, signal
from repro.datasets import dblp_like, generate_edges
from repro.mpp import Cluster, WorkerPool, distributed_pagerank
pool = WorkerPool(2)
distributed_pagerank(Cluster(2), generate_edges(dblp_like(120, seed=7)),
                     iterations=2, pool=pool)
print(*(process.pid for process in pool._procs), flush=True)
os.kill(os.getpid(), signal.{})
"""

    @staticmethod
    def _alive(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rpartition(")")[2].split()[0]
        except OSError:
            return False
        return state != "Z"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("signame", ["SIGKILL", "SIGTERM"])
    def test_workers_exit_when_coordinator_dies(self, signame):
        coordinator = subprocess.Popen(
            [sys.executable, "-c", self.COORDINATOR.format(signame)],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        pids: list[int] = []
        try:
            pids = [int(pid)
                    for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 2
            assert coordinator.wait(timeout=10.0) \
                == -getattr(signal, signame)
            deadline = time.monotonic() + 10.0
            while any(map(self._alive, pids)) \
                    and time.monotonic() < deadline:
                time.sleep(0.1)
            survivors = [pid for pid in pids if self._alive(pid)]
            assert not survivors, \
                f"workers {survivors} outlived their coordinator"
        finally:
            for pid in pids:
                if self._alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if coordinator.poll() is None:
                coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()

    def test_clean_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        distributed_pagerank(Cluster(2), EDGES, iterations=1, pool=pool)
        pool.shutdown()
        pool.shutdown()
        _assert_no_orphans(pool)


class TestMppSmoke:
    def test_two_worker_pagerank_parity(self):
        """The CI guard: spawn 2 real workers, run a short PageRank,
        demand exact parity with the inline simulation."""
        inline = distributed_pagerank(Cluster(2), EDGES, iterations=3)
        with WorkerPool(2) as pool:
            pooled = distributed_pagerank(Cluster(2), EDGES,
                                          iterations=3, pool=pool)
        assert pooled.ranks == inline.ranks
        assert pooled.bytes_moved == inline.bytes_moved
        _assert_no_orphans(pool)

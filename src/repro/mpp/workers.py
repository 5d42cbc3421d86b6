"""Segment task execution: inline, or resident workers.

Two substrates, one contract:

* *inline* (:func:`run_segment_tasks`) — the simulated cluster runs
  per-segment work in a plain in-process loop through
  :func:`_segment_task`, still capture/merge-traced so its trace shape
  equals the pool's.
* :class:`WorkerPool` — real shared-nothing execution: N resident
  worker processes, spawned once per cluster, each *owning* its hash
  partitions for the lifetime of the pool.  The coordinator drives
  supersteps over duplex command pipes; data moves worker-to-worker
  over dedicated one-way pipes (one per ordered pair) carrying the
  typed columnar batches of :mod:`repro.mpp.wire`.  Within a
  superstep each worker overlaps compute with motion: a sender thread
  drains the outbound pieces while the main thread runs the
  pre-apply phase, then receives in deterministic origin order —
  receiving on per-origin pipes makes assembly order independent of
  arrival order, which is what keeps float accumulation bit-identical
  to the inline simulation.  No send ever blocks a receive (they run
  on different threads), so pipe back-pressure cannot deadlock the
  fleet.  A worker dies with its coordinator: a watchdog thread exits
  the process once its parent is gone, however the parent ended.

Tracing across the process boundary works by capture/buffer/merge: the
parent captures one ``TraceContext`` at the span where segment work
belongs, each worker builds a :class:`~repro.obs.trace.ContextTracer`
from it and buffers its spans locally, and the parent merges the
exported spans back in segment order on join.  An untraced run ships no
context and the workers skip span buffering entirely.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from ..errors import MppWorkerError
from ..obs.trace import NULL_TRACER, ContextTracer, TraceContext
from . import wire
from .cluster import MotionStats, hash_partition_indices, split_table


def _segment_task(fn: Callable, args: tuple, segment: int,
                  context: Optional[TraceContext]) -> tuple:
    """Run one segment's work and return ``(result, exported spans)``,
    tracing it when a context was handed over — into a buffering
    :class:`ContextTracer`, exactly as a pool worker does, which is what
    keeps the two substrates' trace shapes equal."""
    if context is None:
        return fn(*args), None
    tracer = ContextTracer(context)
    with tracer.span("segment", kind="worker", segment=segment):
        result = fn(*args)
    return result, tracer.export_spans()


def run_segment_tasks(tracer, fn: Callable,
                      args_per_segment: Sequence[tuple]) -> list:
    """Run ``fn(*args)`` once per segment, in process, and return the
    per-segment results in segment order.

    When the run is traced, one :class:`TraceContext` is captured at the
    caller's current span, handed to every segment task, and the
    buffered segment spans are merged back under it in segment order —
    so the merged trace looks the same as a worker pool's."""
    context = tracer.context() if tracer.enabled else None
    results = []
    exported: list[dict] = []
    for segment, args in enumerate(args_per_segment):
        result, spans = _segment_task(fn, args, segment, context)
        results.append(result)
        if spans:
            exported.extend(spans)
    if context is not None and exported:
        tracer.merge(context, exported)
    return results


# ---------------------------------------------------------------------------
# The persistent worker pool (real shared-nothing execution)
# ---------------------------------------------------------------------------


@dataclass
class WorkerReply:
    """One worker's superstep outcome, as received by the coordinator."""

    segment: int
    stats: dict
    metrics: dict
    produce_spans: list
    apply_spans: list


def _run_superstep(index: int, segments: int, spec, registers: dict,
                   outs: dict, ins: dict,
                   context: Optional[TraceContext]) -> tuple:
    """One superstep, worker side: produce → ship/overlap → apply.

    The incoming pieces are assembled in origin order with this worker's
    own piece at its own index and empty pieces skipped — exactly the
    order the inline simulation appends them, which is what makes
    ``np.add.at``-style float accumulation in ``spec.apply``
    bit-identical across substrates.
    """
    produce_tracer = apply_tracer = None
    if context is not None:
        produce_tracer = ContextTracer(context)
        apply_tracer = ContextTracer(context)

    tracer = produce_tracer if produce_tracer else NULL_TRACER
    with tracer.span("segment", kind="worker", segment=index):
        outbound = spec.produce(registers)

    assignment = hash_partition_indices(
        outbound.column(spec.exchange.key), segments)
    pieces = split_table(outbound, assignment, segments)

    motion = MotionStats()
    failures: list[BaseException] = []

    def _ship() -> None:
        # The motion half of the overlap: drains every outbound piece
        # while the main thread runs pre-apply and starts receiving.
        try:
            for dest in range(segments):
                if dest == index:
                    continue
                piece = pieces[dest]
                if piece.num_rows:
                    wire.send_piece(outs[dest], piece)
                    motion.charge(piece)
                else:
                    wire.send_empty(outs[dest])
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    sender = threading.Thread(target=_ship, name=f"mpp-ship-{index}")
    sender.start()

    tracer = apply_tracer if apply_tracer else NULL_TRACER
    with tracer.span("segment", kind="worker", segment=index):
        # The compute half of the overlap: anything apply can do
        # without incoming pieces runs while the sender drains.
        aux = spec.pre_apply(registers) if spec.pre_apply else None
        incoming = []
        for origin in range(segments):
            if origin == index:
                if pieces[index].num_rows:
                    incoming.append(pieces[index])
                continue
            piece = wire.recv_piece(ins[origin])
            if piece is not None:
                incoming.append(piece)
        registers[spec.state] = spec.apply(registers, incoming, aux)

    sender.join()
    if failures:
        raise failures[0]

    metrics = spec.metrics(registers, outbound) if spec.metrics else {}
    return (asdict(motion), metrics,
            produce_tracer.export_spans() if produce_tracer else [],
            apply_tracer.export_spans() if apply_tracer else [])


# How often a worker checks that its coordinator is still alive.
ORPHAN_POLL_SECONDS = 0.5


def _exit_when_orphaned(coordinator: int) -> None:
    """Watchdog: end this worker once ``coordinator`` is no longer its
    parent.  Every worker inherits every pipe end, the coordinator's
    own included, so a dead coordinator never shows up as EOF; and the
    main thread may be blocked on a peer's pipe rather than on the
    command pipe.  A worker holds nothing outside its pipes, so
    ``os._exit`` loses nothing."""
    while os.getppid() == coordinator:
        time.sleep(ORPHAN_POLL_SECONDS)
    os._exit(1)


def _worker_main(index: int, segments: int, cmd, outs: dict, ins: dict,
                 coordinator: int) -> None:
    """Resident worker loop: owns its partitions, executes commands."""
    threading.Thread(target=_exit_when_orphaned, args=(coordinator,),
                     name=f"mpp-watchdog-{index}", daemon=True).start()
    registers: dict = {}
    spec = None
    while True:
        try:
            message = cmd.recv()
        except (EOFError, OSError):
            return
        tag = message[0]
        try:
            if tag == "stop":
                return
            if tag == "load":
                registers[message[1]] = message[2]
                cmd.send(("ok",))
            elif tag == "spec":
                spec = message[1]
                cmd.send(("ok",))
            elif tag == "fetch":
                cmd.send(("table", registers[message[1]]))
            elif tag == "superstep":
                reply = _run_superstep(index, segments, spec, registers,
                                       outs, ins, message[1])
                cmd.send(("done",) + reply)
            else:
                cmd.send(("error", tag, f"unknown command {tag!r}"))
        except Exception as exc:
            try:
                cmd.send(("error", tag,
                          f"{type(exc).__name__}: {exc}"))
            except (OSError, BrokenPipeError):
                return


class WorkerPool:
    """N resident worker processes forming a shared-nothing cluster.

    Spawned once (per cluster, not per step) and reused across every
    superstep of every loop run against it.  Topology: one duplex
    command pipe coordinator↔worker, plus one one-way data pipe per
    ordered worker pair — worker *i* sends to *j* on ``(i, j)`` and
    receives from *j* on ``(j, i)``, so receiving "from origin *j*" is
    a plain blocking read with no demultiplexing.

    Failure containment: every coordinator wait is bounded by
    ``timeout`` and watches the worker's liveness; a death or stall
    raises :class:`~repro.errors.MppWorkerError` attributing the
    segment, superstep, and operation, after force-stopping the rest of
    the fleet so no orphan survives the error.  Workers also exit on
    their own once the coordinator dies without calling
    :meth:`shutdown`.
    """

    def __init__(self, workers: int, timeout: float = 120.0):
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        self.workers = workers
        self.timeout = timeout
        self._trip = 0
        self._closed = False

        self._cmd = []
        child_cmds = []
        for _ in range(workers):
            parent_end, child_end = context.Pipe()
            self._cmd.append(parent_end)
            child_cmds.append(child_end)
        send_map: list[dict] = [{} for _ in range(workers)]
        recv_map: list[dict] = [{} for _ in range(workers)]
        for i in range(workers):
            for j in range(workers):
                if i == j:
                    continue
                recv_end, send_end = context.Pipe(duplex=False)
                send_map[i][j] = send_end
                recv_map[j][i] = recv_end

        self._procs = []
        for i in range(workers):
            process = context.Process(
                target=_worker_main,
                args=(i, workers, child_cmds[i], send_map[i],
                      recv_map[i], os.getpid()),
                daemon=True, name=f"mpp-worker-{i}")
            process.start()
            self._procs.append(process)
        # Drop the coordinator's copies of worker-only pipe ends; the
        # workers keep theirs (inherited or pickled at spawn).
        for i in range(workers):
            child_cmds[i].close()
            for connection in send_map[i].values():
                connection.close()
            for connection in recv_map[i].values():
                connection.close()

    # -- commands -----------------------------------------------------------

    def load(self, name: str, partitions: Sequence) -> None:
        """Install one partition of register ``name`` on each worker."""
        if len(partitions) != self.workers:
            raise ValueError(
                f"{len(partitions)} partitions for {self.workers} workers")
        for connection, partition in zip(self._cmd, partitions):
            connection.send(("load", name, partition))
        for segment in range(self.workers):
            self._await(segment, "ok", "load")

    def set_spec(self, spec) -> None:
        """Install the superstep program."""
        for connection in self._cmd:
            connection.send(("spec", spec))
        for segment in range(self.workers):
            self._await(segment, "ok", "spec")
        self._trip = 0

    def superstep(self, tracer=None) -> list[WorkerReply]:
        """Run one superstep on every worker; replies in segment order."""
        self._trip += 1
        # Workers only read the trace id; the coordinator grafts their
        # spans under its own capture points (see superstep.py).
        context = None
        if tracer is not None and getattr(tracer, "enabled", False):
            context = TraceContext(tracer.trace_id, 0)
        for connection in self._cmd:
            connection.send(("superstep", context))
        replies = []
        for segment in range(self.workers):
            message = self._await(segment, "done", "superstep")
            replies.append(WorkerReply(segment, *message[1:]))
        return replies

    def fetch(self, name: str) -> list:
        """Gather every worker's partition of register ``name``."""
        for connection in self._cmd:
            connection.send(("fetch", name))
        return [self._await(segment, "table", "fetch")[1]
                for segment in range(self.workers)]

    # -- plumbing -----------------------------------------------------------

    def _await(self, segment: int, expected: str, operation: str):
        connection = self._cmd[segment]
        process = self._procs[segment]
        deadline = time.monotonic() + self.timeout
        message = None
        while True:
            try:
                if connection.poll(0.05):
                    message = connection.recv()
                    break
            except (EOFError, OSError):
                break
            if not process.is_alive():
                # One last drain: the reply may have raced the exit.
                try:
                    if connection.poll(0):
                        message = connection.recv()
                except (EOFError, OSError):
                    pass
                break
            if time.monotonic() > deadline:
                self.shutdown(force=True)
                raise MppWorkerError(
                    f"worker timed out after {self.timeout:.0f}s",
                    segment=segment, superstep=self._trip,
                    operation=operation)
        if message is None:
            self.shutdown(force=True)
            raise MppWorkerError(
                "worker process died", segment=segment,
                superstep=self._trip, operation=operation)
        if message[0] == "error":
            self.shutdown(force=True)
            raise MppWorkerError(
                f"worker failed: {message[2]}", segment=segment,
                superstep=self._trip, operation=message[1])
        if message[0] != expected:
            self.shutdown(force=True)
            raise MppWorkerError(
                f"protocol error: expected {expected!r}, "
                f"got {message[0]!r}", segment=segment,
                superstep=self._trip, operation=operation)
        return message

    def shutdown(self, force: bool = False) -> None:
        """Stop every worker; idempotent, leaves no orphans.

        ``force`` skips the polite stop command (used on error paths
        where workers may be wedged mid-superstep)."""
        if self._closed:
            return
        self._closed = True
        if not force:
            for connection in self._cmd:
                try:
                    connection.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        for process in self._procs:
            process.join(timeout=0.2 if force else 2.0)
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=2.0)
        # SIGTERM stays *pending* for a stopped (SIGSTOP'd) worker and
        # does nothing for one wedged in uninterruptible state; SIGKILL
        # is the only signal guaranteed to reap it.
        for process in self._procs:
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        for connection in self._cmd:
            try:
                connection.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(force=exc[0] is not None)

    def __del__(self):  # safety net; shutdown() is the real API
        try:
            self.shutdown(force=True)
        except Exception:
            pass

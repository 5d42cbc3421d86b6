"""The distributed superstep: one spec, two substrates.

A :class:`SuperstepSpec` is a verified
:class:`~repro.mpp.plan.ExchangePlan` plus the module-level picklable
callables that implement its two local phases.  The plan is the one
description of the trip — which registers are resident and on what key,
what the exchange routes on, which register the apply phase rewrites,
and the operation names the trace shows; the verifier
(:mod:`repro.verify.exchange`) checks that it has the produce →
exchange → apply shape both runners execute.

Two runners execute the same spec:

* :func:`superstep_inline` — the simulated cluster: segments run
  sequentially in-process via :func:`~repro.mpp.workers.run_segment_tasks`
  and the exchange moves nothing, only charging measured piece sizes to
  the motion counters.
* :func:`superstep_pool` — real shared-nothing execution on a
  :class:`~repro.mpp.workers.WorkerPool`: each worker owns its
  partitions, ships typed columnar batches to its peers over pipes,
  and overlaps its pre-apply compute with the outbound drain.  The
  coordinator only aggregates measured stats and grafts the worker
  spans back, so traces and counters come out identical to the inline
  runner.

Bit-identity between the two rests on three invariants: both run the
*same* produce/apply callables; each receiver assembles its incoming
pieces in origin order (its own piece at its own index, empty pieces
skipped) exactly like the inline loop appends them; and both follow one
motion rule — every non-empty cross-segment piece is shipped and billed
at its ``nbytes()``, every empty one is skipped.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..storage import Table
from .cluster import (Cluster, DistributedTable, hash_partition_indices,
                      split_table)
from .plan import ExchangeOp, ExchangePlan, LocalOp
from .workers import run_segment_tasks


@dataclass(frozen=True)
class SuperstepSpec:
    """One trip of a distributed iterative workload, as data.

    All callables must be module-level (picklable) and pure functions of
    their arguments — the spec crosses the process boundary once and is
    then executed by every worker every trip:

    * ``produce(registers) -> Table`` — the plan's first LocalOp,
      emitting the rows to shuffle; ``registers`` maps register name ->
      this segment's partition.
    * ``pre_apply(registers) -> aux`` — optional apply work that needs
      no incoming pieces; the pool runner executes it while outbound
      batches drain (the compute/motion overlap), the inline runner
      immediately before ``apply``.
    * ``apply(registers, pieces, aux) -> Table`` — the plan's last
      LocalOp: folds the incoming pieces (origin order) into a new
      partition of the register it writes.
    * ``metrics(registers, outbound) -> dict`` — optional per-segment
      loop telemetry (``delta_rows``/``working_rows``/``total_rows``),
      summed across segments by the runner.
    """

    plan: ExchangePlan
    produce: Callable
    apply: Callable
    pre_apply: Optional[Callable] = None
    metrics: Optional[Callable] = None

    @property
    def produce_op(self) -> LocalOp:
        return self.plan.steps[0]

    @property
    def exchange(self) -> ExchangeOp:
        return self.plan.steps[1]

    @property
    def exchange_name(self) -> str:
        return f"shuffle_{self.exchange.register}"

    @property
    def apply_op(self) -> LocalOp:
        return self.plan.steps[2]

    @property
    def state(self) -> str:
        """The resident register the apply phase rewrites."""
        return self.apply_op.writes[0]


@contextlib.contextmanager
def exchange_span(cluster: Cluster, tracer, operation: str):
    """An ``exchange`` span whose motion counters are measured as the
    delta of the cluster's bill across the wrapped work."""
    mark = (cluster.motion.rows_moved, cluster.motion.bytes_moved,
            cluster.motion.shuffles)
    with tracer.span("exchange", kind="exchange",
                     operation=operation) as span:
        yield span
        span.set(
            rows_moved=cluster.motion.rows_moved - mark[0],
            bytes_moved=cluster.motion.bytes_moved - mark[1],
            shuffles=cluster.motion.shuffles - mark[2])


def _apply_phase(spec: SuperstepSpec, registers: dict,
                 pieces: list) -> Table:
    aux = spec.pre_apply(registers) if spec.pre_apply else None
    return spec.apply(registers, pieces, aux)


def _sum_metrics(per_segment: list[Optional[dict]]) -> dict:
    totals: dict[str, int] = {}
    for metrics in per_segment:
        for key, value in (metrics or {}).items():
            totals[key] = totals.get(key, 0) + int(value)
    return totals


def superstep_inline(cluster: Cluster, spec: SuperstepSpec,
                     registers: dict[str, DistributedTable],
                     tracer) -> tuple[list[Table], dict]:
    """One superstep on the simulated cluster.

    Returns the new partitions of the ``state`` register and the summed
    per-segment metrics.
    """
    segments = cluster.segments
    regs_per_segment = [
        {name: table.partitions[i] for name, table in registers.items()}
        for i in range(segments)]

    with tracer.span("compute", kind="compute",
                     operation=spec.produce_op.operation):
        chunks: list[Table] = run_segment_tasks(
            tracer, spec.produce, [(regs,) for regs in regs_per_segment])

    with exchange_span(cluster, tracer, spec.exchange_name):
        incoming: list[list[Table]] = [[] for _ in range(segments)]
        for origin, chunk in enumerate(chunks):
            assignment = hash_partition_indices(
                chunk.column(spec.exchange.key), segments)
            pieces = split_table(chunk, assignment, segments)
            for segment, piece in enumerate(pieces):
                if piece.num_rows == 0:
                    continue
                incoming[segment].append(piece)
                if segment != origin:
                    cluster.motion.charge(piece)
        cluster.motion.shuffles += 1

    with tracer.span("compute", kind="compute",
                     operation=spec.apply_op.operation):
        new_partitions = run_segment_tasks(
            tracer, _apply_phase,
            [(spec, regs_per_segment[i], incoming[i])
             for i in range(segments)])

    metrics = _sum_metrics([
        spec.metrics({**regs_per_segment[i], spec.state: new_partitions[i]},
                     chunks[i]) if spec.metrics else None
        for i in range(segments)])
    return new_partitions, metrics


def superstep_pool(cluster: Cluster, spec: SuperstepSpec, pool,
                   tracer) -> dict:
    """One superstep on a :class:`~repro.mpp.workers.WorkerPool`.

    The workers do everything — produce, ship, overlap, apply — against
    their resident partitions; this coordinator side only broadcasts
    the trip command, folds the measured per-worker motion into the
    cluster's bill, and rebuilds the inline trace shape by grafting the
    worker-phase spans under freshly opened compute spans (the spans'
    own seconds carry the worker-measured time; the coordinator spans
    only provide the shape).
    """
    replies = pool.superstep(tracer)

    with tracer.span("compute", kind="compute",
                     operation=spec.produce_op.operation):
        if tracer.enabled:
            context = tracer.context()
            for reply in replies:
                tracer.merge(context, reply.produce_spans)

    with exchange_span(cluster, tracer, spec.exchange_name):
        for reply in replies:
            for key, value in reply.stats.items():
                setattr(cluster.motion, key,
                        getattr(cluster.motion, key) + value)
        cluster.motion.shuffles += 1

    with tracer.span("compute", kind="compute",
                     operation=spec.apply_op.operation):
        if tracer.enabled:
            context = tracer.context()
            for reply in replies:
                tracer.merge(context, reply.apply_spans)

    return _sum_metrics([reply.metrics for reply in replies])

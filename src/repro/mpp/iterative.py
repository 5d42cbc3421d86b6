"""Distributed iterative workloads on the MPP substrate.

PageRank (the paper's delta-accumulative loop) and semi-naive SSSP,
each expressed once as a :class:`~repro.mpp.superstep.SuperstepSpec` —
a statically verified :class:`~repro.mpp.plan.ExchangePlan` plus the
module-level produce / pre-apply / apply callables — and runnable on
either substrate:

* the **inline simulation** (default): segments execute sequentially
  in-process, exchanges charge measured piece sizes without moving
  anything — placement and motion modelling, as before;
* a real :class:`~repro.mpp.workers.WorkerPool` (``pool=``): each
  worker owns its hash partitions, batches cross worker boundaries over
  pipes, compute overlaps motion, and ``delta_shuffle``
  genuinely suppresses wire traffic.  Results, motion counters, and
  trace shapes are bit-identical to the inline run (pinned in tests).

The rename optimization has a distribution-level twin on both paths:
the new state *replaces* the old by pointer swap — no gather/rescatter
between iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import VerificationError
from ..execution.kernels import lookup_sorted, unique_sorted
from ..obs.telemetry import LoopTelemetry, render_iteration_table
from ..obs.trace import NULL_TRACER
from ..runtime import LoopRun, make_exchange_strategy
from ..storage import Column, ColumnSchema, Schema, Table
from ..types import SqlType
from .cluster import Cluster, DistributedTable
from .plan import pagerank_exchange_plan, sssp_exchange_plan
from .superstep import SuperstepSpec, superstep_inline, superstep_pool

DAMPING = 0.85
BASE_DELTA = 0.15


# ---------------------------------------------------------------------------
# The shared loop driver
# ---------------------------------------------------------------------------


@dataclass
class DistributedLoopResult:
    """Common shape of a distributed loop's outcome: the motion bill
    and per-iteration telemetry."""

    iterations: int
    rows_moved: int
    bytes_moved: int
    shuffles: int
    telemetry: LoopTelemetry
    suppressed_bytes: int = 0
    suppressed_batches: int = 0

    def report(self) -> str:
        """Per-iteration breakdown (motion + convergence) as text."""
        return "\n".join(render_iteration_table(self.telemetry))


def _verify_spec(spec: SuperstepSpec) -> None:
    # Imported lazily: repro.verify.exchange imports repro.mpp.plan, so
    # a module-level import here would cycle through the package inits.
    from ..verify.exchange import verify_exchange_plan
    verify_exchange_plan(spec.plan,
                         pass_name=f"{spec.plan.name}:exchange_plan")


def _distribute(cluster: Cluster, spec: SuperstepSpec,
                tables: dict[str, Table]) -> dict[str, DistributedTable]:
    """Place every resident register the plan declares, on its key."""
    distributed = {}
    for register in spec.plan.registers:
        table = tables[register.name]
        if tuple(table.schema.names) != register.columns:
            raise VerificationError(
                f"{spec.plan.name}:exchange_plan",
                [f"register {register.name!r} declares columns "
                 f"{list(register.columns)} but is loaded with "
                 f"{table.schema.names}"])
        distributed[register.name] = cluster.distribute(
            register.name, table, register.key)
    return distributed


def _run_distributed_loop(cluster: Cluster, spec: SuperstepSpec,
                          tables: dict[str, Table],
                          iterations: int, tracer, pool,
                          metrics=None,
                          until_converged: bool = False,
                          loop_name: Optional[str] = None
                          ) -> tuple[Table, dict]:
    """Distribute ``tables`` as the plan's registers, drive
    ``iterations`` supersteps of ``spec`` on the chosen substrate, and
    gather the final state.

    Returns ``(final_state, loop)``, ``loop`` holding the
    :class:`DistributedLoopResult` fields; the cluster's motion counters
    hold the loop's bill.
    """
    _verify_spec(spec)
    distributed = _distribute(cluster, spec, tables)
    cluster.motion.reset()

    if pool is not None:
        for name, table in distributed.items():
            pool.load(name, table.partitions)
        pool.set_spec(spec)
    strategy = make_exchange_strategy(spec.exchange.delta)

    run = LoopRun(
        0, loop_name or spec.state, "mpp", tracer=tracer,
        snapshot=lambda: {"rows_moved": cluster.motion.rows_moved,
                          "bytes_moved": cluster.motion.bytes_moved,
                          "shuffles": cluster.motion.shuffles},
        derive=lambda diff: diff,
        span_attributes={"segments": cluster.segments})
    run.begin()

    trips = 0
    for trip in range(iterations):
        if pool is not None:
            step_metrics = superstep_pool(cluster, spec, pool, tracer)
        else:
            new_partitions, step_metrics = superstep_inline(
                cluster, spec, distributed, strategy, tracer)
            distributed[spec.state] = DistributedTable(spec.state,
                                                       new_partitions)
        trips += 1
        delta_rows = step_metrics.get("delta_rows", 0)
        converged = until_converged and delta_rows == 0
        run.finish_iteration(
            trip + 1 < iterations and not converged,
            delta_rows=delta_rows,
            working_rows=step_metrics.get("working_rows", 0),
            total_rows=step_metrics.get("total_rows", 0))
        if converged:
            break

    run.close()

    if metrics is not None:
        registry_counters = {
            "mpp.exchange.rows_moved": cluster.motion.rows_moved,
            "mpp.exchange.bytes_moved": cluster.motion.bytes_moved,
            "mpp.exchange.suppressed_bytes":
                cluster.motion.suppressed_bytes,
            "mpp.exchange.suppressed_batches":
                cluster.motion.suppressed_batches,
            "mpp.supersteps": trips,
        }
        for name, amount in registry_counters.items():
            metrics.counter(name).add(amount)

    if pool is not None:
        final = DistributedTable(spec.state, pool.fetch(spec.state))
    else:
        final = distributed[spec.state]
    motion = cluster.motion
    return final.gather(), {
        "iterations": trips,
        "rows_moved": motion.rows_moved,
        "bytes_moved": motion.bytes_moved,
        "shuffles": motion.shuffles,
        "telemetry": run.telemetry,
        "suppressed_bytes": motion.suppressed_bytes,
        "suppressed_batches": motion.suppressed_batches,
    }


# ---------------------------------------------------------------------------
# PageRank (delta-accumulative, §VI-A)
# ---------------------------------------------------------------------------


@dataclass
class DistributedPageRankResult(DistributedLoopResult):
    """Final ranks plus the motion bill."""

    ranks: dict[int, float] = field(default_factory=dict)


_EDGE_SCHEMA = Schema((ColumnSchema("src", SqlType.INTEGER),
                       ColumnSchema("dst", SqlType.INTEGER),
                       ColumnSchema("weight", SqlType.FLOAT)))


def _state_table(nodes: np.ndarray) -> Table:
    schema = Schema((ColumnSchema("node", SqlType.INTEGER),
                     ColumnSchema("rank", SqlType.FLOAT),
                     ColumnSchema("delta", SqlType.FLOAT)))
    count = len(nodes)
    return Table(schema, [
        Column.from_numpy(SqlType.INTEGER, nodes),
        Column.from_numpy(SqlType.FLOAT, np.zeros(count)),
        Column.from_numpy(SqlType.FLOAT, np.full(count, BASE_DELTA)),
    ])


def _edges_table(edges: list[tuple[int, int, float]]) -> Table:
    return Table.from_rows(_EDGE_SCHEMA, edges)


def _node_ids(edge_table: Table, *extra: int) -> np.ndarray:
    """Every node id an edge names (plus ``extra``), sorted, unique."""
    return unique_sorted(np.concatenate([edge_table.column("src").data,
                                         edge_table.column("dst").data,
                                         np.array(extra, dtype=np.int64)]))


def _lookup_unsorted(keys: np.ndarray, probe: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lookup_sorted` over unsorted ``keys``: positions are
    expressed in the original key order."""
    order = np.argsort(keys, kind="stable")
    positions, found = lookup_sorted(keys[order], probe)
    return order[positions], found


def _pr_produce(registers: dict) -> Table:
    """(dst, contribution) rows for one segment's edges."""
    edge_part = registers["edges"]
    state_part = registers["state"]
    src = edge_part.column("src").data
    dst = edge_part.column("dst").data
    weight = edge_part.column("weight").data
    state_delta = state_part.column("delta").data

    positions, found = _lookup_unsorted(state_part.column("node").data, src)
    if len(state_delta):
        delta_of_src = np.where(found, state_delta[positions], 0.0)
    else:
        delta_of_src = np.zeros(len(src))

    schema = Schema((ColumnSchema("dst", SqlType.INTEGER),
                     ColumnSchema("contribution", SqlType.FLOAT)))
    return Table(schema, [
        Column.from_numpy(SqlType.INTEGER, dst.astype(np.int64)),
        Column.from_numpy(SqlType.FLOAT, delta_of_src * weight),
    ])


def _pr_pre_apply(registers: dict) -> np.ndarray:
    """rank += delta needs no incoming pieces — the overlap phase."""
    state_part = registers["state"]
    return state_part.column("rank").data + state_part.column("delta").data


def _pr_apply(registers: dict, pieces: list[Table],
              new_rank: np.ndarray) -> Table:
    """delta = 0.85 * Σ incoming contributions (origin order)."""
    state_part = registers["state"]
    nodes = state_part.column("node").data
    sums = np.zeros(len(nodes))
    if pieces:
        all_dst = np.concatenate([p.column("dst").data for p in pieces])
        all_contrib = np.concatenate(
            [p.column("contribution").data for p in pieces])
        positions, found = _lookup_unsorted(nodes, all_dst)
        np.add.at(sums, positions[found], all_contrib[found])
    new_delta = DAMPING * sums

    return Table(state_part.schema, [
        state_part.column("node"),
        Column.from_numpy(SqlType.FLOAT, new_rank),
        Column.from_numpy(SqlType.FLOAT, new_delta),
    ])


def _pr_metrics(registers: dict, outbound: Table) -> dict:
    state_part = registers["state"]
    return {
        "delta_rows": int((state_part.column("delta").data != 0.0).sum()),
        "working_rows": outbound.num_rows,
        "total_rows": state_part.num_rows,
    }


def pagerank_superstep_spec(delta_shuffle: bool = False) -> SuperstepSpec:
    return SuperstepSpec(
        plan=pagerank_exchange_plan(delta_shuffle),
        produce=_pr_produce,
        pre_apply=_pr_pre_apply,
        apply=_pr_apply,
        metrics=_pr_metrics)


def distributed_pagerank(cluster: Cluster,
                         edges: list[tuple[int, int, float]],
                         iterations: int = 10,
                         tracer=None,
                         delta_shuffle: bool = False,
                         pool=None,
                         metrics=None) -> DistributedPageRankResult:
    """PageRank over ``edges`` executed segment by segment.

    Per iteration and per segment: join local src-distributed edges with
    the co-located delta state, compute partial contributions per
    destination, shuffle partials onto the destination's segment, and
    update rank/delta in place.

    ``tracer`` (a :class:`repro.obs.Tracer`) makes the loop emit one
    span per iteration, with one ``compute`` span (child ``segment``
    spans per worker) per local phase and one ``exchange`` span for the
    partial shuffle; per-iteration motion and convergence telemetry is
    always collected on the returned result.

    ``delta_shuffle`` applies the semi-naive idea at the exchange layer:
    each origin segment remembers the last partial-contribution piece it
    sent to every destination segment and skips the motion when the
    piece is unchanged (the receiver reuses its copy).  Off by default
    so the motion bill matches the naive exchange.

    ``pool`` (a :class:`repro.mpp.workers.WorkerPool`) switches from the
    inline simulation to real shared-nothing execution: partitions
    resident in worker processes, batches on the wire, compute
    overlapping motion.  Both substrates produce bit-identical ranks,
    counters, and trace shapes.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
    loop's exchange-bytes counters (``mpp.exchange.*``).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    edge_table = _edges_table(edges)
    spec = pagerank_superstep_spec(delta_shuffle)

    final, loop = _run_distributed_loop(
        cluster, spec,
        {"edges": edge_table, "state": _state_table(_node_ids(edge_table))},
        iterations, tracer, pool, metrics=metrics,
        loop_name="pr_state")

    # Parity with the SQL query, which reports `rank` after the last
    # update (delta holds the not-yet-folded next increment).
    ranks = dict(zip(final.column("node").to_list(),
                     final.column("rank").to_list()))
    return DistributedPageRankResult(ranks=ranks, **loop)


# ---------------------------------------------------------------------------
# SSSP (semi-naive frontier relaxation)
# ---------------------------------------------------------------------------


@dataclass
class DistributedSsspResult(DistributedLoopResult):
    """Final distances plus the motion bill."""

    distances: dict[int, float] = field(default_factory=dict)


def _sssp_state_table(nodes: np.ndarray, source: int) -> Table:
    schema = Schema((ColumnSchema("node", SqlType.INTEGER),
                     ColumnSchema("dist", SqlType.FLOAT),
                     ColumnSchema("changed", SqlType.INTEGER)))
    is_source = nodes == source
    return Table(schema, [
        Column.from_numpy(SqlType.INTEGER, nodes),
        Column.from_numpy(SqlType.FLOAT, np.where(is_source, 0.0, np.inf)),
        Column.from_numpy(SqlType.INTEGER, is_source.astype(np.int64)),
    ])


def _sssp_produce(registers: dict) -> Table:
    """Relax only the edges out of last trip's changed frontier."""
    edge_part = registers["edges"]
    state_part = registers["state"]
    src = edge_part.column("src").data
    dst = edge_part.column("dst").data
    weight = edge_part.column("weight").data
    dist = state_part.column("dist").data
    changed = state_part.column("changed").data

    positions, found = _lookup_unsorted(state_part.column("node").data, src)
    if len(dist):
        dist_src = np.where(found, dist[positions], np.inf)
        changed_src = np.where(found, changed[positions], 0)
    else:
        dist_src = np.full(len(src), np.inf)
        changed_src = np.zeros(len(src), dtype=np.int64)
    frontier = (changed_src != 0) & np.isfinite(dist_src)

    schema = Schema((ColumnSchema("dst", SqlType.INTEGER),
                     ColumnSchema("dist", SqlType.FLOAT)))
    return Table(schema, [
        Column.from_numpy(SqlType.INTEGER,
                          dst[frontier].astype(np.int64)),
        Column.from_numpy(SqlType.FLOAT,
                          dist_src[frontier] + weight[frontier]),
    ])


def _sssp_apply(registers: dict, pieces: list[Table], aux) -> Table:
    """Min-merge incoming candidate distances (order-independent)."""
    state_part = registers["state"]
    nodes = state_part.column("node").data
    dist = state_part.column("dist").data

    best = np.full(len(nodes), np.inf)
    if pieces:
        all_dst = np.concatenate([p.column("dst").data for p in pieces])
        all_dist = np.concatenate([p.column("dist").data for p in pieces])
        positions, found = _lookup_unsorted(nodes, all_dst)
        np.minimum.at(best, positions[found], all_dist[found])
    new_dist = np.minimum(dist, best)
    new_changed = (new_dist < dist).astype(np.int64)

    return Table(state_part.schema, [
        state_part.column("node"),
        Column.from_numpy(SqlType.FLOAT, new_dist),
        Column.from_numpy(SqlType.INTEGER, new_changed),
    ])


def _sssp_metrics(registers: dict, outbound: Table) -> dict:
    state_part = registers["state"]
    return {
        "delta_rows": int((state_part.column("changed").data != 0).sum()),
        "working_rows": outbound.num_rows,
        "total_rows": state_part.num_rows,
    }


def sssp_superstep_spec(delta_shuffle: bool = False) -> SuperstepSpec:
    return SuperstepSpec(
        plan=sssp_exchange_plan(delta_shuffle),
        produce=_sssp_produce,
        apply=_sssp_apply,
        metrics=_sssp_metrics)


def distributed_sssp(cluster: Cluster,
                     edges: list[tuple[int, int, float]],
                     source: int,
                     max_iterations: int = 64,
                     tracer=None,
                     delta_shuffle: bool = False,
                     pool=None,
                     metrics=None) -> DistributedSsspResult:
    """Single-source shortest paths, semi-naive, on either substrate.

    Each superstep relaxes only the edges out of the previous trip's
    changed frontier, shuffles (dst, candidate-distance) pairs onto the
    destination's segment, and min-merges — the min is associative and
    commutative, so the result is exact regardless of how candidates
    split across segments.  The loop stops when a superstep changes no
    distance (semi-naive convergence), so converged runs stay O(1) per
    extra trip.  Substrate, tracing, and delta-shuffle semantics match
    :func:`distributed_pagerank`.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    edge_table = _edges_table(edges)
    spec = sssp_superstep_spec(delta_shuffle)

    final, loop = _run_distributed_loop(
        cluster, spec,
        {"edges": edge_table,
         "state": _sssp_state_table(_node_ids(edge_table, source), source)},
        max_iterations, tracer, pool, metrics=metrics,
        until_converged=True, loop_name="sssp_state")

    distances = dict(zip(final.column("node").to_list(),
                         final.column("dist").to_list()))
    return DistributedSsspResult(distances=distances, **loop)

"""Shared-nothing distribution layer (MPPDB substrate).

The single-node engine (``repro.engine``) executes plans; this package
runs distributed iterative supersteps.  Each superstep is described once
by a verified :class:`ExchangePlan` — resident registers hash-partitioned
on their keys, one routed exchange, the register the apply phase
rewrites — and executes either on the inline simulated cluster or on a
resident :class:`WorkerPool`, with per-motion accounting.  See DESIGN.md
for why the simulation preserves the paper-relevant behaviour.
"""

from .cluster import (
    Cluster,
    DistributedTable,
    MotionStats,
    hash_partition_indices,
    split_table,
)
from .iterative import (
    DistributedLoopResult,
    DistributedPageRankResult,
    DistributedSsspResult,
    distributed_pagerank,
    distributed_sssp,
    pagerank_superstep_spec,
    sssp_superstep_spec,
)
from .plan import (
    ExchangeOp,
    ExchangePlan,
    LocalOp,
    RegisterDef,
    pagerank_exchange_plan,
    sssp_exchange_plan,
)
from .superstep import SuperstepSpec, superstep_inline, superstep_pool
from .workers import WorkerPool, WorkerReply, run_segment_tasks

__all__ = [
    "Cluster",
    "DistributedTable",
    "MotionStats",
    "hash_partition_indices",
    "split_table",
    "DistributedLoopResult",
    "DistributedPageRankResult",
    "DistributedSsspResult",
    "distributed_pagerank",
    "distributed_sssp",
    "pagerank_superstep_spec",
    "sssp_superstep_spec",
    "ExchangeOp",
    "ExchangePlan",
    "LocalOp",
    "RegisterDef",
    "pagerank_exchange_plan",
    "sssp_exchange_plan",
    "SuperstepSpec",
    "superstep_inline",
    "superstep_pool",
    "WorkerPool",
    "WorkerReply",
    "run_segment_tasks",
]

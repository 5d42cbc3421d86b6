"""Simulated shared-nothing distribution layer (MPPDB substrate).

The single-node engine (``repro.engine``) executes plans; this package
models the *placement* dimension of MPPDB — hash distribution, exchange
motions, and the shuffle decisions the planner makes — with real
partitioning code and per-motion accounting.  See DESIGN.md for why the
simulation preserves the paper-relevant behaviour.
"""

from .cluster import Cluster, DistributedTable, MotionStats
from .distribution import (
    Distribution,
    DistributionKind,
    hash_partition_indices,
    split_table,
)
from .iterative import (
    DistributedPageRankResult,
    DistributedSsspResult,
    distributed_pagerank,
    distributed_sssp,
    pagerank_superstep_spec,
    sssp_superstep_spec,
)
from .exchange import (
    JoinDecision,
    JoinStrategy,
    distributed_aggregate_sum,
    distributed_join,
    exchange_span,
    plan_join,
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
    "Distribution",
    "DistributionKind",
    "hash_partition_indices",
    "split_table",
    "DistributedPageRankResult",
    "DistributedSsspResult",
    "distributed_pagerank",
    "distributed_sssp",
    "pagerank_superstep_spec",
    "sssp_superstep_spec",
    "JoinDecision",
    "JoinStrategy",
    "distributed_aggregate_sum",
    "distributed_join",
    "exchange_span",
    "plan_join",
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

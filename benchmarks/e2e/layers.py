"""The layer map: which entry point belongs to which package of
``src/repro``, and under what span name the probe records it.

Layers are the packages themselves (``sql``, ``plan``, ``rewrite``,
``core``, ``verify``, ``runtime``, ``execution``, ``storage``,
``engine``, ``server``, ``mpp``).  A span is named ``layer.what``; the
functions of one kernel family share a name, because the per-layer
metrics report the family (``execution.join`` = index build + probe).

Two private helpers are listed (``_edges_table`` / ``_state_table`` of
``repro.mpp.iterative``): the row-list → column-table conversion that
opens every ``distributed_pagerank`` call has no public name, and
without it ``mpp.table_build_ms`` could only be had by subtraction.
"""

from __future__ import annotations

from probe import Target


def _session_id(session, *_args) -> int:
    return session.session_id


def _client_session_id(client, *_args) -> int:
    return client.session.session_id


def _pending_segments(table, *_args) -> int:
    return table.segment_count


def _iterations(runner) -> int:
    return sum(runner.loop_iteration_counts().values())


TARGETS: list[Target] = [
    # sql
    Target("repro.sql.parser", "parse", "sql.parse"),
    Target("repro.sql.normalize", "normalize_statement", "sql.normalize"),
    # plan
    Target("repro.plan.builder", "build_statement", "plan.build"),
    Target("repro.plan.cache", "PlanCache.get_text", "plan.cache"),
    Target("repro.plan.cache", "PlanCache.get_normalized", "plan.cache"),
    Target("repro.plan.cache", "PlanCache.store", "plan.cache"),
    # rewrite
    Target("repro.rewrite", "optimize_plan", "rewrite.optimize"),
    Target("repro.rewrite.delta", "analyze_iterative_delta",
           "rewrite.delta_analysis"),
    Target("repro.rewrite.common_results", "extract_common_results",
           "rewrite.common_results"),
    # core (Algorithm 1)
    Target("repro.core.rewrite", "compile_statement", "core.compile"),
    # verify
    Target("repro.verify.programs", "verify_program", "verify.program"),
    Target("repro.verify.plans", "verify_plan", "verify.plan"),
    # runtime
    Target("repro.runtime.interpreter", "ProgramRunner.run", "runtime.run",
           _iterations, attr_after=True),
    # execution
    Target("repro.execution.operators", "execute_plan", "execution.plan"),
    Target("repro.execution.operators", "execute_to_table",
           "execution.plan"),
    Target("repro.execution.kernels", "build_probe_index", "execution.join"),
    Target("repro.execution.kernels", "equi_join_pairs", "execution.join"),
    Target("repro.execution.kernel_cache", "KernelCache.join_index",
           "execution.join"),
    Target("repro.execution.kernel_cache", "JoinIndex.probe",
           "execution.join"),
    Target("repro.execution.kernels", "group_ids", "execution.group"),
    Target("repro.execution.aggregate", "compute_aggregate",
           "execution.group"),
    Target("repro.execution.kernels", "factorize", "execution.encode"),
    Target("repro.execution.kernels", "encode_keys", "execution.encode"),
    Target("repro.execution.kernels", "scatter_update", "execution.scatter"),
    Target("repro.execution.kernels", "distinct_indices",
           "execution.distinct"),
    Target("repro.execution.kernels", "sort_indices", "execution.sort"),
    # storage
    Target("repro.storage.segmented", "SegmentedTable.append",
           "storage.append"),
    Target("repro.storage.segmented", "SegmentedTable.snapshot",
           "storage.snapshot", _pending_segments),
    # engine
    Target("repro.engine.session", "Session.execute", "engine.execute",
           _session_id),
    Target("repro.engine.session", "Session.load_rows", "engine.load_rows"),
    Target("repro.engine.dml", "execute_insert", "engine.insert"),
    Target("repro.engine.dml", "execute_update", "engine.update"),
    Target("repro.engine.dml", "execute_delete", "engine.delete"),
    # server (client side; the worker side is engine.execute)
    Target("repro.server.service", "ServerClient.execute", "server.request",
           _client_session_id),
    # mpp (coordinator side; workers are separate processes)
    Target("repro.mpp.iterative", "distributed_pagerank", "mpp.pagerank"),
    Target("repro.mpp.iterative", "_edges_table", "mpp.table_build"),
    Target("repro.mpp.iterative", "_state_table", "mpp.table_build"),
    Target("repro.mpp.cluster", "Cluster.distribute", "mpp.distribute"),
    Target("repro.mpp.workers", "WorkerPool.load", "mpp.load"),
    Target("repro.mpp.workers", "WorkerPool.set_spec", "mpp.load"),
    Target("repro.mpp.workers", "WorkerPool.superstep", "mpp.superstep"),
    Target("repro.mpp.superstep", "superstep_inline", "mpp.superstep"),
    Target("repro.mpp.workers", "WorkerPool.fetch", "mpp.fetch_gather"),
    Target("repro.mpp.cluster", "DistributedTable.gather",
           "mpp.fetch_gather"),
]

LAYERS = ["sql", "plan", "rewrite", "core", "verify", "runtime",
          "execution", "storage", "engine", "server", "mpp"]

# The compile-side layers whose cost a plan-cache text hit skips.
FRONT_END = ("sql", "plan", "rewrite", "core", "verify")

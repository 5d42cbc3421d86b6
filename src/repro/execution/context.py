"""Execution context: catalog access, the result registry, counters.

All instrumentation the benchmarks and the overhead model read lives here.
Counters are plain integers updated by operators; `snapshot()` freezes them
for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import Catalog, ResultRegistry


@dataclass
class ExecutionStats:
    """Counters accumulated while running plans and statements."""

    rows_scanned: int = 0
    rows_joined: int = 0
    rows_materialized: int = 0
    rows_moved: int = 0          # rows copied between main/working tables
    bytes_moved: int = 0
    renames: int = 0
    iterations: int = 0
    statements: int = 0
    plans_built: int = 0
    common_results_built: int = 0
    predicate_pushdowns: int = 0
    # Iteration-aware kernel cache (see repro.execution.kernel_cache).
    kernel_cache_invalidations: int = 0
    join_index_hits: int = 0
    join_index_misses: int = 0
    # Silent-fallback events (ROADMAP repack-on-overflow triggers): the
    # join index hit mixed-radix int64 overflow, or the merge index
    # exhausted its per-column id bit budget and fell back to rescans.
    join_index_overflows: int = 0
    merge_index_hits: int = 0
    merge_index_rebuilds: int = 0
    merge_index_overflows: int = 0
    # Repack-on-overflow: the merge index rebuilt its bit packing with
    # wider per-column widths instead of falling back to a full rescan.
    merge_index_repacks: int = 0
    # Iterations served by the semi-naive delta path (frontier-only
    # recomputation) instead of a full working-table rebuild.
    delta_iterations: int = 0
    # Mid-loop strategy demotions: the loop engine abandoned delta mode
    # because the measured frontier stayed near-full (the bookkeeping
    # cost more than the recomputation it saved).
    strategy_demotions: int = 0
    # Delta-apply keyset-guard trips: an INNER-join body dropped a key
    # and the iteration was rerun through the full body.
    delta_guard_fallbacks: int = 0
    # Mid-loop strategy promotions: the movement fallback a demoted loop
    # landed on observed the frontier collapsing again and handed the
    # loop back to a fresh semi-naive delta strategy.
    strategy_promotions: int = 0
    # Shared plan cache (repro.plan.cache): full hits skip parse→bind→
    # rewrite→compile; shape hits saw the statement family before but
    # with different constants (recompiled); invalidations are entries
    # dropped because DDL bumped the catalog version underneath them.
    plan_cache_hits: int = 0
    plan_cache_shape_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    # GROUP BY on two or more keys with an integer leading key
    # (kernels.group_keys): the leading key decided every group, or the
    # per-group check refuted it and every key was encoded.
    determinant_groupings: int = 0
    determinant_fallbacks: int = 0
    # Equi joins in which no probe row matched more than one build row
    # (kernels.equi_join_pairs): pairs read straight off the buckets.
    single_match_joins: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter deltas accumulated since ``snapshot`` was taken.

        Counters absent from the snapshot (e.g. one taken before a
        release that added a counter, or an empty dict) count from zero.
        """
        return {key: value - snapshot.get(key, 0)
                for key, value in self.__dict__.items()}

    def reset(self) -> None:
        for key in self.__dict__:
            setattr(self, key, 0)


@dataclass
class SessionOptions:
    """Per-session switches, mirroring the paper's three optimizations.

    Each of the three evaluation sections (§VII-B/C/D) compares the engine
    with one of these turned off against the default configuration.
    """

    # Fig. 8 — use the rename operator for full-dataset updates instead of
    # merging the working table back into the main table.
    enable_rename: bool = True
    # Fig. 9 — materialize loop-invariant join subtrees once (§V-A).
    enable_common_results: bool = True
    # Fig. 10 — push final-query predicates into the non-iterative part
    # when safe (§V-B).
    enable_predicate_pushdown: bool = True
    # Iteration-aware kernel cache: reusable join build-side indexes and
    # incremental UNION DISTINCT state (see repro.execution.kernel_cache).
    # Disabling it restores recompute-from-scratch kernels with
    # bit-identical results.
    enable_kernel_cache: bool = True
    # Record a span trace + per-iteration loop telemetry for every
    # statement, retrievable via Database.last_trace()/trace_json()
    # (see repro.obs).  Off by default: the untraced hot path must stay
    # within noise of the pre-tracing engine.  EXPLAIN ANALYZE always
    # traces regardless of this switch.
    enable_tracing: bool = False
    # Semi-naive delta evaluation for ITERATIVE CTE loops: when the
    # planner proves the step query evolves each key independently (the
    # same per-key property behind Fig. 10 predicate pushdown), iterations
    # after the first recompute only the frontier of changed rows and
    # merge the delta back.  Bit-identical to full recomputation; off by
    # default until the analyzer has seen wider production exposure.
    enable_delta_iteration: bool = False
    # IR verifier (repro.verify): check schema/type propagation, step
    # CFG integrity, and strategy legality after building, after each
    # rewrite pass, and after compilation, raising VerificationError on
    # the first malformed IR.  About 0.5 ms per compile (see
    # EXPERIMENTS.md); the ablation is the only reason to turn it off.
    enable_plan_verifier: bool = True
    # Shared plan cache: reuse compiled programs across statements and
    # sessions when the normalized statement, its literals, and every
    # compile-relevant option match (see repro.plan.cache).  EXPLAIN
    # variants always bypass the cache so their reports reflect a real
    # compile.
    enable_plan_cache: bool = True
    # Safety cap for runaway iterative queries.
    max_iterations: int = 100_000

    def copy(self) -> "SessionOptions":
        return SessionOptions(**self.__dict__)

    # Options that cannot change the compiled program: tracing wraps the
    # run, and the cache switch only decides whether lookups happen.
    _NON_COMPILE_OPTIONS = ("enable_tracing", "enable_plan_cache")

    def compile_fingerprint(self) -> tuple:
        """Hashable identity of every option that can alter compilation.

        Part of the plan-cache key: two sessions share a cached program
        only when they would have compiled it identically."""
        return tuple(
            (name, value) for name, value in sorted(self.__dict__.items())
            if name not in self._NON_COMPILE_OPTIONS)


class ExecutionContext:
    """Everything operators need while running one statement."""

    def __init__(self, catalog: Catalog, registry: ResultRegistry,
                 options: SessionOptions | None = None,
                 stats: ExecutionStats | None = None,
                 kernel_cache=None, tracer=None):
        from ..obs.trace import NULL_TRACER
        from .kernel_cache import KernelCache
        self.catalog = catalog
        self.registry = registry
        self.options = options or SessionOptions()
        self.stats = stats or ExecutionStats()
        # Shared across statements when the Database passes its own (so
        # loop-invariant state survives within and across queries and DML
        # can invalidate it); otherwise private to this context.
        self.kernel_cache = kernel_cache or KernelCache(self.stats)
        # Per-statement span tracer (repro.obs); NULL_TRACER when the
        # statement is not being traced.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def active_kernel_cache(self):
        """The kernel cache, or None when the session disables it."""
        return self.kernel_cache if self.options.enable_kernel_cache \
            else None

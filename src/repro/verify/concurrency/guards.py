"""The declarative guard map: which lock protects which shared state.

This module is the single source of truth both prongs of the
concurrency safety net read:

* the **static lock-discipline pass** (:mod:`.static`) uses the specs to
  flag mutations of guarded attributes outside a ``with <lock>`` block,
  mutating calls into externally-synchronized objects (the catalog) made
  without the engine write lock, lock acquisitions that invert the
  declared hierarchy, and blocking calls made while a lock is held;
* the **dynamic lockset detector** (:mod:`.lockset`) uses the specs to
  decide which classes to instrument, which of their methods count as
  reads vs writes of the guarded state, and whether lock-free reads are
  part of the design (``mode="writes"``) or a bug (``mode="all"``).

The lock hierarchy (higher acquires first, never the inverse)::

    Engine.write_lock          (LEVEL_ENGINE, 3)   DML/DDL serialization
      > SegmentedTable._lock   (LEVEL_TABLE,  2)   segments / watermarks
        > cache-level locks    (LEVEL_CACHE,  1)   KernelCache._lock,
                                                   PlanCache._lock,
                                                   MetricsRegistry._lock,
                                                   DatabaseServer._lock /
                                                   ._trace_lock,
                                                   WorkloadManager._lock

Deliberately *not* in the map:

* ``ExecutionStats`` — flat integer counters incremented on the hot
  execution path.  They are instrumentation, tolerated as lossy under
  concurrency (a dropped increment skews a counter, never a result);
  guarding them would tax every operator dispatch.
* ``ResultRegistry`` — per-session state; the serving layer dispatches
  at most one statement per session at a time, so it is single-threaded
  by contract (the engine-layering lint rule keeps it off the Engine).
* ``WorkerPool`` pipes — single-owner by construction (each endpoint is
  used by exactly one process/thread pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Hierarchy ranks: a lock may only be acquired while holding locks of
# *strictly higher* rank (or none).  Acquiring rank 3 under rank 1 is an
# inversion.
LEVEL_ENGINE = 3
LEVEL_TABLE = 2
LEVEL_CACHE = 1

LEVEL_NAMES = {
    LEVEL_ENGINE: "engine",
    LEVEL_TABLE: "table",
    LEVEL_CACHE: "cache",
}


@dataclass(frozen=True)
class GuardSpec:
    """One guarded-state contract: ``lock_attr`` protects ``attrs``.

    ``module`` locates the defining file (posix path relative to the
    package root) — the static pass checks every mutation of ``attrs``
    there, and underscore-private attrs additionally in any module that
    imports ``cls``.  ``target_attr`` handles guarded state that lives
    one hop away from the lock owner (``DatabaseServer._lock`` guards
    the counters on ``self.stats``).  ``held_methods`` are entered with
    the lock already held by contract (documented on the method).

    For the dynamic detector, ``write_methods``/``read_methods`` are the
    instrumentation points, and ``mode`` selects the lockset policy:
    ``"all"`` demands a common lock over every cross-thread access,
    ``"writes"`` only over writes — the engine's snapshot protocol makes
    lock-free *reads* of storage/catalog state sound by design, so only
    writer/writer discipline is checkable there.
    """

    name: str
    module: str
    cls: str
    lock_attr: str
    level: int
    attrs: tuple[str, ...] = ()
    target_attr: str = ""
    held_methods: tuple[str, ...] = ()
    mode: str = "all"
    write_methods: tuple[str, ...] = ()
    read_methods: tuple[str, ...] = ()

    @property
    def import_path(self) -> str:
        """``execution/kernel_cache.py`` -> ``repro.execution.kernel_cache``."""
        return "repro." + self.module[:-3].replace("/", ".")

    @property
    def shared_attrs(self) -> tuple[str, ...]:
        """Attrs distinctive enough to check in importing modules too."""
        return tuple(a for a in self.attrs if a.startswith("_"))


@dataclass(frozen=True)
class CallGuard:
    """Mutating-call discipline for externally synchronized objects.

    The catalog and statistics catalog carry no lock of their own — the
    engine write lock serializes every mutation.  Any call of one of
    ``methods`` on a receiver path ending in ``receiver`` must happen
    lexically under ``with <...>.<lock_attr>`` (or inside an
    assumed-held context); the implementing modules themselves are
    exempt.
    """

    name: str
    receiver: str
    methods: tuple[str, ...]
    lock_attr: str
    level: int
    exempt_modules: tuple[str, ...] = ()


GUARDS: tuple[GuardSpec, ...] = (
    GuardSpec(
        name="Catalog",
        module="storage/catalog.py",
        cls="Catalog",
        lock_attr="write_lock",
        level=LEVEL_ENGINE,
        # No attr-level checks: mutation happens through the documented
        # API (see CALL_GUARDS) and the implementation module is its own
        # exemption.  Dynamic mode "writes": snapshot-pinned reads are
        # lock-free by design.
        mode="writes",
        write_methods=("create", "drop", "put", "register"),
    ),
    GuardSpec(
        name="SegmentedTable",
        module="storage/segmented.py",
        cls="SegmentedTable",
        lock_attr="_lock",
        level=LEVEL_TABLE,
        attrs=("_segments", "_flat", "schema", "consolidations",
               "rows_consolidated"),
        held_methods=("_consolidate",),
        # Readers race ahead of the lock on purpose (the `_flat`
        # double-check in `columns`); writer/writer and
        # writer/consolidator discipline is what the lock exists for.
        mode="writes",
        write_methods=("append", "_consolidate"),
    ),
    GuardSpec(
        name="KernelCache",
        module="execution/kernel_cache.py",
        cls="KernelCache",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("_indexes", "_index_candidates"),
        # Even lookups mutate (LRU move_to_end), so every access needs
        # the lock — this is the exact shape of the PR 9 check-then-
        # delete race the bench storm caught.
        mode="all",
        write_methods=("join_index", "invalidate_columns", "clear"),
        read_methods=("nbytes",),
    ),
    GuardSpec(
        name="PlanCache",
        module="plan/cache.py",
        cls="PlanCache",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("_programs", "_texts", "_shapes"),
        mode="all",
        write_methods=("get_normalized", "store", "clear"),
        read_methods=("get_text", "knows_text", "snapshot"),
    ),
    GuardSpec(
        name="MetricsRegistry",
        module="obs/metrics.py",
        cls="MetricsRegistry",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("_counters", "_gauges", "_histograms"),
        mode="all",
        write_methods=("counter", "gauge", "histogram", "ingest",
                       "reset"),
        read_methods=("snapshot",),
    ),
    GuardSpec(
        name="ServerStats",
        module="server/service.py",
        cls="DatabaseServer",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("submitted", "completed", "failed", "rejected",
               "peak_outstanding"),
        target_attr="stats",
        # Static-only: the counters are mutated inline, not through
        # methods, so there is no method boundary to instrument.
    ),
    GuardSpec(
        name="ServerClient",
        module="server/service.py",
        cls="ServerClient",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("_pending", "_in_flight", "_closed"),
    ),
    GuardSpec(
        name="WorkloadManager",
        module="engine/workload.py",
        cls="WorkloadManager",
        lock_attr="_lock",
        level=LEVEL_CACHE,
        attrs=("_units",),
    ),
)


CALL_GUARDS: tuple[CallGuard, ...] = (
    CallGuard(
        name="Catalog",
        receiver="catalog",
        methods=("create", "drop", "put", "register"),
        lock_attr="write_lock",
        level=LEVEL_ENGINE,
        exempt_modules=("storage/catalog.py", "storage/snapshot.py"),
    ),
    CallGuard(
        name="StatisticsCatalog",
        receiver="statistics",
        methods=("analyze", "invalidate"),
        lock_attr="write_lock",
        level=LEVEL_ENGINE,
        exempt_modules=("stats/statistics.py",),
    ),
)


# Contexts entered with a lock already held — part of the declared
# contract, not an escape hatch: each entry corresponds to a documented
# "caller holds the lock" invariant in the named code.
ASSUMED_HELD_MODULES: dict[str, tuple[str, ...]] = {
    # Every function in the DML module runs under the statement's
    # `with engine.write_lock` block in Session.execute.
    "engine/dml.py": ("write_lock",),
}

ASSUMED_HELD_FUNCTIONS: dict[tuple[str, str], tuple[str, ...]] = {
    # Helper bodies of Session's locked DDL/DML statement arms.
    ("engine/session.py", "_execute_create"): ("write_lock",),
    # "Idempotent under the lock" — called from `columns`/`snapshot`
    # with the table lock held.
    ("storage/segmented.py", "_consolidate"): ("_lock",),
}


# The lock-attribute vocabulary.  `write_lock` resolves globally; a
# bare `_lock`/`_trace_lock` resolves through the specs of its module
# (the same attribute name names locks at different levels in different
# classes), falling back to cache level for unknown modules.
GLOBAL_LOCK_LEVELS = {"write_lock": LEVEL_ENGINE}
DEFAULT_LOCK_LEVEL = LEVEL_CACHE

# Locks owned per class, used by the dynamic shim to install tracking
# wrappers at construction time: (import path, class, lock attr, level).
LOCK_OWNERS: tuple[tuple[str, str, str, int], ...] = (
    ("repro.engine.engine", "Engine", "write_lock", LEVEL_ENGINE),
    ("repro.storage.segmented", "SegmentedTable", "_lock", LEVEL_TABLE),
    ("repro.execution.kernel_cache", "KernelCache", "_lock", LEVEL_CACHE),
    ("repro.plan.cache", "PlanCache", "_lock", LEVEL_CACHE),
    ("repro.obs.metrics", "MetricsRegistry", "_lock", LEVEL_CACHE),
    ("repro.server.service", "DatabaseServer", "_lock", LEVEL_CACHE),
    ("repro.server.service", "DatabaseServer", "_trace_lock",
     LEVEL_CACHE),
)


def module_lock_levels(module: str) -> dict[str, int]:
    """Lock-attr -> level map for one module (posix rel path)."""
    levels = dict(GLOBAL_LOCK_LEVELS)
    for spec in GUARDS:
        if spec.module == module:
            levels.setdefault(spec.lock_attr, spec.level)
    return levels

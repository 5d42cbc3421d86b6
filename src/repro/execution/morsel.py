"""Morsel-driven parallelism for columnar operators.

A *morsel* is a fixed-size contiguous row range of an operator's input
(Leis et al., "Morsel-Driven Parallelism", adapted to this engine's
materialize-everything execution model).  Operators that are elementwise
over rows — filter predicates, projections, and the probe side of a hash
equi join — split their input into morsels, evaluate each morsel
independently, and concatenate the per-morsel results in input order, so
the output is bit-identical to the single-shot evaluation by
construction.

Dispatch goes to a shared thread pool when the session opts in
(``parallel_morsels``), the host has more than one usable CPU and the
input is large enough to amortize the per-task overhead
(``MORSEL_MIN_ROWS``); NumPy kernels release the GIL, so morsels
genuinely overlap where cores are available.  Otherwise the operator
runs its single-shot path — chunking on one thread would only add
slicing and concatenation.

Worker callables must be pure with respect to engine state: they read
immutable columns and return fresh arrays.  All counter updates and span
events happen on the coordinating thread, after the pool has joined, so
``ExecutionStats`` and the tracer never see concurrent mutation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

# Rows per morsel, and the smallest input worth dispatching: below the
# threshold the hand-off costs more than the kernel work it spreads.
MORSEL_SIZE = 16_384
MORSEL_MIN_ROWS = 65_536


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform exposes one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


MORSEL_WORKERS = _usable_cpus()

# One process-wide pool, sized on first use and never rebuilt, so a
# session holding it can never see it shut down underneath a map.
_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=MORSEL_WORKERS,
                thread_name_prefix="repro-morsel")
        return _pool


def morsel_ranges(num_rows: int, size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks covering ``range(num_rows)``."""
    if num_rows <= 0:
        return []
    size = max(1, int(size))
    return [(start, min(start + size, num_rows))
            for start in range(0, num_rows, size)]


def run_morsels(ctx, num_rows: int,
                fn: Callable[[int, int], T],
                label: str = "morsel") -> Optional[list[T]]:
    """Evaluate ``fn(start, stop)`` over every morsel of ``num_rows`` on
    the shared pool.

    Returns the per-morsel results in input order, or ``None`` whenever
    the work would not be dispatched — the session has not opted in, the
    host has one usable CPU, the input is below ``MORSEL_MIN_ROWS`` or
    fits one morsel — and the caller runs its single-shot path.  ``fn``
    must be pure (no ctx/stats/tracer access); accounting happens here,
    on the coordinating thread.
    """
    if (not ctx.options.parallel_morsels or MORSEL_WORKERS <= 1
            or num_rows < MORSEL_MIN_ROWS):
        return None
    ranges = morsel_ranges(num_rows, MORSEL_SIZE)
    if len(ranges) <= 1:
        return None
    results = list(_shared_pool().map(lambda r: fn(r[0], r[1]), ranges))

    ctx.stats.morsel_batches += len(ranges)
    ctx.stats.morsel_rows += num_rows
    tracer = ctx.tracer
    if tracer.enabled:
        tracer.event(f"morsels:{label}", kind="morsel",
                     morsels=len(ranges), rows=num_rows,
                     workers=MORSEL_WORKERS, parallel=True)
    return results

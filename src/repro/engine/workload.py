"""Workload-manager accounting.

The paper's second argument for the native approach (§II): a middleware
solution submits each basic operation as its own statement, so the
workload manager schedules and accounts per statement rather than per
iterative query.  This module counts admissions so the ablation benchmark
can show the difference in scheduling units (one plan vs. hundreds of
statements for the same computation).
"""

from __future__ import annotations

import threading


class WorkloadManager:
    """Counts the units of work the scheduler sees.

    One manager serves every session of an engine, so the count is
    taken under a lock: ``+= 1`` is a read-modify-write that concurrent
    sessions could otherwise lose."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._units = 0

    def admit(self) -> None:
        with self._lock:
            self._units += 1

    @property
    def units_admitted(self) -> int:
        return self._units

    def reset(self) -> None:
        with self._lock:
            self._units = 0

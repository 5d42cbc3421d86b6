"""The host thermometer: how fast is this machine *right now*?

The benchmark runs on a shared 2-vCPU VM whose speed drifts by tens of
percent over minutes (frequency, steal, noisy neighbours).  Raw wall or
CPU medians of the same code therefore differ between two back-to-back
runs by more than any bound worth gating on, while their *ratio* to a
fixed reference computation taken moments before and after stays within
about a percent.  This module is that reference.

One reading runs a fixed NumPy part (sort, bincount, unique over seeded
arrays: what the engine's kernels do) and a fixed pure-Python part (a
dict-update loop: what its interpreter and front end do), three times,
and keeps the median wall and CPU time.  A *factor* is a reading
divided by the checked-in nominal constants below, so at nominal host
speed normalised and raw numbers coincide.

The nominal constants only fix the unit; they were the median reading
on the development container on a quiet afternoon and never need to
match another host.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_WALL_MS = 21.0
NOMINAL_CPU_MS = 21.0

_ROWS = 120_000
_LOOP = 45_000


@dataclass(frozen=True)
class Reading:
    """One thermometer reading, already divided by the nominal."""

    wall: float
    cpu: float


class Thermometer:
    """Holds the fixed inputs so a reading allocates the same every time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210419)
        self._keys = rng.integers(0, 50_000, size=_ROWS)
        self._values = rng.random(_ROWS)

    def _work(self) -> int:
        order = np.argsort(self._keys, kind="stable")
        sums = np.bincount(self._keys, weights=self._values)
        uniques, inverse = np.unique(self._keys[order], return_inverse=True)
        table: dict[int, int] = {}
        for i in range(_LOOP):
            key = (i * 7919) % 4093
            table[key] = table.get(key, 0) + i
        return len(uniques) + len(sums) + len(inverse) + len(table)

    def read(self) -> Reading:
        walls, cpus = [], []
        for _ in range(3):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self._work()
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        return Reading(
            wall=statistics.median(walls) * 1000.0 / NOMINAL_WALL_MS,
            cpu=statistics.median(cpus) * 1000.0 / NOMINAL_CPU_MS)


def between(before: Reading, after: Reading) -> Reading:
    """The host factor of an interval bracketed by two readings."""
    return Reading(wall=(before.wall + after.wall) / 2.0,
                   cpu=(before.cpu + after.cpu) / 2.0)

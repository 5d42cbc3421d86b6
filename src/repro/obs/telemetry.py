"""Per-iteration loop telemetry: the convergence curve of one loop.

Every loop the system runs — ITERATIVE CTEs, recursive (fixpoint) CTEs,
the MPP-iterative driver, and the middleware / stored-procedure
baselines — produces one :class:`LoopTelemetry` with one
:class:`IterationRecord` per trip around the loop.  The record schema is
deliberately identical across the loop kinds so a benchmark trajectory
can compare them; fields a kind cannot measure stay zero (e.g.
``shuffles`` on a single node, ``kernel_cache_hits`` on the simulated
cluster).

``delta_rows`` over the iteration index *is* the convergence curve: the
number of rows the iteration actually changed (updated rows for
ITERATIVE with an UPDATES/DELTA condition, newly discovered rows for
fixpoints, full working-table size for full-refresh loops like PageRank
where every row is rewritten each trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class IterationRecord:
    """Measurements for one trip around one loop."""

    index: int                  # 1-based iteration number
    seconds: float              # wall time of this iteration
    delta_rows: int             # rows changed/added by this iteration
    working_rows: int           # size of the working/candidate table
    total_rows: int             # size of the accumulated CTE result
    kernel_cache_hits: int = 0
    kernel_cache_misses: int = 0
    rows_moved: int = 0         # data movement (copies / shuffles)
    bytes_moved: int = 0
    shuffles: int = 0           # MPP exchange motions

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seconds": self.seconds,
            "delta_rows": self.delta_rows,
            "working_rows": self.working_rows,
            "total_rows": self.total_rows,
            "kernel_cache_hits": self.kernel_cache_hits,
            "kernel_cache_misses": self.kernel_cache_misses,
            "rows_moved": self.rows_moved,
            "bytes_moved": self.bytes_moved,
            "shuffles": self.shuffles,
        }


# The stable key set of one iteration record in the trace JSON schema.
ITERATION_RECORD_KEYS = frozenset(
    IterationRecord(0, 0.0, 0, 0, 0).to_dict())


@dataclass
class LoopTelemetry:
    """All iterations of one loop, plus its identity."""

    loop_id: int
    cte: str                    # user-visible CTE / state-table name
    # "iterative" | "fixpoint" | "mpp" | "middleware" | "procedure"
    kind: str
    records: list[IterationRecord] = field(default_factory=list)
    # The strategy that ran the loop (None for loop kinds without
    # strategy selection); one "->next" per mid-loop strategy switch.
    strategy: Optional[str] = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "loop_id": self.loop_id,
            "cte": self.cte,
            "kind": self.kind,
            "strategy": self.strategy,
            "iterations": [record.to_dict() for record in self.records],
        }


def render_iteration_table(telemetry: LoopTelemetry) -> list[str]:
    """The EXPLAIN ANALYZE per-iteration breakdown for one loop."""
    lines = [f"loop {telemetry.loop_id} ({telemetry.cte}, "
             f"{telemetry.kind}): {telemetry.iterations} iterations"]
    if not telemetry.records:
        return lines
    show_motion = any(r.rows_moved for r in telemetry.records)
    show_shuffles = any(r.shuffles for r in telemetry.records)
    header = (f"  {'iter':>6}  {'seconds':>9}  {'delta_rows':>10}  "
              f"{'working_rows':>12}  {'total_rows':>10}  "
              f"{'cache_hits':>10}  {'cache_misses':>12}")
    if show_motion:
        header += f"  {'rows_moved':>10}  {'bytes_moved':>11}"
    if show_shuffles:
        header += f"  {'shuffles':>8}"
    lines.append(header)
    for record in telemetry.records:
        row = (f"  {record.index:>6}  {record.seconds:>9.4f}  "
               f"{record.delta_rows:>10}  {record.working_rows:>12}  "
               f"{record.total_rows:>10}  {record.kernel_cache_hits:>10}  "
               f"{record.kernel_cache_misses:>12}")
        if show_motion:
            row += f"  {record.rows_moved:>10}  {record.bytes_moved:>11}"
        if show_shuffles:
            row += f"  {record.shuffles:>8}"
        lines.append(row)
    return lines

"""The simulated shared-nothing cluster.

A :class:`Cluster` holds N segments; every resident register of a
superstep program lives hash-partitioned across them on the key its
:class:`~repro.mpp.plan.RegisterDef` declares.  Segments execute
sequentially (this is a simulation of placement and movement, not of
parallel speedup); what the benchmarks read is the :class:`MotionStats`
— rows and bytes crossing the interconnect.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..runtime.strategies import SEND, UNCHANGED
from ..storage import Column, Table


def hash_partition_indices(column: Column, segments: int) -> np.ndarray:
    """Deterministic segment assignment per row; NULL keys go to segment 0.

    TEXT keys hash with CRC-32, not ``hash()``: Python salts string
    hashes per process, and the coordinator that places a register and
    the workers that route pieces onto it must agree on every key.
    """
    if column.data.dtype == object:
        codes = np.array([zlib.crc32(str(v).encode()) if v is not None
                          else 0 for v in column.to_list()],
                         dtype=np.int64)
    else:
        codes = column.data.astype(np.int64, copy=False)
    # Knuth multiplicative hash keeps nearby keys apart.
    mixed = (codes * np.int64(2654435761)) & np.int64(0x7FFFFFFF)
    out = (mixed % segments).astype(np.int64)
    out[column.mask] = 0
    return out


def split_table(table: Table, assignment: np.ndarray,
                segments: int) -> list[Table]:
    """Split a table into per-segment partitions by assignment vector."""
    return [table.filter(assignment == s) for s in range(segments)]


@dataclass
class MotionStats:
    """Interconnect traffic counters.

    ``suppressed_rows``/``suppressed_bytes``/``suppressed_batches``
    count traffic that delta-shuffle *would* have moved but proved
    unchanged — the wire savings the semi-naive exchange claims, kept
    separate so ``bytes_moved`` stays strictly what crossed (or, in the
    inline simulation, would cross) the interconnect.
    """

    shuffles: int = 0
    rows_moved: int = 0
    bytes_moved: int = 0
    suppressed_rows: int = 0
    suppressed_bytes: int = 0
    suppressed_batches: int = 0

    def charge(self, kind: str, piece: Table) -> None:
        """Bill one classified cross-segment piece — the one rule both
        substrates use, so their counters agree byte for byte."""
        if kind == SEND:
            self.rows_moved += piece.num_rows
            self.bytes_moved += piece.nbytes()
        elif kind == UNCHANGED:
            self.suppressed_rows += piece.num_rows
            self.suppressed_bytes += piece.nbytes()
            self.suppressed_batches += 1

    def reset(self) -> None:
        self.__init__()


@dataclass
class DistributedTable:
    """One register: its per-segment partitions."""

    name: str
    partitions: list[Table]

    def gather(self) -> Table:
        """Union of all partitions (the gather motion to the coordinator)."""
        out = self.partitions[0]
        for part in self.partitions[1:]:
            out = out.concat(part)
        return out


class Cluster:
    """A fixed-size shared-nothing cluster."""

    def __init__(self, segments: int = 4):
        if segments < 1:
            raise ValueError("a cluster needs at least one segment")
        self.segments = segments
        self.motion = MotionStats()

    def distribute(self, name: str, table: Table,
                   key: str) -> DistributedTable:
        """Hash-partition ``table`` across the segments on column ``key``."""
        assignment = hash_partition_indices(table.column(key),
                                            self.segments)
        return DistributedTable(name,
                                split_table(table, assignment,
                                            self.segments))

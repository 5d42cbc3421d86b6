"""Batch transport for the exchange operators.

One shuffled piece travels as a tagged message over a
``multiprocessing`` pipe:

* ``("batch", meta, descs)`` — a non-empty piece.  ``meta`` is the
  wire header from :func:`repro.execution.frame.table_to_wire`;
  ``descs`` carries one descriptor per buffer block, either
  ``("inline", block)`` (the ndarray/bytes pickled straight through the
  pipe) or ``("shm", name, dtype, shape)`` (the block lives in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment the
  receiver attaches to, copies out, and unlinks — the fast path for
  large batches, which skips pickling the payload through the pipe
  buffer).
* ``("empty",)`` — a zero-row piece; nothing to rebuild.
* ``("unchanged",)`` — delta-shuffle suppression: the piece equals the
  last one sent on this channel, the receiver must replay its cached
  copy.  Sent by :class:`repro.runtime.strategies.DeltaShuffleExchange`.

The sender bills a piece at its payload bytes (``table.nbytes()``,
through :meth:`repro.mpp.cluster.MotionStats.charge`), independent of
transport, so measured motion matches the inline simulation's
accounting bit for bit.

Senders never unlink: the receiver owns segment teardown (attach → copy
→ close → unlink).  Bookkeeping balances because every pool process
shares one ``multiprocessing`` resource tracker (children inherit the
tracker fd under fork and spawn alike) whose cache is a name *set*: the
sender's create-register and the receiver's attach-register collapse to
one entry, and the receiver's ``unlink()`` both removes the segment and
unregisters it.  If the receiver dies first, the entry survives and the
tracker reaps the segment at exit — a leak warning, not a leaked
segment.
"""

from __future__ import annotations

import numpy as np

from ..execution.frame import table_from_wire, table_to_wire
from ..runtime.strategies import EMPTY, UNCHANGED
from ..storage import Table

# Blocks at or above this many bytes ride shared memory instead of the
# pipe.  Pipes hand the kernel ~64KiB at a time, so large ndarrays cost
# several copies each way; one shm segment costs a file + two mmaps.
SHM_THRESHOLD = 1 << 18

BATCH = "batch"


def send_piece(conn, table: Table,
               shm_threshold: int = SHM_THRESHOLD) -> None:
    """Ship the non-empty piece ``table`` over ``conn``."""
    meta, blocks = table_to_wire(table)
    descs = []
    for block in blocks:
        if isinstance(block, np.ndarray) and block.nbytes >= shm_threshold:
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True,
                                             size=block.nbytes)
            shm.buf[:block.nbytes] = block.tobytes()
            descs.append(("shm", shm.name, block.dtype.str, block.shape))
            shm.close()
        else:
            descs.append(("inline", block))
    conn.send((BATCH, meta, descs))


def send_empty(conn) -> None:
    conn.send((EMPTY,))


def send_unchanged(conn) -> None:
    conn.send((UNCHANGED,))


def recv_piece(conn) -> tuple[str, Table | None]:
    """Receive one message; returns ``(kind, table-or-None)``.

    ``kind`` is BATCH (table present), EMPTY, or UNCHANGED (caller
    replays its cached piece).
    """
    message = conn.recv()
    kind = message[0]
    if kind != BATCH:
        return kind, None
    _, meta, descs = message
    blocks = []
    for desc in descs:
        if desc[0] == "shm":
            from multiprocessing import shared_memory
            _, name, dtype, shape = desc
            shm = shared_memory.SharedMemory(name=name)
            block = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype)).reshape(shape).copy()
            shm.close()
            shm.unlink()
            blocks.append(block)
        else:
            blocks.append(desc[1])
    return kind, table_from_wire(meta, blocks)

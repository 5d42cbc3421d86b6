"""Batch transport for the exchange operators.

One shuffled piece travels as one tagged message over a
``multiprocessing`` pipe:

* ``("batch", meta, blocks)`` — a non-empty piece.  ``meta`` is the
  wire header from :func:`repro.execution.frame.table_to_wire` and
  ``blocks`` its buffer blocks (ndarrays and bytes), pickled straight
  through the pipe.
* ``("empty",)`` — a zero-row piece; nothing to rebuild, nothing
  billed.

The sender bills a shipped piece at its payload bytes
(``table.nbytes()``, through
:meth:`repro.mpp.cluster.MotionStats.charge`), so measured motion
matches the inline simulation's accounting bit for bit.
"""

from __future__ import annotations

from ..execution.frame import table_from_wire, table_to_wire
from ..storage import Table

BATCH = "batch"
EMPTY = "empty"


def send_piece(conn, table: Table) -> None:
    """Ship the non-empty piece ``table`` over ``conn``."""
    meta, blocks = table_to_wire(table)
    conn.send((BATCH, meta, blocks))


def send_empty(conn) -> None:
    conn.send((EMPTY,))


def recv_piece(conn) -> Table | None:
    """Receive one message: the shipped piece, or None for an empty
    one."""
    message = conn.recv()
    if message[0] != BATCH:
        return None
    _, meta, blocks = message
    return table_from_wire(meta, blocks)

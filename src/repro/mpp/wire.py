"""Batch transport for the exchange operators.

One shuffled piece travels as one tagged message over a
``multiprocessing`` pipe:

* ``("batch", meta, blocks)`` — a non-empty piece.  ``meta`` is the
  wire header from :func:`repro.execution.frame.table_to_wire` and
  ``blocks`` its buffer blocks (ndarrays and bytes), pickled straight
  through the pipe.
* ``("empty",)`` — a zero-row piece; nothing to rebuild.
* ``("unchanged",)`` — delta-shuffle suppression: the piece equals the
  last one sent on this channel, the receiver must replay its cached
  copy.  Sent by :class:`repro.runtime.strategies.DeltaShuffleExchange`.

The sender bills a piece at its payload bytes (``table.nbytes()``,
through :meth:`repro.mpp.cluster.MotionStats.charge`), so measured
motion matches the inline simulation's accounting bit for bit.
"""

from __future__ import annotations

from ..execution.frame import table_from_wire, table_to_wire
from ..runtime.strategies import EMPTY, UNCHANGED
from ..storage import Table

BATCH = "batch"


def send_piece(conn, table: Table) -> None:
    """Ship the non-empty piece ``table`` over ``conn``."""
    meta, blocks = table_to_wire(table)
    conn.send((BATCH, meta, blocks))


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
    _, meta, blocks = message
    return kind, table_from_wire(meta, blocks)

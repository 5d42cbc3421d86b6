"""Exchange plans: the static IR of one distributed superstep.

A distributed iterative workload runs the same *superstep program* on
every worker each trip around the loop: a local produce phase, one
exchange moving its output between workers, and a local apply phase.
The :class:`ExchangePlan` is the one description of that program —
which registers are resident and the key each is hash-partitioned on,
what the exchange routes on, whether it may apply delta-shuffle
suppression, which register the apply phase rewrites — and the loop
hands it to the verifier (:mod:`repro.verify.exchange`), the
distributed tail of the IR verifier, before anything is partitioned.

The plan is deliberately tiny and frozen: it is shipped to every worker
inside the :class:`~repro.mpp.superstep.SuperstepSpec`, so it must
pickle by value and never mutate after verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

NAIVE = "naive"
SEMI_NAIVE = "semi_naive"
STRATEGIES = (NAIVE, SEMI_NAIVE)


@dataclass(frozen=True)
class RegisterDef:
    """One resident register of the superstep program: loaded with
    exactly ``columns``, hash-partitioned across the segments on
    ``key``."""

    name: str
    columns: tuple[str, ...]
    key: str


@dataclass(frozen=True)
class LocalOp:
    """One per-worker compute phase.

    ``requires`` lists the co-location contracts the phase relies on:
    each entry is a tuple of ``(register, column)`` pairs that must all
    be hash-distributed on the named column when the phase runs (equal
    values hash identically, so equal keys land on the same worker).
    """

    operation: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    requires: tuple[tuple[tuple[str, str], ...], ...] = ()


@dataclass(frozen=True)
class ExchangeOp:
    """One motion edge: shuffle ``register`` onto ``hash(key)``.

    ``delta`` requests delta-shuffle suppression — workers skip the wire
    for a piece identical to the last one sent on the same channel.
    Only legal under the ``semi_naive`` plan strategy, where state
    evolves by deltas and an unchanged piece provably re-derives the
    receiver's cached copy.
    """

    register: str
    key: str
    columns: tuple[str, ...] = ()
    delta: bool = False


Step = Union[LocalOp, ExchangeOp]


@dataclass(frozen=True)
class ExchangePlan:
    """The verified shape of one distributed superstep program."""

    name: str
    strategy: str = NAIVE
    registers: tuple[RegisterDef, ...] = ()
    steps: tuple[Step, ...] = field(default_factory=tuple)

    def register(self, name: str) -> Optional[RegisterDef]:
        for reg in self.registers:
            if reg.name == name:
                return reg
        return None


# ---------------------------------------------------------------------------
# Plan builders for the shipped workloads
# ---------------------------------------------------------------------------


def pagerank_exchange_plan(delta_shuffle: bool = False) -> ExchangePlan:
    """The delta-accumulative PageRank superstep (paper §VI-A): local
    contributions from src-hashed edges joined with co-located state,
    shuffle partials by destination, apply rank/delta in place."""
    return ExchangePlan(
        name="pagerank",
        strategy=SEMI_NAIVE if delta_shuffle else NAIVE,
        registers=(
            RegisterDef("edges", ("src", "dst", "weight"), key="src"),
            RegisterDef("state", ("node", "rank", "delta"), key="node"),
        ),
        steps=(
            LocalOp("contributions", reads=("edges", "state"),
                    writes=("partials",),
                    requires=((("edges", "src"), ("state", "node")),)),
            ExchangeOp("partials", key="dst",
                       columns=("dst", "contribution"),
                       delta=delta_shuffle),
            LocalOp("apply_update", reads=("state", "partials"),
                    writes=("state",),
                    requires=((("state", "node"), ("partials", "dst")),)),
        ))


def sssp_exchange_plan(delta_shuffle: bool = False) -> ExchangePlan:
    """The semi-naive SSSP superstep: relax edges out of the changed
    frontier, shuffle candidate distances by destination, min-merge."""
    return ExchangePlan(
        name="sssp",
        strategy=SEMI_NAIVE,
        registers=(
            RegisterDef("edges", ("src", "dst", "weight"), key="src"),
            RegisterDef("state", ("node", "dist", "changed"), key="node"),
        ),
        steps=(
            LocalOp("relax", reads=("edges", "state"),
                    writes=("candidates",),
                    requires=((("edges", "src"), ("state", "node")),)),
            ExchangeOp("candidates", key="dst",
                       columns=("dst", "dist"),
                       delta=delta_shuffle),
            LocalOp("min_merge", reads=("state", "candidates"),
                    writes=("state",),
                    requires=((("state", "node"),
                               ("candidates", "dst")),)),
        ))

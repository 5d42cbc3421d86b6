"""A minimal stored-procedure IR.

The paper's §VII-E baseline is "a procedure that executes R0 one time and
then a loop that executes Ri for 25 times".  This module models exactly
that class of procedure: straight-line SQL statements, counted loops, and
a final query returning the result.  The DBMS (our engine) treats each
statement as an isolated black box — no cross-statement optimization, no
rename, no common-result reuse — which is the paper's whole point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass
class ExecuteSql:
    """Run one SQL statement for its side effects."""

    sql: str


@dataclass
class Loop:
    """Run the body ``count`` times."""

    count: int
    body: list["ProcedureOp"]


@dataclass
class ReturnQuery:
    """Run a query and make its result the procedure's result."""

    sql: str


ProcedureOp = Union[ExecuteSql, Loop, ReturnQuery]


@dataclass
class Procedure:
    """A named stored procedure."""

    name: str
    ops: list[ProcedureOp] = field(default_factory=list)

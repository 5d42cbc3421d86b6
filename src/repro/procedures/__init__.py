"""Stored-procedure baseline (paper §VII-E)."""

from .language import (
    ExecuteSql,
    Loop,
    Procedure,
    ProcedureOp,
    ReturnQuery,
)
from .runner import CallReport, ProcedureCatalog

__all__ = [
    "ExecuteSql",
    "Loop",
    "Procedure",
    "ProcedureOp",
    "ReturnQuery",
    "CallReport",
    "ProcedureCatalog",
]

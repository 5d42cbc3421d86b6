"""The paper's contribution: iterative CTEs as a functional rewrite.

* :mod:`repro.core.rewrite` — Algorithm 1: iterative CTE → step program.
* :mod:`repro.core.recursive` — ANSI recursive CTEs (fixed point), with
  the aggregate restriction the paper motivates.
The loop operator's termination evaluation and the program executor
live in :mod:`repro.runtime` (the unified loop runtime) and are
re-exported here.
"""

from ..runtime import (
    LoopState,
    ProgramRunner,
    changed_rows,
    should_continue,
)
from .rewrite import compile_statement

__all__ = [
    "LoopState",
    "changed_rows",
    "should_continue",
    "compile_statement",
    "ProgramRunner",
]

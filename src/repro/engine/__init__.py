"""Engine façade: Engine/Session split, Database, transactions,
workload accounting."""

from ..execution import SessionOptions
from .database import Database, QueryResult
from .engine import Engine
from .session import Session
from .transactions import LockMode, TransactionManager, TxnState
from .workload import WorkloadManager

__all__ = [
    "Database",
    "Engine",
    "QueryResult",
    "Session",
    "SessionOptions",
    "LockMode",
    "TransactionManager",
    "TxnState",
    "WorkloadManager",
]

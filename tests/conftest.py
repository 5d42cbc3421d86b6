"""Shared fixtures: small graphs and pre-loaded databases.

Also wires the dynamic lockset race detector: running the suite with
``REPRO_RACECHECK=1`` instruments the guarded classes for the whole
session and writes the collected report (even when empty) to
``$REPRO_RACECHECK_REPORT`` (default ``RACECHECK_REPORT.json``) at
session end, for ``repro-racecheck --replay``.
"""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.types import SqlType

_RACECHECK = os.environ.get("REPRO_RACECHECK") == "1"


def pytest_configure(config):
    if _RACECHECK:
        from repro.verify.concurrency import enable_racecheck
        enable_racecheck()


def pytest_sessionfinish(session, exitstatus):
    if _RACECHECK:
        from repro.verify.concurrency import write_report
        path = os.environ.get("REPRO_RACECHECK_REPORT",
                              "RACECHECK_REPORT.json")
        write_report(path)

# A small weighted digraph used across tests:
#
#   1 -> 2 (0.5)   1 -> 3 (0.5)   2 -> 3 (1.0)   3 -> 1 (1.0)   4 -> 1 (1.0)
#
# Every node has an incoming edge except 4; weights on 1's edges are
# out-degree-normalized.
SMALL_EDGES = [
    (1, 2, 0.5),
    (1, 3, 0.5),
    (2, 3, 1.0),
    (3, 1, 1.0),
    (4, 1, 1.0),
]

# Availability used by PR-VS / SSSP-VS tests: node 3 is unavailable.
SMALL_STATUS = [(1, 1), (2, 1), (3, 0), (4, 1)]


@pytest.fixture
def morsel_constants(monkeypatch):
    """Setter for the morsel tuning constants for one test.

    ``morsel_constants(size=64, min_rows=0, workers=3)`` patches
    ``MORSEL_SIZE`` / ``MORSEL_MIN_ROWS`` / ``MORSEL_WORKERS`` in
    ``repro.execution.morsel`` (omitted ones keep their values) so small
    test tables reach the pool dispatch at chosen chunk sizes."""
    from repro.execution import morsel

    def apply(size: int = morsel.MORSEL_SIZE,
              min_rows: int = morsel.MORSEL_MIN_ROWS,
              workers: int = morsel.MORSEL_WORKERS) -> None:
        monkeypatch.setattr(morsel, "MORSEL_SIZE", size)
        monkeypatch.setattr(morsel, "MORSEL_MIN_ROWS", min_rows)
        monkeypatch.setattr(morsel, "MORSEL_WORKERS", workers)
    return apply


@pytest.fixture
def db() -> Database:
    """An empty database."""
    return Database()


@pytest.fixture
def graph_db() -> Database:
    """A database with the small edges table loaded."""
    database = Database()
    database.create_table("edges", [("src", SqlType.INTEGER),
                                    ("dst", SqlType.INTEGER),
                                    ("weight", SqlType.FLOAT)])
    database.load_rows("edges", SMALL_EDGES)
    return database


@pytest.fixture
def graph_vs_db(graph_db: Database) -> Database:
    """The small graph plus the vertexStatus table."""
    graph_db.create_table("vertexStatus", [("node", SqlType.INTEGER),
                                           ("status", SqlType.INTEGER)])
    graph_db.load_rows("vertexStatus", SMALL_STATUS)
    return graph_db


@pytest.fixture
def people_db() -> Database:
    """A small non-graph table for general SQL tests."""
    database = Database()
    database.create_table("people", [("id", SqlType.INTEGER),
                                     ("name", SqlType.TEXT),
                                     ("age", SqlType.INTEGER),
                                     ("city", SqlType.TEXT)])
    database.load_rows("people", [
        (1, "ada", 36, "london"),
        (2, "grace", 45, "new york"),
        (3, "alan", 41, "london"),
        (4, "edsger", 72, None),
        (5, "barbara", None, "boston"),
    ])
    return database

"""Shared fixtures: small graphs and pre-loaded databases.

Also wires the dynamic lockset race detector: running the suite with
``REPRO_RACECHECK=1`` instruments the guarded classes for the whole
session and writes the collected report (even when empty) to
``$REPRO_RACECHECK_REPORT`` (default ``RACECHECK_REPORT.json``) at
session end, for ``repro-racecheck --replay``.

At session end, any live descendant process of the test session fails
the run: it is named and killed, so a test that leaks a worker cannot
pass unnoticed.
"""

from __future__ import annotations

import importlib.util
import os
import signal
import sys
from pathlib import Path

import pytest

from repro import Database
from repro.types import SqlType

_RACECHECK = os.environ.get("REPRO_RACECHECK") == "1"


def pytest_configure(config):
    if _RACECHECK:
        from repro.verify.concurrency import enable_racecheck
        enable_racecheck()


def _live_descendants(root: int) -> list[int]:
    """Pids of every non-zombie descendant of ``root``, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _command_line(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode().strip()
    except OSError:
        return "?"


def pytest_sessionfinish(session, exitstatus):
    if _RACECHECK:
        from repro.verify.concurrency import write_report
        path = os.environ.get("REPRO_RACECHECK_REPORT",
                              "RACECHECK_REPORT.json")
        write_report(path)
    if not os.path.isdir("/proc"):
        return
    leaked = _live_descendants(os.getpid())
    for pid in leaked:
        print(f"\nkilled leaked process {pid}: {_command_line(pid)}",
              file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in leaked:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    if leaked:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED

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
def figures(monkeypatch):
    """``benchmarks/figures.py`` loaded as a module; the ``sys.path``
    entries it adds at import are undone after the test."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "figures.py"
    spec = importlib.util.spec_from_file_location("figures", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "figures", module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


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

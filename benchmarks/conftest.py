"""Shared benchmark fixtures: session-scoped datasets at bench scale.

Scale is controlled by REPRO_BENCH_SCALE (default 1.0): the paper's graphs
are far larger than a laptop-friendly run, so the defaults are scaled-down
graphs with the paper's edge/node ratios (see DESIGN.md).
"""

from __future__ import annotations

import os

import pytest

from repro import Database
from repro.datasets import dblp_like, load_graph, pokec_like

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

DBLP_NODES = int(6000 * SCALE)
POKEC_NODES = int(2200 * SCALE)
FF_NODES = int(150000 * SCALE)
ITERATIONS = 25  # the paper's §VII-B/C/E iteration count


def build_db(spec, with_vertex_status=True) -> Database:
    db = Database()
    load_graph(db, spec, with_vertex_status=with_vertex_status)
    return db


@pytest.fixture(scope="session")
def dblp_db():
    """DBLP-shaped graph (sparse, collaboration-network ratio)."""
    return build_db(dblp_like(nodes=DBLP_NODES))


@pytest.fixture(scope="session")
def pokec_db():
    """Pokec-shaped graph (dense, social-network ratio)."""
    return build_db(pokec_like(nodes=POKEC_NODES))


@pytest.fixture(scope="session")
def ff_db():
    """A wide graph for the FF query, whose iterative part is per-row."""
    return build_db(dblp_like(nodes=FF_NODES, seed=21),
                    with_vertex_status=False)


@pytest.fixture(autouse=True)
def reset_options(dblp_db, pokec_db, ff_db):
    """Every benchmark starts from default optimization settings."""
    yield
    for db in (dblp_db, pokec_db, ff_db):
        db.set_option("enable_rename", True)
        db.set_option("enable_common_results", True)
        db.set_option("enable_predicate_pushdown", True)

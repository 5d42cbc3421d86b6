"""Dataset file IO: SNAP edge lists.

The paper evaluates on SNAP graphs (DBLP, Pokec, web-Google).  We cannot
redistribute those, but anyone who downloads them can load the files
directly: :func:`read_snap_edge_list` parses the SNAP text format
(``#``-comment header, whitespace-separated ``FromNodeId ToNodeId``
pairs) and :func:`load_edge_file` puts the result into a Database with
the out-degree-normalized weights the PR query expects.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..engine import Database
from ..errors import ReproError
from ..types import SqlType


def read_snap_edge_list(path: str | Path,
                        directed: bool = True
                        ) -> list[tuple[int, int]]:
    """Parse a SNAP-format edge list: ``# comments`` then ``src<TAB>dst``.

    Undirected SNAP files (e.g. DBLP collaboration) list each edge once;
    ``directed=False`` emits both directions, matching how the paper's
    queries traverse them.
    """
    edges: list[tuple[int, int]] = []
    path = Path(path)
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ReproError(
                    f"{path.name}:{line_number}: expected "
                    f"'src dst', got {line!r}")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError as error:
                raise ReproError(
                    f"{path.name}:{line_number}: non-integer node id "
                    f"in {line!r}") from error
            edges.append((src, dst))
            if not directed and src != dst:
                edges.append((dst, src))
    return edges


def normalize_weights(edges: Sequence[tuple[int, int]]
                      ) -> list[tuple[int, int, float]]:
    """Attach weight = 1/outdegree(src) to every edge (the PR query's
    random-walk weighting)."""
    if not edges:
        return []
    sources = np.array([e[0] for e in edges], dtype=np.int64)
    unique, inverse = np.unique(sources, return_inverse=True)
    outdegree = np.bincount(inverse)
    weights = 1.0 / outdegree[inverse]
    return [(int(s), int(d), float(w))
            for (s, d), w in zip(edges, weights)]


def load_edge_file(db: Database, path: str | Path,
                   table: str = "edges", directed: bool = True,
                   weighted_by_outdegree: bool = True) -> int:
    """Create and fill the paper's ``edges`` table from a SNAP file.

    Returns the number of edges loaded.
    """
    pairs = read_snap_edge_list(path, directed=directed)
    if weighted_by_outdegree:
        rows = normalize_weights(pairs)
    else:
        rows = [(s, d, 1.0) for s, d in pairs]
    db.create_table(table, [("src", SqlType.INTEGER),
                            ("dst", SqlType.INTEGER),
                            ("weight", SqlType.FLOAT)])
    return db.load_rows(table, rows)

"""Synthetic graph datasets standing in for the paper's SNAP graphs.

The paper evaluates on DBLP (317,080 nodes / 1,049,866 edges ≈ 3.3
edges/node), Pokec (1,632,803 / 30,622,564 ≈ 18.8 edges/node) and the
Google web graph.  We cannot ship those, so the generators below produce
power-law-ish graphs with the same *edge-to-node ratio* at configurable
scale.  The ratio is what the optimizations are sensitive to — §VII-C
explains the DBLP/Pokec difference in Fig. 9 through the relative size of
``vertexStatus`` (∝ nodes) versus the join work (∝ edges).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from ..execution.kernels import unique_sorted


@dataclasses.dataclass(frozen=True)
class GraphSpec:
    """Shape parameters for a synthetic graph."""

    name: str
    nodes: int
    edges_per_node: float
    seed: int = 7

    @property
    def edges(self) -> int:
        return int(self.nodes * self.edges_per_node)


# The paper's three datasets, at the paper's edge/node ratios.  ``scale``
# in the factory functions divides node counts to fit a laptop run.
DBLP_RATIO = 1_049_866 / 317_080        # ≈ 3.31
POKEC_RATIO = 30_622_564 / 1_632_803    # ≈ 18.75
WEB_GOOGLE_RATIO = 5_105_039 / 875_713  # ≈ 5.83


def dblp_like(nodes: int = 4_000, seed: int = 7) -> GraphSpec:
    """A DBLP-shaped graph: sparse collaboration-network ratio."""
    return GraphSpec("dblp-like", nodes, DBLP_RATIO, seed)


def pokec_like(nodes: int = 2_000, seed: int = 11) -> GraphSpec:
    """A Pokec-shaped graph: dense social-network ratio."""
    return GraphSpec("pokec-like", nodes, POKEC_RATIO, seed)


def web_google_like(nodes: int = 3_000, seed: int = 13) -> GraphSpec:
    """A web-graph-shaped dataset (Google web crawl ratio)."""
    return GraphSpec("web-google-like", nodes, WEB_GOOGLE_RATIO, seed)


def generate_edges(spec: GraphSpec,
                   weighted_by_outdegree: bool = True
                   ) -> list[tuple[int, int, float]]:
    """Directed edges (src, dst, weight) with a heavy-tailed out-degree.

    Destination choice follows a Zipf-like preferential attachment so the
    in-degree is also skewed, as in real social/web graphs.  When
    ``weighted_by_outdegree`` is set, weight = 1/outdegree(src) — the
    transition-matrix weighting the paper's PR query expects.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.nodes
    # The connectivity chain below contributes n edges; draw the rest at
    # random so the total honours the spec's edge/node ratio.  Oversample
    # slightly to compensate for duplicate-edge removal.
    m = max(int((spec.edges - n) * 1.08), 0)

    # Heavy-tailed target popularity: rank r gets probability ∝ 1/(r+1).
    ranks = np.arange(n, dtype=np.float64)
    popularity = 1.0 / (ranks + 1.0)
    popularity /= popularity.sum()
    # Shuffle so node id does not encode popularity.
    permutation = rng.permutation(n)

    sources = rng.integers(0, n, size=m, endpoint=False)
    targets = permutation[rng.choice(n, size=m, p=popularity)]

    # Drop self loops and duplicate edges.
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    pair_codes = sources.astype(np.int64) * n + targets
    _, unique_index = unique_sorted(pair_codes, return_index=True)
    unique_index = np.sort(unique_index)
    sources, targets = sources[unique_index], targets[unique_index]

    # Guarantee weak connectivity of node ids: chain every node once.
    chain_src = np.arange(n, dtype=np.int64)
    chain_dst = np.roll(chain_src, -1)
    sources = np.concatenate([sources, chain_src])
    targets = np.concatenate([targets, chain_dst])
    pair_codes = sources * np.int64(n) + targets
    _, unique_index = unique_sorted(pair_codes, return_index=True)
    unique_index = np.sort(unique_index)
    sources, targets = sources[unique_index], targets[unique_index]

    if weighted_by_outdegree:
        outdegree = np.bincount(sources, minlength=n)
        weights = 1.0 / outdegree[sources]
    else:
        weights = rng.uniform(0.1, 2.0, size=len(sources))

    return [(int(s), int(t), float(w))
            for s, t, w in zip(sources, targets, weights)]


def generate_vertex_status(spec: GraphSpec,
                           available_fraction: float = 0.8
                           ) -> list[tuple[int, int]]:
    """The <node, status> availability table of the PR-VS query (§V-A).

    One row per node; ``status`` is 1 (available) for roughly
    ``available_fraction`` of nodes and 0 otherwise.
    """
    rng = np.random.default_rng(spec.seed + 1)
    status = (rng.uniform(size=spec.nodes) < available_fraction)
    return [(i, int(flag)) for i, flag in enumerate(status)]


def edge_list_stats(edges: list[tuple[int, int, float]]) -> dict[str, float]:
    """Quick shape summary used by tests and example scripts."""
    sources = np.array([e[0] for e in edges])
    targets = np.array([e[1] for e in edges])
    nodes = unique_sorted(np.concatenate([sources, targets]))
    out_degrees = np.bincount(sources, minlength=int(nodes.max()) + 1)
    return {
        "nodes": int(len(nodes)),
        "edges": int(len(edges)),
        "edges_per_node": len(edges) / len(nodes),
        "max_out_degree": int(out_degrees.max()),
    }

"""Synthetic datasets replacing the paper's SNAP graphs (see DESIGN.md)."""

from .generators import (
    DBLP_RATIO,
    POKEC_RATIO,
    WEB_GOOGLE_RATIO,
    GraphSpec,
    dblp_like,
    edge_list_stats,
    generate_edges,
    generate_vertex_status,
    pokec_like,
    web_google_like,
)
from .io import (
    load_edge_file,
    normalize_weights,
    read_snap_edge_list,
)
from .loader import fresh_database, load_graph

__all__ = [
    "DBLP_RATIO",
    "POKEC_RATIO",
    "WEB_GOOGLE_RATIO",
    "GraphSpec",
    "dblp_like",
    "edge_list_stats",
    "generate_edges",
    "generate_vertex_status",
    "pokec_like",
    "web_google_like",
    "fresh_database",
    "load_graph",
    "load_edge_file",
    "normalize_weights",
    "read_snap_edge_list",
]

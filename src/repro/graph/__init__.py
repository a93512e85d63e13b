"""Graph substrate for the data-sharing analysis (§4.3).

A small self-contained graph library — the paper ran its network analysis on
Spark; we provide the same primitives over a CSR adjacency structure:
connected components (min-label propagation), BFS distances, exact and
double-sweep diameter, degree statistics, closeness centrality and Brandes
betweenness.  Every BFS is one multi-source sweep that runs up to 64
sources at once in the bits of a ``uint64`` per vertex.

``networkx`` is intentionally *not* used here — it serves only as a test
oracle in the test suite.
"""

from repro.graph.core import Graph
from repro.graph.components import ConnectedComponents, connected_components
from repro.graph.traversal import bfs_distances, double_sweep_diameter, exact_diameter, eccentricity
from repro.graph.centrality import betweenness_centrality, closeness_centrality, degree_centrality

__all__ = [
    "Graph",
    "ConnectedComponents",
    "connected_components",
    "bfs_distances",
    "double_sweep_diameter",
    "exact_diameter",
    "eccentricity",
    "betweenness_centrality",
    "closeness_centrality",
    "degree_centrality",
]

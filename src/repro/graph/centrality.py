"""Vertex centrality measures.

The paper identifies six projects and six users "positioned at the center of
the largest connected component" (§4.3.2).  We provide the standard trio:

* degree centrality — the quick screen;
* closeness centrality — vertices with the smallest average hop distance,
  the measure that best matches "from those centric entities, all other
  entities can be reached within 10 hops";
* betweenness centrality (Brandes' algorithm) — the brokerage measure that
  surfaces the liaison role the paper attributes to the OLCF staff group.
"""

from __future__ import annotations

import numpy as np

from repro.graph.core import Graph
from repro.graph.traversal import _profile


def degree_centrality(graph: Graph) -> np.ndarray:
    """Degree divided by (n - 1); zeros for a singleton graph."""
    if graph.n <= 1:
        return np.zeros(graph.n, dtype=np.float64)
    return graph.degree().astype(np.float64) / (graph.n - 1)


def closeness_centrality(graph: Graph, vertices: np.ndarray | None = None) -> np.ndarray:
    """Harmonic-free classic closeness, component-scaled (Wasserman–Faust).

    For vertex v with ``r`` reachable vertices out of ``n`` total:
    ``C(v) = ((r - 1) / (n - 1)) * ((r - 1) / sum_of_distances)``, which is
    also what networkx computes with ``wf_improved=True`` — letting the test
    suite cross-check against it directly.  One BFS sweep serves 64
    vertices at once and yields each one's reach and distance sum.
    """
    vertices = np.arange(graph.n) if vertices is None else np.asarray(vertices, dtype=np.int64)
    out = np.zeros(graph.n, dtype=np.float64)
    _, reached, total = _profile(graph, vertices)  # reached = r - 1
    ok = reached > 0
    r1 = reached[ok]
    out[vertices[ok]] = (r1 / (graph.n - 1)) * (r1 / total[ok])
    return out


def betweenness_centrality(graph: Graph, normalized: bool = True) -> np.ndarray:
    """Brandes' exact betweenness for unweighted graphs, O(n·m)."""
    n = graph.n
    bc = np.zeros(n, dtype=np.float64)
    indptr, indices = graph.indptr, graph.indices
    for s in range(n):
        # single-source shortest-path DAG
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        order: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in indices[indptr[v] : indptr[v + 1]]:
                w = int(w)
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # dependency accumulation, reverse BFS order
        delta = np.zeros(n, dtype=np.float64)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
        del preds
    bc /= 2.0  # each undirected pair counted twice
    if normalized and n > 2:
        bc /= (n - 1) * (n - 2) / 2.0
    return bc

"""Frozen copy of the per-vertex graph algorithms the multi-source sweep replaced.

Kept verbatim (``Graph.subgraph`` as a free function of ``graph``) as the
reference that ``test_sweep_equivalence.py`` compares the sweep against.
Do not edit: the point is that this code does not change.
"""

from __future__ import annotations

import numpy as np

from repro.graph.core import Graph

UNREACHED = -1


# -- repro.graph.traversal ---------------------------------------------------


def bfs_distances(graph: Graph, source: int | np.ndarray) -> np.ndarray:
    """Hop distances from ``source`` (or the nearest of several sources).

    Unreachable vertices get :data:`UNREACHED`.
    """
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    frontier = np.atleast_1d(np.asarray(source, dtype=np.int64))
    if frontier.size and (frontier.min() < 0 or frontier.max() >= graph.n):
        raise ValueError("source vertex out of range")
    dist[frontier] = 0
    level = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        level += 1
        # gather all neighbors of the frontier in one shot
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        nbrs = np.concatenate(
            [indices[s:e] for s, e in zip(starts, ends)]
        ) if frontier.size > 1 else indices[starts[0]:ends[0]]
        fresh = nbrs[dist[nbrs] == UNREACHED]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = level
        frontier = fresh
    return dist


def eccentricity(graph: Graph, v: int) -> int:
    """Largest finite hop distance from ``v``."""
    dist = bfs_distances(graph, v)
    reached = dist[dist >= 0]
    return int(reached.max())


def exact_diameter(graph: Graph, vertices: np.ndarray | None = None) -> int:
    """Exact diameter by all-pairs BFS over ``vertices`` (one component).

    O(n·m) — fine for the file generation network (~1.7 K vertices).
    """
    if vertices is None:
        vertices = np.arange(graph.n, dtype=np.int64)
    best = 0
    for v in vertices:
        dist = bfs_distances(graph, int(v))
        local = dist[vertices]
        local = local[local >= 0]
        if local.size:
            best = max(best, int(local.max()))
    return best


def double_sweep_diameter(graph: Graph, start: int) -> int:
    """Double-sweep lower bound on the diameter (exact on trees).

    BFS from ``start``, then BFS again from the farthest vertex found — the
    classic cheap estimator used before committing to all-pairs BFS.
    """
    dist1 = bfs_distances(graph, start)
    reach = np.flatnonzero(dist1 >= 0)
    far = reach[np.argmax(dist1[reach])]
    dist2 = bfs_distances(graph, int(far))
    reached = dist2[dist2 >= 0]
    return int(reached.max())


def radius_from(graph: Graph, sources: np.ndarray, within: np.ndarray | None = None) -> int:
    """Max hops needed to reach every vertex of ``within`` from the nearest source.

    Implements the paper's centrality claim: "from those centric entities,
    all other entities can be reached within 10 hops".
    """
    dist = bfs_distances(graph, np.asarray(sources, dtype=np.int64))
    scope = dist if within is None else dist[np.asarray(within, dtype=np.int64)]
    scope = scope[scope >= 0]
    if scope.size == 0:
        return 0
    return int(scope.max())


# -- repro.graph.centrality --------------------------------------------------


def closeness_centrality(graph: Graph, vertices: np.ndarray | None = None) -> np.ndarray:
    """Harmonic-free classic closeness, component-scaled (Wasserman–Faust).

    For vertex v with ``r`` reachable vertices out of ``n`` total:
    ``C(v) = ((r - 1) / (n - 1)) * ((r - 1) / sum_of_distances)``, which is
    also what networkx computes with ``wf_improved=True`` — letting the test
    suite cross-check against it directly.
    """
    if vertices is None:
        vertices = np.arange(graph.n, dtype=np.int64)
    out = np.zeros(graph.n, dtype=np.float64)
    if graph.n <= 1:
        return out
    for v in vertices:
        dist = bfs_distances(graph, int(v))
        reached = dist > 0
        r = int(reached.sum()) + 1  # include v itself
        if r <= 1:
            continue
        total = float(dist[reached].sum())
        out[v] = ((r - 1) / (graph.n - 1)) * ((r - 1) / total)
    return out


# -- repro.graph.unionfind ---------------------------------------------------


class UnionFind:
    """Array-backed disjoint sets over ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_sets = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = int(parent[x])
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_sets -= 1
        return True

    def union_edges(self, edges: np.ndarray) -> None:
        """Union along every edge of an ``(m, 2)`` array."""
        for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
            self.union(int(a), int(b))

    def groups(self) -> np.ndarray:
        """Canonical root label per element (all elements, vectorized finish)."""
        roots = np.empty(self.parent.size, dtype=np.int64)
        for i in range(self.parent.size):
            roots[i] = self.find(i)
        return roots


# -- repro.graph.components --------------------------------------------------


def connected_components(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Label components with union-find over the CSR edge list.

    Returns ``(labels, sizes)``, the two fields of ``ConnectedComponents``.
    """
    uf = UnionFind(graph.n)
    # iterate each undirected edge once via the CSR upper triangle
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if v > u:
                uf.union(u, int(v))
    roots = uf.groups()
    _, labels = np.unique(roots, return_inverse=True)
    sizes = np.bincount(labels)
    return labels, sizes


def largest_members(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``ConnectedComponents.largest_members``: argmax label's vertices."""
    return np.flatnonzero(labels == int(np.argmax(sizes)))


# -- repro.graph.core ----------------------------------------------------------


def subgraph(graph: Graph, vertices: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Induced subgraph.

    Returns ``(graph, vertices)`` where row ``i`` of the new graph is
    ``vertices[i]`` of the original.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    remap = np.full(graph.n, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    edges = []
    for new_u, old_u in enumerate(vertices):
        nbrs = graph.neighbors(int(old_u))
        mapped = remap[nbrs]
        ok = mapped >= 0
        if ok.any():
            sel = mapped[ok]
            edges.append(
                np.column_stack([np.full(sel.size, new_u, dtype=np.int64), sel])
            )
    if edges:
        edge_arr = np.concatenate(edges)
    else:
        edge_arr = np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(vertices.size, edge_arr), vertices

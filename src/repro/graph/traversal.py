"""BFS-based traversal: distances, eccentricity, diameter.

The paper measures the largest connected component's diameter (18) and the
hop radius from the central entities (≈10, "about 55% less than the
diameter", §4.3.2).  Every BFS is one multi-source sweep over the CSR arrays
(:func:`_levels`; Then et al., "The More the Merrier", VLDB 2015): a vertex
holds a ``uint64`` mask of BFS lanes, and a level ORs its neighbours' masks.
Nearest-source BFS is one lane; exact diameter and closeness run 64 sources
per sweep.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graph.core import Graph

UNREACHED = -1

#: BFS lanes per sweep: one bit of a vertex's ``uint64`` mask each
_LANES = 64


def _levels(graph: Graph, lanes: np.ndarray) -> Iterator[np.ndarray]:
    """Level-synchronous BFS of up to 64 lanes at once.

    ``lanes[v]`` has bit ``i`` set when ``v`` is a source of lane ``i``.
    Yields, for levels 1, 2, … in order, the mask of lanes that first reach
    each vertex at that level; stops at the first empty level.  A level
    costs O(edges) however small the frontier is.
    """
    indptr, indices = graph.indptr, graph.indices
    rows = np.flatnonzero(np.diff(indptr))  # reduceat needs non-empty rows
    starts = indptr[rows]
    seen = lanes.copy()
    frontier = lanes
    while rows.size:
        fresh = np.zeros_like(seen)
        fresh[rows] = np.bitwise_or.reduceat(frontier[indices], starts)
        fresh &= ~seen
        if not fresh.any():
            return
        seen |= fresh
        yield fresh
        frontier = fresh


def _sources(n: int, source: int | np.ndarray) -> np.ndarray:
    """``source`` as a 1-D vertex array, rejecting ids outside ``[0, n)``."""
    sources = np.atleast_1d(np.asarray(source, dtype=np.int64))
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source vertex out of range")
    return sources


def _profile(
    graph: Graph, sources: np.ndarray, targets: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per source: eccentricity, reach and distance sum over ``targets``.

    One BFS per source, 64 sources per sweep; a popcount per lane of each
    level counts the targets that lane first reaches there.  ``targets``
    defaults to every vertex; a source never counts as reached by itself.
    """
    sources = _sources(graph.n, sources)
    ecc, reach, dist_sum = (np.zeros(sources.size, dtype=np.int64) for _ in range(3))
    for lo in range(0, sources.size, _LANES):
        batch = slice(lo, lo + _LANES)
        k = sources[batch].size
        lanes = np.zeros(graph.n, dtype=np.uint64)
        np.bitwise_or.at(lanes, sources[batch], np.uint64(1) << np.arange(k, dtype=np.uint64))
        for level, fresh in enumerate(_levels(graph, lanes), 1):
            hit = fresh if targets is None else fresh[targets]
            # popcount per lane: column i of the unpacked masks is lane i's bit
            bits = np.unpackbits(hit[hit != 0].astype("<u8").view(np.uint8), bitorder="little")
            counts = bits.reshape(-1, _LANES).sum(axis=0, dtype=np.int64)[:k]
            reach[batch] += counts
            dist_sum[batch] += level * counts
            ecc[batch][counts > 0] = level
    return ecc, reach, dist_sum


def bfs_distances(graph: Graph, source: int | np.ndarray) -> np.ndarray:
    """Hop distances from ``source`` (or the nearest of several sources).

    Unreachable vertices get :data:`UNREACHED`.
    """
    sources = _sources(graph.n, source)
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    dist[sources] = 0
    lanes = np.zeros(graph.n, dtype=np.uint64)
    lanes[sources] = 1  # one lane holds every source: nearest-source distance
    for level, fresh in enumerate(_levels(graph, lanes), 1):
        dist[fresh != 0] = level
    return dist


def eccentricity(graph: Graph, v: int) -> int:
    """Largest finite hop distance from ``v``."""
    dist = bfs_distances(graph, v)
    reached = dist[dist >= 0]
    return int(reached.max())


def exact_diameter(graph: Graph, vertices: np.ndarray | None = None) -> int:
    """Largest hop distance between two members of ``vertices``.

    Paths may run through the whole graph; only their endpoints must be in
    ``vertices`` (default: every vertex).  One BFS per member, 64 members
    per sweep, counting only members as targets.
    """
    sources = np.arange(graph.n) if vertices is None else vertices
    ecc, _, _ = _profile(graph, sources, targets=vertices)
    return int(ecc.max(initial=0))


def double_sweep_diameter(graph: Graph, start: int) -> int:
    """Double-sweep lower bound on the diameter (exact on trees).

    BFS from ``start``, then BFS again from the farthest vertex found — the
    classic cheap estimator used before committing to the exact diameter.
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

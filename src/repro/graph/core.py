"""Undirected graph in compressed sparse row (CSR) form.

Vertices are dense integers ``0..n-1``; an external label table (the
analysis layer's user/project identities) maps them back.  CSR keeps the
BFS sweeps over the file generation network allocation-free and
cache-friendly, per the vectorization guidance of the scientific-Python
optimization notes.
"""

from __future__ import annotations

import numpy as np


class Graph:
    """Immutable undirected graph.

    Build with :meth:`from_edges`; self-loops are dropped and duplicate
    edges are collapsed, matching the semantics of the paper's user–project
    affiliation graph (an affiliation either exists or it does not).
    """

    def __init__(self, n_vertices: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = int(n_vertices)
        self.indptr = indptr
        self.indices = indices

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray) -> "Graph":
        """Build from an ``(m, 2)`` int array of undirected edges."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge endpoint outside [0, n_vertices)")
        # drop self loops
        edges = edges[edges[:, 0] != edges[:, 1]]
        # canonicalize and deduplicate
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        if lo.size:
            key = lo * np.int64(n_vertices) + hi
            _, keep = np.unique(key, return_index=True)
            lo, hi = lo[keep], hi[keep]
        # symmetrize
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_vertices, indptr, dst)

    @classmethod
    def empty(cls, n_vertices: int) -> "Graph":
        return cls(
            n_vertices,
            np.zeros(n_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    # -- accessors -----------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor list of one vertex (a CSR slice — a view, not a copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of one vertex, or the full degree vector."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def n_edges(self) -> int:
        return int(self.indices.size // 2)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).any())

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph: the edges with both ends in ``vertices``.

        Returns ``(graph, vertices)`` where row ``i`` of the new graph is
        ``vertices[i]`` of the original.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[vertices] = np.arange(vertices.size)
        src = remap[np.repeat(np.arange(self.n), np.diff(self.indptr))]
        dst = remap[self.indices]
        keep = (src >= 0) & (dst >= 0)
        return Graph.from_edges(vertices.size, np.column_stack([src[keep], dst[keep]])), vertices

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph(n={self.n}, m={self.n_edges})"

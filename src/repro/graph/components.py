"""Connected components of the file generation network (§4.3.2, Table 3)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.core import Graph


@dataclass(frozen=True)
class ConnectedComponents:
    """Component labelling plus the derived statistics the paper reports.

    Components are numbered ``0..k-1`` in the order of their smallest
    vertex: the component holding vertex 0 is label 0, and so on.
    """

    labels: np.ndarray  # dense component id per vertex, 0..k-1
    sizes: np.ndarray  # vertex count per component id

    @property
    def count(self) -> int:
        return int(self.sizes.size)

    @property
    def largest_label(self) -> int:
        """Label of the largest component (lowest label on ties); -1 if there are none."""
        return int(np.argmax(self.sizes)) if self.sizes.size else -1

    @property
    def largest_size(self) -> int:
        return int(self.sizes.max()) if self.sizes.size else 0

    def members(self, label: int) -> np.ndarray:
        """Vertex ids belonging to one component."""
        return np.flatnonzero(self.labels == label)

    def largest_members(self) -> np.ndarray:
        return self.members(self.largest_label)

    def coverage(self) -> float:
        """Fraction of all vertices inside the largest component (paper: 72%)."""
        total = int(self.labels.size)
        return self.largest_size / total if total else 0.0

    def size_distribution(self) -> dict[int, int]:
        """Component size → number of components of that size (Table 3)."""
        sizes, counts = np.unique(self.sizes, return_counts=True)
        return {int(s): int(c) for s, c in zip(sizes, counts)}


def connected_components(graph: Graph) -> ConnectedComponents:
    """Label components by min-label propagation with pointer jumping.

    Each round, a vertex and the vertex its label names both take the
    smallest label among the vertex's neighbours, then every vertex takes
    its label's label.  Labels only fall, and a round that changes nothing
    leaves each vertex labelled with its component's smallest vertex.
    """
    rows = np.flatnonzero(np.diff(graph.indptr))  # reduceat needs non-empty rows
    starts = graph.indptr[rows]
    roots = np.arange(graph.n, dtype=np.int64)
    while rows.size:
        nbr_min = np.minimum.reduceat(roots[graph.indices], starts)
        hooked = roots.copy()
        np.minimum.at(hooked, roots[rows], nbr_min)  # hook the label's whole tree
        hooked[rows] = np.minimum(hooked[rows], nbr_min)
        hooked = hooked[hooked]  # pointer jumping: take the label's label
        if np.array_equal(hooked, roots):
            break
        roots = hooked
    _, labels = np.unique(roots, return_inverse=True)
    sizes = np.bincount(labels)
    return ConnectedComponents(labels=labels, sizes=sizes)

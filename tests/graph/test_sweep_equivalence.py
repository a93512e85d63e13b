"""The multi-source sweep against a frozen copy of the per-vertex code it replaced.

``_frozen_graph.py`` holds the one-BFS-per-vertex ``exact_diameter`` and
``closeness_centrality``, the union-find ``connected_components`` and the
per-vertex ``Graph.subgraph``.  Every result must match bit for bit, on
hypothesis graphs (disconnected, with isolated vertices, n in {0, 1, 2},
and 1/63/64/65/130 sources so that lane and batch edges are hit) and on the
seed-1, 2,500-user file generation network.

One intended difference: component labels are now numbered by each
component's smallest vertex, where union-find numbered them by root id.
The partition is the same; ``largest_members()`` is the same whenever the
largest component is unique, and on a tie it is now the tied component
holding the smallest vertex.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.network import build_network
from repro.graph.centrality import closeness_centrality
from repro.graph.components import connected_components
from repro.graph.core import Graph
from repro.graph.traversal import (
    bfs_distances,
    double_sweep_diameter,
    eccentricity,
    exact_diameter,
    radius_from,
)
from repro.synth.population import generate_population
from tests.graph import _frozen_graph as frozen

#: sweep widths around the 64-lane boundary, and a third batch
SOURCE_COUNTS = (1, 63, 64, 65, 130)


def _graph(draw, n: int) -> Graph:
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n)) if n else []
    return Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 140)))
    return _graph(draw, n)


@st.composite
def graphs_with_sources(draw) -> tuple[Graph, np.ndarray]:
    """A graph and ``k`` distinct vertices in shuffled order, k in SOURCE_COUNTS."""
    k = draw(st.sampled_from(SOURCE_COUNTS))
    n = draw(st.integers(k, k + 20))
    order = draw(st.permutations(range(n)))
    return _graph(draw, n), np.array(order[:k], dtype=np.int64)


@st.composite
def graphs_with_subset(draw) -> tuple[Graph, np.ndarray]:
    """A graph and an arbitrary set of distinct vertices (possibly empty)."""
    g = draw(graphs())
    order = draw(st.permutations(range(g.n)))
    k = draw(st.integers(0, g.n))
    return g, np.array(order[:k], dtype=np.int64)


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Each vertex's component as the component's smallest vertex."""
    n = labels.size
    smallest = np.full(int(labels.max(initial=-1)) + 1, n, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels]


def _assert_components_match(g: Graph) -> None:
    cc = connected_components(g)
    labels, sizes = frozen.connected_components(g)
    assert np.array_equal(_canonical(cc.labels), _canonical(labels))
    assert sorted(cc.sizes.tolist()) == sorted(sizes.tolist())
    # numbered by smallest member: first appearances are 0, 1, 2, ...
    _, first = np.unique(cc.labels, return_index=True)
    assert np.array_equal(cc.labels[np.sort(first)], np.arange(cc.count))
    if g.n == 0:
        assert cc.largest_members().size == 0
    elif (sizes == sizes.max()).sum() == 1:
        assert np.array_equal(cc.largest_members(), frozen.largest_members(labels, sizes))
    else:
        tied = np.flatnonzero(_canonical(cc.labels) == np.arange(g.n))  # component minima
        tied = tied[cc.sizes[cc.labels[tied]] == cc.largest_size]
        assert cc.largest_members()[0] == tied.min()


def _assert_traversal_match(g: Graph) -> None:
    assert np.array_equal(closeness_centrality(g), frozen.closeness_centrality(g))
    assert exact_diameter(g) == frozen.exact_diameter(g)
    for v in range(min(g.n, 8)):
        assert np.array_equal(bfs_distances(g, v), frozen.bfs_distances(g, v))
        assert eccentricity(g, v) == frozen.eccentricity(g, v)
        assert double_sweep_diameter(g, v) == frozen.double_sweep_diameter(g, v)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_whole_graph_matches_frozen(g):
    _assert_traversal_match(g)
    _assert_components_match(g)


@settings(max_examples=40, deadline=None)
@given(graphs_with_sources())
def test_source_batches_match_frozen(args):
    g, sources = args
    assert np.array_equal(
        closeness_centrality(g, sources), frozen.closeness_centrality(g, sources)
    )
    assert exact_diameter(g, sources) == frozen.exact_diameter(g, sources)
    assert radius_from(g, sources) == frozen.radius_from(g, sources)


@settings(max_examples=60, deadline=None)
@given(graphs_with_subset())
def test_subsets_match_frozen(args):
    g, subset = args
    assert exact_diameter(g, subset) == frozen.exact_diameter(g, subset)
    sub, verts = g.subgraph(subset)
    fsub, fverts = frozen.subgraph(g, subset)
    assert sub.n == fsub.n
    assert np.array_equal(sub.indptr, fsub.indptr)
    assert np.array_equal(sub.indices, fsub.indices)
    assert np.array_equal(verts, fverts)
    if subset.size:
        within = subset[: max(1, subset.size // 2)]
        assert radius_from(g, subset[:3], within) == frozen.radius_from(g, subset[:3], within)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_graphs_match_frozen(n):
    edges = np.array([[0, n - 1]]) if n else np.empty((0, 2))
    for g in (Graph.empty(n), Graph.from_edges(n, edges)):
        _assert_traversal_match(g)
        _assert_components_match(g)


@pytest.fixture(scope="module")
def network_lcc():
    """Largest component of the seed-1, 2,500-user file generation network."""
    population = generate_population(seed=1, n_users=2500)
    graph = build_network(SimpleNamespace(population=population)).graph
    return graph, connected_components(graph).largest_members()


def test_seed1_network_components_and_subgraph(network_lcc):
    graph, members = network_lcc
    _assert_components_match(graph)
    labels, sizes = frozen.connected_components(graph)
    assert np.array_equal(connected_components(graph).labels, labels)
    sub, _ = graph.subgraph(members)
    fsub, _ = frozen.subgraph(graph, members)
    assert np.array_equal(sub.indptr, fsub.indptr)
    assert np.array_equal(sub.indices, fsub.indices)


def test_seed1_network_diameter_and_closeness(network_lcc):
    graph, members = network_lcc
    sub, _ = graph.subgraph(members)
    closeness = closeness_centrality(sub)
    assert np.array_equal(closeness, frozen.closeness_centrality(sub))
    assert exact_diameter(sub) == frozen.exact_diameter(sub)
    central = np.argsort(closeness)[::-1][:12]
    assert radius_from(sub, central) == frozen.radius_from(sub, central)

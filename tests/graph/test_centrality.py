import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.centrality import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
)
from repro.graph.core import Graph


def _star(n):
    edges = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    return Graph.from_edges(n, edges)


def test_degree_centrality_star():
    g = _star(5)
    dc = degree_centrality(g)
    assert dc[0] == pytest.approx(1.0)
    assert dc[1] == pytest.approx(0.25)


def test_degree_centrality_singleton():
    g = Graph.empty(1)
    assert degree_centrality(g).tolist() == [0.0]


def test_closeness_star_center_highest():
    g = _star(6)
    cc = closeness_centrality(g)
    assert cc[0] == cc.max()
    assert cc[0] == pytest.approx(1.0)


def test_betweenness_star():
    g = _star(5)
    bc = betweenness_centrality(g)
    assert bc[0] == pytest.approx(1.0)  # all pairs route through the hub
    assert bc[1:].max() == pytest.approx(0.0)


def test_betweenness_path_middle():
    edges = np.array([[0, 1], [1, 2]])
    g = Graph.from_edges(3, edges)
    bc = betweenness_centrality(g, normalized=False)
    assert bc.tolist() == [0.0, 1.0, 0.0]


def _random_graph_strategy():
    return st.integers(min_value=2, max_value=15).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=1,
                max_size=40,
            ),
        )
    )


@settings(max_examples=20)
@given(_random_graph_strategy())
def test_closeness_against_networkx(args):
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(e for e in edges if e[0] != e[1])
    ours = closeness_centrality(g)
    theirs = nx.closeness_centrality(nxg, wf_improved=True)
    for v in range(n):
        assert ours[v] == pytest.approx(theirs[v], abs=1e-9)


@settings(max_examples=20)
@given(_random_graph_strategy())
def test_betweenness_against_networkx(args):
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(e for e in edges if e[0] != e[1])
    ours = betweenness_centrality(g, normalized=True)
    theirs = nx.betweenness_centrality(nxg, normalized=True)
    for v in range(n):
        assert ours[v] == pytest.approx(theirs[v], abs=1e-9)



@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=65, max_value=150).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=n,
                max_size=3 * n,
            ),
        )
    )
)
def test_closeness_against_networkx_multi_sweep(args):
    # more than 64 vertices: the sources span two or three BFS sweeps
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(e for e in edges if e[0] != e[1])
    ours = closeness_centrality(g)
    theirs = nx.closeness_centrality(nxg, wf_improved=True)
    for v in range(n):
        assert ours[v] == pytest.approx(theirs[v], abs=1e-9)

import numpy as np
import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import connected_components
from repro.graph.core import Graph


def test_two_components():
    g = Graph.from_edges(5, np.array([[0, 1], [2, 3]]))
    cc = connected_components(g)
    assert cc.count == 3  # {0,1}, {2,3}, {4}
    assert cc.largest_size == 2
    assert sorted(cc.size_distribution().items()) == [(1, 1), (2, 2)]


def test_fully_connected():
    g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
    cc = connected_components(g)
    assert cc.count == 1
    assert cc.coverage() == 1.0
    assert sorted(cc.largest_members().tolist()) == [0, 1, 2, 3]


def test_all_isolated():
    g = Graph.empty(7)
    cc = connected_components(g)
    assert cc.count == 7
    assert cc.largest_size == 1
    assert cc.coverage() == 1 / 7


def test_members_partitions_vertices():
    g = Graph.from_edges(6, np.array([[0, 1], [1, 2], [4, 5]]))
    cc = connected_components(g)
    all_members = np.concatenate([cc.members(k) for k in range(cc.count)])
    assert sorted(all_members.tolist()) == list(range(6))


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=60,
            ),
        )
    )
)
def test_against_networkx(args):
    n, edges = args
    edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = Graph.from_edges(n, edge_arr)
    cc = connected_components(g)

    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    nx_comps = sorted(len(c) for c in nx.connected_components(nxg))
    assert sorted(cc.sizes.tolist()) == nx_comps


def test_empty_graph_has_no_largest_component():
    cc = connected_components(Graph.empty(0))
    assert cc.count == 0
    assert cc.largest_size == 0
    assert cc.largest_label == -1
    assert cc.largest_members().size == 0
    assert cc.coverage() == 0.0


def test_labels_numbered_by_smallest_vertex():
    # components {1, 4}, {0, 3}, {2}: label order follows 0, 1, 2
    g = Graph.from_edges(5, np.array([[4, 1], [3, 0]]))
    cc = connected_components(g)
    assert cc.labels.tolist() == [0, 1, 2, 0, 1]

"""Unit tests for the network topology."""

import pytest

from repro.errors import TopologyError
from repro.network.spanning_tree import minimum_spanning_tree
from repro.network.topology import Topology, grid_topology


def test_grid_node_and_edge_counts():
    for k in [1, 2, 3, 5, 10]:
        g = grid_topology(k)
        assert g.n == k * k
        assert g.edge_count == 2 * k * (k - 1)


def test_grid_corner_degree():
    g = grid_topology(4)
    assert g.degree(0) == 2           # corner
    assert g.degree(1) == 3           # edge
    assert g.degree(5) == 4           # interior


def test_grid_neighbors_of_centre():
    g = grid_topology(3)
    assert g.neighbors(4) == [1, 3, 5, 7]


# connectivity has one verdict: whether the graph has a spanning tree
def test_grid_is_connected():
    assert sum(1 for _ in minimum_spanning_tree(grid_topology(6)).edges()) == 35


def test_disconnected_graph_detected():
    t = Topology(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError, match="disconnected"):
        minimum_spanning_tree(t)


def test_single_node_is_connected():
    assert minimum_spanning_tree(Topology(1)).parent == [-1]


def test_duplicate_edge_rejected():
    t = Topology(3, [(0, 1)])
    with pytest.raises(TopologyError):
        t.add_edge(1, 0)


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        Topology(3, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(TopologyError):
        Topology(3, [(0, 3)])


def test_zero_nodes_rejected():
    with pytest.raises(TopologyError):
        Topology(0)


def test_edges_iterate_once_each():
    g = grid_topology(3)
    edges = list(g.edges())
    assert len(edges) == g.edge_count
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)
    assert edges == sorted(edges)


def test_grid_size_zero_rejected():
    with pytest.raises(TopologyError):
        grid_topology(0)


def test_matches_networkx_grid():
    nx = pytest.importorskip("networkx")
    k = 5
    ours = grid_topology(k)
    theirs = nx.grid_2d_graph(k, k)
    assert ours.edge_count == theirs.number_of_edges()
    for (r1, c1), (r2, c2) in theirs.edges():
        assert ours.has_edge(r1 * k + c1, r2 * k + c2)

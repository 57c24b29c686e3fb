"""Unit + property tests for the MST overlay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.network.paths import ShortestPaths
from repro.network.spanning_tree import (
    EXCLUDED,
    SpanningTree,
    minimum_spanning_tree,
    rebuild_spanning_tree,
)
from repro.network.topology import Topology, grid_topology


def test_tree_has_n_minus_1_edges():
    for k in [2, 4, 7]:
        t = minimum_spanning_tree(grid_topology(k), seed=0)
        assert sum(1 for _ in t.edges()) == k * k - 1


def test_tree_edges_are_topology_edges():
    topo = grid_topology(5)
    t = minimum_spanning_tree(topo, seed=3)
    for child, parent in t.edges():
        assert topo.has_edge(child, parent)


def test_deterministic_per_seed():
    a = minimum_spanning_tree(grid_topology(6), seed=9)
    b = minimum_spanning_tree(grid_topology(6), seed=9)
    assert a.parent == b.parent


def test_different_seeds_give_different_trees():
    a = minimum_spanning_tree(grid_topology(6), seed=1)
    b = minimum_spanning_tree(grid_topology(6), seed=2)
    assert a.parent != b.parent


def test_disconnected_rejected():
    topo = Topology(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError):
        minimum_spanning_tree(topo, seed=0)


def test_path_endpoints_and_adjacency():
    t = minimum_spanning_tree(grid_topology(6), seed=4)
    path = t.path(0, 35)
    assert path[0] == 0 and path[-1] == 35
    adj = {u: set(t.neighbors(u)) for u in range(36)}
    for a, b in zip(path, path[1:]):
        assert b in adj[a]
    assert len(set(path)) == len(path)  # simple path


def test_distance_matches_path_length():
    t = minimum_spanning_tree(grid_topology(5), seed=2)
    for u, v in [(0, 24), (3, 17), (12, 12), (4, 20)]:
        assert t.hop_count(u, v) == len(t.path(u, v)) - 1


def test_next_hop_walks_the_path():
    t = minimum_spanning_tree(grid_topology(5), seed=2)
    path = t.path(2, 22)
    cur = 2
    walked = [cur]
    while cur != 22:
        cur = t.next_hop(cur, 22)
        walked.append(cur)
    assert walked == path


def test_next_hop_self():
    t = minimum_spanning_tree(grid_topology(3), seed=0)
    assert t.next_hop(4, 4) == 4


def test_diameter_bounds():
    k = 6
    t = minimum_spanning_tree(grid_topology(k), seed=1)
    d = t.diameter()
    assert 2 * (k - 1) <= d <= k * k - 1


def test_average_distance_positive_and_below_diameter():
    t = minimum_spanning_tree(grid_topology(5), seed=1)
    avg = t.average_distance()
    assert 0 < avg <= t.diameter()


def test_bad_parent_vector_rejected():
    with pytest.raises(TopologyError):
        SpanningTree([1, 0, -1], root=2)  # 0,1 form a detached cycle
    with pytest.raises(TopologyError):
        SpanningTree([0, 0, 1], root=0)  # root parent must be -1
    with pytest.raises(TopologyError):
        SpanningTree([2, 0, 1, -1], root=3)  # 0,1,2 form a detached cycle
    with pytest.raises(TopologyError):
        SpanningTree([-1, 2, EXCLUDED], root=0)  # hangs off an excluded node
    with pytest.raises(TopologyError):
        SpanningTree([-1, 7], root=0)  # parent out of range


@pytest.mark.parametrize("seed", range(4))
def test_two_sweep_diameter_is_the_all_sources_maximum(seed):
    t = minimum_spanning_tree(grid_topology(6), seed=seed)
    assert t.diameter() == ShortestPaths.diameter(t)


def test_excluded_brokers_are_isolated_nodes():
    topo = grid_topology(3)
    t = rebuild_spanning_tree(topo, [b for b in range(9) if b != 4], seed=5)
    assert not t.contains(4) and t.neighbors(4) == []
    assert t.diameter() == ShortestPaths.diameter(t)
    with pytest.raises(RoutingError):
        t.next_hop(0, 4)
    with pytest.raises(RoutingError):
        t.hop_count(4, 8)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=2, max_value=7), seed=st.integers(0, 1000))
def test_property_tree_is_spanning_and_acyclic(k, seed):
    t = minimum_spanning_tree(grid_topology(k), seed=seed)
    n = k * k
    # connectivity: every node reaches the root by parent pointers, with no
    # cycles (bounded walk)
    for v in range(n):
        seen = set()
        cur = v
        while cur != t.root:
            assert cur not in seen
            seen.add(cur)
            cur = t.parent[cur]
            assert cur != -1


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(0, 50),
    data=st.data(),
)
def test_property_tree_distance_symmetric(k, seed, data):
    t = minimum_spanning_tree(grid_topology(k), seed=seed)
    n = k * k
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    assert t.hop_count(u, v) == t.hop_count(v, u)
    assert t.hop_count(u, v) >= (0 if u == v else 1)

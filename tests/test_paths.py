"""Unit + property tests for shortest paths in the physical network."""

import pytest
from hypothesis import given, settings, strategies as st
from probes import average_distance

from repro.errors import RoutingError
from repro.network.paths import ShortestPaths
from repro.network.topology import Topology, grid_topology


def manhattan(k, u, v):
    return abs(u // k - v // k) + abs(u % k - v % k)


def test_grid_distance_is_manhattan():
    k = 6
    sp = ShortestPaths(grid_topology(k))
    for u, v in [(0, 35), (3, 33), (7, 7), (10, 25)]:
        assert sp.hop_count(u, v) == manhattan(k, u, v)


def test_path_is_shortest_and_valid():
    k = 5
    topo = grid_topology(k)
    sp = ShortestPaths(topo)
    path = sp.path(0, 24)
    assert path[0] == 0 and path[-1] == 24
    assert len(path) - 1 == manhattan(k, 0, 24)
    for a, b in zip(path, path[1:]):
        assert topo.has_edge(a, b)


def test_next_hop_reduces_distance():
    k = 7
    sp = ShortestPaths(grid_topology(k))
    cur, dst = 0, 48
    steps = 0
    while cur != dst:
        nxt = sp.next_hop(cur, dst)
        assert sp.hop_count(nxt, dst) == sp.hop_count(cur, dst) - 1
        cur = nxt
        steps += 1
    assert steps == manhattan(k, 0, 48)


def test_next_hop_self():
    sp = ShortestPaths(grid_topology(3))
    assert sp.next_hop(5, 5) == 5


def test_disconnected_raises():
    sp = ShortestPaths(Topology(4, [(0, 1), (2, 3)]))
    with pytest.raises(RoutingError):
        sp.hop_count(0, 3)
    with pytest.raises(RoutingError):
        sp.next_hop(0, 3)
    # only reachable nodes count toward the extremes
    assert sp.eccentricity(0) == 1
    assert sp.diameter() == 1


def test_diameter_and_average_grid():
    k = 5
    sp = ShortestPaths(grid_topology(k))
    assert sp.diameter() == 2 * (k - 1)
    # exact closed form for mean Manhattan distance over ordered pairs
    expected_axis = (k * k - 1) / (3 * k)
    assert average_distance(sp) == pytest.approx(
        2 * expected_axis * (k * k) / (k * k - 1), rel=0.05
    )


def test_matches_networkx_lengths():
    nx = pytest.importorskip("networkx")
    topo = Topology(6, [
        (0, 1), (1, 2), (0, 3), (3, 4), (4, 2), (2, 5), (1, 5),
    ])
    sp = ShortestPaths(topo)
    g = nx.Graph(list(topo.edges()))
    for src in range(6):
        lengths = nx.single_source_shortest_path_length(g, src)
        for dst, d in lengths.items():
            assert sp.hop_count(src, dst) == d


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_property_triangle_inequality_on_grid(k, data):
    sp = ShortestPaths(grid_topology(k))
    n = k * k
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert sp.hop_count(a, c) <= sp.hop_count(a, b) + sp.hop_count(b, c)

"""Minimum-cost spanning tree overlay.

The mainstream content-based pub/sub systems the paper builds on (SIENA,
JEDI, Rebeca) organise brokers into an acyclic overlay; the paper's testbed
builds "a minimum cost spanning tree of the network" over the grid
(Section 5.1). Every link costs the same, so *every* spanning tree is
minimal and the only degree of freedom is tie-breaking. We use Prim's
algorithm with seeded random tie-breaking: deterministic per seed, and it
produces the long, winding overlay paths that the paper's sub-unsub delay
numbers imply (their safety interval is the worst-case delivery time across
the overlay).

A tree is a parent vector; its path questions (next hop, hop count, path,
diameter) are answered by the network's one shortest-path oracle,
:class:`~repro.network.paths.ShortestPaths`, over the tree's own edges,
where the shortest path is the unique tree path.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import TopologyError
from repro.network.paths import ShortestPaths
from repro.network.topology import Topology
from repro.sim.rng import Stream

__all__ = ["SpanningTree", "minimum_spanning_tree", "rebuild_spanning_tree"]

#: parent-vector sentinel for nodes excluded from the tree (down brokers);
#: full-overlay trees never contain it, so pre-crash behaviour is unchanged
EXCLUDED = -2


class SpanningTree(ShortestPaths):
    """A rooted spanning tree over ``0..n-1`` given as a parent vector.

    The shortest-path oracle over the tree's edges: ``next_hop(u, dst)``
    is the first hop on the unique tree path (the broker "routing table" of
    Section 3: the pair ``(next_hop, destination)`` meaning the broker
    reaches ``destination`` via neighbour ``next_hop`` in the overlay), and
    ``hop_count``, ``path`` and ``diameter`` are tree distances. Tables are
    built lazily per source and cached (a run touches only the sources
    that actually originate migrations).

    A parent entry of :data:`EXCLUDED` marks a node that is *not* part of
    the tree (a crashed broker after re-convergence): it is an isolated
    node, the tree must be connected over the included nodes only, and
    routing queries involving an excluded node raise
    :class:`~repro.errors.RoutingError`.
    """

    def __init__(self, parent: Sequence[int], root: int) -> None:
        self.root = root
        self.parent = list(parent)
        if self.parent[root] != -1:
            raise TopologyError("root's parent must be -1")
        super().__init__(Topology(len(self.parent), self.edges()))
        # the root's component holds only included nodes, so it holds all
        # of them exactly when as many nodes are unreached as are excluded
        if self._table(root)[0].count(-1) != self.parent.count(EXCLUDED):
            raise TopologyError("parent vector does not describe a connected tree")

    def neighbors(self, u: int) -> list[int]:
        """Tree-adjacent nodes of ``u`` (ascending)."""
        return self._neighbors[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each tree edge once as ``(child, parent)``."""
        for v, p in enumerate(self.parent):
            if p != -1 and p != EXCLUDED:
                yield (v, p)

    def diameter(self) -> int:
        """Longest tree path in links. On a tree the node farthest from
        any node ends a longest path, so two sweeps are exact."""
        hops = self._table(self.root)[0]
        return self.eccentricity(hops.index(max(hops)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SpanningTree n={self.topo.n} root={self.root}>"


def minimum_spanning_tree(
    topo: Topology, seed: int = 0, root: int = 0
) -> SpanningTree:
    """Prim's algorithm with seeded random tie-breaking.

    Every link costs the same, so every spanning tree is a minimum
    spanning tree; the random tie-break selects one uniformly-ish at random
    but deterministically per seed. A disconnected graph has none and
    raises :class:`TopologyError`.

    Examples
    --------
    >>> from repro.network.topology import grid_topology
    >>> t = minimum_spanning_tree(grid_topology(4), seed=1)
    >>> sum(1 for _ in t.edges())
    15
    """
    rng = Stream((seed, topo.n, 0x5175))
    return _seeded_prim(topo, rng, root, topo.n, lambda _u, _v: True)


def rebuild_spanning_tree(
    topo: Topology,
    alive: Iterable[int],
    avoid_edges: Iterable[tuple[int, int]] = (),
    seed: int = 0,
    generation: int = 1,
    root: Optional[int] = None,
) -> SpanningTree:
    """Re-converge the overlay over the surviving topology.

    Same seeded-Prim construction as :func:`minimum_spanning_tree`, but
    restricted to the ``alive`` brokers and skipping ``avoid_edges``
    (partitioned overlay links). ``generation`` is mixed into the seed so
    each repair round draws an independent — yet fully replayable — tree;
    crashed-out nodes are marked :data:`EXCLUDED` in the parent vector.

    Raises :class:`TopologyError` if the surviving subgraph is disconnected
    (the failure schedule must keep survivors connected; the scenario
    sampler guarantees it, hand-written plans are validated here).
    """
    alive_set = set(alive)
    if not alive_set:
        raise TopologyError("cannot rebuild a tree with no surviving brokers")
    cut = {(min(a, b), max(a, b)) for a, b in avoid_edges}
    if root is None or root not in alive_set:
        root = min(alive_set)
    rng = Stream((seed, topo.n, generation, 0x5176))

    def usable(u: int, v: int) -> bool:
        return v in alive_set and (min(u, v), max(u, v)) not in cut

    return _seeded_prim(topo, rng, root, len(alive_set), usable)


def _seeded_prim(
    topo: Topology,
    rng: Stream,
    root: int,
    members: int,
    usable: Callable[[int, int], bool],
) -> SpanningTree:
    """Prim from ``root`` over the edges ``usable(u, v)`` accepts, ties
    broken by ``rng``, until ``members`` nodes are in the tree; every other
    node is :data:`EXCLUDED`."""
    parent = [EXCLUDED] * topo.n
    parent[root] = -1
    in_tree = bytearray(topo.n)
    in_tree[root] = 1
    # Heap of candidate edges: (tiebreak, from_node, to_node)
    heap: list[tuple[float, int, int]] = []
    for v in topo.neighbors(root):
        if usable(root, v):
            heapq.heappush(heap, (rng.random(), root, v))
    added = 1
    while heap and added < members:
        _tb, u, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        parent[v] = u
        added += 1
        for nxt in topo.neighbors(v):
            if not in_tree[nxt] and usable(v, nxt):
                heapq.heappush(heap, (rng.random(), v, nxt))
    if added != members:
        raise TopologyError(
            f"overlay is disconnected: reached {added} of {members} "
            f"brokers from root {root}"
        )
    return SpanningTree(parent, root)

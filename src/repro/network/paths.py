"""Shortest paths: the one graph search of the network substrate.

Handoff requests, queue-migration streams and home-broker forwarding travel
"via the shortest path in the network" (paper Section 5.1), i.e. over grid
shortest paths rather than the overlay tree. Every link is one hop, so a
breadth-first search from a source gives its hop counts and first hops;
tables are built lazily per source and cached. The overlay tree
(:class:`~repro.network.spanning_tree.SpanningTree`) is this oracle over
its own edges, where the shortest path is the unique tree path.

Tie-breaking: among equally short next hops the numerically smallest
neighbour is chosen, so routes are deterministic.
"""

from __future__ import annotations

from collections import deque

from repro.errors import RoutingError
from repro.network.topology import Topology

__all__ = ["ShortestPaths"]


class ShortestPaths:
    """Lazy all-pairs hop-count / next-hop oracle over a :class:`Topology`.

    A node a source cannot reach has no hop count and no next hop: asking
    for either raises :class:`RoutingError`.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        #: ascending neighbour lists, read once: a search enters no frame
        #: per node it visits
        self._neighbors = [topo.neighbors(u) for u in range(topo.n)]
        #: per solved source: (hop count, first hop) per node, -1 where
        #: the node is unreachable
        self._solved: dict[int, tuple[list[int], list[int]]] = {}

    # ------------------------------------------------------------------
    def _table(self, src: int) -> tuple[list[int], list[int]]:
        """``src``'s (hop count, first hop) table, solved on first use
        (the hot lookups inline the cached case)."""
        table = self._solved.get(src)
        if table is not None:
            return table
        neighbors = self._neighbors
        hops = [-1] * self.topo.n
        first = [-1] * self.topo.n
        hops[src] = 0
        first[src] = src
        q: deque[int] = deque([src])
        while q:
            u = q.popleft()
            for v in neighbors[u]:
                if hops[v] == -1:
                    hops[v] = hops[u] + 1
                    first[v] = v if u == src else first[u]
                    q.append(v)
        self._solved[src] = table = (hops, first)
        return table

    # ------------------------------------------------------------------
    def hop_count(self, u: int, v: int) -> int:
        """Shortest-path length from ``u`` to ``v`` in links."""
        hops = (self._solved.get(u) or self._table(u))[0][v]
        if hops == -1:
            raise RoutingError(f"no path {u} -> {v}")
        return hops

    def next_hop(self, u: int, dst: int) -> int:
        """First hop from ``u`` toward ``dst`` (``u`` itself if ``u == dst``)."""
        if u == dst:
            return u
        hop = (self._solved.get(u) or self._table(u))[1][dst]
        if hop == -1:
            raise RoutingError(f"no path {u} -> {dst}")
        return hop

    def path(self, u: int, v: int) -> list[int]:
        """One shortest path from ``u`` to ``v`` inclusive (deterministic)."""
        path = [u]
        while path[-1] != v:
            path.append(self.next_hop(path[-1], v))
        return path

    def average_distance(self) -> float:
        """Mean hop count over ordered pairs of distinct, mutually
        reachable nodes."""
        total = pairs = 0
        for u in range(self.topo.n):
            reached = [d for d in self._table(u)[0] if d > 0]
            total += sum(reached)
            pairs += len(reached)
        return total / pairs

    def eccentricity(self, u: int) -> int:
        """Greatest hop count from ``u`` to a node it reaches."""
        return max(self._table(u)[0])

    def diameter(self) -> int:
        """Greatest hop count over all pairs of mutually reachable nodes."""
        return max(self.eccentricity(u) for u in range(self.topo.n))

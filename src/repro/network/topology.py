"""Network topology: generic undirected unit-link graphs + the paper's grid.

Nodes are dense integers ``0 .. n-1`` so adjacency can live in plain lists
(the simulator indexes these on every hop). Every link is one hop: the
link layer charges ``hops x wired latency`` (Section 5.1), so a link has
no cost of its own to carry.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TopologyError

__all__ = ["Topology", "grid_topology"]


class Topology:
    """Undirected graph of unit links over dense integer nodes.

    Parameters
    ----------
    n:
        Number of nodes (``0..n-1``).
    edges:
        Iterable of ``(u, v)`` pairs. Parallel edges and self-loops are
        rejected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n <= 0:
            raise TopologyError(f"topology needs at least one node, got n={n}")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._edge_count = 0
        for u, v in edges:
            self.add_edge(int(u), int(v))

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Add undirected edge ``{u, v}``."""
        if u == v:
            raise TopologyError(f"self-loop on node {u} not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TopologyError(f"edge ({u},{v}) out of range for n={self.n}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate edge ({u},{v})")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1

    def neighbors(self, u: int) -> list[int]:
        """Neighbours of ``u`` in ascending order (every shortest-path
        tie-break and every spanning-tree draw reads them in this order)."""
        return sorted(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def adjacency(self) -> list[set[int]]:
        """The live neighbour sets, indexed by node (read-only for callers):
        ``v in topo.adjacency()[u]`` is :meth:`has_edge` without the call."""
        return self._adj

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``,
        in ascending order."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology n={self.n} edges={self._edge_count}>"


def grid_topology(k: int) -> Topology:
    """The paper's base-station layout: a k x k grid, 4-neighbour wired links.

    Node ``(row, col)`` has index ``row * k + col``.

    Examples
    --------
    >>> g = grid_topology(3)
    >>> g.n, g.edge_count
    (9, 12)
    >>> g.neighbors(4)  # centre of the 3x3 grid
    [1, 3, 5, 7]
    >>> list(g.edges())[:3]
    [(0, 1), (0, 3), (1, 2)]
    """
    if k <= 0:
        raise TopologyError(f"grid size must be >= 1, got k={k}")
    topo = Topology(k * k)
    for row in range(k):
        for col in range(k):
            node = row * k + col
            if col + 1 < k:
                topo.add_edge(node, node + 1)
            if row + 1 < k:
                topo.add_edge(node, node + k)
    return topo

"""Network topology: generic undirected weighted graphs + the paper's grid.

Nodes are dense integers ``0 .. n-1`` so adjacency can live in plain lists
(the simulator indexes these on every hop).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import TopologyError

__all__ = ["Topology", "grid_topology"]


class Topology:
    """Undirected weighted graph over dense integer nodes.

    Parameters
    ----------
    n:
        Number of nodes (``0..n-1``).
    edges:
        Iterable of ``(u, v)`` or ``(u, v, weight)`` tuples. Parallel edges
        and self-loops are rejected.
    """

    def __init__(
        self, n: int, edges: Iterable[tuple[int, ...]] = ()
    ) -> None:
        if n <= 0:
            raise TopologyError(f"topology needs at least one node, got n={n}")
        self.n = n
        self._adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self._edge_count = 0
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = edge  # type: ignore[misc]
            self.add_edge(int(u), int(v), float(w))

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add undirected edge ``{u, v}`` with the given weight."""
        if u == v:
            raise TopologyError(f"self-loop on node {u} not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise TopologyError(f"edge ({u},{v}) out of range for n={self.n}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate edge ({u},{v})")
        if weight <= 0:
            raise TopologyError(f"edge ({u},{v}) weight must be > 0, got {weight}")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._edge_count += 1

    def neighbors(self, u: int) -> list[int]:
        """Neighbours of ``u`` in ascending order."""
        return sorted(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def adjacency(self) -> list[dict[int, float]]:
        """The live neighbour maps, indexed by node (read-only for callers):
        ``v in topo.adjacency()[u]`` is :meth:`has_edge` without the call."""
        return self._adj

    def weight(self, u: int, v: int) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"no edge ({u},{v})") from None

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def is_connected(self) -> bool:
        """BFS connectivity check."""
        seen = bytearray(self.n)
        seen[0] = 1
        frontier = [0]
        count = 1
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        count += 1
                        nxt.append(v)
            frontier = nxt
        return count == self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology n={self.n} edges={self._edge_count}>"


def grid_topology(k: int) -> Topology:
    """The paper's base-station layout: a k x k grid, 4-neighbour wired links.

    Node ``(row, col)`` has index ``row * k + col``. All edges have unit
    weight (every wired link costs the same 10 ms — Section 5.1).

    Examples
    --------
    >>> g = grid_topology(3)
    >>> g.n, g.edge_count
    (9, 12)
    >>> g.neighbors(4)  # centre of the 3x3 grid
    [1, 3, 5, 7]
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

"""Minimum-cost spanning tree overlay.

The mainstream content-based pub/sub systems the paper builds on (SIENA,
JEDI, Rebeca) organise brokers into an acyclic overlay; the paper's testbed
builds "a minimum cost spanning tree of the network" over the grid
(Section 5.1). With uniform link costs *every* spanning tree is minimal, so
the only degree of freedom is tie-breaking. We use Prim's algorithm with
seeded random tie-breaking: deterministic per seed, and it produces the
long, winding overlay paths that the paper's sub-unsub delay numbers imply
(their safety interval is the worst-case delivery time across the overlay).

The tree also provides unique paths, distances, and the diameter used to set
the sub-unsub safety interval.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.network.topology import Topology

__all__ = ["SpanningTree", "minimum_spanning_tree", "rebuild_spanning_tree"]

#: parent-vector sentinel for nodes excluded from the tree (down brokers);
#: full-overlay trees never contain it, so pre-crash behaviour is unchanged
EXCLUDED = -2


class SpanningTree:
    """A rooted spanning tree over ``0..n-1`` given as a parent vector.

    Provides O(1) amortised queries used on the pub/sub hot path:

    * ``neighbors(u)`` — tree-adjacent brokers,
    * ``next_hop(u, dst)`` — first hop on the unique tree path,
    * ``distance(u, v)`` and ``path(u, v)``.

    Next-hop tables are built lazily per source and cached (a run touches
    only the sources that actually originate migrations).

    A parent entry of :data:`EXCLUDED` marks a node that is *not* part of
    the tree (a crashed broker after re-convergence): the tree must be
    connected over the included nodes only, and routing queries involving
    an excluded node raise :class:`TopologyError`.
    """

    def __init__(self, parent: Sequence[int], root: int) -> None:
        self.n = len(parent)
        self.root = root
        self.parent = list(parent)
        if self.parent[root] != -1:
            raise TopologyError("root's parent must be -1")
        members = sum(1 for p in self.parent if p != EXCLUDED)
        self._adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p == -1 or p == EXCLUDED:
                continue
            if not (0 <= p < self.n):
                raise TopologyError(f"parent of {v} out of range: {p}")
            if self.parent[p] == EXCLUDED:
                raise TopologyError(f"parent of {v} is an excluded node: {p}")
            self._adj[v].append(p)
            self._adj[p].append(v)
        for a in self._adj:
            a.sort()
        # depth via BFS from root; also validates that parent[] is a tree.
        self.depth = [-1] * self.n
        self.depth[root] = 0
        q: deque[int] = deque([root])
        seen = 1
        while q:
            u = q.popleft()
            for v in self._adj[u]:
                if self.depth[v] == -1:
                    self.depth[v] = self.depth[u] + 1
                    seen += 1
                    q.append(v)
        if seen != members:
            raise TopologyError("parent vector does not describe a connected tree")
        # per-source next-hop tables, built on demand
        self._next_hop_cache: dict[int, list[int]] = {}

    def contains(self, u: int) -> bool:
        """Is ``u`` part of this tree? (False for crashed-out brokers.)"""
        return self.parent[u] != EXCLUDED

    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> list[int]:
        """Tree-adjacent nodes of ``u`` (ascending)."""
        return self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each tree edge once as ``(child, parent)``."""
        for v, p in enumerate(self.parent):
            if p != -1 and p != EXCLUDED:
                yield (v, p)

    def _hops_from(self, src: int) -> list[int]:
        """next_hop[dst] = first hop from src toward dst (src itself = src)."""
        table = self._next_hop_cache.get(src)
        if table is not None:
            return table
        table = [-1] * self.n
        table[src] = src
        q: deque[int] = deque()
        for v in self._adj[src]:
            table[v] = v
            q.append(v)
        while q:
            u = q.popleft()
            first = table[u]
            for v in self._adj[u]:
                if table[v] == -1:
                    table[v] = first
                    q.append(v)
        self._next_hop_cache[src] = table
        return table

    def next_hop(self, u: int, dst: int) -> int:
        """First hop on the unique tree path from ``u`` to ``dst``.

        This is exactly the broker "routing table" of Section 3: the pair
        ``(next_hop, destination)`` meaning the broker reaches ``destination``
        via neighbour ``next_hop`` in the overlay.
        """
        if u == dst:
            return u
        hop = self._hops_from(u)[dst]
        if hop == -1:
            # unreachable only when an endpoint is excluded (crashed out)
            raise TopologyError(f"no tree route {u} -> {dst}")
        return hop

    def path(self, u: int, v: int) -> list[int]:
        """The unique tree path from ``u`` to ``v`` inclusive of both ends."""
        if not (self.contains(u) and self.contains(v)):
            raise TopologyError(f"no tree path {u} -> {v}: endpoint excluded")
        if u == v:
            return [u]
        # Walk up to the common ancestor using depths.
        left: list[int] = [u]
        right: list[int] = [v]
        a, b = u, v
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
                left.append(a)
            else:
                b = self.parent[b]
                right.append(b)
        right.pop()  # drop duplicate common ancestor
        return left + right[::-1]

    def distance(self, u: int, v: int) -> int:
        """Number of tree edges between ``u`` and ``v``."""
        if not (self.contains(u) and self.contains(v)):
            raise TopologyError(f"no tree path {u} -> {v}: endpoint excluded")
        if u == v:
            return 0
        a, b, d = u, v, 0
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a = self.parent[a]
            else:
                b = self.parent[b]
            d += 1
        return d

    def diameter(self) -> int:
        """Longest tree path in edges (double-BFS)."""
        far1, _ = self._farthest(self.root)
        far2, dist = self._farthest(far1)
        del far2
        return dist

    def _farthest(self, src: int) -> tuple[int, int]:
        dist = [-1] * self.n
        dist[src] = 0
        q: deque[int] = deque([src])
        best, best_d = src, 0
        while q:
            u = q.popleft()
            for v in self._adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    if dist[v] > best_d:
                        best, best_d = v, dist[v]
                    q.append(v)
        return best, best_d

    def average_distance(self, sample_rng: Optional[np.random.Generator] = None,
                         samples: int = 0) -> float:
        """Mean tree distance over all (or sampled) unordered node pairs."""
        if samples and sample_rng is not None and self.n > 2:
            total = 0
            for _ in range(samples):
                u = int(sample_rng.integers(self.n))
                v = int(sample_rng.integers(self.n))
                total += self.distance(u, v)
            return total / samples
        # exact: BFS from every node (fine up to a few hundred nodes)
        total = 0
        pairs = 0
        members = [u for u in range(self.n) if self.contains(u)]
        for src in members:
            dist = [-1] * self.n
            dist[src] = 0
            q: deque[int] = deque([src])
            while q:
                u = q.popleft()
                for v in self._adj[u]:
                    if dist[v] == -1:
                        dist[v] = dist[u] + 1
                        q.append(v)
            total += sum(d for d in dist if d > 0)
            pairs += len(members) - 1
        return total / pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SpanningTree n={self.n} root={self.root}>"


def minimum_spanning_tree(
    topo: Topology, seed: int = 0, root: int = 0
) -> SpanningTree:
    """Prim's algorithm with seeded random tie-breaking.

    With uniform edge weights (the paper's grid) every spanning tree is a
    minimum spanning tree; the random tie-break selects one uniformly-ish at
    random but deterministically per seed.

    Examples
    --------
    >>> from repro.network.topology import grid_topology
    >>> t = minimum_spanning_tree(grid_topology(4), seed=1)
    >>> sum(1 for _ in t.edges())
    15
    """
    if not topo.is_connected():
        raise TopologyError("cannot build a spanning tree of a disconnected graph")
    rng = np.random.default_rng(np.random.SeedSequence([seed, topo.n, 0x5175]))
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
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, topo.n, generation, 0x5176])
    )

    def usable(u: int, v: int) -> bool:
        return v in alive_set and (min(u, v), max(u, v)) not in cut

    return _seeded_prim(topo, rng, root, len(alive_set), usable)


def _seeded_prim(
    topo: Topology,
    rng: np.random.Generator,
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
    # Heap of candidate edges: (weight, tiebreak, from_node, to_node)
    heap: list[tuple[float, float, int, int]] = []
    for v in topo.neighbors(root):
        if usable(root, v):
            heapq.heappush(
                heap, (topo.weight(root, v), float(rng.random()), root, v)
            )
    added = 1
    while heap and added < members:
        _w, _tb, u, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        parent[v] = u
        added += 1
        for nxt in topo.neighbors(v):
            if not in_tree[nxt] and usable(v, nxt):
                heapq.heappush(
                    heap, (topo.weight(v, nxt), float(rng.random()), v, nxt)
                )
    if added != members:
        raise TopologyError(
            f"overlay is disconnected: reached {added} of {members} "
            f"brokers from root {root}"
        )
    return SpanningTree(parent, root)

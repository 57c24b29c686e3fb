"""Physical network substrate.

The paper's testbed is a k x k grid of base stations ("event brokers")
joined by wired links (10 ms per hop, so every link is one unit of cost),
with mobile clients attached over wireless links (20 ms). Two routing
structures coexist:

* an **overlay spanning tree** (minimum-cost spanning tree of the grid) used
  for subscription propagation and event dissemination (the acyclic pub/sub
  overlay of Section 3), and
* **shortest paths in the underlying grid** used for direct broker-to-broker
  unicast (handoff requests, queue migration streams, home-broker
  forwarding) — Section 5.1: "Any pair of stations can connect with each
  other via the shortest path in the network."

One graph search answers both: :class:`ShortestPaths`, a breadth-first
hop-count / next-hop oracle, over the grid, and over the tree's own edges
as :class:`SpanningTree`.
"""

from repro.network.topology import Topology, grid_topology
from repro.network.spanning_tree import SpanningTree, minimum_spanning_tree
from repro.network.paths import ShortestPaths
from repro.network.links import LinkLayer, WIRED_LATENCY_MS, WIRELESS_LATENCY_MS

__all__ = [
    "Topology",
    "grid_topology",
    "SpanningTree",
    "minimum_spanning_tree",
    "ShortestPaths",
    "LinkLayer",
    "WIRED_LATENCY_MS",
    "WIRELESS_LATENCY_MS",
]

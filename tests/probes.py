"""Read-only views of product state that only the tests ask for.

The product never needs these answers on a run path, so they are not part
of its surface; the tests that check tables, trees and the delivery
ledger read them here.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.metrics.delivery import DeliveryChecker
from repro.network.paths import ShortestPaths
from repro.network.spanning_tree import EXCLUDED, SpanningTree
from repro.pubsub.filter_table import FilterTable
from repro.pubsub.filters import RangeFilter


def has_broker_filter(table: FilterTable, nbr: int, key: Hashable) -> bool:
    return key in table._from_nbr[nbr]


def broker_filter_get(
    table: FilterTable, nbr: int, key: Hashable
) -> Optional[RangeFilter]:
    return table._from_nbr[nbr].get(key)


def advertised_keys(table: FilterTable, nbr: int) -> list[Hashable]:
    return table._advertised[nbr].keys()


def per_client_missing(checker: DeliveryChecker) -> dict[int, int]:
    """Clients with expected deliveries unaccounted for (diagnostics):
    outstanding and unmarked."""
    return {
        cid: n for cid, outstanding in checker._outstanding.items()
        if (n := sum(not bits for bits in outstanding.values()))
    }


def average_distance(paths: ShortestPaths) -> float:
    """Mean hop count over ordered pairs of distinct, mutually reachable
    nodes."""
    total = pairs = 0
    for u in range(paths.topo.n):
        reached = [d for d in paths._table(u)[0] if d > 0]
        total += sum(reached)
        pairs += len(reached)
    return total / pairs


def tree_contains(tree: SpanningTree, u: int) -> bool:
    """Is ``u`` part of the tree? (False for crashed-out brokers.)"""
    return tree.parent[u] != EXCLUDED

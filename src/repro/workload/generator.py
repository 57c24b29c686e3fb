"""Subscription and population generation.

Subscriptions are closed topic ranges over ``[0, 1)``. Widths are drawn
uniformly from ``[0, 2 * match_fraction]`` so the *mean* width — and hence
the mean fraction of clients matching a uniformly drawn event topic — equals
the paper's 6.25 %. Variable widths matter: with equal widths no
subscription would ever cover another, and the covering-based pruning the
paper invokes for the sub-unsub baseline at scale (Figure 6(a)) would be
inert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pubsub.filters import RangeFilter
from repro.sim.rng import RandomStreams
from repro.util.validation import check_in_range

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.client import Client
    from repro.pubsub.system import PubSubSystem
    from repro.workload.spec import WorkloadSpec

__all__ = ["SubscriptionGenerator", "build_population"]


class SubscriptionGenerator:
    """Draws subscription range filters with a target mean match fraction."""

    def __init__(self, streams: RandomStreams, match_fraction: float) -> None:
        check_in_range("match_fraction", match_fraction, 0.0, 0.5)
        self.streams = streams
        self.match_fraction = match_fraction

    def draw(self, client_index: int) -> RangeFilter:
        """Subscription filter for the ``client_index``-th client."""
        rng = self.streams.stream(f"workload/subscription/{client_index}")
        width = rng.uniform(0.0, 2.0 * self.match_fraction)
        lo = rng.uniform(0.0, 1.0 - width)
        return RangeFilter(lo, lo + width)


def build_population(
    system: "PubSubSystem", spec: "WorkloadSpec"
) -> tuple[list["Client"], list["Client"]]:
    """Create the paper's client population.

    Each broker hosts ``clients_per_broker`` clients; a deterministic (per
    seed) random 20 % of all clients are mobile. Returns
    ``(static_clients, mobile_clients)``. Clients are *not* connected yet.
    """
    gen = SubscriptionGenerator(system.streams, spec.match_fraction)
    clients: list["Client"] = []
    for broker_id in range(system.broker_count):
        for _ in range(spec.clients_per_broker):
            filt = gen.draw(len(clients))
            clients.append(system.add_client(filt, broker=broker_id))
    n_mobile = round(spec.mobile_fraction * len(clients))
    picker = system.streams.stream("workload/mobile-selection")
    mobile_idx = set(picker.choice(len(clients), size=n_mobile, replace=False))
    static: list["Client"] = []
    mobile: list["Client"] = []
    for i, client in enumerate(clients):
        if i in mobile_idx:
            client.mobile = True
            mobile.append(client)
        else:
            static.append(client)
    return static, mobile

"""Topic-range publish/subscribe substrate.

Implements the system model of the paper's Section 3:

* brokers organised into an acyclic overlay (spanning tree of the grid),
* **filter tables** per broker: ``{(neighbour, filter)}`` meaning "neighbour
  is interested in events satisfying the filter", with the MHH *label*
  extension on client entries,
* **reverse path forwarding**: subscriptions flood the tree (pruned by the
  covering relation); published events follow the reverse paths of the
  subscriptions that match them,
* event **matching** per broker hop: one interval stab per neighbour plus a
  loop over the local client entries (see :mod:`repro.pubsub.filter_table`),
* FIFO-ordered message delivery on every link.

Clients are publishers and subscribers attached to brokers over wireless
links; mobility (connect / disconnect / handoff) is delegated to a pluggable
:class:`~repro.mobility.base.MobilityProtocol`.
"""

from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.filter_table import FilterTable, ClientEntry
from repro.pubsub.broker import Broker
from repro.pubsub.client import Client
from repro.pubsub.system import PubSubSystem, SystemOptions

__all__ = [
    "Notification",
    "RangeFilter",
    "IntervalIndex",
    "FilterTable",
    "ClientEntry",
    "Broker",
    "Client",
    "PubSubSystem",
    "SystemOptions",
]

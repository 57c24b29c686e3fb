"""Reproduction of *MHH: A Novel Protocol for Mobility Management in
Publish/Subscribe Systems* (Wang, Cao, Li, Wu — ICPP 2007).

The package provides, from scratch:

* a deterministic discrete-event simulation kernel (:mod:`repro.sim`),
* a sans-IO driver boundary so the same protocol core runs under the
  simulator or a live asyncio runtime (:mod:`repro.drivers`; the live
  names are in :mod:`repro.drivers.live`),
* the paper's network substrate — k x k base-station grid, MST overlay,
  FIFO links with the paper's latencies (:mod:`repro.network`),
* a topic-range publish/subscribe system with reverse path forwarding
  and covering-based subscription propagation (:mod:`repro.pubsub`),
* the MHH mobility-management protocol plus the sub-unsub and home-broker
  baselines (:mod:`repro.mobility`, each protocol in its own module,
  imported by name when a run selects it),
* the paper's workload model and metrics (:mod:`repro.workload`,
  :mod:`repro.metrics`),
* sweep drivers regenerating every figure of the evaluation section
  (:mod:`repro.experiments.figures`).

Quickstart
----------
>>> from repro import PubSubSystem, RangeFilter
>>> system = PubSubSystem(grid_k=3, protocol="mhh", seed=7)
>>> sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
>>> pub = system.add_client(RangeFilter(0.0, 0.0), broker=8)
>>> sub.connect(0); pub.connect(8)
>>> system.run(until=1_000.0)
>>> _ = pub.publish(topic=0.25)
>>> system.run(until=2_000.0)
>>> system.metrics.delivery.stats.delivered
1
"""

from repro.errors import (
    ReproError,
    SimulationError,
    SchedulingError,
    TopologyError,
    RoutingError,
    FilterError,
    ProtocolError,
    HandoffPhaseError,
    ClientStateError,
    ConfigurationError,
)
from repro.sim import Simulator, Process, spawn, RandomStreams, Tracer
from repro.drivers import SimulatedDriver
from repro.network import (
    Topology,
    grid_topology,
    SpanningTree,
    minimum_spanning_tree,
    ShortestPaths,
    LinkLayer,
)
from repro.pubsub import (
    Notification,
    RangeFilter,
    Broker,
    Client,
    PubSubSystem,
    SystemOptions,
)
from repro.mobility import MobilityProtocol, PROTOCOLS
from repro.metrics import MetricsHub, ResultRow, summarize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "SchedulingError",
    "TopologyError",
    "RoutingError",
    "FilterError",
    "ProtocolError",
    "HandoffPhaseError",
    "ClientStateError",
    "ConfigurationError",
    # simulation
    "Simulator",
    "Process",
    "spawn",
    "RandomStreams",
    "Tracer",
    # drivers
    "SimulatedDriver",
    # network
    "Topology",
    "grid_topology",
    "SpanningTree",
    "minimum_spanning_tree",
    "ShortestPaths",
    "LinkLayer",
    # pub/sub
    "Notification",
    "RangeFilter",
    "Broker",
    "Client",
    "PubSubSystem",
    "SystemOptions",
    # mobility
    "MobilityProtocol",
    "PROTOCOLS",
    # metrics
    "MetricsHub",
    "ResultRow",
    "summarize",
]

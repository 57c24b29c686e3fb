"""PubSubSystem: wires the driver, network, brokers, clients and protocol.

This is the top-level object a user (or the experiment runner) builds:

>>> from repro.pubsub.system import PubSubSystem
>>> from repro.pubsub.filters import RangeFilter
>>> sys_ = PubSubSystem(grid_k=3, protocol="mhh", seed=1)
>>> c = sys_.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
>>> c.connect(0); sys_.sim.run(until=100.0)

Brokers sit on a k x k grid; the overlay is a seeded minimum spanning tree;
the mobility protocol is chosen by name ("mhh", "sub-unsub", "home-broker")
or supplied as a factory.

A system is ``PubSubSystem(options, driver)``: one frozen
:class:`SystemOptions` value plus a driver. Keyword arguments are fields of
that value — ``PubSubSystem(grid_k=3)`` is
``PubSubSystem(SystemOptions(grid_k=3))``.

The protocol core is sans-IO: brokers, clients and the mobility protocols
only ever touch ``system.clock`` (now / call_later) and ``system.net``
(send_broker / unicast / send_client / send_uplink) — the ``driver``
argument decides what stands behind those facades. The default
:class:`~repro.drivers.simulated.SimulatedDriver` is the discrete-event
engine (byte-identical to the pre-driver system); a
:class:`~repro.drivers.live.LiveDriver` runs the same kernel under a real
asyncio event loop (see ``python -m repro.experiments.cli soak``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Union, TYPE_CHECKING

from repro.drivers.base import Driver
from repro.drivers.simulated import SimulatedDriver
from repro.errors import ConfigurationError
from repro.metrics.hub import MetricsHub
from repro.network.faults import FaultProfile, LinkFaultInjector
from repro.network.recovery import CrashPlan
from repro.network.links import WIRED_LATENCY_MS
from repro.network.paths import ShortestPaths
from repro.network.spanning_tree import minimum_spanning_tree
from repro.network.topology import grid_topology
from repro.pubsub.broker import Broker
from repro.pubsub.client import Client
from repro.pubsub.filters import RangeFilter
from repro.pubsub.messages import DeliverMessage
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.util.ids import IdAllocator

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.base import MobilityProtocol
    from repro.pubsub.recovery import RecoveryCoordinator

__all__ = ["PubSubSystem", "SystemOptions", "LayerHooks"]

ProtocolSpec = Union[str, Callable[["PubSubSystem"], "MobilityProtocol"]]

DriverSpec = Union[str, Driver, None]


@dataclass(frozen=True)
class SystemOptions:
    """Every option of a deployment except its driver, declared once.

    ``PubSubSystem`` is built from one of these,
    :class:`~repro.experiments.config.ExperimentConfig` is one (plus the
    runner's ``workload`` and ``drain_limit_ms``), and the CLI, the figure
    sweeps and the fuzzer hand the value on instead of its fields. A bad
    value raises :class:`~repro.errors.ConfigurationError` here, at
    construction, for every holder.
    """

    #: registry name ("mhh", "sub-unsub", "home-broker") or a
    #: ``factory(system) -> MobilityProtocol``
    protocol: ProtocolSpec = "mhh"
    #: brokers sit on a grid_k x grid_k grid (paper §5.1: 10)
    grid_k: int = 10
    #: root of every random stream (spanning tree, workload, fault draws)
    seed: int = 0
    #: covering-based propagation pruning. None = the protocol's own
    #: ``default_covering``. True is refused for a protocol that
    #: ``needs_exact_tables`` (MHH: its migration surgery needs
    #: exact per-key table state — paper §4.1 notes the machinery covering
    #: would need)
    covering_enabled: Optional[bool] = None
    #: events per queue-migration message (bulk queue transfers)
    migration_batch_size: int = 10
    #: dispatch interval between consecutive batches of one queue stream.
    #: None = one batch per wired-link slot, so shipping a backlog takes
    #: time proportional to its size; 0 disables pacing
    stream_pacing_ms: Optional[float] = None
    #: tracer categories to record (None = tracing off; see repro.sim.trace)
    trace: Optional[Union[str, list[str]]] = None
    #: wireless fault profile (None / inactive = perfect links; see
    #: repro.network.faults)
    faults: Optional[FaultProfile] = None
    #: broker crash/restart/partition schedule (None / inactive =
    #: crash-free; see repro.network.recovery)
    crashes: Optional[CrashPlan] = None
    #: end-to-end reliable downlink delivery (ACK/retransmit with backoff
    #: + per-link circuit breakers; see repro.pubsub.reliability).
    #: Default off = the paper's best-effort downlink, byte-identical.
    reliable: bool = False
    #: retransmission attempts per frame before the window is written off
    retry_budget: int = 8
    #: downlink bulkhead: max queued messages per client before the shed
    #: policy runs (None = unbounded, the paper's model)
    queue_cap: Optional[int] = None
    #: durable broker state: per-broker write-ahead log + persistent
    #: client sessions with repair-round handover (see repro.pubsub.wal).
    #: Default off = volatile brokers, byte-identical to the seed.
    durable: bool = False
    #: directory for file-backed WAL segments (None = the driver's
    #: default store: in-memory under simulation, a scratch dir live)
    wal_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.grid_k <= 0:
            raise ConfigurationError(f"grid_k must be >= 1, got {self.grid_k}")
        if self.retry_budget < 1:
            raise ConfigurationError(
                f"retry_budget must be >= 1, got {self.retry_budget}"
            )
        if self.queue_cap is not None and self.queue_cap < 1:
            raise ConfigurationError(
                f"queue_cap must be >= 1 (or None for unbounded), "
                f"got {self.queue_cap}"
            )
        if self.wal_dir is not None and not self.durable:
            raise ConfigurationError("wal_dir requires durable=True")
        if self.migration_batch_size <= 0:
            raise ConfigurationError(
                f"migration_batch_size must be >= 1, "
                f"got {self.migration_batch_size}"
            )
        if self.stream_pacing_ms is not None and self.stream_pacing_ms < 0:
            raise ConfigurationError(
                f"stream_pacing_ms must be >= 0, got {self.stream_pacing_ms}"
            )


class LayerHooks:
    """The kernel side of the layer seam: every hook point, empty.

    An opt-in layer appends its callables in its ``register``; brokers,
    clients, the protocol and the layers themselves bind these containers
    once and call whatever is in them, so a layer that is off is absent,
    not tested for. The link side is on :class:`~repro.network.links.LinkLayer`;
    who claims what, in which order: docs/ARCHITECTURE.md, "Layer seam".
    """

    def __init__(self) -> None:
        #: Client.connect, station association: ``broker_id -> broker_id``
        self.attach_target: list = []
        #: PubSubSystem.add_client, a topic-range subscriber:
        #: ``(client_id, home_broker, lo, hi)``
        self.subscribe: list = []
        #: Client.publish, before the uplink send: ``(event)``
        self.client_publish: list = []
        #: every copy a client receives: ``(client_id, broker | None, event)``
        self.delivered: list = []
        #: after any client detach: ``(client_id)``
        self.detach: list = []
        #: Broker._rx_publish, before routing: ``(broker_id, event)``
        self.ingress: list = []
        #: Broker.deliver_to_client, before the send and in place of the
        #: plain DeliverMessage send: ``(broker_id, client_id, event)``
        self.before_send: list = []
        self.final_sender: list = []
        #: message type -> ``handler(broker, msg, frm)`` / ``handler(client, msg)``
        self.broker_rx: dict = {}
        self.client_rx: dict = {}
        #: MobilityProtocol.later: ``(broker_id, fn, args) -> (fn, args)``
        self.timer_guard: list = []
        #: brokers currently down (crash repair owns and mutates the set)
        self.down_brokers: set = set()
        #: is a dropped or shed frame still due a retry? ``(payload) -> bool``
        self.retry_covered: list = []
        #: a delivery was acknowledged: ``(broker_id, client_id, event)``
        self.settled: list = []
        #: crash repair to the layers holding per-broker state:
        #: ``(broker_id)`` at a crash, ``(down)`` as a repair round starts,
        #: ``() -> (client_id, event) pairs`` to re-offer,
        #: ``(client_id, anchor, down)`` per resynced client, ``(event)``
        #: per publish lost on the wire
        self.broker_crash: list = []
        self.overlay_repair: list = []
        self.backlog_source: list = []
        self.rehome: list = []
        self.publish_dropped: list = []
        #: PubSubSystem.close: ``()``
        self.close: list = []


class PubSubSystem:
    """A complete simulated pub/sub deployment."""

    def __init__(
        self,
        options: Optional[SystemOptions] = None,
        driver: DriverSpec = None,
        **fields: Any,
    ) -> None:
        options = replace(
            options if options is not None else SystemOptions(), **fields
        )
        # the protocol's module is imported before the system allocates
        # anything, so its objects do not land among the system's own
        protocol = options.protocol
        if not callable(protocol):
            from repro.mobility.registry import protocol_class

            protocol = protocol_class(protocol)
        if driver is None or driver == "sim":
            driver = SimulatedDriver()
        elif not isinstance(driver, Driver):
            raise ConfigurationError(
                f"driver must be None, 'sim' or a Driver instance, "
                f"got {driver!r}"
            )
        #: the validated value this system was built from
        self.options = options
        #: the execution driver: owns the clock and builds the transport.
        #: Default is the discrete-event SimulatedDriver; pass a
        #: repro.drivers.live.LiveDriver to run the same kernel under an
        #: asyncio event loop (or a VirtualClock for differential tests).
        self.driver = driver
        #: sans-IO Clock facade (now / call_later / call_later_fifo)
        self.clock = driver.clock
        #: the discrete-event engine when the driver is simulated, else
        #: None — only `run` depends on it; the kernel itself never
        #: touches it
        self.sim = driver.sim
        # what brokers and protocols read while running is a plain
        # attribute (no `options.` hop on a hot path); `covering_enabled`
        # joins them below, once the protocol can supply its default
        self.seed = options.seed
        self.migration_batch_size = options.migration_batch_size
        self.stream_pacing_ms = (
            WIRED_LATENCY_MS
            if options.stream_pacing_ms is None
            else options.stream_pacing_ms
        )
        self.queue_cap = queue_cap = options.queue_cap

        self.streams = RandomStreams(self.seed)
        self.ids = IdAllocator()
        self.metrics = MetricsHub()
        self.tracer = Tracer(lambda: self.clock.now, enabled=options.trace)

        self.topology = grid_topology(options.grid_k)
        self.paths = ShortestPaths(self.topology)
        self.tree = minimum_spanning_tree(self.topology, seed=self.seed)

        #: the kernel side of the layer seam (see :class:`LayerHooks`)
        self.hooks = hooks = LayerHooks()

        def retried(payload: DeliverMessage) -> bool:
            # will a retransmission redeliver this dropped or shed frame
            # (or eventually write its window off)? Then it is ledger-only.
            return any(covered(payload) for covered in hooks.retry_covered)

        def _on_drop(payload: DeliverMessage) -> None:
            # a covered drop is recovered if a retry delivers the pair, an
            # uncovered one lost unless another copy does
            report = (self.metrics.on_recoverable_drop if retried(payload)
                      else self.metrics.on_loss)
            report(payload.client, payload.event)

        _on_shed = None
        if queue_cap is not None:
            def _on_shed(payload: object, client_id: int) -> bool:
                # bulkhead policy: shed data (final deliveries), never
                # control — control messages are admitted over-cap
                if not isinstance(payload, DeliverMessage):
                    return False
                self.metrics.traffic.account_shed("queue_cap")
                if not retried(payload):
                    self.metrics.delivery.mark_shed(client_id, payload.event)
                return True

        #: sans-IO Transport facade the kernel sends through (under the
        #: simulated driver this is the modelled LinkLayer; the live
        #: driver hands the *same* LinkLayer a wall-clock asyncio clock)
        self.net = driver.build_transport(
            self.topology,
            self.paths,
            account=self.metrics.traffic.account,  # on every send: no hub hop
            queue_cap=queue_cap,
            on_shed=_on_shed,
        )

        # The opt-in layers: wireless faults, crash repair, ACK/retransmit,
        # WAL. Each is built only when its option is on (an inactive fault
        # profile or crash plan counts as off), in this order, and registers
        # the hook points it implements before any broker, client or
        # protocol binds them. The handles are plain attributes (None when
        # off) for tests and reports to read counters through.
        self.fault_injector: Optional[LinkFaultInjector] = None
        self.recovery: Optional["RecoveryCoordinator"] = None
        self.reliability = self.durability = None
        faults, crashes = options.faults, options.crashes
        if faults is not None and faults.active:
            self.fault_injector = LinkFaultInjector(
                faults,
                rng=self.streams.stream("faults/wireless"),
                # only final event deliveries ride the unreliable path;
                # control traffic uses the link-layer ARQ (see
                # repro.network.faults). isinstance: ReliableDeliver frames
                # are final deliveries too and must face the same channel.
                droppable=lambda payload: isinstance(payload, DeliverMessage),
                on_drop=_on_drop,
            )
        if crashes is not None and crashes.active:
            from repro.pubsub.recovery import RecoveryCoordinator

            self.recovery = RecoveryCoordinator(self, crashes)
        if options.reliable:
            from repro.pubsub.reliability import ReliabilityManager

            self.reliability = ReliabilityManager(
                self, retry_budget=options.retry_budget
            )
        if options.durable:
            from repro.pubsub.wal import DurabilityManager

            self.durability = DurabilityManager(
                self, driver.build_log_store(options.wal_dir))
        handles = (self.fault_injector, self.recovery, self.reliability,
                   self.durability)
        #: the layers that are on, in seam order
        self.layers = [layer for layer in handles if layer is not None]
        for layer in self.layers:
            layer.register(hooks, self.net)

        self.brokers: dict[int, Broker] = {}
        for bid in range(self.topology.n):
            broker = Broker(self, bid)
            self.brokers[bid] = broker
            self.net.register_broker(bid, broker.receive)

        self.clients: dict[int, Client] = {}

        self.protocol: "MobilityProtocol" = protocol(self)
        if options.covering_enabled and self.protocol.needs_exact_tables:
            self.close()
            raise ConfigurationError(
                f"covering_enabled=True is not supported by protocol "
                f"{self.protocol.name!r}: its subscription migration edits "
                f"tables key by key, and covering prunes the keys it expects"
            )
        self.covering_enabled = (
            self.protocol.default_covering
            if options.covering_enabled is None
            else options.covering_enabled
        )

    def close(self) -> None:
        """Release what the layers hold (a driver-owned scratch WAL)."""
        for close in self.hooks.close:
            close()

    # ------------------------------------------------------------------
    @property
    def broker_count(self) -> int:
        return self.topology.n

    def add_client(
        self,
        filter: RangeFilter,
        broker: int,
        mobile: bool = False,
    ) -> Client:
        """Create a client whose home broker is ``broker``, or, while
        ``broker`` is down, the live broker a connect there would reach
        (the station re-association a repair round re-homes by).

        The client is *not* connected yet; call :meth:`Client.connect`.
        Its subscription is registered with the delivery checker, so every
        client the API can make is audited.
        """
        if broker not in self.brokers:
            raise ConfigurationError(f"unknown broker id {broker}")
        for associate in self.hooks.attach_target:
            broker = associate(broker)
        cid = self.ids.next("client")
        client = Client(self, cid, filter, home_broker=broker, mobile=mobile)
        self.clients[cid] = client
        self.metrics.delivery.register_subscription(cid, filter.lo, filter.hi)
        for subscribed in self.hooks.subscribe:
            subscribed(cid, broker, filter.lo, filter.hi)
        return client

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`repro.sim.core.Simulator.run`).

        Only meaningful under the simulated driver; a live system is driven
        by its clock (the asyncio loop / :class:`VirtualClock`) instead.
        On return the delivery ledger's write-offs are settled as of now
        (:meth:`~repro.metrics.delivery.DeliveryChecker.finalize_accounting`).
        """
        self._require_sim().run(until=until)
        self.metrics.delivery.finalize_accounting()

    def _require_sim(self):
        if self.sim is None:
            raise ConfigurationError(
                f"PubSubSystem.run is only available under the simulated "
                f"driver (driver={self.driver.name!r}); drive the live "
                f"clock / event loop instead"
            )
        return self.sim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PubSubSystem brokers={self.broker_count} "
            f"clients={len(self.clients)} protocol={self.protocol.name}>"
        )

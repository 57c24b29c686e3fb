"""The sans-IO kernel boundary: ``Clock``, ``Transport`` and ``Driver``.

The protocol core — brokers, clients and every
:class:`~repro.mobility.base.MobilityProtocol` — is **sans-IO**: it never
schedules time or moves bytes itself. All of its effects flow through two
narrow facades owned by a :class:`Driver`:

* :class:`Clock` — ``now`` plus ``call_later``/``call_later_fifo``. The
  kernel expresses every timer and every link latency as "call this
  function ``delay`` ms from now"; *what a millisecond is* (a simulated
  instant, a wall-clock sleep on an asyncio loop, a test-controlled
  virtual step) is the driver's business.
* :class:`Transport` — ``send_broker`` / ``unicast`` / ``send_client`` /
  ``send_uplink`` plus the downlink-reclaim hooks MHH's queue machinery
  needs. The kernel addresses endpoints by id and never sees sockets,
  queues or schedulers.

Two drivers exist:

* :class:`~repro.drivers.simulated.SimulatedDriver` — the discrete-event
  engine (:mod:`repro.sim.core`) *is* the clock and the modelled link
  layer (:mod:`repro.network.links`) *is* the transport. This is the
  reproduction path and is byte-identical to the pre-refactor system.
* :class:`~repro.drivers.live.LiveDriver` — the same kernel and the same
  per-link in-process queues run over the simulator's heap fired another
  way: by an asyncio event loop under wall-clock delays (the ``soak``
  command), or by the deterministic
  :class:`~repro.drivers.live.VirtualClock` for driver-parity tests.

The contracts the kernel relies on (and every driver must honour):

1. ``now`` is monotone non-decreasing.
2. Callbacks fire in non-decreasing time order; callbacks scheduled for
   the same instant fire in submission order. Together with constant
   per-link delays this yields FIFO links, which several protocol
   correctness arguments rest on (see :mod:`repro.network.links`).
3. ``call_later`` returns a handle whose ``cancel()`` prevents the
   callback; ``call_later_fifo`` is the same push without a handle, for
   callbacks never cancelled through a handle: constant-delay link
   traffic, and timers their owner invalidates by an epoch check.
4. Callbacks never run re-entrantly inside ``call_later`` itself.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.network.links import LinkLayer

__all__ = ["CancelHandle", "Clock", "Transport", "Driver"]


class CancelHandle:
    """Minimal handle contract returned by :meth:`Clock.call_later`."""

    __slots__ = ()

    def cancel(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Clock:
    """Scheduling facade the kernel sees (duck-typed; see module docs).

    :class:`~repro.sim.core.Simulator` satisfies it natively (``call_later``
    aliases ``schedule``); the live clocks are ``Simulator`` subclasses
    whose heap a virtual run loop or an asyncio event loop fires. All
    delays and times are in milliseconds.
    """

    __slots__ = ()

    #: current time in ms (attribute or property; monotone non-decreasing)
    now: float

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> CancelHandle:
        """Run ``callback(*args)`` ``delay`` ms from now; cancellable."""
        raise NotImplementedError

    def call_later_fifo(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Handle-free variant: for callbacks never cancelled through a
        handle (constant-delay FIFO link traffic, epoch-checked timers)."""
        raise NotImplementedError

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired callbacks (drives quiescence)."""
        raise NotImplementedError


class Transport:
    """Message-passing facade the kernel sees.

    Implementations own the link model: latencies, per-link FIFO queues,
    serial wireless channels and fault injection. The canonical
    implementation is :class:`~repro.network.links.LinkLayer`, which is
    itself sans-IO over a :class:`Clock` — the simulated and live drivers
    differ only in the clock they hand it.
    """

    __slots__ = ()

    wired_latency: float
    wireless_latency: float

    # -- registration ---------------------------------------------------
    def register_broker(
        self, broker_id: int, rx: Callable[[Any, int], None]
    ) -> None:
        raise NotImplementedError

    def register_client(self, client_id: int, rx: Callable[[Any], None]) -> None:
        raise NotImplementedError

    # -- kernel-facing sends --------------------------------------------
    def send_broker(self, frm: int, to: int, msg: Any) -> None:
        """One wired hop between adjacent brokers (overlay edge)."""
        raise NotImplementedError

    def unicast(self, frm: int, to: int, msg: Any) -> None:
        """Multi-hop point-to-point between arbitrary brokers."""
        raise NotImplementedError

    def send_client(self, client_id: int, msg: Any) -> None:
        """Downlink: broker hands a message to its attached client."""
        raise NotImplementedError

    def send_uplink(self, client_id: int, broker_id: int, msg: Any) -> None:
        """Uplink: client sends to the broker it is attaching/attached to."""
        raise NotImplementedError

    # -- downlink surgery (MHH PQ3 reclaim) -----------------------------
    def reclaim_downlink(self, client_id: int) -> list[Any]:
        """Reclaim queued (untransmitted) downlink messages, in order."""
        raise NotImplementedError

    def downlink_backlog(self, client_id: int) -> int:
        raise NotImplementedError


class Driver:
    """Bundles a :class:`Clock` with a :class:`Transport` factory.

    ``PubSubSystem`` asks its driver for the clock and the transport; it
    never imports an engine directly. ``sim`` is the underlying
    :class:`~repro.sim.core.Simulator` when the driver is the simulated
    one, else ``None`` (legacy call sites like ``system.sim.run`` only
    make sense under discrete-event time).
    """

    __slots__ = ()

    name: str = "abstract"
    clock: Clock
    #: the discrete-event engine, when this driver is simulated time
    sim: Optional[Any] = None

    def build_transport(
        self,
        topo: Any,
        paths: Any,
        *,
        account: Optional[Callable[[str, int], None]] = None,
        queue_cap: Optional[int] = None,
        on_shed: Optional[Callable[[Any, int], bool]] = None,
    ) -> Transport:
        """Default: the modelled ``LinkLayer`` over ``self.clock`` (the
        simulated and live drivers differ only in that clock); drivers
        that move brokers elsewhere (socket, wire node) override this."""
        return LinkLayer(
            self.clock,
            topo,
            paths,
            account=account,
            queue_cap=queue_cap,
            on_shed=on_shed,
        )

    def build_log_store(self, wal_dir: Optional[str] = None) -> Any:
        """Stable storage for the durability layer (one LogStore facade).

        Default (simulated time): an in-memory store that models a disk
        surviving the broker process — unless ``wal_dir`` pins the log to
        real files. The live driver overrides this to default to a
        file-backed store, so soaks exercise real torn-tail truncation.
        """
        from repro.pubsub.wal import FileLogStore, MemoryLogStore

        if wal_dir is not None:
            return FileLogStore(wal_dir)
        return MemoryLogStore()

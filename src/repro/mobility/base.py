"""The mobility protocol interface.

A protocol instance is created once per system and receives every
mobility-relevant callback from the pub/sub core:

* client life-cycle: first attach, reconnect, silent disconnect, proclaimed
  disconnect;
* event-for-client decisions (deliver live / store / forward / drop);
* protocol-specific control messages addressed to brokers.

Per-broker per-client protocol state lives in ``broker.pstate[client_id]``
so that the protocol remains *distributed in spirit*: a broker's handler may
only read and write its own broker's state and communicate with other
brokers through messages. (Tests enforce observable behaviour, not this
styling rule, but all three implementations follow it.)

Stored events (paper §4: the PQ, the TQs, the PQlist) move between brokers
in paced batches, and every protocol moves them through the two shapes
written here — the only module that reads ``migration_batch_size`` and
``stream_pacing_ms``:

* the **burst stream** (:meth:`MobilityProtocol._stream`): every batch
  timer is set at once, batch *i* ``i * stream_pacing_ms`` after the
  first; it cannot stop. MHH's queue fetches and TQ drains, sub-unsub's
  transfer.
* the **chained drain** (:meth:`MobilityProtocol._drain`): each batch
  sets the next one's timer, ``max(stream_pacing_ms, 1e-9)`` later, and
  asks where to first, so it can stop between batches. MHH's coordinator
  streaming its own queues (the §4.3 stop), home-broker's forward drain.

The two differ observably (timer order at equal times, the ``1e-9``
floor), which is why they stay two.

Handoff phases
--------------
Every protocol is one state machine written here. A broker keeps one
:class:`HandoffState` per handoff key in ``broker.pstate`` (the client id;
sub-unsub's subscription key ``(client, epoch)``), and the state's
``phase`` is a member of the protocol's ``Phase`` enum, whose member 0 is
``IDLE``: the phase of a key with no state. :meth:`MobilityProtocol.on_control`
hands a control message to ``_CONTROL[(phase, type(msg))]``; a pair the
table does not hold is a :class:`repro.errors.HandoffPhaseError` before any
handler runs. With the ``handoff_phase`` trace category on, every phase
change is one record (protocol, client, broker, epoch, frm, to). A
protocol declares its ``Phase``, its ``_CONTROL`` table, its ``State`` and
its ``_RESTING`` phases, and :meth:`~MobilityProtocol.quiescent` holds when
every state rests.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import HandoffPhaseError, ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry
from repro.pubsub import messages as m

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.queues import PersistentQueue
    from repro.pubsub.broker import Broker
    from repro.pubsub.system import PubSubSystem
    from repro.util.ids import QueueRef

__all__ = ["HandoffState", "MobilityProtocol", "every_phase"]


class HandoffState:
    """One broker's state for one handoff key: its ``phase`` and the
    connect ``epoch`` it serves (the newest it has seen; -1: none). Each
    protocol subclasses it with what its phases hold;
    :meth:`MobilityProtocol._state` makes it, IDLE."""

    __slots__ = ("phase", "epoch")


_PHASE = HandoffState.phase  # the slot under a traced state's property


def _traced_phase(st: HandoffState, to) -> None:
    frm = _PHASE.__get__(st)
    if to is not frm:
        protocol, broker, client = st.where
        st.tracer.emit(
            "handoff_phase", protocol=protocol, client=client, broker=broker,
            epoch=st.epoch, frm=frm.name, to=to.name,
        )
    _PHASE.__set__(st, to)


@cache
def _traced(state: type) -> type:
    """``state`` whose every phase change is one ``handoff_phase`` record;
    made in its place only when that category is traced, so an untraced
    run pays nothing for it."""
    return type(f"Traced{state.__name__}", (state,), {
        "__slots__": ("tracer", "where"),
        "phase": property(_PHASE.__get__, _traced_phase),
    })


def every_phase(phases, msg_type: type, handler) -> dict:
    """``_CONTROL`` entries taking ``msg_type`` in each of ``phases``."""
    return {(phase, msg_type): handler for phase in phases}


class MobilityProtocol:
    """Base class for mobility management protocols.

    Protocols are **sans-IO**: every effect goes through the system's
    :attr:`clock` (``now`` / ``call_later_fifo``) and :attr:`net`
    (``send_broker`` / ``unicast`` / ``reclaim_downlink``) facades, never
    through a scheduler or link model directly — so the same protocol
    instance runs under the discrete-event simulator and the live asyncio
    runtime unchanged (:mod:`repro.drivers`).
    """

    #: registry name; subclasses override
    name: str = "abstract"
    #: whether covering-based propagation pruning should be on by default
    default_covering: bool = False
    #: True if the protocol edits filter tables hop by hop and so needs every
    #: key installed exactly where it was advertised; ``PubSubSystem`` then
    #: refuses ``covering_enabled=True``, which prunes those installs
    needs_exact_tables: bool = False

    #: the phase enum; member 0 is IDLE (module docstring, "Handoff phases")
    Phase: type
    #: the per-key state, a HandoffState subclass
    State: type = HandoffState
    #: (phase, message type) -> handler(self, broker, state, msg, frm); the
    #: state is None in IDLE when the key has none
    _CONTROL: dict = {}
    #: the phases a drained run may leave states in
    _RESTING: frozenset = frozenset()
    #: a control message's handoff key: its ``pstate`` key
    _state_key = attrgetter("client")

    def __init__(self, system: "PubSubSystem") -> None:
        self.system = system
        #: sans-IO scheduling facade (repro.drivers.base.Clock)
        self.clock = system.clock
        #: sans-IO message-passing facade (repro.drivers.base.Transport)
        self.net = system.net
        #: emit under ``if self.tracer.wants(category)``: a run with tracing
        #: off then builds no record fields
        self.tracer = system.tracer
        #: layer-seam hook point behind :meth:`later` (empty = plain timers)
        self._timer_guard = system.hooks.timer_guard
        #: per-client subscription epochs handed out by :meth:`_next_epoch`
        self._epochs: dict[int, int] = {}
        self._trace_phases = self.tracer.wants("handoff_phase")
        self._new_state = (
            _traced(self.State) if self._trace_phases else self.State
        )
        self._idle = self.Phase(0)

    # ------------------------------------------------------------------
    # life-cycle hooks
    # ------------------------------------------------------------------
    def on_connect(
        self,
        broker: "Broker",
        client: int,
        last_broker: Optional[int],
        epoch: int = 0,
    ) -> None:
        """Client (re)connected at ``broker``; dispatch to first attach /
        same-broker reconnect / handoff.

        ``epoch`` is the client's monotone connect counter; protocols that
        race handoff control messages against reconnects (MHH) use it to
        recognise superseded requests. Others may ignore it.
        """
        raise NotImplementedError

    def on_disconnect(self, broker: "Broker", client: int) -> None:
        """Client silently disconnected from ``broker`` (detected instantly)."""
        raise NotImplementedError

    def on_proclaimed_disconnect(
        self, broker: "Broker", client: int, dest: int
    ) -> None:
        """Client disconnected after proclaiming it will reconnect at ``dest``.

        Protocols without proclaimed-move support treat it as silent.
        """
        self.on_disconnect(broker, client)

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def on_event_for_client(
        self,
        broker: "Broker",
        entry: ClientEntry,
        event: Notification,
        from_broker: Optional[int],
    ) -> None:
        """An event matched a local client entry (labels already honoured).

        Default policy: deliver if live, else append to the entry's sink
        queue, which :meth:`_open_sink` supplies for an offline entry
        installed without one. Protocols override for richer behaviour (HB
        forwarding).
        """
        if entry.live:
            broker.deliver_to_client(entry.client, event)
        else:
            sink = entry.sink
            if sink is None:
                sink = self._open_sink(broker, entry)
            broker.queues[sink].append(event)

    def _open_sink(self, broker: "Broker", entry: ClientEntry) -> int:
        """The queue id for an offline ``entry`` without a sink: a protocol
        that builds a queue on its first event (MHH's transit TQ) does it
        here; anywhere else it is a protocol fault."""
        raise ProtocolError(
            f"broker {broker.id}: offline entry of client {entry.client} "
            f"has no sink"
        )

    # ------------------------------------------------------------------
    # the handoff state machine (module docstring)
    # ------------------------------------------------------------------
    def on_control(self, broker: "Broker", msg: m.Message, frm: int) -> None:
        """Hand a control message to ``_CONTROL[(phase, type(msg))]``."""
        st = broker.pstate.get(self._state_key(msg))
        handler = self._CONTROL.get(
            (self._idle if st is None else st.phase, type(msg))
        )
        if handler is None:
            raise self._illegal(broker, msg.client, st, type(msg).__name__)
        handler(self, broker, st, msg, frm)

    def _state(self, broker: "Broker", client: int, key=None) -> HandoffState:
        """``broker``'s state under ``key`` (default: the client id), made
        IDLE on first use."""
        if key is None:
            key = client
        st = broker.pstate.get(key)
        if st is None:
            st = broker.pstate[key] = self._new_state()
            _PHASE.__set__(st, self._idle)
            if self._trace_phases:
                st.tracer = self.tracer
                st.where = (self.name, broker.id, client)
        return st

    def _illegal(self, broker: "Broker", client: int,
                 st: Optional[HandoffState], what: str) -> HandoffPhaseError:
        """The typed error for ``what`` reaching ``st`` (None: IDLE, and no
        epoch seen)."""
        if st is None:
            return HandoffPhaseError(broker.id, client, self._idle, -1, what)
        return HandoffPhaseError(broker.id, client, st.phase, st.epoch, what)

    # ------------------------------------------------------------------
    # stored events (module docstring)
    # ------------------------------------------------------------------
    def _stream(
        self, broker: "Broker", q: "PersistentQueue", dest: int,
        make: Callable, done: Callable, *args,
    ) -> None:
        """The burst stream: ship ``q`` to ``dest`` as ``make(batch)``
        messages, the first batch now and batch *i* ``i * pacing`` later,
        so a backlog takes simulated time in proportion to its size.
        ``done(*args)``, which drops ``q``, runs behind the last batch: its
        timer is set after theirs, so a completion message trails the data
        on FIFO links.

        ``q`` is frozen, and each batch pops off it when it leaves: events
        not yet shipped stay visible to a crash-repair round. An empty
        queue completes at once, but still as a timer. (An MHH transit hop
        that captured nothing has no TQ to stream; it sets the same
        zero-delay timer itself, so the ``(time, seq)`` order is the same.)
        """
        q.freeze()
        delay = 0.0
        if q.events:
            pacing = self.system.stream_pacing_ms
            n_batches = -(-len(q.events) // self.system.migration_batch_size)
            self._ship(broker, q, dest, make)
            for i in range(1, n_batches):
                self.later(broker, i * pacing, self._ship, broker, q, dest, make)
            if n_batches > 1:
                delay = (n_batches - 1) * pacing
        self.later(broker, delay, done, *args)

    def _drain(
        self, broker: "Broker", q: "PersistentQueue",
        aim: Callable[["PersistentQueue"], Optional[int]], make: Callable,
        done: Callable, *args,
    ) -> None:
        """The chained drain: ship one batch of ``q`` to ``aim(q)`` as a
        ``make(batch)`` message, then the next one
        ``max(pacing, 1e-9)`` later, until ``q`` is empty; then drop ``q``
        and run ``done(*args)``. ``aim`` is asked before every batch:
        ``None`` stops the drain there, the rest staying in ``q``."""
        dest = aim(q)
        if dest is None:
            return
        self._ship(broker, q, dest, make)
        if q.events:
            self.later(
                broker, max(self.system.stream_pacing_ms, 1e-9),
                self._drain, broker, q, aim, make, done, *args,
            )
        else:
            broker.drop_queue(q.ref)
            done(*args)

    def _ship(
        self, broker: "Broker", q: "PersistentQueue", dest: int,
        make: Callable,
    ) -> None:
        """Send the next ``migration_batch_size`` events of ``q`` to ``dest``."""
        batch = q.pop_batch(self.system.migration_batch_size)
        if batch:
            self.net.unicast(broker.id, dest, make(batch))

    def _streamed(
        self, broker: "Broker", ref: "QueueRef", to: int, msg: m.Message
    ) -> None:
        """A stream's usual ``done``: drop its queue, tell ``to`` with ``msg``."""
        broker.drop_queue(ref)
        self.net.unicast(broker.id, to, msg)

    def _flush(self, broker: "Broker", client: int, ref: "QueueRef") -> None:
        """Hand queue ``ref``'s events to the client's downlink, in order."""
        q = broker.get_queue(ref)
        while q.events:
            broker.deliver_to_client(client, q.events.popleft())

    def _reclaim_wireless(self, broker: "Broker", client: int,
                          ref: "QueueRef") -> None:
        """Pull queued (untransmitted) downlink events back into queue ``ref``."""
        pending = self.net.reclaim_downlink(client)
        events = [p.event for p in pending if isinstance(p, m.DeliverMessage)]
        if events:
            broker.get_queue(ref).extend_front(events)

    def _seeded_queue(
        self, broker: "Broker", client: int, backlog: list[Notification]
    ) -> "PersistentQueue":
        """A new queue at ``broker`` holding a repair round's ``backlog``."""
        q = broker.new_queue(client)
        q.events.extend(backlog)
        return q

    def _present(self, broker: "Broker", client: int) -> bool:
        """Is the client attached to this broker right now?

        This is broker-local knowledge (a base station knows its attached
        terminals); we read it from the client object for convenience.
        """
        c = self.system.clients[client]
        return c.connected and c.current_broker == broker.id

    def _next_epoch(self, client: int) -> int:
        e = self._epochs.get(client, -1) + 1
        self._epochs[client] = e
        return e

    # ------------------------------------------------------------------
    # crash recovery (inert unless a CrashPlan is active)
    # ------------------------------------------------------------------
    def later(self, broker: "Broker", delay: float, fn, *args) -> None:
        """Schedule a protocol timer owned by ``broker``.

        Pushed handle-free with ``clock.call_later_fifo``: no caller
        cancels a protocol timer, and the push takes the same ``(time,
        seq)`` place a ``call_later`` would. A layer that guards protocol
        timers wraps the callback first: crash repair stamps the
        continuation with its generation, so it is silently skipped if a
        repair round has run since or its owning broker is down — stale
        continuations never act on rebuilt state.
        """
        for guard in self._timer_guard:
            fn, args = guard(broker.id, fn, args)
        self.clock.call_later_fifo(delay, fn, *args)

    def install_recovered(
        self, broker: "Broker", client: "object", backlog: list[Notification]
    ) -> ClientEntry:
        """Install canonical *offline* state for ``client`` at ``broker``
        during a repair round, seeding its stored-event queue with
        ``backlog`` (publish-ordered survivors gathered from live brokers).

        Must not advertise — the coordinator floods the returned entry
        synchronously so the rebuilt routing state equals a from-scratch
        construction. A subsequent synthesized ``on_connect`` (for clients
        that were connected when the repair ran) brings the entry live.
        """
        raise NotImplementedError

    def recovery_anchor(
        self, client: "object", alive: set, default: int
    ) -> int:
        """Pick the live broker a repair round should root ``client``'s
        subscription at. ``default`` is the coordinator's choice (current
        broker if connected, else last/home/lowest live); protocols with a
        fixed rooting rule override (home-broker re-homes)."""
        return default

    def on_repair_reset(self) -> None:
        """Drop protocol-global scratch state after the overlay was rebuilt
        (called once per repair round, after the new tree is swapped in)."""

    def gather_stray(self, broker: "Broker"):
        """Yield ``(client, event)`` pairs held by ``broker`` outside its
        persistent queues (e.g. transfer buffers), so a repair round can
        account for — or salvage — them."""
        return ()

    # ------------------------------------------------------------------
    # end-of-run support
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no handoff machinery is in flight: every state is in a
        ``_RESTING`` phase and none owes work (used by the runner's drain
        phase together with an empty event heap)."""
        resting = self._RESTING
        for broker in self.system.brokers.values():
            for st in broker.pstate.values():
                if st.phase not in resting:
                    return False
        return not self._owes()

    def _owes(self) -> bool:
        """The protocol's exception to "resting is done": whether a resting
        state still waits for work."""
        return False

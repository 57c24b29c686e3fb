"""Two-phase handoff — a model of the authors' earlier protocol ([12]).

The paper positions MHH against the authors' own prior two-phase handoff
protocol: "there may be conflicts among the concurrent handoff processes
executing the protocol and, consequently, some events may be delayed ...
In contrast, the handoff process of a client in the MHH protocol does not
affect the event delivery of other clients" (§2).

We model the two phases as **prepare/commit around the event migration**:
before streaming the PQlist, the coordinator (old anchor) must acquire an
exclusive *transfer grant* from every broker on the transfer path
(phase one — prepare: the coordinator's ``GRANTING`` phase); it streams
and then releases them (phase two — commit). Grants are requested in
ascending broker-id order, which makes the protocol deadlock-free (no
circular wait), but concurrent handoffs
whose paths intersect serialize: their event migrations — and therefore
their clients' first deliveries — wait in line. Grant traffic itself also
costs control hops. Each prepare is numbered and a grant answers the
attempt that asked for it, so a grant for an aborted prepare goes back to
the lane even when a newer prepare for the same client waits there. The
subscription-migration machinery is untouched (its FIFO-based capture
correctness must not be tampered with — the argument is in
:mod:`repro.mobility.mhh`'s walk-through, step 2), so the protocol remains
exactly-once; it is just slower under concurrency, which is precisely the
paper's criticism.

This is an extension/ablation implementation, not a reproduction target:
the paper's evaluation does not include [12]. ``tests/test_paper_shapes.py``
compares it with MHH under concurrent movement.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.pubsub.messages import (
    CAT_MOBILITY_CTRL, Message, StopEventMigration,
)
from repro.mobility.base import every_phase
from repro.mobility.mhh import (
    GRANTING, IDLE, OUT_STREAMING, MHHProtocol, Phase,
)
from repro.wire.codec import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.broker import Broker

__all__ = ["TwoPhaseProtocol", "GrantRequest", "GrantAck", "GrantRelease"]


class GrantRequest(Message):
    """Coordinator -> path broker: reserve the transfer lane (prepare)."""

    __slots__ = ("client", "coordinator", "attempt")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, coordinator: int, attempt: int) -> None:
        self.client = client
        self.coordinator = coordinator
        self.attempt = attempt


class GrantAck(Message):
    """Path broker -> coordinator: lane reserved for you (the request's
    ``attempt`` echoed)."""

    __slots__ = ("client", "granter", "attempt")
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int, granter: int, attempt: int) -> None:
        self.client = client
        self.granter = granter
        self.attempt = attempt


class GrantRelease(Message):
    """Coordinator -> path broker: transfer finished (commit done)."""

    __slots__ = ("client",)
    category = CAT_MOBILITY_CTRL

    def __init__(self, client: int) -> None:
        self.client = client


# the grant handshake travels via net.unicast, so it crosses broker links
# and needs wire ids
register(GrantRequest, 26, (("client", "uint"), ("coordinator", "uint"),
                            ("attempt", "uint")))
register(GrantAck, 27, (("client", "uint"), ("granter", "uint"),
                        ("attempt", "uint")))
register(GrantRelease, 28, (("client", "uint"),))


class _Prepare:
    """Grant-acquisition state at a coordinator in ``GRANTING``."""

    __slots__ = ("targets", "acquired", "attempt")

    def __init__(self, targets: list[int], attempt: int) -> None:
        self.targets = targets      # ascending broker ids still to acquire
        self.acquired: list[int] = []
        self.attempt = attempt      # stamped on its requests, echoed by acks


class TwoPhaseProtocol(MHHProtocol):
    """MHH with a prepare/commit grant phase around event migration
    (models [12])."""

    name = "two-phase"

    def __init__(self, system) -> None:
        super().__init__(system)
        # per-broker transfer lane: holder client id + waiting requests
        self._lane_holder: dict[int, int] = {}
        self._lane_queue: dict[int, deque[GrantRequest]] = {}
        # per-client prepare state at the coordinating broker
        self._preparing: dict[tuple[int, int], _Prepare] = {}
        # lanes currently held by a (coordinator broker, client) pair
        self._held: dict[tuple[int, int], list[int]] = {}
        # prepares started so far: the attempt number of the newest
        self._attempts = 0
        #: number of grant requests that had to wait (ablation metric)
        self.conflicts = 0

    # ------------------------------------------------------------------
    # hook: OUT_STREAMING -> GRANTING before the first queue streams
    # ------------------------------------------------------------------
    def _stream_next(self, broker: "Broker", client: int, st) -> None:
        key = (broker.id, client)
        if key not in self._held and st.move.remaining:
            path = self.system.paths.path(broker.id, st.move.dest)
            # a dead broker holds no lane and can never answer a
            # GrantRequest; asking it would hang the prepare forever
            down = self.system.hooks.down_brokers
            targets = sorted(set(path) - down)
            self._attempts += 1
            prep = _Prepare(targets, self._attempts)
            self._preparing[key] = prep
            st.phase = GRANTING
            self._request_next_grant(broker, client, st, prep)
            return
        super()._stream_next(broker, client, st)

    def _request_next_grant(
        self, broker: "Broker", client: int, st, prep: _Prepare
    ) -> None:
        if not prep.targets:
            # prepare complete: GRANTING -> OUT_STREAMING (phase two)
            key = (broker.id, client)
            del self._preparing[key]
            self._held[key] = prep.acquired
            st.phase = OUT_STREAMING
            super()._stream_next(broker, client, st)
            return
        target = prep.targets[0]
        self.net.unicast(
            broker.id, target, GrantRequest(client, broker.id, prep.attempt)
        )

    # ------------------------------------------------------------------
    # grant handling at path brokers (any phase: a lane is per broker)
    # ------------------------------------------------------------------
    def _on_grant_request(self, broker: "Broker", st, msg: GrantRequest,
                          frm: int) -> None:
        holder = self._lane_holder.get(broker.id)
        if holder is None:
            self._lane_holder[broker.id] = msg.client
            self.net.unicast(
                broker.id, msg.coordinator,
                GrantAck(msg.client, broker.id, msg.attempt),
            )
        else:
            self.conflicts += 1
            if self.tracer.wants("tp_conflict"):
                self.tracer.emit(
                    "tp_conflict", broker=broker.id, client=msg.client,
                    holder=holder,
                )
            self._lane_queue.setdefault(broker.id, deque()).append(msg)

    def _on_grant_ack(self, broker: "Broker", st, msg: GrantAck,
                      frm: int) -> None:
        """GRANTING: the next lane is ours, unless the grant answers an
        older, aborted prepare."""
        prep = self._preparing[(broker.id, msg.client)]
        if prep.attempt != msg.attempt:
            self._return_grant(broker, st, msg, frm)
            return
        if prep.targets[0] != msg.granter:
            raise self._illegal(
                broker, msg.client, st, f"grant from {msg.granter}"
            )
        prep.targets.pop(0)
        prep.acquired.append(msg.granter)
        self._request_next_grant(broker, msg.client, st, prep)

    def _return_grant(self, broker: "Broker", st, msg: GrantAck,
                      frm: int) -> None:
        """Not GRANTING (or a stale attempt): the prepare was aborted
        (migration stopped) while this grant was in flight or queued —
        hand the lane straight back."""
        self.net.unicast(broker.id, msg.granter, GrantRelease(msg.client))

    def _on_grant_release(self, broker: "Broker", st, msg: GrantRelease,
                          frm: int) -> None:
        if self._lane_holder.get(broker.id) != msg.client:
            raise self._illegal(broker, msg.client, st, "release from non-holder")
        del self._lane_holder[broker.id]
        queue = self._lane_queue.get(broker.id)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._lane_queue[broker.id]
            self._lane_holder[broker.id] = nxt.client
            self.net.unicast(
                broker.id, nxt.coordinator,
                GrantAck(nxt.client, broker.id, nxt.attempt),
            )

    #: MHH's (phase, message type) table plus the three grant messages and
    #: a stop while GRANTING (it aborts the prepare)
    _CONTROL = {
        **MHHProtocol._CONTROL,
        **every_phase(Phase, GrantRequest, _on_grant_request),
        **every_phase(Phase, GrantAck, _return_grant),
        **every_phase(Phase, GrantRelease, _on_grant_release),
        (GRANTING, GrantAck): _on_grant_ack,
        (GRANTING, StopEventMigration): MHHProtocol._on_stop,
    }

    # ------------------------------------------------------------------
    # release on completion or stop
    # ------------------------------------------------------------------
    def _release_all(self, broker: "Broker", client: int) -> None:
        key = (broker.id, client)
        # abort a prepare still in progress: lanes already acquired are
        # released now; the in-flight request (if any) is handed back by
        # _return_grant
        prep = self._preparing.pop(key, None)
        lanes = list(self._held.pop(key, []))
        if prep is not None:
            lanes.extend(prep.acquired)
        for lane in lanes:
            self.net.unicast(broker.id, lane, GrantRelease(client))

    def _queue_done(self, broker: "Broker", client: int, st, ref) -> None:
        super()._queue_done(broker, client, st, ref)
        if st.phase is IDLE:
            # the migration finished (deliver_TQ launched): commit complete
            self._release_all(broker, client)

    def _do_stop(self, broker: "Broker", client: int, st) -> None:
        super()._do_stop(broker, client, st)
        if st.phase is IDLE:
            self._release_all(broker, client)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def on_repair_reset(self) -> None:
        # lane grants are scoped to the pre-repair overlay: every handoff
        # they guarded was wiped, so release everything (the repair round
        # reinstalls subscriptions from ground truth; holding stale lanes
        # would serialize — or deadlock — post-repair handoffs against
        # migrations that no longer exist)
        self._lane_holder.clear()
        self._lane_queue.clear()
        self._preparing.clear()
        self._held.clear()

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        if self._preparing or self._held or any(self._lane_queue.values()):
            return False
        return super().quiescent()

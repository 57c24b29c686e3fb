"""Two-phase handoff — a model of the authors' earlier protocol ([12]).

The paper positions MHH against the authors' own prior two-phase handoff
protocol: "there may be conflicts among the concurrent handoff processes
executing the protocol and, consequently, some events may be delayed ...
In contrast, the handoff process of a client in the MHH protocol does not
affect the event delivery of other clients" (§2).

We model the two phases as **prepare/commit around the event migration**:
before streaming the PQlist, the coordinator (old anchor) must acquire an
exclusive *transfer grant* from every broker on the transfer path
(phase one — prepare); it streams and then releases them (phase two —
commit). Grants are requested in ascending broker-id order, which makes
the protocol deadlock-free (no circular wait), but concurrent handoffs
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
from typing import Optional, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.pubsub.messages import Message, CAT_MOBILITY_CTRL
from repro.mobility.mhh import MHHProtocol, _Anchor

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


class _Prepare:
    """Grant-acquisition state at a coordinator."""

    __slots__ = ("targets", "acquired", "anchor", "attempt")

    def __init__(self, targets: list[int], anchor: _Anchor, attempt: int) -> None:
        self.targets = targets      # ascending broker ids still to acquire
        self.acquired: list[int] = []
        self.anchor = anchor
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
    # hook: instead of streaming on first ack, run the prepare phase
    # ------------------------------------------------------------------
    def _stream_next(self, broker: "Broker", client: int, anchor: _Anchor) -> None:
        key = (broker.id, client)
        if (
            key not in self._preparing
            and key not in self._held
            and anchor.out_migration is not None
            and anchor.out_migration.remaining
        ):
            om = anchor.out_migration
            path = self.system.paths.path(broker.id, om.dest)
            # a dead broker holds no lane and can never answer a
            # GrantRequest; asking it would hang the prepare forever
            down = self.system.hooks.down_brokers
            targets = sorted(set(path) - down)
            self._attempts += 1
            prep = _Prepare(targets, anchor, self._attempts)
            self._preparing[key] = prep
            self._request_next_grant(broker, client, prep)
            return
        super()._stream_next(broker, client, anchor)

    def _request_next_grant(
        self, broker: "Broker", client: int, prep: _Prepare
    ) -> None:
        if not prep.targets:
            # prepare complete: stream (phase two)
            key = (broker.id, client)
            del self._preparing[key]
            self._held[key] = prep.acquired
            anchor = prep.anchor
            if anchor.out_migration is None:  # pragma: no cover
                raise ProtocolError("prepare finished without migration")
            super()._stream_next(broker, client, anchor)
            return
        target = prep.targets[0]
        self.net.unicast(
            broker.id, target, GrantRequest(client, broker.id, prep.attempt)
        )

    # ------------------------------------------------------------------
    # grant handling at path brokers
    # ------------------------------------------------------------------
    def _on_grant_request(self, broker: "Broker", msg: GrantRequest, frm: int) -> None:
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

    def _on_grant_ack(self, broker: "Broker", msg: GrantAck, frm: int) -> None:
        prep = self._preparing.get((broker.id, msg.client))
        if prep is None or prep.attempt != msg.attempt:
            # the prepare was aborted (migration stopped) while this grant
            # was in flight or queued — a newer prepare for the same client
            # may have started since: hand the lane straight back
            self.net.unicast(
                broker.id, msg.granter, GrantRelease(msg.client)
            )
            return
        if not prep.targets or prep.targets[0] != msg.granter:
            raise ProtocolError(
                f"broker {broker.id}: unexpected grant ack from {msg.granter} "
                f"(client {msg.client})"
            )
        prep.targets.pop(0)
        prep.acquired.append(msg.granter)
        self._request_next_grant(broker, msg.client, prep)

    def _on_grant_release(self, broker: "Broker", msg: GrantRelease, frm: int) -> None:
        if self._lane_holder.get(broker.id) != msg.client:
            raise ProtocolError(
                f"broker {broker.id}: release from non-holder "
                f"(client {msg.client})"
            )
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

    #: MHH's control dispatch plus the three grant messages
    _CONTROL = {
        **MHHProtocol._CONTROL,
        GrantRequest: _on_grant_request,
        GrantAck: _on_grant_ack,
        GrantRelease: _on_grant_release,
    }

    # ------------------------------------------------------------------
    # release on completion or stop
    # ------------------------------------------------------------------
    def _release_all(self, broker: "Broker", client: int) -> None:
        key = (broker.id, client)
        # abort a prepare still in progress: lanes already acquired are
        # released now; the in-flight request (if any) is handed back by the
        # stale-ack path in _on_grant_ack
        prep = self._preparing.pop(key, None)
        lanes = list(self._held.pop(key, []))
        if prep is not None:
            lanes.extend(prep.acquired)
        for lane in lanes:
            self.net.unicast(broker.id, lane, GrantRelease(client))

    def _queue_done(self, broker: "Broker", client: int, anchor, ref) -> None:
        super()._queue_done(broker, client, anchor, ref)
        if anchor.out_migration is None:
            # the migration finished (deliver_TQ launched): commit complete
            self._release_all(broker, client)

    def _do_stop(self, broker: "Broker", client: int, anchor) -> None:
        super()._do_stop(broker, client, anchor)
        if anchor.out_migration is None:
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

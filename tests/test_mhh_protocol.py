"""Scenario tests for the MHH protocol (paper §4).

Each test drives a specific situation from the paper — silent move,
proclaimed move, same-broker reconnect, frequent moving with stop +
relinked PQlist — and asserts the externally observable guarantees:
exactly-once, per-publisher order, no loss, and a clean (quiescent) system.
"""

import pytest
from probes import check_mirror_invariant

from repro.errors import HandoffPhaseError
from repro.mobility.mhh import MHHProtocol, Phase
from repro.pubsub import messages as m
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem


def build(k=3, seed=1, trace=None):
    return PubSubSystem(grid_k=k, protocol="mhh", seed=seed, trace=trace)


def pair(system, sub_broker, pub_broker):
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=sub_broker, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=pub_broker)
    sub.connect(sub_broker)
    pub.connect(pub_broker)
    system.run(until=2000.0)
    return sub, pub


def finish(system):
    system.sim.run()
    assert system.sim.peek() is None
    assert system.protocol.quiescent()


def assert_clean(system):
    stats = system.metrics.delivery.stats
    assert stats.duplicates == 0
    assert stats.order_violations == 0
    assert stats.lost_explicit == 0
    assert stats.missing == 0
    assert stats.delivered == stats.expected


def test_silent_move_delivers_stored_backlog(caplog=None):
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=4000.0)
    for _ in range(5):
        pub.publish(0.25)
    system.run(until=8000.0)
    sub.connect(4)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 5
    assert system.metrics.handoffs.handoff_count == 1


def test_silent_move_handoff_delay_is_short():
    system = build(k=5)
    sub, pub = pair(system, 0, 24)
    sub.disconnect()
    system.run(until=4000.0)
    pub.publish(0.25)
    system.run(until=8000.0)
    sub.connect(24)
    finish(system)
    delay = system.metrics.handoffs.mean_delay()
    # one control round between new and old broker + first event flight +
    # wireless; far below the sub-unsub safety-interval regime
    assert delay is not None
    assert delay < 500.0


def test_same_broker_reconnect_is_not_a_handoff():
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(3):
        pub.publish(0.3)
    system.run(until=6000.0)
    sub.connect(0)
    finish(system)
    assert_clean(system)
    assert system.metrics.handoffs.handoff_count == 0
    assert system.metrics.delivery.stats.delivered == 3


def test_events_published_during_migration_are_not_lost():
    system = build(k=5)
    sub, pub = pair(system, 0, 12)
    sub.disconnect()
    system.run(until=3000.0)
    sub.connect(24)
    # publish while the handoff is in full flight
    for _ in range(10):
        pub.publish(0.1)
        system.run(until=system.sim.now + 7.0)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 10


def test_proclaimed_move_pre_stages_subscription():
    system = build(k=4, trace=["proclaimed_move", "anchor_formed"])
    sub, pub = pair(system, 0, 5)
    sub.proclaim_and_disconnect(15)
    system.run(until=4000.0)
    # events published while the client is off the air route to the new
    # broker already
    for _ in range(4):
        pub.publish(0.2)
    system.run(until=8000.0)
    sub.connect(15)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 4
    assert len(system.tracer.select("proclaimed_move")) == 1
    anchors = system.tracer.select("anchor_formed")
    assert [r.get("broker") for r in anchors] == [15]


def test_proclaimed_move_to_current_broker_degenerates_to_silent():
    system = build()
    sub, pub = pair(system, 3, 8)
    sub.proclaim_and_disconnect(3)
    system.run(until=3000.0)
    pub.publish(0.4)
    system.run(until=5000.0)
    sub.connect(3)
    finish(system)
    assert_clean(system)
    assert system.metrics.handoffs.handoff_count == 0


def test_proclaimed_move_but_reconnect_elsewhere():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.proclaim_and_disconnect(15)
    system.run(until=4000.0)
    pub.publish(0.2)
    system.run(until=8000.0)
    sub.connect(9)  # changed its mind
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 1


def test_two_consecutive_moves():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    for target in (15, 3):
        sub.disconnect()
        system.run(until=system.sim.now + 2000.0)
        pub.publish(0.1)
        system.run(until=system.sim.now + 2000.0)
        sub.connect(target)
        system.run(until=system.sim.now + 3000.0)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 2
    assert system.metrics.handoffs.handoff_count == 2


def test_rapid_move_mid_migration_stops_and_relinks():
    """The §4.3 case: disconnect before the event migration completes."""
    system = build(k=5, trace=["stopped_migration", "migration_complete"])
    sub, pub = pair(system, 0, 12)
    sub.disconnect()
    system.run(until=3000.0)
    # large backlog so the stream cannot finish instantly
    for _ in range(40):
        pub.publish(0.2)
    system.run(until=9000.0)
    sub.connect(24)
    # yank the client away immediately: the wireless drain of 40 events
    # takes 800 ms; leave after 100 ms
    system.run(until=system.sim.now + 100.0)
    sub.disconnect()
    system.run(until=system.sim.now + 5000.0)
    # reconnect somewhere else: the relinked, distributed PQlist must drain
    sub.connect(7)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 40


def test_stop_while_fetching_behind_a_local_queue_of_one_batch():
    """§4.3 stop at a coordinator whose PQlist opens with a local queue of
    one batch and goes on at another broker: the local queue streams in
    full at once and the coordinator fetches the remote one. A stop that
    arrives during that fetch must wait for it. It once found the finished
    local stream still recorded, took the local-stop branch and dropped
    the anchor, and the fetch's ``queue_streamed`` then raised."""
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=1,
                          migration_batch_size=1)
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(6):
        pub.publish(0.2)
    system.run(until=6000.0)
    # two interrupted moves leave the subscription at broker 1 with its
    # backlog spread over brokers 1, 2 and 0
    for target, stay in ((2, 5.0), (1, 0.5)):
        sub.connect(target)
        system.run(until=system.sim.now + stay)
        sub.disconnect()
        system.run(until=system.sim.now + 2000.0)
    anchor = system.brokers[1].pstate[sub.id].anchor
    first, second = anchor.pqlist[:2]
    assert (first.broker, len(system.brokers[1].get_queue(first))) == (1, 1)
    assert second.broker == 2
    # move to 0 and leave at once: 0's stop reaches broker 1 while it
    # fetches the queue at broker 2
    sub.connect(0)
    system.run(until=system.sim.now + 10.0)
    sub.disconnect()
    system.run(until=system.sim.now + 3000.0)
    sub.connect(8)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 6


def test_bounce_back_to_old_broker_mid_migration():
    system = build(k=5)
    sub, pub = pair(system, 0, 12)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(30):
        pub.publish(0.2)
    system.run(until=9000.0)
    sub.connect(24)
    system.run(until=system.sim.now + 60.0)
    sub.disconnect()
    system.run(until=system.sim.now + 50.0)
    sub.connect(0)  # back to the original broker
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 30


def test_pingpong_many_rapid_moves():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(25):
        pub.publish(0.3)
    system.run(until=8000.0)
    # ping-pong between brokers faster than any migration can finish
    for target in (15, 2, 13, 4, 11):
        sub.connect(target)
        system.run(until=system.sim.now + 45.0)
        sub.disconnect()
        system.run(until=system.sim.now + 30.0)
    sub.connect(8)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 25


def test_publish_while_moving_self_subscription():
    """A mobile client that also publishes events matching itself."""
    system = build(k=4)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    sub.connect(0)
    system.run(until=2000.0)
    sub.publish(0.5)
    system.run(until=4000.0)
    sub.disconnect()
    system.run(until=5000.0)
    sub.connect(15)
    system.run(until=7000.0)
    sub.publish(0.6)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 2


def test_mirror_invariant_after_many_migrations():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    for target in (15, 3, 12, 7):
        sub.disconnect()
        system.run(until=system.sim.now + 1500.0)
        pub.publish(0.2)
        system.run(until=system.sim.now + 1500.0)
        sub.connect(target)
        system.run(until=system.sim.now + 2500.0)
    finish(system)
    check_mirror_invariant(system)
    assert_clean(system)


def test_queues_cleaned_up_after_settling():
    system = build(k=4)
    sub, pub = pair(system, 0, 5)
    for target in (15, 3):
        sub.disconnect()
        system.run(until=system.sim.now + 1500.0)
        pub.publish(0.2)
        system.run(until=system.sim.now + 1500.0)
        sub.connect(target)
        system.run(until=system.sim.now + 2500.0)
    finish(system)
    # the client is connected and live: no queues should remain anywhere
    leftover = [
        (b.id, q)
        for b in system.brokers.values()
        for q in b.queues.values()
        if q.client == sub.id
    ]
    assert leftover == []


def test_concurrent_clients_do_not_interfere():
    """The paper's §2 claim: MHH handoffs are independent across clients."""
    system = build(k=4)
    movers = []
    for b in range(8):
        c = system.add_client(RangeFilter(0.0, 0.6), broker=b, mobile=True)
        c.connect(b)
        movers.append(c)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=15)
    pub.connect(15)
    system.run(until=3000.0)
    for c in movers:
        c.disconnect()
    system.run(until=4000.0)
    for _ in range(6):
        pub.publish(0.3)
    system.run(until=6000.0)
    # all reconnect at once at shuffled targets
    for i, c in enumerate(movers):
        c.connect((i * 5 + 3) % 16)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 6 * 8
    assert system.metrics.handoffs.handoff_count == 8


def test_request_parked_behind_an_abandoned_reconnect_is_not_outstanding():
    """2 -> 0 -> 2 inside one control round trip. The newest request (bring
    the subscription to broker 2) parks at broker 0 for an anchor that only
    the abandoned reconnect at 0 would have brought; the first move's
    migration roots the subscription at 2, under the connected client, all
    the same. ``quiescent()`` once read that parked, current-epoch request
    as work in flight — a drain deadlock in a real run."""
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=0,
                          migration_batch_size=3)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=8)
    sub.connect(0)
    pub.connect(8)
    system.run(until=2000.0)
    for target in (2, 0, 2):
        sub.disconnect()
        system.run(until=system.sim.now + 5.0 / 3.0)
        sub.connect(target)
        system.run(until=system.sim.now + 5.0)
    finish(system)
    parked = system.brokers[0].pstate[sub.id].pending_handoff
    assert (parked.new_broker, parked.epoch) == (2, sub.connect_epoch)
    assert system.brokers[2].pstate[sub.id].anchor.connected
    pub.publish(0.5)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 1


# ---------------------------------------------------------------------------
# transit TQs (§4.1): a hop builds its TQ on the first event it captures
# ---------------------------------------------------------------------------
def _spy_transit(monkeypatch, system):
    """Record every transit ack (broker, token parked before it, TQ after
    it, TQ frozen after it), every TQ built, and every TQ-drain completion
    timer of ``system``'s protocol."""
    seen = {"acks": [], "built": [], "drained": []}
    table = MHHProtocol._CONTROL
    key = (Phase.TRANSIT, m.SubMigrationAck)
    on_ack = table[key]

    def ack(self, broker, st, msg, frm):
        parked = st.move.pending_deliver is not None
        on_ack(self, broker, st, msg, frm)
        tq = st.move.tq
        frozen = tq is not None and broker.get_queue(tq).frozen
        seen["acks"].append((broker.id, parked, tq, frozen))

    monkeypatch.setitem(table, key, ack)
    protocol = system.protocol
    open_sink, later = protocol._open_sink, protocol.later

    def built(broker, entry):
        seen["built"].append(broker.id)
        return open_sink(broker, entry)

    def timer(broker, delay, fn, *args):
        if fn == protocol._transit_drained:
            seen["drained"].append((broker.id, delay))
        later(broker, delay, fn, *args)

    monkeypatch.setattr(protocol, "_open_sink", built)
    monkeypatch.setattr(protocol, "later", timer)
    return seen


def _queue_ids(system):
    return {b: system.ids.peek(f"queue/{b}") for b in system.brokers}


def test_transit_hop_that_captures_nothing_builds_no_queue(monkeypatch):
    """A quiet move: every transit hop acks, drains and passes the token
    on without a TQ — no queue id taken at any transit broker — yet each
    still completes behind one zero-delay timer, as an empty TQ's stream
    did, so the run's event order is the same either way."""
    system = build(k=4, trace=["handoff_phase"])
    sub, pub = pair(system, 0, 5)
    sub.disconnect()
    system.run(until=3000.0)
    pub.publish(0.2)
    system.run(until=4000.0)
    seen = _spy_transit(monkeypatch, system)
    ids = _queue_ids(system)
    sub.connect(15)
    finish(system)
    assert_clean(system)
    hops = sorted(r.get("broker") for r in system.tracer.select("handoff_phase")
                  if r.get("to") == "TRANSIT")
    assert hops
    assert seen["built"] == []
    assert sorted(b for b, *_ in seen["acks"]) == hops
    assert all(tq is None for _b, _p, tq, _f in seen["acks"])
    assert sorted(seen["drained"]) == [(b, 0.0) for b in hops]
    after = _queue_ids(system)
    assert {b: after[b] - ids[b] for b in hops} == dict.fromkeys(hops, 0)
    assert [q for b in hops for q in system.brokers[b].queues.values()] == []


def test_transit_hop_that_captures_builds_one_tq_frozen_at_the_ack(monkeypatch):
    """Events published beside the destination while the migration walks
    the tree: hops 4 and 5 of the 0 -> 1 path capture some. Each capturing
    hop builds exactly one TQ (one queue id), its ack freezes it — at hop 5
    ahead of the token, at hop 4 after the token overtook the ack and
    parked (``_park_token``) — and every event reaches the client once and
    in publish order."""
    system = build(k=4)
    sub, pub = pair(system, 0, 1)
    sub.disconnect()
    system.run(until=3000.0)
    seen = _spy_transit(monkeypatch, system)
    ids = _queue_ids(system)
    sub.connect(1)
    for _ in range(60):
        pub.publish(0.1)
        system.run(until=system.sim.now + 1.0)
    finish(system)
    assert_clean(system)
    assert system.metrics.delivery.stats.delivered == 60
    assert sorted(seen["built"]) == [4, 5]
    after = _queue_ids(system)
    assert [after[b] - ids[b] for b in (4, 5)] == [1, 1]
    acks = {b: (parked, tq, frozen) for b, parked, tq, frozen in seen["acks"]}
    assert acks[4][0] and not acks[5][0]  # token parked at 4 only
    for b in (4, 5):
        _parked, tq, frozen = acks[b]
        assert tq is not None and tq.broker == b and frozen
    assert all(q.client != sub.id for b in (4, 5)
               for q in system.brokers[b].queues.values())


def test_offline_entry_without_a_sink_outside_transit_raises():
    """Only a TRANSIT hop's labelled entry builds its queue on capture: an
    offline entry with no sink anywhere else is a protocol fault, loudly."""
    system = build()
    sub, pub = pair(system, 0, 8)
    sub.disconnect()
    system.run(until=3000.0)
    entry = system.brokers[0].table.get_client_entry(sub.id)
    assert not entry.live and entry.sink is not None  # the open tail
    entry.sink = None
    pub.publish(0.25)
    with pytest.raises(HandoffPhaseError, match="offline entry without a sink"):
        system.run(until=4000.0)

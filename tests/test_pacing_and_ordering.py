"""Tests for paced queue streaming and the ordering guarantees around it."""

import ast
from functools import partial
from pathlib import Path

import pytest

import repro.mobility
from repro.pubsub import messages as m
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem

BATCH_SIZES = [1, 3, 10, 100]


def build(protocol="mhh", pacing=None, batch=1, k=4, seed=1, trace=None):
    return PubSubSystem(
        grid_k=k, protocol=protocol, seed=seed,
        migration_batch_size=batch, stream_pacing_ms=pacing, trace=trace,
    )


def loaded_pair(system, backlog, sub_broker=0, pub_broker=5):
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=sub_broker, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=pub_broker)
    sub.connect(sub_broker)
    pub.connect(pub_broker)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(backlog):
        pub.publish(0.2)
    system.run(until=8000.0)
    return sub, pub


def migration_window_ms(system, sub, backlog, target):
    """Reconnect and measure first->last delivery time of the backlog."""
    sub.connect(target)
    system.sim.run()
    log = system.metrics.delivery
    assert log.stats.delivered == backlog
    return None


def test_pacing_stretches_stream_duration():
    """With pacing, a big backlog takes proportional simulated time."""
    def total_drain_time(pacing):
        system = build(pacing=pacing, batch=1)
        system.metrics.delivery.record_log = True
        sub, _pub = loaded_pair(system, backlog=40)
        t0 = system.sim.now
        sub.connect(15)
        system.sim.run()
        times = [t for (_c, _e, t) in system.metrics.delivery.log]
        return max(times) - t0

    fast = total_drain_time(pacing=0.0)
    slow = total_drain_time(pacing=10.0)
    # 40 events, one per 10 ms: at least ~300 ms longer than unpaced
    # (the serial wireless leg is common to both)
    assert slow >= fast


def test_pacing_zero_is_instantaneous_dispatch():
    system = build(pacing=0.0, batch=5)
    sub, _pub = loaded_pair(system, backlog=25)
    sub.connect(15)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == 25
    assert stats.duplicates == 0 and stats.order_violations == 0


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batch_sizes_preserve_semantics(batch):
    system = build(batch=batch)
    sub, _pub = loaded_pair(system, backlog=23)
    sub.connect(15)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == stats.expected == 23
    assert stats.duplicates == 0 and stats.order_violations == 0


def test_batching_reduces_migration_hop_count():
    def migration_hops(batch):
        system = build(batch=batch)
        sub, _pub = loaded_pair(system, backlog=30)
        sub.connect(15)
        system.sim.run()
        return system.metrics.traffic.wired_hops.get("event_migration", 0)

    assert migration_hops(10) < migration_hops(1)


def test_stop_mid_stream_keeps_remainder_in_place():
    """A disconnect mid-drain must strand no events and re-deliver none."""
    system = build(batch=1, k=5, trace=["stopped_migration"])
    sub, pub = loaded_pair(system, backlog=50, pub_broker=12)
    sub.connect(24)
    # the paced stream (50 batches x 10 ms) is mid-flight after 150 ms
    system.run(until=system.sim.now + 150.0)
    sub.disconnect()
    system.run(until=system.sim.now + 3000.0)
    stops = system.tracer.select("stopped_migration")
    assert stops, "expected the migration to be stopped mid-stream"
    sub.connect(7)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == stats.expected == 50
    assert stats.duplicates == 0 and stats.order_violations == 0


def test_order_preserved_across_paced_migration_per_publisher():
    system = build(batch=2, k=5)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pubs = [
        system.add_client(RangeFilter(2.0, 2.0), broker=b) for b in (6, 12, 18)
    ]
    sub.connect(0)
    for p in pubs:
        p.connect(p.home_broker)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    # interleaved publications from several publishers
    for round_ in range(10):
        for p in pubs:
            p.publish(0.5)
        system.run(until=system.sim.now + 40.0)
    sub.connect(24)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == 30
    assert stats.order_violations == 0
    assert stats.duplicates == 0


def test_sub_unsub_paced_transfer_still_merges_completely():
    system = build(protocol="sub-unsub", batch=1, k=4)
    sub, _pub = loaded_pair(system, backlog=35)
    sub.connect(15)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.delivered == stats.expected == 35
    assert stats.duplicates == 0 and stats.order_violations == 0


def test_home_broker_paced_drain_keeps_order_with_live_traffic():
    """Events published during the stored-backlog drain must not overtake."""
    system = build(protocol="home-broker", batch=1, k=5)
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=12)
    sub.connect(0)
    pub.connect(12)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(30):
        pub.publish(0.2)
    system.run(until=8000.0)
    sub.connect(24)
    # publish during the paced drain window
    for _ in range(5):
        system.run(until=system.sim.now + 30.0)
        pub.publish(0.2)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.order_violations == 0
    assert stats.duplicates == 0
    assert stats.delivered + stats.lost_explicit == stats.expected


# ----------------------------------------------------------------------
# the two stream shapes of MobilityProtocol, driven directly
# ----------------------------------------------------------------------
def stored_queue(broker, n):
    """A new queue at ``broker`` holding ``n`` events of one publisher."""
    q = broker.new_queue(0)
    for seq in range(n):
        q.append(Notification(seq, 99, seq, 0.0, 0.5))
    return q


def recording_unicast(system):
    """Replace the transport's unicast: record ``(time, to, msg)``."""
    sent = []
    system.net.unicast = lambda frm, to, msg: sent.append(
        (system.sim.now, to, msg))
    return sent


@pytest.mark.parametrize("pacing", [0.0, 2.5, None])
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_burst_stream_ships_the_queue_in_order_at_paced_instants(batch, pacing):
    system = build(pacing=pacing, batch=batch)
    protocol, broker = system.protocol, system.brokers[0]
    q = stored_queue(broker, 23)
    events = list(q)
    sent = recording_unicast(system)
    system.run(until=500.0)
    t0, p = system.sim.now, system.stream_pacing_ms
    done = m.QueueStreamed(0, q.ref)
    protocol._stream(
        broker, q, 5, partial(m.MigrateBatch, 0, append_to=None),
        protocol._streamed, broker, q.ref, 5, done,
    )
    assert q.frozen and broker.queues[q.ref.qid] is q
    with pytest.raises(RuntimeError):
        q.append(events[0])
    system.sim.run()
    *batches, (t_done, to, last) = sent
    n = -(-23 // batch)
    assert [t for t, _to, _msg in batches] == [t0 + i * p for i in range(n)]
    assert [ev for _t, _to, msg in batches for ev in msg.events] == events
    assert all(len(msg.events) == batch for _t, _to, msg in batches[:-1])
    # the completion trails the last batch, and its done dropped the queue
    assert (t_done, to, last) == (batches[-1][0], 5, done)
    assert q.ref.qid not in broker.queues


@pytest.mark.parametrize("pacing", [0.0, 2.5])
@pytest.mark.parametrize("stop_after", [1, 2, 4, None])
def test_chained_drain_stops_between_batches(stop_after, pacing):
    """``aim`` is asked before every batch; after a stop the rest stays in
    the (frozen) queue, in order, and nothing more is scheduled."""
    system = build(pacing=pacing, batch=3)
    protocol, broker = system.protocol, system.brokers[0]
    q = stored_queue(broker, 20)
    q.freeze()
    events = list(q)
    sent = recording_unicast(system)
    system.run(until=500.0)
    asked = []

    def aim(queue):
        assert queue is q
        asked.append(system.sim.now)
        return 5 if stop_after is None or len(asked) <= stop_after else None

    finished = []
    before = system.sim.events_processed
    protocol._drain(
        broker, q, aim, partial(m.MigrateBatch, 0, append_to=None),
        finished.append, "done",
    )
    system.sim.run()
    step = max(pacing, 1e-9)
    expect_times = [500.0]
    while len(expect_times) < len(asked):
        expect_times.append(expect_times[-1] + step)
    assert asked == expect_times
    shipped = [ev for _t, _to, msg in sent for ev in msg.events]
    assert [t for t, _to, _msg in sent] == asked[:len(sent)]
    if stop_after is None:
        assert shipped == events and len(sent) == len(asked) == 7
        assert finished == ["done"] and q.ref.qid not in broker.queues
    else:
        assert shipped == events[:3 * stop_after]
        assert list(q) == events[3 * stop_after:] and q.frozen
        assert finished == [] and broker.queues[q.ref.qid] is q
        # a timer per batch after the first, plus the one whose aim stopped
        assert len(asked) == stop_after + 1
    assert system.sim.events_processed - before == len(asked) - 1


_PACING_OPTIONS = ("stream_pacing_ms", "migration_batch_size")
_MOBILITY_MODULES = sorted(Path(repro.mobility.__file__).parent.glob("*.py"))


def _pacing_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in _PACING_OPTIONS
    ]


@pytest.mark.parametrize("path", _MOBILITY_MODULES, ids=lambda p: p.name)
def test_only_the_base_protocol_reads_the_pacing_options(path):
    """The pacing policy sits behind ``mobility/base.py``: the two stream
    shapes there are the only readers of the two options."""
    reads = _pacing_reads(path)
    if path.name == "base.py":
        assert len(reads) == 4, reads  # the walk sees what it forbids
    else:
        assert reads == []


def _state_machine_breaches(path: Path) -> list[str]:
    """What only ``mobility/base.py`` may write: an ``on_control`` and a
    ``HandoffPhaseError``; and ``isinstance`` on anything but a message
    (the protocol's own state answers by its phase)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.FunctionDef) and node.name == "on_control":
            out.append(f"{where} def on_control")
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func.endswith("HandoffPhaseError"):
                out.append(f"{where} {ast.unparse(node)}")
            elif func == "isinstance" and not (
                isinstance(node.args[1], ast.Attribute)
                and ast.unparse(node.args[1].value) == "m"
            ):
                out.append(f"{where} {ast.unparse(node)}")
    return out


@pytest.mark.parametrize("path", _MOBILITY_MODULES, ids=lambda p: p.name)
def test_only_the_base_protocol_dispatches_control_messages(path):
    """One handoff state machine: ``on_control`` and the typed error are
    written once, in ``mobility/base.py``, and no protocol asks a state
    what class it is."""
    breaches = _state_machine_breaches(path)
    if path.name == "base.py":
        # the walk sees what it forbids: the dispatch and the one error
        assert len(breaches) == 3, breaches
    else:
        assert breaches == []

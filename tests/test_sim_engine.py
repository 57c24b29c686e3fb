"""Differential tests: ``Simulator`` vs the independently written
``VirtualClock``.

The two are separate heap implementations behind one ``Clock`` facade and
must be *event-for-event identical* — same callbacks, same firing order,
same clock readings — because every FIFO-link correctness argument in the
protocol layer rests on the scheduler's deterministic ``(time, seq)``
order. These tests drive both with identical inputs at two levels:

1. raw scheduler: randomized interleavings of ``call_later`` /
   ``call_later_fifo`` / cancellation, including nested scheduling from
   inside callbacks and ``run(until=...)`` windowing;
2. whole-system: randomized MHH / sub-unsub / home-broker mobility
   scenarios with full tracing under the simulated driver and
   under ``LiveDriver(VirtualClock())`` — the trace must be byte-identical.

The ``test_fifo_*`` units pin the ``(time, seq)`` order across ``schedule``
and ``schedule_fifo`` on the ``Simulator`` itself.
"""

from __future__ import annotations

import random

import pytest

from repro.drivers.live import LiveDriver, VirtualClock
from repro.errors import SchedulingError
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.core import Simulator

# a realistic delay mix: zero-delay deferrals, wired hops, wireless slots,
# multi-hop unicast legs, and irregular timer-style delays
LANE_DELAYS = (0.0, 10.0, 10.0, 20.0, 30.0, 50.0)


# ---------------------------------------------------------------------------
# level 1: raw scheduler interleavings
# ---------------------------------------------------------------------------
def pump_random(make_clock, seed: int, n_ops: int = 600):
    """Drive one clock through a randomized schedule/cancel workload.

    All randomness is drawn in callback-firing order, so two clocks
    produce identical logs iff they fire events identically.
    """
    rng = random.Random(seed)
    sim = make_clock()
    log: list[tuple[float, int]] = []
    handles: list = []
    ops = 0

    def spawn_some() -> None:
        nonlocal ops
        for _ in range(rng.randrange(0, 4)):
            if ops >= n_ops:
                return
            ops += 1
            tag = ops
            if rng.random() < 0.6:
                delay = rng.choice(LANE_DELAYS)
                sim.call_later_fifo(delay, fire, tag)
            else:
                delay = rng.choice(LANE_DELAYS + (rng.uniform(0.0, 45.0),))
                h = sim.call_later(delay, fire, tag)
                if rng.random() < 0.3:
                    handles.append(h)

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        if handles and rng.random() < 0.2:
            handles.pop(rng.randrange(len(handles))).cancel()
        spawn_some()

    while ops < n_ops:
        spawn_some()
        sim.run()
    return log, sim.events_processed


@pytest.mark.parametrize("seed", range(15))
def test_differential_random_interleavings(seed):
    assert pump_random(Simulator, seed) == pump_random(VirtualClock, seed)


@pytest.mark.parametrize("seed", range(5))
def test_differential_windowed_run(seed):
    """run(until=...) windows cut both clocks at the same instants."""
    logs = []
    for make_clock in (Simulator, VirtualClock):
        rng = random.Random(seed)
        sim = make_clock()
        log: list[tuple[float, int]] = []

        def tick(tag, depth):
            log.append((sim.now, tag))
            if depth < 6:
                sim.call_later_fifo(rng.choice(LANE_DELAYS), tick, tag, depth + 1)
                sim.call_later(rng.uniform(0.0, 25.0), tick, -tag, depth + 1)

        for i in range(30):
            tick(i + 1, 0)
        t = 0.0
        while sim.peek() is not None:
            t += rng.uniform(1.0, 40.0)
            sim.run(until=t)
            log.append((sim.now, 0))  # clock checkpoints must agree too
        logs.append(log)
    assert logs[0] == logs[1]


def test_fifo_same_delay_preserves_submission_order():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule_fifo(10.0, fired.append, i)
    sim.run()
    assert fired == list(range(100))


def test_fifo_interleaves_with_heap_by_time_then_seq():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "heap-a")     # seq 0
    sim.schedule_fifo(10.0, fired.append, "lane-a")  # seq 1
    sim.schedule(5.0, fired.append, "heap-b")      # seq 2, earlier time
    sim.schedule_fifo(10.0, fired.append, "lane-b")  # seq 3
    sim.schedule_fifo(20.0, fired.append, "late")    # seq 4, later time
    sim.run()
    assert fired == ["heap-b", "heap-a", "lane-a", "lane-b", "late"]


def test_fifo_zero_delay_defers_within_instant():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule_fifo(0.0, fired.append, "inner")

    sim.schedule_fifo(1.0, outer)
    sim.schedule(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_fifo_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().schedule_fifo(-0.1, lambda: None)


def test_invalid_engine_rejected():
    """There is no engine to name any more: the keyword itself is the
    error (``test_removed_engine_options_fail_loudly`` holds the rest)."""
    with pytest.raises(TypeError, match="engine"):
        Simulator(engine="quantum")
    with pytest.raises(TypeError, match="sim_engine"):
        PubSubSystem(grid_k=2, sim_engine="quantum")


def test_fifo_run_until_and_pending_and_peek():
    sim = Simulator()
    sim.schedule_fifo(10.0, lambda: None)
    sim.schedule_fifo(30.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    assert sim.pending == 3
    assert sim.peek() == 10.0
    sim.run(until=25.0)
    assert sim.now == 25.0
    assert sim.pending == 1
    assert sim.peek() == 30.0
    sim.run()
    assert sim.pending == 0 and sim.peek() is None


def test_step_merges_lanes_and_heap():
    sim = Simulator()
    fired = []
    sim.schedule_fifo(10.0, fired.append, "lane")
    sim.schedule(5.0, fired.append, "heap")
    assert sim.step() and fired == ["heap"]
    assert sim.step() and fired == ["heap", "lane"]
    assert sim.step() is False


# ---------------------------------------------------------------------------
# level 2: whole-system scenarios, byte-identical traces
# ---------------------------------------------------------------------------
def run_scenario(protocol: str, driver, seed: int):
    """A randomized mobility scenario; rng draws happen outside callbacks,
    so both drivers see an identical action script."""
    rng = random.Random(seed)
    system = PubSubSystem(
        driver=driver, grid_k=3, protocol=protocol, seed=seed, trace="*"
    )
    n = system.broker_count
    subs = []
    for _ in range(4):
        lo = rng.uniform(0.0, 0.5)
        subs.append(
            system.add_client(
                RangeFilter(lo, lo + rng.uniform(0.1, 0.5)),
                broker=rng.randrange(n),
                mobile=True,
            )
        )
    pubs = [
        system.add_client(RangeFilter(2.0, 2.0), broker=rng.randrange(n))
        for _ in range(2)
    ]
    for c in subs + pubs:
        c.connect(c.home_broker)
    t = 0.0
    for _step in range(50):
        t += rng.uniform(5.0, 400.0)
        system.clock.run(until=t)
        roll = rng.random()
        mover = rng.choice(subs)
        if roll < 0.35:
            if mover.connected:
                mover.disconnect()
            else:
                mover.connect(rng.randrange(n))
        elif roll < 0.45:
            # proclaimed moves are an MHH feature (§4.1); baselines get a
            # silent move instead (same rng draws either way)
            dest = rng.randrange(n)
            if mover.connected:
                if protocol == "mhh":
                    mover.proclaim_and_disconnect(dest)
                else:
                    mover.disconnect()
        else:
            pub = rng.choice(pubs)
            for _ in range(rng.randrange(1, 4)):
                pub.publish(topic=rng.random())
    for c in subs:
        if not c.connected:
            c.connect(c.last_broker if c.last_broker is not None else c.home_broker)
    system.clock.run()
    return system


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub", "home-broker"])
@pytest.mark.parametrize("seed", [3, 17])
def test_differential_end_to_end_traces(protocol, seed):
    sim = run_scenario(protocol, None, seed)
    live = run_scenario(protocol, LiveDriver(VirtualClock()), seed)
    # byte-identical trace (times, categories, payloads, order)
    assert sim.tracer.format() == live.tracer.format()
    assert sim.tracer.records == live.tracer.records
    assert sim.tracer.records  # something actually happened
    # identical delivery / traffic / handoff metrics and event counts
    for attr in ("delivered", "duplicates", "order_violations", "missing",
                 "expected", "published"):
        assert getattr(sim.metrics.delivery.stats, attr) == \
            getattr(live.metrics.delivery.stats, attr), attr
    assert sim.metrics.traffic.by_category() == live.metrics.traffic.by_category()
    assert sim.metrics.handoffs.delays() == live.metrics.handoffs.delays()
    assert sim.clock.events_processed == live.clock.events_processed

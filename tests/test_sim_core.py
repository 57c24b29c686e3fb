"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SchedulingError
from repro.sim.core import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(50):
        sim.schedule(7.0, fired.append, i)
    sim.run()
    assert fired == list(range(50))


def test_zero_delay_event_fires_after_current_instant_fifo():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.schedule(1.0, fired.append, "sibling")
    sim.run()
    assert fired == ["outer", "sibling", "inner"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(30.0, fired.append, "b")
    sim.run(until=20.0)
    assert fired == ["a"]
    assert sim.now == 20.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.001, lambda: None)


def test_schedule_at_into_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == [1, 2]


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_returns_none():
    assert Simulator().peek() is None


def test_events_processed_counts_only_fired():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    sim.run()
    assert sim.events_processed == 1


def test_callback_exception_propagates_and_run_is_reusable():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run()
    # the failing event was consumed; the rest still runs
    sim.run()
    assert sim.now == 2.0


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SchedulingError as e:
            errors.append(e)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_schedule_fifo_counts_and_introspects():
    sim = Simulator()
    fired = []
    sim.schedule_fifo(2.0, fired.append, "a")
    sim.schedule_fifo(2.0, fired.append, "b")
    sim.schedule_fifo(5.0, fired.append, "c")
    assert sim.pending == 3
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_processed == 3
    assert sim.pending == 0


def test_schedule_fifo_on_heap_engine_is_equivalent():
    sim = Simulator()
    fired = []
    sim.schedule_fifo(10.0, fired.append, "lane-style")
    sim.schedule(5.0, fired.append, "timer")
    sim.run()
    assert fired == ["timer", "lane-style"]


def test_peek_with_lane_ahead_of_cancelled_heap_event():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule_fifo(3.0, lambda: None)
    h.cancel()
    assert sim.peek() == 3.0


def test_callback_exception_from_lane_keeps_engine_consistent():
    sim = Simulator()
    fired = []

    def boom():
        raise ValueError("boom")

    sim.schedule_fifo(1.0, boom)
    sim.schedule_fifo(1.0, fired.append, "next")
    with pytest.raises(ValueError):
        sim.run()
    sim.run()
    assert fired == ["next"]


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0

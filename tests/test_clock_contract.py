"""The Clock facade contract, run against every clock and the oracle.

``Simulator`` is the one timer queue: the simulated driver's clock is the
simulator itself, ``VirtualClock`` (deterministic virtual time, parity
tests) is its heap and run loop behind the live driver, and
``AsyncioClock`` (model time over a real event loop, the soak harness) is
the same heap fired by armed loop timers instead of a pull-based
``run()``. ``ReferenceClock`` (``tests/reference_clock.py``) is the
tests-only oracle the differentials compare the simulator against, so it
answers to the same cases. The kernel relies on identical semantics from
all of them:

* callbacks fire in ``(when, submission)`` order — equal-deadline entries
  run in the order they were scheduled, whether cancellable or FIFO;
* zero-delay chains scheduled by a firing callback run in the same burst;
* cancellation is idempotent, keeps the pending count honest, and a
  post-fire cancel is a harmless no-op;
* scheduling into the past is rejected loudly;
* ``now`` is monotone across a run.

Every case below is parametrized over the four clocks; the
VirtualClock-only ``run(until=...)`` window semantics (the simulator's
epoch-advance behaviour) get their own cases at the bottom.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.drivers.live import AsyncioClock, VirtualClock
from repro.errors import SchedulingError
from repro.sim.core import Simulator

from reference_clock import ReferenceClock

#: generous wall budget for the asyncio runs; they finish in milliseconds
_IDLE_TIMEOUT_S = 20.0


@pytest.fixture(params=["virtual", "asyncio", "simulator", "reference"])
def clock(request):
    if request.param == "virtual":
        yield VirtualClock()
    elif request.param == "simulator":
        yield Simulator()
    elif request.param == "reference":
        yield ReferenceClock()
    else:
        c = AsyncioClock(time_scale=10.0)
        yield c
        c.loop.close()


def _drain(clock) -> None:
    """Run the clock until nothing is pending, whichever engine it is."""
    if isinstance(clock, AsyncioClock):
        idle = clock.loop.run_until_complete(
            clock.wait_idle(timeout_s=_IDLE_TIMEOUT_S)
        )
        assert idle, "asyncio clock failed to drain within the wall budget"
    else:
        clock.run()


@contextmanager
def _one_instant(clock):
    """Hold an asyncio clock's loop ``time()`` at one reading while the
    block schedules; the other clocks' ``now`` moves only when they run."""
    if not isinstance(clock, AsyncioClock):
        yield
        return
    frozen = clock.loop.time()
    clock.loop.time = lambda: frozen
    try:
        yield
    finally:
        del clock.loop.time


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------
def test_fires_in_time_then_submission_order(clock):
    fired = []
    clock.call_later(50.0, fired.append, "later")
    clock.call_later(10.0, fired.append, "a")
    clock.call_later_fifo(10.0, fired.append, "b")
    clock.call_later(10.0, fired.append, "c")
    _drain(clock)
    assert fired == ["a", "b", "c", "later"]
    assert clock.pending == 0


def test_zero_delay_chains_run_in_one_burst(clock):
    fired = []

    def chain(n):
        fired.append(n)
        if n:
            clock.call_later(0.0, chain, n - 1)

    clock.call_later(0.0, chain, 3)
    _drain(clock)
    assert fired == [3, 2, 1, 0]


def test_callbacks_scheduled_while_firing_keep_order(clock):
    fired = []

    def first():
        fired.append("first")
        clock.call_later(0.0, fired.append, "nested-a")
        clock.call_later_fifo(0.0, fired.append, "nested-b")

    # the premise is two equal deadlines; AsyncioClock's `now` follows the
    # wall clock, so both calls must read it at one instant
    with _one_instant(clock):
        clock.call_later(5.0, first)
        clock.call_later(5.0, fired.append, "second")
    _drain(clock)
    assert fired == ["first", "second", "nested-a", "nested-b"]


def test_now_is_monotone_across_a_run(clock):
    stamps = []
    for delay in (30.0, 10.0, 20.0, 10.0):
        clock.call_later(delay, lambda: stamps.append(clock.now))
    _drain(clock)
    assert stamps == sorted(stamps)
    assert len(stamps) == 4


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------
def test_cancel_is_idempotent_and_tracks_pending(clock):
    fired = []
    handle = clock.call_later(10.0, fired.append, "no")
    clock.call_later(20.0, fired.append, "yes")
    assert clock.pending == 2
    handle.cancel()
    handle.cancel()
    assert clock.pending == 1
    _drain(clock)
    assert fired == ["yes"]
    # cancelling after the fire must not corrupt the pending count
    done = clock.call_later(10.0, fired.append, "again")
    _drain(clock)
    done.cancel()
    assert clock.pending == 0
    assert fired == ["yes", "again"]


def test_cancel_during_a_burst_suppresses_the_entry(clock):
    fired = []
    victim = clock.call_later(10.0, fired.append, "victim")
    clock.call_later(5.0, victim.cancel)
    clock.call_later(10.0, fired.append, "kept")
    _drain(clock)
    assert fired == ["kept"]
    assert clock.pending == 0


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------
def test_rejects_negative_delay(clock):
    with pytest.raises(SchedulingError):
        clock.call_later(-1.0, lambda: None)
    with pytest.raises(SchedulingError):
        clock.call_later_fifo(-0.001, lambda: None)


def test_asyncio_clock_records_a_raising_callback_and_keeps_the_burst():
    clock = AsyncioClock(time_scale=10.0)
    fired = []

    def bad():
        raise ValueError("handler failed")

    clock.call_later(10.0, fired.append, "before")
    clock.call_later(10.0, bad)
    clock.call_later_fifo(10.0, fired.append, "after")
    try:
        _drain(clock)
    finally:
        clock.loop.close()
    assert fired == ["before", "after"]
    assert clock.pending == 0
    ((when, name, exc),) = clock.errors
    assert when >= 10.0  # its deadline: scheduled at now (> 0) + 10 ms
    assert name.endswith("bad")
    assert exc == repr(ValueError("handler failed"))


def test_asyncio_clock_rejects_nonpositive_time_scale():
    with pytest.raises(SchedulingError):
        AsyncioClock(time_scale=0.0)
    with pytest.raises(SchedulingError):
        AsyncioClock(time_scale=-2.0)


# ---------------------------------------------------------------------------
# VirtualClock run-until window semantics (the simulator's epoch advance)
# ---------------------------------------------------------------------------
def test_virtual_run_until_advances_clock_like_simulator():
    clock = VirtualClock()
    fired = []
    clock.call_later(10.0, fired.append, "x")
    clock.run(until=4.0)
    assert fired == [] and clock.now == 4.0
    clock.run(until=25.0)
    assert fired == ["x"] and clock.now == 25.0


def test_virtual_run_until_in_the_past_never_rewinds_now():
    clock = VirtualClock(start_time=100.0)
    clock.run(until=5.0)
    assert clock.now == 100.0

"""Wireless fault injection: loss/dup/jitter knobs and their accounting.

The contract under test (see repro/network/faults.py): every injected
fault is *accounted* — drops land in the delivery checker as explicit
losses and in the injector's own count, duplicates equal the checker's
duplicate count — and an inactive profile changes nothing at all.
"""

import pytest

from repro.errors import ConfigurationError
from repro.network.faults import (
    FAULT_FREE, FaultProfile, LinkFaultInjector,
)
from repro.network.links import _WirelessChannel
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.core import Simulator
from repro.sim.rng import UNIFORM_BLOCK, RandomStreams


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------
class TestFaultProfile:
    def test_default_is_inactive(self):
        assert not FaultProfile().active
        assert not FAULT_FREE.active
        assert FAULT_FREE.label() == "faults=off"

    @pytest.mark.parametrize(
        "kw",
        [
            {"deliver_loss": 0.1},
            {"deliver_duplicate": 0.1},
            {"wireless_jitter_ms": 1.0},
        ],
    )
    def test_any_knob_activates(self, kw):
        profile = FaultProfile(**kw)
        assert profile.active
        assert profile.label() != "faults=off"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultProfile(deliver_loss=1.5)
        with pytest.raises(ConfigurationError):
            FaultProfile(deliver_duplicate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultProfile(wireless_jitter_ms=-1.0)


# ---------------------------------------------------------------------------
# system wiring
# ---------------------------------------------------------------------------
def lossy_system(**fault_kw):
    system = PubSubSystem(
        grid_k=2, protocol="mhh", seed=3, faults=FaultProfile(**fault_kw)
    )
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=3)
    sub.connect(0)
    pub.connect(3)
    system.run(until=500.0)
    return system, sub, pub


def test_inactive_profile_builds_no_injector():
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=1,
                          faults=FaultProfile())
    assert system.fault_injector is None
    assert system.net._injectors == []
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=1)
    assert system.fault_injector is None


def test_total_loss_accounts_every_delivery():
    system, sub, pub = lossy_system(deliver_loss=1.0)
    for _ in range(5):
        pub.publish(topic=0.5)
        system.run(until=system.sim.now + 500.0)
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.expected == 5
    assert stats.delivered == 0
    assert stats.lost_explicit == 5
    assert stats.missing == 0
    # the subscriber is the only recipient, so all five drops were on
    # its downlink
    assert system.fault_injector.drops == 5


def test_total_duplication_doubles_every_delivery():
    system, sub, pub = lossy_system(deliver_duplicate=1.0)
    for _ in range(4):
        pub.publish(topic=0.5)
        system.run(until=system.sim.now + 500.0)
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.expected == 4
    assert stats.delivered == 8
    assert stats.duplicates == 4
    assert stats.missing == 0
    assert stats.order_violations == 0
    assert system.fault_injector.dups_delivered == 4


def test_loss_spares_control_traffic():
    """Only final deliveries ride the unreliable path: with 100% loss the
    protocol still connects, publishes and hands off without wedging."""
    system, sub, pub = lossy_system(deliver_loss=1.0)
    pub.publish(topic=0.5)
    system.run(until=system.sim.now + 500.0)
    sub.disconnect()
    sub.connect(1)  # silent-move handoff under total delivery loss
    pub.publish(topic=0.5)
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.expected == 2
    assert stats.missing == 0
    assert stats.lost_explicit == 2
    assert system.metrics.handoffs.handoff_count == 1


def test_jitter_changes_timing_but_not_outcome():
    def run(jitter):
        system = PubSubSystem(
            grid_k=2, protocol="mhh", seed=3,
            faults=FaultProfile(wireless_jitter_ms=jitter) if jitter else None,
        )
        system.metrics.delivery.record_log = True
        sub = system.add_client(RangeFilter(0.0, 1.0), broker=0)
        pub = system.add_client(RangeFilter(0.9, 0.9), broker=3)
        sub.connect(0)
        pub.connect(3)
        system.run(until=500.0)
        for _ in range(6):
            pub.publish(topic=0.5)
        system.run()
        return system.metrics.delivery

    plain = run(0.0)
    jittered = run(25.0)
    jittered2 = run(25.0)
    # deterministic: identical seed -> identical jittered log, byte for byte
    assert jittered.log == jittered2.log
    # same deliveries, same order (serial FIFO survives jitter), later times
    assert [entry[:2] for entry in jittered.log] == [
        entry[:2] for entry in plain.log
    ]
    assert jittered.stats.order_violations == 0
    assert jittered.log != plain.log  # timing did move
    assert all(
        jt >= pt for (_, _, jt), (_, _, pt) in zip(jittered.log, plain.log)
    )


def test_seeded_loss_replays_identically():
    def run():
        system, sub, pub = lossy_system(deliver_loss=0.4,
                                        deliver_duplicate=0.3)
        system.metrics.delivery.record_log = True
        for _ in range(20):
            pub.publish(topic=0.5)
            system.run(until=system.sim.now + 100.0)
        system.run()
        return system

    a, b = run(), run()
    assert a.metrics.delivery.log == b.metrics.delivery.log
    assert a.fault_injector.drops == b.fault_injector.drops
    assert a.fault_injector.dups_delivered == b.fault_injector.dups_delivered


# ---------------------------------------------------------------------------
# channel-level edge cases
# ---------------------------------------------------------------------------
def make_channel(profile, delivered, droppable=lambda _msg: True,
                 dropped=None):
    sim = Simulator()
    injector = LinkFaultInjector(
        profile,
        rng=RandomStreams(1).stream("faults/wireless"),
        droppable=droppable,
        on_drop=(dropped.append if dropped is not None else lambda _m: None),
    )
    channel = _WirelessChannel(
        sim, 20.0, delivered.append, faults=[injector], client=7
    )
    return sim, channel, injector


def test_cancel_pending_forgets_dup_flags():
    """A reclaimed dup-flagged message must not leave a stale id behind
    (id reuse would mint a phantom duplicate for an unrelated message)."""
    delivered = []
    sim, channel, injector = make_channel(
        FaultProfile(deliver_duplicate=1.0), delivered
    )
    first, second = object(), object()
    channel.send(first)   # goes in service, dup-flagged
    channel.send(second)  # queued behind it, dup-flagged
    assert channel.cancel_pending() == [second]
    assert channel._dup_ids == {id(first)}
    sim.run()
    # the in-service message completed and duplicated; the reclaimed one
    # neither delivered nor left a flag behind
    assert delivered == [first, first]
    assert injector.dups_delivered == 1
    assert channel._dup_ids == set()


def test_dropped_message_never_occupies_the_channel():
    delivered = []
    dropped = []
    sim, channel, injector = make_channel(
        FaultProfile(deliver_loss=1.0), delivered, dropped=dropped
    )
    msg = object()
    channel.send(msg)
    assert channel.backlog == 0
    sim.run()
    assert delivered == []
    assert dropped == [msg]
    assert injector.drops == 1


def test_ineligible_payloads_consume_no_randomness():
    delivered = []
    sim, channel, injector = make_channel(
        FaultProfile(deliver_loss=1.0), delivered,
        droppable=lambda _msg: False,
    )
    position = injector.rng.position
    for _ in range(3):
        channel.send(object())
    assert injector.rng.position == position
    sim.run()
    assert len(delivered) == 3
    assert injector.drops == 0


# ---------------------------------------------------------------------------
# block draws against scalar draws
# ---------------------------------------------------------------------------
class _ScalarFaults:
    """The injector's draws made one scalar call at a time: the
    reference the block-drawn stream must reproduce value for value."""

    def __init__(self, profile, rng):
        self.profile = profile
        self.rng = rng
        self.draws = 0

    def fate(self, eligible):
        p = self.profile
        if not eligible:
            return "ok"
        self.draws += 1
        if float(self.rng.random()) < p.deliver_loss:
            return "drop"
        self.draws += 1
        if float(self.rng.random()) < p.deliver_duplicate:
            return "dup"
        return "ok"

    def jitter(self):
        self.draws += 1
        return float(self.rng.uniform(0.0, self.profile.wireless_jitter_ms))


def test_block_draws_equal_scalar_draws_through_both_channels():
    """Fates and jitters drawn through one downlink and one uplink channel
    sharing an injector equal a scalar reference on a fresh stream of the
    same seed, across several block refills: uplink sends draw jitter
    only, ineligible downlink payloads draw jitter only."""
    profile = FaultProfile(deliver_loss=0.3, deliver_duplicate=0.25,
                           wireless_jitter_ms=7.5)
    sim = Simulator()
    got, dropped = [], []
    injector = LinkFaultInjector(
        profile,
        rng=RandomStreams(11).stream("faults/wireless"),
        droppable=lambda msg: msg[0] == "data",
        on_drop=dropped.append,
    )
    down = _WirelessChannel(
        sim, 20.0, lambda msg: got.append((msg, sim.now)),
        faults=[injector], client=7, jitters=[injector])
    up = _WirelessChannel(
        sim, 20.0, lambda msg: got.append((msg, sim.now)),
        client=7, jitters=[injector])
    ref = _ScalarFaults(profile, RandomStreams(11).stream("faults/wireless"))
    want, want_dropped, dups = [], [], 0
    i = 0
    while ref.draws <= 2 * UNIFORM_BLOCK + 16:
        # every send finds its channel idle: 100 ms apart, 27.5 ms at most
        sim.run(until=i * 100.0)
        kind = ("data", "up", "ctrl", "data")[i % 4]
        msg = (kind, i)
        if kind == "up":
            up.send(msg)
            want.append((msg, i * 100.0 + (20.0 + ref.jitter())))
        else:
            down.send(msg)
            fate = ref.fate(eligible=kind == "data")
            if fate == "drop":
                want_dropped.append(msg)
            else:
                at = i * 100.0 + (20.0 + ref.jitter())
                want.append((msg, at))
                if fate == "dup":
                    dups += 1
                    want.append((msg, at))
        i += 1
    sim.run()
    assert got == want
    assert dropped == want_dropped
    assert injector.drops == len(want_dropped) > 0
    assert injector.dups_delivered == dups > 0

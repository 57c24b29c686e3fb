"""Unit tests for subscription propagation at the broker level.

Covers the covering-pruned flood, the re-advertisement logic on
withdrawal, and the direct table surgery used by MHH migrations.
"""

import pytest

from repro.errors import ProtocolError
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.pubsub import messages as m
from mhh_nopqlist import MHHNoPQList


def build(covering, k=3, seed=1):
    # subscriptions here never move, so the protocol only names who may be
    # built with covering: MHH refuses it (tested below)
    return PubSubSystem(
        grid_k=k, protocol="sub-unsub" if covering else "mhh", seed=seed,
        covering_enabled=covering,
    )


def sub_hops(system):
    return system.metrics.traffic.wired_hops.get(m.CAT_SUB_INITIAL, 0)


def test_flood_reaches_every_broker_without_covering():
    system = build(covering=False)
    c = system.add_client(RangeFilter(0.2, 0.4), broker=4)
    c.connect(4)
    system.run(until=3000.0)
    # every broker must know the subscription via exactly one neighbour
    for b in system.brokers.values():
        if b.id == 4:
            assert b.table.entries_for_client(c.id)
            continue
        holders = [
            n for n in b.table.neighbors
            if b.table.has_broker_filter(n, ("sub", c.id))
        ]
        assert len(holders) == 1
    # flood cost: one message per tree edge
    assert sub_hops(system) == 8


def test_identical_filter_suppressed_by_covering():
    system = build(covering=True)
    a = system.add_client(RangeFilter(0.2, 0.4), broker=4)
    a.connect(4)
    system.run(until=3000.0)
    before = sub_hops(system)
    b = system.add_client(RangeFilter(0.2, 0.4), broker=4)
    b.connect(4)
    system.run(until=6000.0)
    assert sub_hops(system) == before  # second sub fully covered


def test_narrower_filter_suppressed_wider_not():
    system = build(covering=True)
    wide = system.add_client(RangeFilter(0.1, 0.9), broker=4)
    wide.connect(4)
    system.run(until=3000.0)
    at_wide = sub_hops(system)
    narrow = system.add_client(RangeFilter(0.3, 0.5), broker=4)
    narrow.connect(4)
    system.run(until=6000.0)
    assert sub_hops(system) == at_wide  # narrow covered by wide
    wider = system.add_client(RangeFilter(0.0, 1.0), broker=4)
    wider.connect(4)
    system.run(until=9000.0)
    assert sub_hops(system) > at_wide  # wider must propagate


def test_unsubscribe_re_advertises_suppressed_filter():
    """Removing a covering filter must resurrect the covered one."""
    system = build(covering=True)
    wide = system.add_client(RangeFilter(0.0, 1.0), broker=4)
    narrow = system.add_client(RangeFilter(0.3, 0.5), broker=4)
    wide.connect(4)
    system.run(until=2000.0)
    narrow.connect(4)
    pub = system.add_client(RangeFilter(2.0, 2.0), broker=0)
    pub.connect(0)
    system.run(until=4000.0)
    # withdraw the wide subscription entirely
    system.brokers[4].local_unsubscribe(wide.id, m.CAT_SUB_HANDOFF)
    system.run(until=8000.0)
    system.check_mirror_invariant()
    # the narrow subscription must still route events
    pub.publish(0.4)
    system.run(until=12000.0)
    stats = system.metrics.delivery.stats
    assert stats.delivered == 1  # narrow got it, wide is gone
    # and out-of-range events reach nobody
    pub.publish(0.05)
    system.run()
    assert system.metrics.delivery.stats.delivered == 1


def test_unsubscribe_propagates_when_no_cover_remains():
    system = build(covering=True)
    c = system.add_client(RangeFilter(0.2, 0.4), broker=4)
    c.connect(4)
    system.run(until=3000.0)
    key = system.brokers[4].table.require_client_entry(c.id).key
    system.brokers[4].local_unsubscribe(c.id, m.CAT_SUB_HANDOFF)
    system.run(until=6000.0)
    for b in system.brokers.values():
        for n in b.table.neighbors:
            assert not b.table.has_broker_filter(n, key)
    system.check_mirror_invariant()


def test_migration_remove_missing_filter_raises():
    system = build(covering=False)
    broker = system.brokers[4]
    with pytest.raises(ProtocolError):
        broker.migration_remove_from(1, "nonexistent-key")


@pytest.mark.parametrize("protocol", ["mhh", MHHNoPQList],
                         ids=["mhh", "mhh-nopqlist"])
def test_covering_refused_where_migration_needs_exact_tables(protocol):
    """Accepted before, it died mid-run in the backstop above
    (``migration expected filter ('sub', 12) from neighbour 1``)."""
    from repro.errors import ConfigurationError
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.workload.spec import WorkloadSpec

    cfg = ExperimentConfig(
        protocol, grid_k=4, seed=1, covering_enabled=True,
        workload=WorkloadSpec(
            clients_per_broker=4, mobile_fraction=0.5, mean_connected_s=2.0,
            mean_disconnected_s=2.0, publish_interval_s=5.0, duration_s=60.0,
        ),
    )
    with pytest.raises(ConfigurationError, match="covering_enabled") as err:
        run_experiment(cfg)
    assert repr(getattr(protocol, "name", protocol)) in str(err.value)
    # the protocol's own default, and an explicit off, are still accepted
    assert PubSubSystem(grid_k=3, protocol=protocol).covering_enabled is False
    PubSubSystem(grid_k=3, protocol=protocol, covering_enabled=False)


def test_unknown_protocol_name_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=3, protocol="definitely-not-a-protocol")


def test_system_config_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=0)
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=3, migration_batch_size=0)
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=3, stream_pacing_ms=-1.0)


def test_callable_protocol_factory():
    from repro.mobility.mhh import MHHProtocol

    created = []

    def factory(system):
        proto = MHHProtocol(system)
        created.append(proto)
        return proto

    system = PubSubSystem(grid_k=3, protocol=factory)
    assert system.protocol is created[0]

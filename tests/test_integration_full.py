"""End-to-end integration: full workload runs for every protocol.

These are miniature versions of the paper's experiment: a complete
population, exponential mobility, Poisson publishing — followed by the
reliability audit. They exercise every protocol path that the figure
sweeps rely on.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.workload.spec import WorkloadSpec


def spec(conn_s, disc_s=45.0, duration_s=450.0):
    return WorkloadSpec(
        clients_per_broker=4,
        mobile_fraction=0.3,
        mean_connected_s=conn_s,
        mean_disconnected_s=disc_s,
        publish_interval_s=40.0,
        duration_s=duration_s,
    )


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
@pytest.mark.parametrize("conn_s", [5.0, 60.0])
def test_reliable_protocols_under_full_workload(protocol, conn_s):
    row = run_experiment(
        ExperimentConfig(
            protocol=protocol, grid_k=4, seed=6, workload=spec(conn_s)
        )
    )
    assert row.handoffs > 0
    assert row.duplicates == 0
    assert row.order_violations == 0
    assert row.lost == 0
    assert row.missing == 0


@pytest.mark.parametrize("conn_s", [5.0, 60.0])
def test_home_broker_accounts_all_events_under_full_workload(conn_s):
    row = run_experiment(
        ExperimentConfig(
            protocol="home-broker", grid_k=4, seed=6, workload=spec(conn_s)
        )
    )
    assert row.handoffs > 0
    assert row.duplicates == 0
    assert row.missing == 0
    assert row.delivered + row.lost == row.expected_deliveries


def test_home_broker_actually_loses_under_fast_movement():
    row = run_experiment(
        ExperimentConfig(
            protocol="home-broker",
            grid_k=5,
            seed=2,
            workload=spec(conn_s=3.0, disc_s=10.0, duration_s=600.0),
        )
    )
    assert row.lost > 0  # the paper's reliability gap is measurable


def test_mhh_beats_sub_unsub_delay_on_identical_workload():
    rows = {
        p: run_experiment(
            ExperimentConfig(protocol=p, grid_k=5, seed=3, workload=spec(60.0))
        )
        for p in ("mhh", "sub-unsub")
    }
    assert (
        rows["mhh"].mean_handoff_delay_ms
        < rows["sub-unsub"].mean_handoff_delay_ms
    )
    # the median strips the shared workload noise; the gap is the protocol
    assert (
        rows["mhh"].median_handoff_delay_ms
        < rows["sub-unsub"].median_handoff_delay_ms
    )


def test_overhead_accounting_consistent():
    row = run_experiment(
        ExperimentConfig(protocol="mhh", grid_k=4, seed=9, workload=spec(30.0))
    )
    from repro.pubsub.messages import OVERHEAD_CATEGORIES

    manual = sum(
        hops
        for cat, hops in row.overhead_by_category.items()
        if cat in OVERHEAD_CATEGORIES
    )
    assert row.overhead_per_handoff == pytest.approx(manual / row.handoffs)


def test_tree_unicast_system_remains_reliable():
    from repro.pubsub.system import PubSubSystem
    from repro.workload.mobility_model import Workload

    system = PubSubSystem(grid_k=4, protocol="mhh", seed=5)
    # route point-to-point traffic over the overlay tree (the ablation)
    system.net._unicast_hops = system.tree.hop_count
    workload = Workload(system, spec(20.0, duration_s=300.0))
    system.run(until=300_000.0)
    workload.stop()
    for c in workload.all_clients:
        if not c.connected:
            c.connect(c.last_broker or c.home_broker)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.missing == 0
    assert stats.duplicates == 0
    assert stats.order_violations == 0

"""The paper's curve shapes and the claims its ablations stand on.

Figures 5 and 6 compare MHH with the sub-unsub and home-broker baselines;
§4.3 and §5.1 make the claims the three ablations isolate (§2's claim
that one client's handoff leaves the others' deliveries alone is an exact
property, ``tests/test_non_interference.py``). Every shape is asserted on
seeds 1, 2 and 3: a shape that holds on one seed in three is not a
result.

A figure's a and b panels read the same sweep, run once per (figure,
scale, seed) by a module-scoped fixture. Both figures run at ``smoke``
scale, except the two Fig 6 shapes that need distance to show — HB's
margin over MHH widening and sub-unsub's delay gap over MHH growing —
which run at ``small`` on grid sides 5 and 10. One shape is asserted
outside this file: Fig 6(a)'s ordering at its largest size and the
paper's density (HB above sub-unsub above MHH at k=14, 10 clients per
broker) costs over a minute of simulation per seed, so the CI job
``paper-scale`` checks it on seeds 1, 2 and 3.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig5a, fig5b, fig6a, fig6b, run_fig5, run_fig6,
)
from repro.experiments.runner import run_experiment
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.workload.mobility_model import Workload
from repro.workload.spec import WorkloadSpec
from mhh_nopqlist import MHHNoPQList

SEEDS = (1, 2, 3)


def by_protocol(series):
    """(mhh, home-broker, sub-unsub) as x -> y lookups."""
    return tuple(dict(series[p]) for p in ("mhh", "home-broker", "sub-unsub"))


@pytest.fixture(scope="module", params=SEEDS)
def fig5_smoke(request):
    return run_fig5(scale="smoke", seed=request.param)


@pytest.fixture(scope="module", params=SEEDS)
def fig6_smoke(request):
    return run_fig6(scale="smoke", grid_sizes=(3, 4, 5), seed=request.param)


@pytest.fixture(scope="module", params=SEEDS)
def fig6_small(request):
    return run_fig6(scale="small", grid_sizes=(5, 10), seed=request.param)


# ---------------------------------------------------------------------------
# Figure 5: against the mean connection period
# ---------------------------------------------------------------------------
def test_fig5a_home_broker_overhead_blows_up_while_mhh_stays_flat(fig5_smoke):
    """Fig 5(a), overhead per handoff: HB's triangle routing is amortised
    over ever fewer handoffs, so it grows steeply with the connection
    period and ends far above both others; MHH stays flat; sub-unsub pays
    floods and backlog re-shipping above MHH at the long end."""
    mhh, hb, su = by_protocol(fig5a(fig5_smoke))
    lo, hi = min(mhh), max(mhh)
    assert hb[hi] > 5 * hb[lo]
    assert hb[hi] > 2 * su[hi] and hb[hi] > 2 * mhh[hi]
    assert max(mhh.values()) < 2.5 * min(mhh.values()) + 10
    assert su[hi] > mhh[hi]


def test_fig5b_sub_unsub_waits_longest_and_mhh_tracks_home_broker(fig5_smoke):
    """Fig 5(b), handoff delay: sub-unsub waits out its safety interval and
    the merge before delivering anything, so it sits above MHH and HB at
    every connection period; MHH and HB both need about one control round
    trip plus the first event's flight, so they stay within a small
    factor of each other."""
    mhh, hb, su = by_protocol(fig5b(fig5_smoke))
    for x in mhh:
        if su[x] is None or mhh[x] is None or hb[x] is None:
            continue
        assert su[x] > mhh[x]
        assert su[x] > hb[x]
        assert mhh[x] < 3 * hb[x] + 100
        assert hb[x] < 3 * mhh[x] + 100


# ---------------------------------------------------------------------------
# Figure 6: against the number of base stations
# ---------------------------------------------------------------------------
def test_fig6a_overhead_grows_with_the_network(fig6_smoke):
    """Fig 6(a), overhead per handoff: every protocol's overhead grows
    with the network, and MHH (no floods) stays below sub-unsub."""
    mhh, hb, su = by_protocol(fig6a(fig6_smoke))
    lo, hi = min(mhh), max(mhh)
    assert mhh[hi] > mhh[lo]
    assert su[hi] > su[lo]
    assert hb[hi] > hb[lo]
    assert mhh[hi] < su[hi]


def test_fig6a_home_broker_margin_over_mhh_widens(fig6_small):
    """Fig 6(a): HB's margin over MHH widens with the network, because
    triangle routing worsens with distance."""
    mhh, hb, _su = by_protocol(fig6a(fig6_small))
    lo, hi = min(mhh), max(mhh)
    assert hb[hi] - mhh[hi] > hb[lo] - mhh[lo]


def test_fig6b_sub_unsub_delay_sits_above(fig6_smoke):
    """Fig 6(b), handoff delay: sub-unsub's safety interval follows the
    overlay *diameter* while MHH and HB follow the *average* distance, so
    sub-unsub sits above both at every size and MHH tracks HB."""
    mhh, hb, su = by_protocol(fig6b(fig6_smoke))
    for x in mhh:
        assert su[x] > mhh[x]
        assert su[x] > hb[x]
    hi = max(mhh)
    assert mhh[hi] < 3 * hb[hi] + 100


def test_fig6b_sub_unsub_gap_over_mhh_grows(fig6_small):
    """Fig 6(b): sub-unsub's protocol delay grows with the network. The
    wait for a fresh event is common to every protocol (same seeds, same
    workload) and dominates the absolute delays, so the growth is asserted
    on the gap over MHH."""
    mhh, _hb, su = by_protocol(fig6b(fig6_small))
    lo, hi = min(mhh), max(mhh)
    assert su[hi] - mhh[hi] > su[lo] - mhh[lo]


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------
def flood_cost(k, covering, seed):
    """Sub-unsub's subscription-flood hops per handoff."""
    row = run_experiment(ExperimentConfig(
        protocol="sub-unsub", grid_k=k, seed=seed, covering_enabled=covering,
        workload=WorkloadSpec(
            clients_per_broker=5, mean_connected_s=60.0,
            mean_disconnected_s=60.0, publish_interval_s=120.0,
            duration_s=600.0,
        ),
    ))
    assert row.missing == 0 and row.duplicates == 0
    return row.overhead_by_category.get("sub_handoff", 0) / max(row.handoffs, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_covering_prunes_subscription_floods(seed):
    """Fig 6(a)'s explanation of sub-unsub's sub-linear growth: "a
    subscription is more likely to be covered by other subscriptions" as
    the network grows. Covering prunes the handoff floods, without it
    their cost grows with the broker count, and it prunes relatively more
    in the larger network."""
    cost = {(k, cov): flood_cost(k, cov, seed)
            for k in (4, 6) for cov in (False, True)}
    for k in (4, 6):
        assert cost[(k, True)] < 0.8 * cost[(k, False)]
    assert cost[(6, False)] > 1.5 * cost[(4, False)]
    assert cost[(6, True)] / cost[(6, False)] < cost[(4, True)] / cost[(4, False)]


def rapid_mover_hops(protocol, seed):
    """Event-migration hops of one subscriber that bounces between corners
    faster than its 60-event backlog can be shipped."""
    system = PubSubSystem(grid_k=5, protocol=protocol, seed=seed,
                          migration_batch_size=1)
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=12)
    sub.connect(0)
    pub.connect(12)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(60):
        pub.publish(0.2)
    system.run(until=9000.0)
    for target in (24, 4, 20, 2, 22, 10, 14, 7):
        sub.connect(target)
        system.run(until=system.sim.now + 80.0)
        sub.disconnect()
        system.run(until=system.sim.now + 60.0)
    sub.connect(12)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.missing == 0 and stats.duplicates == 0
    return system.metrics.traffic.wired_hops.get("event_migration", 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_pqlist_avoids_backlog_shuttling(seed):
    """§4.3: without the distributed PQlist (``MHHNoPQList`` never stops
    a migration) a frequent mover's whole backlog chases it to every
    broker it touches; with it, interrupted migrations leave the queues in
    place and only the last reconnection drains them."""
    with_pqlist = rapid_mover_hops("mhh", seed)
    without = rapid_mover_hops(MHHNoPQList, seed)
    assert without > 1.5 * with_pqlist


def unicast_overhead(unicast_routing, seed):
    """MHH's overhead hops per handoff at k=7 with point-to-point traffic
    on grid shortest paths or on the overlay tree."""
    spec = WorkloadSpec(
        clients_per_broker=5, mean_connected_s=60.0, mean_disconnected_s=60.0,
        publish_interval_s=60.0, duration_s=600.0,
    )
    system = PubSubSystem(grid_k=7, protocol="mhh", seed=seed)
    if unicast_routing == "tree":
        # the ablation: point-to-point hops counted along the overlay tree
        system.net._unicast_hops = system.tree.hop_count
    workload = Workload(system, spec)
    system.run(until=spec.duration_ms)
    workload.stop()
    hops = system.metrics.traffic.overhead_hops()
    handoffs = system.metrics.handoffs.handoff_count
    for client in workload.all_clients:
        if not client.connected:
            client.connect(client.last_broker or client.home_broker)
    system.sim.run()
    stats = system.metrics.delivery.stats
    assert stats.missing == 0 and stats.duplicates == 0
    return hops / max(handoffs, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_tree_unicast_pays_stretch_factor(seed):
    """§5.1: stations "connect with each other via the shortest path in
    the network". Sending handoff requests and queue streams over the
    overlay tree instead pays the tree's stretch on every one of them."""
    assert unicast_overhead("tree", seed) > 1.15 * unicast_overhead("grid", seed)

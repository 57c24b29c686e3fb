"""Broker crash/recovery battery: plans, re-convergence, resync, races.

Four layers:

* the **failure model** (:mod:`repro.network.recovery`): event validation,
  canonicalization, plan parsing and the pre-run schedule validator;
* **spanning-tree re-convergence** (:func:`rebuild_spanning_tree`):
  randomized crash/restart/partition sequences asserting the repaired tree
  is acyclic, spans exactly the survivors, avoids cut edges, and is
  deterministic per ``(seed, generation)``;
* **routing-state resync**: after a crash + repair + drain, every
  surviving broker's routing table must equal a from-scratch rebuild —
  computed here by an independent oracle (with covering disabled, broker
  ``b`` must know, per tree neighbour, exactly the anchors whose tree path
  enters through that neighbour), plus the cross-engine-bundle identity
  pattern of ``tests/test_control_plane.py``;
* **crash-timing races**: the PR 1 connect-epoch race with a repair round
  delivered between ``HandoffRequest`` and ``SubMigration`` (must not
  double-install).
"""

from __future__ import annotations

import random

import pytest
from covering_scan import scan_covering
from probes import (
    check_mirror_invariant,
    snapshot_advertised,
    snapshot_broker_filters,
    tree_contains,
)

from repro.errors import ConfigurationError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.mobility import registry
from repro.network.recovery import (
    CrashEvent,
    CrashPlan,
    DEFAULT_REPAIR_DELAY_MS,
)
from repro.network.spanning_tree import EXCLUDED, rebuild_spanning_tree
from repro.network.topology import grid_topology
from repro.pubsub.filters import RangeFilter
from repro.pubsub.recovery import validate_plan
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec

PROTOCOLS = tuple(registry.PROTOCOLS)

SPEC = WorkloadSpec(
    clients_per_broker=3,
    mobile_fraction=0.5,
    mean_connected_s=10.0,
    mean_disconnected_s=5.0,
    publish_interval_s=10.0,
    duration_s=120.0,
)


def _crash_config(protocol: str, plan: CrashPlan, **overrides) -> ExperimentConfig:
    kwargs = dict(
        protocol=protocol, grid_k=3, seed=9, workload=SPEC, crashes=plan
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _run(cfg: ExperimentConfig) -> PubSubSystem:
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    return system


# ---------------------------------------------------------------------------
# the failure model: events, plans, parsing
# ---------------------------------------------------------------------------
def test_crash_event_validation():
    with pytest.raises(ConfigurationError):
        CrashEvent("explode", 10.0, broker=1)
    with pytest.raises(ConfigurationError):
        CrashEvent("crash", -1.0, broker=1)
    with pytest.raises(ConfigurationError):
        CrashEvent("crash", 10.0, broker=1, repair_delay_ms=-5.0)
    with pytest.raises(ConfigurationError):
        CrashEvent("partition", 10.0, broker=1)  # partitions carry an edge
    with pytest.raises(ConfigurationError):
        CrashEvent("crash", 10.0, edge=(0, 1))  # crashes carry a broker
    with pytest.raises(ConfigurationError):
        CrashEvent("partition", 10.0, edge=(2, 2))


def test_crash_event_edge_is_canonicalized():
    assert CrashEvent("partition", 5.0, edge=(3, 1)).edge == (1, 3)
    assert CrashEvent("partition", 5.0, edge=(3, 1)) == CrashEvent(
        "partition", 5.0, edge=(1, 3)
    )


def test_crash_plan_sorts_events_and_labels():
    plan = CrashPlan(
        events=(
            CrashEvent("restart", 9000.0, broker=2),
            CrashEvent("crash", 3000.0, broker=2),
        )
    )
    assert [e.kind for e in plan.events] == ["crash", "restart"]
    assert plan.active
    assert plan.label() == "c2@3000+r2@9000"
    empty = CrashPlan()
    assert not empty.active
    assert empty.label() == "none"


def test_crash_plan_parse_round_trip():
    plan = CrashPlan.parse(
        crashes=["3@12"],
        restarts=["3@50.5"],
        partitions=["4-1@20"],
        repair_delay_ms=250.0,
    )
    kinds = {(e.kind, e.time_ms) for e in plan.events}
    assert kinds == {
        ("crash", 12_000.0),
        ("restart", 50_500.0),
        ("partition", 20_000.0),
    }
    assert all(e.repair_delay_ms == 250.0 for e in plan.events)
    assert plan.events[1].edge == (1, 4)  # canonicalized


@pytest.mark.parametrize(
    "bad", ["x@12", "3@", "@12", "3", "1-2", "1-@3", "a-b@3"]
)
def test_crash_plan_parse_rejects_malformed_specs(bad):
    with pytest.raises(ConfigurationError):
        CrashPlan.parse(crashes=[bad] if "-" not in bad else [])
        CrashPlan.parse(partitions=[bad])
    with pytest.raises(ConfigurationError):
        CrashPlan.parse(partitions=[bad])


@pytest.mark.parametrize(
    "kwargs, fragments",
    [
        # the offending token and its flag-list position are both named,
        # so a typo in the fifth --broker-crash is findable directly
        (
            {"crashes": ["1@5", "x@12"]},
            ["bad crash spec 'x@12' (entry 2)", "broker id 'x'",
             "BROKER@SECONDS"],
        ),
        (
            {"crashes": ["4@notlate"]},
            ["bad crash spec '4@notlate' (entry 1)",
             "time 'notlate' is not a number"],
        ),
        (
            {"restarts": ["2@10", "3@20", "7"]},
            ["bad restart spec '7' (entry 3)", "missing '@'"],
        ),
        (
            {"partitions": ["0-1@5", "12@3"]},
            ["bad partition spec '12@3' (entry 2)",
             "edge '12' is missing '-'", "A-B@SECONDS"],
        ),
        (
            {"partitions": ["a-2@5"]},
            ["bad partition spec 'a-2@5' (entry 1)",
             "edge endpoint 'a' is not an integer"],
        ),
        (
            {"partitions": ["1-2@"]},
            ["bad partition spec '1-2@' (entry 1)", "time ''"],
        ),
    ],
)
def test_crash_plan_parse_errors_name_token_and_position(kwargs, fragments):
    with pytest.raises(ConfigurationError) as exc:
        CrashPlan.parse(**kwargs)
    message = str(exc.value)
    for fragment in fragments:
        assert fragment in message, (fragment, message)


# ---------------------------------------------------------------------------
# validate_plan: the pre-run schedule replay
# ---------------------------------------------------------------------------
def _plan(*events: CrashEvent) -> CrashPlan:
    return CrashPlan(events=tuple(events))


def test_validate_plan_accepts_a_legal_schedule():
    topo = grid_topology(3)
    validate_plan(
        topo,
        _plan(
            CrashEvent("crash", 1000.0, broker=4),
            CrashEvent("restart", 5000.0, broker=4),
            CrashEvent("partition", 7000.0, edge=(0, 1)),
        ),
    )


def test_validate_plan_rejects_unknown_broker_and_edge():
    topo = grid_topology(2)
    with pytest.raises(ConfigurationError):
        validate_plan(topo, _plan(CrashEvent("crash", 1.0, broker=99)))
    with pytest.raises(ConfigurationError):
        # 0 and 3 are opposite corners of the 2x2 grid: not a link
        validate_plan(topo, _plan(CrashEvent("partition", 1.0, edge=(0, 3))))


def test_validate_plan_rejects_state_machine_violations():
    topo = grid_topology(3)
    with pytest.raises(ConfigurationError):  # crash of an already-dead broker
        validate_plan(
            topo,
            _plan(
                CrashEvent("crash", 1.0, broker=4),
                CrashEvent("crash", 2.0, broker=4),
            ),
        )
    with pytest.raises(ConfigurationError):  # restart of a live broker
        validate_plan(topo, _plan(CrashEvent("restart", 1.0, broker=4)))


def test_validate_plan_rejects_disconnected_survivors():
    topo = grid_topology(2)
    # cutting both of corner 0's links strands it from the other survivors
    with pytest.raises(ConfigurationError):
        validate_plan(
            topo,
            _plan(
                CrashEvent("partition", 1.0, edge=(0, 1)),
                CrashEvent("partition", 2.0, edge=(0, 2)),
            ),
        )


# ---------------------------------------------------------------------------
# spanning-tree re-convergence: randomized failure sequences
# ---------------------------------------------------------------------------
def _tree_is_valid(tree, topo, alive, cut):
    """Acyclic + connected over exactly the survivors, avoiding cut edges."""
    assert sorted(u for u in range(topo.n) if tree_contains(tree, u)) == sorted(alive)
    edges = list(tree.edges())
    assert len(edges) == len(alive) - 1  # spanning + acyclic
    for u, v in edges:
        assert topo.has_edge(u, v)
        assert (min(u, v), max(u, v)) not in cut
        assert u in alive and v in alive
    # every survivor walks its parent chain to the root
    for u in alive:
        hops = 0
        while tree.parent[u] != -1:
            u = tree.parent[u]
            hops += 1
            assert hops <= topo.n
        assert u == tree.root


@pytest.mark.parametrize("seed", range(15))
def test_rebuild_spanning_tree_properties_under_failure_sequences(seed):
    rnd = random.Random(seed)
    k = rnd.randrange(2, 5)
    topo = grid_topology(k)
    down: set[int] = set()
    cut: set[tuple[int, int]] = set()
    generation = 0
    for _round in range(6):
        # mutate the failure state: crash, restart, or cut a link — skipping
        # mutations that would disconnect the survivors (validate_plan
        # rejects those schedules before a run ever starts)
        roll = rnd.random()
        if roll < 0.4 and len(down) < topo.n - 2:
            candidate = rnd.choice([b for b in range(topo.n) if b not in down])
            trial = down | {candidate}
            if not _survivors_ok(topo, trial, cut):
                continue
            down = trial
        elif roll < 0.6 and down:
            down = down - {rnd.choice(sorted(down))}
        else:
            edge = rnd.choice(list(topo.edges()))[:2]
            trial_cut = cut | {edge}
            if not _survivors_ok(topo, down, trial_cut):
                continue
            cut = trial_cut
        generation += 1
        alive = [b for b in range(topo.n) if b not in down]
        tree = rebuild_spanning_tree(
            topo, alive, avoid_edges=cut, seed=seed, generation=generation
        )
        _tree_is_valid(tree, topo, set(alive), cut)
        again = rebuild_spanning_tree(
            topo, alive, avoid_edges=cut, seed=seed, generation=generation
        )
        assert list(tree.parent) == list(again.parent)  # deterministic
        assert all(
            tree.parent[b] == EXCLUDED for b in down
        )  # dead brokers are excluded, not grafted


def _survivors_ok(topo, down, cut) -> bool:
    alive = [u for u in range(topo.n) if u not in down]
    if not alive:
        return False
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for v in topo.neighbors(u):
            if v in down or v in seen:
                continue
            if (min(u, v), max(u, v)) in cut:
                continue
            seen.add(v)
            stack.append(v)
    return len(seen) == len(alive)


def test_rebuild_spanning_tree_raises_on_disconnected_survivors():
    topo = grid_topology(2)
    with pytest.raises(TopologyError):
        rebuild_spanning_tree(
            topo, [0, 1, 2, 3], avoid_edges=[(0, 1), (0, 2)], seed=1
        )


# ---------------------------------------------------------------------------
# routing-state resync: the from-scratch differential oracle
# ---------------------------------------------------------------------------
def test_resynced_routing_state_equals_from_scratch_rebuild():
    """With covering off, the post-repair tables are fully predictable: a
    broker's received-filter set per tree neighbour must be exactly the
    anchors whose tree path enters through that neighbour — computed here
    independently of the repair machinery's flood."""
    plan = _plan(CrashEvent("crash", 40_000.0, broker=4))
    system = _run(_crash_config("mhh", plan, covering_enabled=False))
    assert system.recovery is not None and system.recovery.repairs == 1
    tree = system.tree
    live = {b: br for b, br in system.brokers.items() if b != 4}
    anchors = {
        key: bid
        for bid, broker in live.items()
        for key in broker.table.clients
    }
    # exactly one anchor entry per client survives the repair + drain
    # (MHH anchor keys are ("sub", client_id))
    assert sorted(key[-1] for key in anchors) == sorted(system.clients)
    for bid, broker in live.items():
        got = snapshot_broker_filters(broker.table)
        for nbr in tree.neighbors(bid):
            expected = {
                key
                for key, anchor in anchors.items()
                if anchor != bid and tree.next_hop(bid, anchor) == nbr
            }
            assert got.get(nbr, set()) == expected, (
                f"broker {bid} from neighbour {nbr}"
            )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_scenarios_are_engine_bundle_identical(protocol):
    """The control-plane pattern at whole-system scale: a crash scenario
    replayed with the tests-only covering scan substituted for the index
    (repair-rebuilt tables included) must land in the identical final
    state — delivery log, tree, every surviving table."""
    plan = _plan(
        CrashEvent("crash", 30_000.0, broker=7),
        CrashEvent("restart", 70_000.0, broker=7),
    )

    def state(cfg):
        system = _run(cfg)
        tables = {
            bid: (
                snapshot_broker_filters(broker.table),
                snapshot_advertised(broker.table),
                sorted(broker.table.clients),
            )
            for bid, broker in system.brokers.items()
        }
        return (
            tuple(system.metrics.delivery.log),
            list(system.tree.parent),
            tables,
            system.metrics.delivery.stats.crash_lost,
        )

    fast = state(_crash_config(protocol, plan))
    with scan_covering():
        legacy = state(_crash_config(protocol, plan))
    assert fast == legacy


def test_restarted_broker_rejoins_with_consistent_mirror():
    plan = _plan(
        CrashEvent("crash", 30_000.0, broker=4),
        CrashEvent("restart", 70_000.0, broker=4),
    )
    system = _run(_crash_config("mhh", plan))
    assert system.recovery is not None
    assert not system.recovery.down
    # all brokers live again: the advertisement mirror must hold everywhere
    check_mirror_invariant(system)
    assert system.metrics.delivery.stats.missing == 0


# ---------------------------------------------------------------------------
# crash-timing races
# ---------------------------------------------------------------------------
def test_connect_epoch_race_survives_mid_handoff_repair():
    """PR 1's connect-epoch race under crash timing: a repair round landing
    between ``HandoffRequest`` and ``SubMigration`` reinstalls the
    subscription at the new anchor; the stale in-flight ``SubMigration``
    (previous generation) must be discarded, not double-installed."""
    # timings on a 2x2 grid: reconnect at t=2000 -> broker 1 learns at 2020
    # (uplink) -> HandoffRequest reaches broker 0 at 2030 -> SubMigration
    # reaches broker 1 at 2040. The crash at 2035 (repair_delay 0: the
    # repair runs in the same instant) lands exactly inside that window.
    plan = _plan(CrashEvent("crash", 2035.0, broker=3, repair_delay_ms=0.0))
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=5, crashes=plan)
    sub = system.add_client(RangeFilter(0.0, 0.2), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.8, 0.9), broker=2)
    sub.connect(0)
    pub.connect(2)
    system.run(until=1000.0)
    sub.disconnect()
    system.clock.call_later(1000.0, sub.connect, 1)
    system.clock.call_later(2000.0, pub.publish, 0.1)
    system.run()
    assert system.protocol.quiescent()
    assert system.recovery is not None and system.recovery.repairs == 1
    entries = [
        e
        for bid, broker in system.brokers.items()
        if bid != 3
        for e in broker.table.entries_for_client(sub.id)
    ]
    assert len(entries) == 1, "subscription double- or un-installed"
    assert entries[0].live
    st = system.metrics.delivery.stats
    assert (st.expected, st.delivered, st.duplicates, st.missing) == (
        1, 1, 0, 0,
    )

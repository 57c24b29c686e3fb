"""Conformance runs: seed-determinism, replay, invariant detection, and
the scenario draws CI's conformance job used to sample."""

import dataclasses
import hashlib

import pytest

from repro.conformance import fuzzer
from repro.conformance.fuzzer import (
    check_invariants,
    compare_outcomes,
    conform,
    main,
    run_scenario,
)
from repro.conformance.scenarios import LANES, PROTOCOLS, Scenario
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ResultRow


def quick_seed(predicate, start=0):
    """First scenario seed whose sampled plain-lane config satisfies
    ``predicate`` (sampling is cheap — no simulation runs)."""
    for seed in range(start, start + 5000):
        if predicate(Scenario.from_seed(seed).config):
            return seed
    raise AssertionError("no matching scenario seed found")


def small(cfg):
    return (
        cfg.grid_k == 2 and cfg.workload.clients_per_broker == 3
        and cfg.workload.duration_s == 180.0
    )


# ---------------------------------------------------------------------------
# scenario sampling
# ---------------------------------------------------------------------------
def test_from_seed_is_deterministic():
    for seed in (0, 1, 12345, 2**31 - 1):
        assert Scenario.from_seed(seed) == Scenario.from_seed(seed)


def test_scenario_space_reaches_every_dimension():
    configs = [Scenario.from_seed(s).config for s in range(300)]
    assert {c.protocol for c in configs} == set(PROTOCOLS)
    assert {c.workload.mobility_model for c in configs} == {
        "uniform", "hotspot", "ping-pong", "trace"
    }
    assert any(c.faults is not None for c in configs)
    assert any(c.faults is None for c in configs)
    assert any(c.workload.topic_skew > 0 for c in configs)


def test_label_carries_the_replay_seed():
    s = Scenario.from_seed(77, "rel")
    assert s.label() == "seed=77 lane=rel " + s.config.label()
    assert s.config.protocol in s.label()


#: sha256 over ``repr(config)`` of every lane x seeds 0-199 x that lane's
#: protocol cycle, recorded before the four lane generators became one;
#: re-recorded when the two-phase protocol was removed, which shortened
#: the crash and reliable lanes' cycles and made the plain seeds that had
#: drawn it draw mhh; and again when the durable lane began to cycle all
#: three protocols (home-broker's losses settle as lost, not as write-offs),
#: which changed that lane's draws only
LANE_DRAWS_DIGEST = (
    "4d2055e83b1d9be86fe2f66fd840af14281918f0ffa632c5184ea370a2754f07"
)


#: the protocol each lane forced on its i-th draw when the digest above was
#: recorded: the plain lane keeps its sampled one, the rel lanes cycle the
#: two protocols that promise no losses of their own, the others all three
LANE_CYCLES = {
    "plain": (None,),
    "crash": PROTOCOLS,
    "rel": ("mhh", "sub-unsub"),
    "rel-crash": ("mhh", "sub-unsub"),
    "durable": PROTOCOLS,
}


def _repr_as_recorded(cfg) -> str:
    """``repr(cfg)`` as it read when the digest above was recorded: the
    options then also had ``unicast_routing``, ``'grid'`` in every draw."""
    return repr(cfg).replace(", trace=", ", unicast_routing='grid', trace=", 1)


def test_lane_draws_are_pinned():
    h = hashlib.sha256()
    for lane in LANES:
        cycle = LANE_CYCLES[lane]
        for seed in range(200):
            protocol = cycle[seed % len(cycle)]
            h.update(_repr_as_recorded(
                Scenario.from_seed(seed, lane, protocol).config).encode())
    assert h.hexdigest() == LANE_DRAWS_DIGEST


@pytest.mark.parametrize("lane", LANES)
def test_each_lane_keeps_its_contract(lane):
    for seed in (1, 7, 99, 1234, 12345):
        s = Scenario.from_seed(seed, lane)
        assert s == Scenario.from_seed(seed, lane)
        cfg = s.config
        plan = cfg.crashes is not None and cfg.crashes.active
        if lane == "plain":
            assert not plan and not cfg.reliable
        elif lane == "crash":
            # perfect links: every loss is the crash model's
            assert cfg.faults is None and plan and not cfg.reliable
        elif lane == "rel":
            assert cfg.reliable and not plan
            assert cfg.faults.deliver_loss in (0.05, 0.1, 0.2)
        elif lane == "rel-crash":
            # links stay lossy: the only permitted write-offs are
            # crash_lost and shed, which check_invariants asserts
            assert cfg.reliable and plan and cfg.faults.deliver_loss > 0
        else:
            assert cfg.reliable and cfg.durable and plan
            assert cfg.queue_cap is None
        # a lane layers on top of the base draw without perturbing its
        # draw order: everything but the lane's knobs is the plain draw
        base = Scenario.from_seed(seed).config
        assert dataclasses.replace(
            cfg, faults=base.faults, crashes=None, reliable=False,
            retry_budget=8, queue_cap=None, durable=False,
        ) == base
        # a forced protocol changes config.protocol and nothing else
        for protocol in PROTOCOLS:
            assert Scenario.from_seed(seed, lane, protocol).config == (
                dataclasses.replace(cfg, protocol=protocol))


# ---------------------------------------------------------------------------
# replay determinism
# ---------------------------------------------------------------------------
def test_run_scenario_replays_byte_identically():
    seed = quick_seed(lambda c: small(c) and c.faults is not None)
    cfg = Scenario.from_seed(seed).config
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a == b
    assert a.delivery_log  # something actually happened


def test_conform_passes_on_a_small_scenario():
    seed = quick_seed(lambda c: small(c) and c.protocol == "mhh")
    assert conform(Scenario.from_seed(seed), cross_engine=True) == []


# ---------------------------------------------------------------------------
# invariant matrix detects violations
# ---------------------------------------------------------------------------
def outcome(**kw):
    base = dict(
        published=10,
        expected_deliveries=20,
        delivered=20,
        duplicates=0,
        order_violations=0,
        lost=0,
        missing=0,
        handoffs=3,
        injected_drops=0,
        injected_dups=0,
        sim_events=1000,
    )
    base.update(kw)
    return ResultRow("mhh", **base)


def scenario_for(protocol):
    seed = quick_seed(lambda c: c.protocol == protocol)
    return Scenario.from_seed(seed).config


def test_clean_outcome_is_conformant():
    assert check_invariants(scenario_for("mhh"), outcome()) == []
    # faults/crashes of None mean inactive
    cfg = ExperimentConfig(protocol="mhh")
    assert check_invariants(cfg, outcome()) == []
    assert check_invariants(cfg, outcome(repairs=1)) == [
        "crash plan inactive but the recovery machinery fired"
    ]


def test_dead_post_repair_overlay_is_the_generators_fault(monkeypatch):
    """``post_repair_publishes == 0`` judges the scenario generator, not
    the protocol: the driver-independent matrix stays silent and
    ``conform``, which knows the run came from the generator, flags it."""
    scenario = Scenario.from_seed(7, "crash", "mhh")
    cfg = scenario.config
    dead = outcome(repairs=len(cfg.crashes.events))
    assert dead.post_repair_publishes == 0
    assert check_invariants(cfg, dead) == []
    monkeypatch.setattr(fuzzer, "run_scenario", lambda *a, **kw: dead)
    violations = conform(scenario, cross_engine=False)
    assert any("no post-repair publishes" in v for v in violations)


def test_missing_deliveries_flagged_for_every_protocol():
    for protocol in PROTOCOLS:
        v = check_invariants(scenario_for(protocol), outcome(missing=2))
        assert any("missing=2" in x for x in v)


def test_reliable_protocol_must_lose_exactly_the_link_drops():
    scenario = scenario_for("sub-unsub")
    v = check_invariants(scenario, outcome(lost=3, injected_drops=2))
    assert any("lose exactly" in x for x in v)


def test_home_broker_may_lose_more_but_not_less_than_link_drops():
    scenario = scenario_for("home-broker")
    ok = outcome(lost=5, injected_drops=2, delivered=15, missing=0)
    assert check_invariants(scenario, ok) == []
    v = check_invariants(scenario, outcome(lost=1, injected_drops=2))
    assert any("escaped the accounting" in x for x in v)


def test_order_violations_flagged_only_for_reliable_protocols():
    bad = outcome(order_violations=1)
    assert any(
        "order" in x for x in check_invariants(scenario_for("sub-unsub"), bad)
    )
    assert check_invariants(scenario_for("home-broker"), bad) == []


def test_unexplained_duplicates_flagged():
    v = check_invariants(scenario_for("mhh"), outcome(duplicates=1))
    assert any("duplicates=1" in x for x in v)


def test_cross_engine_divergence_detected():
    a = outcome(delivery_log=((1, 2, 3.0), (4, 5, 6.0)))
    b = outcome(delivery_log=((1, 2, 3.0), (4, 5, 7.0)))
    v = compare_outcomes(a, b)
    assert any("delivery log diverged at entry 1" in x for x in v)
    v = compare_outcomes(outcome(), outcome(sim_events=999))
    assert any("sim_events diverged" in x for x in v)
    assert compare_outcomes(outcome(), outcome()) == []


# ---------------------------------------------------------------------------
# the replay CLI
# ---------------------------------------------------------------------------
def test_cli_replays_single_scenario(capsys):
    seed = quick_seed(small)
    rc = main(["--scenario-seed", str(seed), "--no-cross-engine"])
    assert rc == 0
    assert capsys.readouterr().out == (
        f"PASS {Scenario.from_seed(seed).label()}\n")


def test_cli_forces_the_protocol_on_the_plain_lane(capsys):
    """``--protocol`` is honoured on the plain lane too: the replay runs
    the forced protocol on the seed's otherwise unchanged draw."""
    seed = quick_seed(lambda c: small(c) and c.protocol != "mhh")
    rc = main(["--scenario-seed", str(seed), "--protocol", "mhh",
               "--no-cross-engine"])
    assert rc == 0
    assert f"PASS seed={seed} lane=plain mhh " in capsys.readouterr().out


def test_forced_plain_lane_replay_command_carries_the_protocol(capsys):
    """The replay command a failure is named by, ``--scenario-seed N
    --lane plain --protocol P``, replays exactly
    ``Scenario.from_seed(N, "plain", P)``."""
    seed = quick_seed(lambda c: small(c) and c.protocol == "mhh")
    assert main(["--scenario-seed", str(seed), "--lane", "plain",
                 "--protocol", "sub-unsub", "--no-cross-engine"]) == 0
    label = Scenario.from_seed(seed, "plain", "sub-unsub").label()
    assert capsys.readouterr().out == f"PASS {label}\n"
    assert " sub-unsub " in label


def test_rel_lane_replay_command_carries_the_lane(capsys):
    seed = quick_seed(small)
    assert main(["--scenario-seed", str(seed), "--lane", "rel",
                 "--protocol", "mhh", "--no-cross-engine"]) == 0
    label = Scenario.from_seed(seed, "rel", "mhh").label()
    assert capsys.readouterr().out == f"PASS {label}\n"
    assert label.startswith(f"seed={seed} lane=rel mhh ")


def test_cli_reports_every_violation_and_fails(monkeypatch, capsys):
    row = outcome(violations=["missing=2", "order_violations=1"])
    monkeypatch.setattr(fuzzer, "run_scenario", lambda *a, **kw: row)
    assert main(["--scenario-seed", "3", "--no-cross-engine"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL " + Scenario.from_seed(3).label(),
        "     - missing=2",
        "     - order_violations=1",
    ]


def test_cli_needs_a_scenario_seed(capsys):
    """There is no batch: a run names the one scenario it replays."""
    with pytest.raises(SystemExit) as exc:
        main(["--lane", "rel"])
    assert exc.value.code == 2
    assert "--scenario-seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reliability lane
# ---------------------------------------------------------------------------
def rel_scenario(protocol="mhh"):
    return Scenario.from_seed(5, "rel", protocol).config


def test_reliable_run_must_recover_every_link_loss():
    v = check_invariants(rel_scenario(), outcome(lost=2, injected_drops=2))
    assert any("must recover" in x for x in v)
    clean = outcome(injected_drops=2, recovered=2)
    assert check_invariants(rel_scenario(), clean) == []


def test_reliability_decouples_the_duplicate_count():
    # retransmits add duplicates the injector never made (and reassembly
    # may absorb injected copies): neither direction is a violation
    extra = outcome(duplicates=5, injected_dups=2)
    fewer = outcome(duplicates=1, injected_dups=2)
    assert check_invariants(rel_scenario(), extra) == []
    assert check_invariants(rel_scenario(), fewer) == []


def test_phantom_recoveries_flagged():
    v = check_invariants(rel_scenario(), outcome(recovered=3))
    assert any("recoveries without matching drops" in x for x in v)


def test_every_shed_needs_its_trigger():
    """The shed rows, by the traffic meter's shed ledger: retry exhaustion
    is the budget's policy, a queue-cap shed needs a cap, a breaker shed
    a trip, a settled shed a metered one, and a durable run none."""
    scenario = rel_scenario()
    assert scenario.queue_cap is None  # seed 5 draws no cap
    exhausted = outcome(shed=1, shed_by_cause={"retry_exhausted": 1})
    assert check_invariants(scenario, exhausted) == []
    capped_shed = outcome(shed=1, shed_by_cause={"queue_cap": 1})
    assert check_invariants(scenario, capped_shed) == [
        "shed by queue_cap=1 with no queue cap"
    ]
    capped = dataclasses.replace(scenario, queue_cap=32)
    assert check_invariants(capped, capped_shed) == []
    assert check_invariants(scenario, outcome(
        shed=1, shed_by_cause={"breaker": 1}
    )) == ["shed by breaker=1 with no breaker trip"]
    v = check_invariants(capped, outcome(shed=1))
    assert any("a write-off with no shed event" in x for x in v)
    durable = dataclasses.replace(scenario, durable=True)
    assert any("shed=1 != 0" in x
               for x in check_invariants(durable, exhausted))


def test_reliability_machinery_must_stay_dark_when_off():
    v = check_invariants(scenario_for("mhh"), outcome(retransmits=4))
    assert any("machinery fired" in x for x in v)


# ---------------------------------------------------------------------------
# CI's conformance draws
# ---------------------------------------------------------------------------
#: (lane, scenario seed, forced protocol, cross-engine re-run): the 49
#: scenarios CI's six fixed-seed conformance rows drew before the batch
#: sampler was deleted. Row (lane, count, master seed): plain 8 @ 20260730;
#: crash 8, rel 9, rel-crash 6 (no cross-engine) and durable 6 @ 20260807;
#: durable 12 @ 20260808 (no cross-engine). Seed i of a row was the i-th
#: ``random.Random(master).randrange(2**31)``, and its protocol entry i of
#: the lane's cycle in ``LANE_CYCLES`` above.
CI_DRAWS = [
    ("plain", 750898254, None, True),
    ("plain", 1091910880, None, True),
    ("plain", 724612665, None, True),
    ("plain", 145465423, None, True),
    ("plain", 1714377209, None, True),
    ("plain", 254944917, None, True),
    ("plain", 739868484, None, True),
    ("plain", 1417613921, None, True),
    ("crash", 143668261, "mhh", True),
    ("crash", 1425489438, "sub-unsub", True),
    ("crash", 1553157808, "home-broker", True),
    ("crash", 1917961853, "mhh", True),
    ("crash", 247401736, "sub-unsub", True),
    ("crash", 1345157815, "home-broker", True),
    ("crash", 1855299116, "mhh", True),
    ("crash", 2044974240, "sub-unsub", True),
    ("rel", 143668261, "mhh", True),
    ("rel", 1425489438, "sub-unsub", True),
    ("rel", 1553157808, "mhh", True),
    ("rel", 1917961853, "sub-unsub", True),
    ("rel", 247401736, "mhh", True),
    ("rel", 1345157815, "sub-unsub", True),
    ("rel", 1855299116, "mhh", True),
    ("rel", 2044974240, "sub-unsub", True),
    ("rel", 1242236945, "mhh", True),
    ("rel-crash", 143668261, "mhh", False),
    ("rel-crash", 1425489438, "sub-unsub", False),
    ("rel-crash", 1553157808, "mhh", False),
    ("rel-crash", 1917961853, "sub-unsub", False),
    ("rel-crash", 247401736, "mhh", False),
    ("rel-crash", 1345157815, "sub-unsub", False),
    ("durable", 143668261, "mhh", True),
    ("durable", 1425489438, "sub-unsub", True),
    ("durable", 1553157808, "home-broker", True),
    ("durable", 1917961853, "mhh", True),
    ("durable", 247401736, "sub-unsub", True),
    ("durable", 1345157815, "home-broker", True),
    ("durable", 145126398, "mhh", False),
    ("durable", 1478025148, "sub-unsub", False),
    ("durable", 579331219, "home-broker", False),
    ("durable", 116482602, "mhh", False),
    ("durable", 1043320903, "sub-unsub", False),
    ("durable", 2135043483, "home-broker", False),
    ("durable", 883585843, "mhh", False),
    ("durable", 143314849, "sub-unsub", False),
    ("durable", 1996401486, "home-broker", False),
    ("durable", 580071899, "mhh", False),
    ("durable", 365798546, "sub-unsub", False),
    ("durable", 2130736235, "home-broker", False),
]


def _draw_id(draw) -> str:
    lane, seed, protocol, cross_engine = draw
    return "-".join([lane, str(seed), protocol or "sampled",
                     "x" if cross_engine else "sim"])


@pytest.mark.parametrize("lane, seed, protocol, cross_engine", CI_DRAWS,
                         ids=map(_draw_id, CI_DRAWS))
def test_ci_draw_conforms(lane, seed, protocol, cross_engine):
    violations = conform(Scenario.from_seed(seed, lane, protocol),
                         cross_engine)
    replay = f"--scenario-seed {seed} --lane {lane}" + (
        f" --protocol {protocol}" if protocol else "")
    assert violations == [], replay

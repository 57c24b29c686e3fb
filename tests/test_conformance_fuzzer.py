"""The conformance fuzzer: seed-determinism, replay, invariant detection."""

import dataclasses
import json

import pytest

from repro.conformance import fuzzer
from repro.conformance.fuzzer import (
    FuzzReport,
    ScenarioFuzzer,
    ScenarioOutcome,
    ScenarioResult,
    check_invariants,
    compare_outcomes,
    main,
    run_scenario,
)
from repro.conformance.scenarios import PROTOCOLS, Scenario
from repro.experiments.config import ExperimentConfig


def quick_seed(predicate, start=0):
    """First scenario seed whose sampled scenario satisfies ``predicate``
    (sampling is cheap — no simulation runs)."""
    for seed in range(start, start + 5000):
        if predicate(Scenario.from_seed(seed)):
            return seed
    raise AssertionError("no matching scenario seed found")


def small(s):
    return (
        s.grid_k == 2 and s.clients_per_broker == 3 and s.duration_s == 180.0
    )


# ---------------------------------------------------------------------------
# scenario sampling
# ---------------------------------------------------------------------------
def test_from_seed_is_deterministic():
    for seed in (0, 1, 12345, 2**31 - 1):
        assert Scenario.from_seed(seed) == Scenario.from_seed(seed)


def test_scenario_space_reaches_every_dimension():
    scenarios = [Scenario.from_seed(s) for s in range(300)]
    assert {s.protocol for s in scenarios} == set(PROTOCOLS)
    assert {s.mobility_model for s in scenarios} == {
        "uniform", "hotspot", "ping-pong", "trace"
    }
    assert any(s.faults.active for s in scenarios)
    assert any(not s.faults.active for s in scenarios)
    assert any(s.topic_skew > 0 for s in scenarios)


def test_label_carries_the_replay_seed():
    s = Scenario.from_seed(77)
    assert "seed=77" in s.label()
    assert s.protocol in s.label()


def test_scenario_seeds_derive_from_master_seed():
    a = ScenarioFuzzer(n_scenarios=10, master_seed=4).scenario_seeds()
    b = ScenarioFuzzer(n_scenarios=10, master_seed=4).scenario_seeds()
    c = ScenarioFuzzer(n_scenarios=10, master_seed=5).scenario_seeds()
    assert a == b != c
    assert len(set(a)) == 10


# ---------------------------------------------------------------------------
# replay determinism
# ---------------------------------------------------------------------------
def test_run_scenario_replays_byte_identically():
    seed = quick_seed(lambda s: small(s) and s.faults.active)
    scenario = Scenario.from_seed(seed)
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a == b
    assert a.delivery_log  # something actually happened


def test_fuzzer_run_one_passes_on_a_small_scenario():
    seed = quick_seed(lambda s: small(s) and s.protocol == "mhh")
    result = ScenarioFuzzer(cross_engine=True).run_one(seed)
    assert result.passed, result.violations


# ---------------------------------------------------------------------------
# invariant matrix detects violations
# ---------------------------------------------------------------------------
def outcome(**kw):
    base = dict(
        published=10,
        expected=20,
        delivered=20,
        duplicates=0,
        order_violations=0,
        lost=0,
        missing=0,
        handoffs=3,
        injected_drops=0,
        injected_dups=0,
        meter_drops=0,
        meter_dups=0,
        sim_events=1000,
    )
    base.update(kw)
    return ScenarioOutcome(**base)


def scenario_for(protocol):
    seed = quick_seed(lambda s: s.protocol == protocol)
    return Scenario.from_seed(seed)


def test_clean_outcome_is_conformant():
    assert check_invariants(scenario_for("mhh"), outcome()) == []
    # the matrix also takes the config a live or socket run was built
    # from: faults/crashes of None mean inactive
    cfg = ExperimentConfig(protocol="mhh")
    assert check_invariants(cfg, outcome()) == []
    assert check_invariants(cfg, outcome(repairs=1)) == [
        "crash plan inactive but the recovery machinery fired"
    ]


def test_dead_post_repair_overlay_is_the_generators_fault(monkeypatch):
    """``post_repair_publishes == 0`` judges the scenario generator, not
    the protocol: the driver-independent matrix stays silent and
    ``run_one``, where the generator is, flags it."""
    scenario = Scenario.crash_from_seed(7, "mhh")
    dead = outcome(repairs=len(scenario.crashes.events))
    assert dead.post_repair_publishes == 0
    assert check_invariants(scenario, dead) == []
    monkeypatch.setattr(fuzzer, "run_scenario", lambda *a, **kw: dead)
    result = ScenarioFuzzer(cross_engine=False, crash_lane=True).run_one(
        7, "mhh"
    )
    assert any("no post-repair publishes" in v for v in result.violations)


def test_missing_deliveries_flagged_for_every_protocol():
    for protocol in PROTOCOLS:
        v = check_invariants(scenario_for(protocol), outcome(missing=2))
        assert any("missing=2" in x for x in v)


def test_reliable_protocol_must_lose_exactly_the_link_drops():
    scenario = scenario_for("sub-unsub")
    v = check_invariants(
        scenario, outcome(lost=3, injected_drops=2, meter_drops=2)
    )
    assert any("lose exactly" in x for x in v)


def test_home_broker_may_lose_more_but_not_less_than_link_drops():
    scenario = scenario_for("home-broker")
    ok = outcome(lost=5, injected_drops=2, meter_drops=2, delivered=15,
                 missing=0)
    assert check_invariants(scenario, ok) == []
    v = check_invariants(
        scenario, outcome(lost=1, injected_drops=2, meter_drops=2)
    )
    assert any("escaped the accounting" in x for x in v)


def test_order_violations_flagged_only_for_reliable_protocols():
    bad = outcome(order_violations=1)
    assert any(
        "order" in x for x in check_invariants(scenario_for("two-phase"), bad)
    )
    assert check_invariants(scenario_for("home-broker"), bad) == []


def test_unexplained_duplicates_flagged():
    v = check_invariants(scenario_for("mhh"), outcome(duplicates=1))
    assert any("duplicates=1" in x for x in v)


def test_meter_ledger_must_match_injector():
    v = check_invariants(
        scenario_for("mhh"),
        outcome(lost=2, injected_drops=2, meter_drops=1),
    )
    assert any("meter drop ledger" in x for x in v)


def test_cross_engine_divergence_detected():
    a = outcome(delivery_log=((1, 2, 3.0), (4, 5, 6.0)))
    b = outcome(delivery_log=((1, 2, 3.0), (4, 5, 7.0)))
    v = compare_outcomes(a, b)
    assert any("delivery log diverged at entry 1" in x for x in v)
    v = compare_outcomes(outcome(), outcome(sim_events=999))
    assert any("sim_events diverged" in x for x in v)
    assert compare_outcomes(outcome(), outcome()) == []


# ---------------------------------------------------------------------------
# report + CLI
# ---------------------------------------------------------------------------
def test_report_round_trips_to_json(tmp_path):
    report = FuzzReport(
        master_seed=1,
        results=[
            ScenarioResult(5, "mhh", "seed=5 mhh k=2", []),
            ScenarioResult(6, "home-broker", "seed=6 home-broker k=3",
                           ["missing=1"]),
        ],
    )
    assert not report.passed
    assert [r.seed for r in report.failures] == [6]
    assert report.protocol_counts() == {"mhh": 1, "home-broker": 1}
    blob = json.dumps(report.as_dict())
    parsed = json.loads(blob)
    assert parsed["scenarios"][1]["replay"].endswith("--scenario-seed 6")


def test_cli_replays_single_scenario(tmp_path, capsys):
    seed = quick_seed(small)
    out = tmp_path / "fuzz.json"
    rc = main([
        "--scenario-seed", str(seed), "--no-cross-engine", "--out", str(out)
    ])
    captured = capsys.readouterr().out
    assert rc == 0
    assert f"PASS seed={seed}" in captured
    parsed = json.loads(out.read_text())
    assert parsed["passed"] is True
    assert parsed["scenarios"][0]["seed"] == seed


def test_cli_forces_the_protocol_on_the_plain_lane(tmp_path, capsys):
    """``--protocol`` is honoured without a lane flag too: the replay runs
    the forced protocol on the seed's otherwise unchanged draw."""
    seed = quick_seed(lambda s: small(s) and s.protocol != "mhh")
    out = tmp_path / "fuzz.json"
    rc = main(["--scenario-seed", str(seed), "--protocol", "mhh",
               "--no-cross-engine", "--out", str(out)])
    assert rc == 0
    assert f"PASS seed={seed} mhh " in capsys.readouterr().out
    parsed = json.loads(out.read_text())
    assert parsed["protocols"] == {"mhh": 1}
    assert parsed["scenarios"][0]["replay"].endswith("--protocol mhh")
    assert Scenario.from_seed(seed, "mhh") == dataclasses.replace(
        Scenario.from_seed(seed), protocol="mhh")


def test_forced_plain_lane_replay_command_carries_the_protocol():
    r = ScenarioResult(9, "two-phase", "seed=9", [],
                       forced_protocol="two-phase")
    assert r.replay_command() == (
        "python -m repro.conformance.fuzzer --scenario-seed 9 "
        "--protocol two-phase"
    )


# ---------------------------------------------------------------------------
# reliability lane
# ---------------------------------------------------------------------------
def test_reliability_lane_is_deterministic_and_forces_loss():
    for seed in (1, 99, 12345):
        a = Scenario.reliability_from_seed(seed)
        assert a == Scenario.reliability_from_seed(seed)
        assert a.reliable
        assert a.faults.deliver_loss in (0.05, 0.1, 0.2)
        assert not a.crashes.active
        # the lane layers on top of the base scenario without perturbing
        # its draw order: everything but the fault/reliability knobs is
        # the plain-lane scenario, byte for byte
        base = Scenario.from_seed(seed)
        assert dataclasses.replace(
            a, faults=base.faults, reliable=False, retry_budget=8,
            queue_cap=None,
        ) == base


def test_reliability_lane_composes_with_the_crash_lane():
    s = Scenario.reliability_from_seed(7, "mhh", crash=True)
    assert s.reliable
    assert s.protocol == "mhh"
    assert s.crashes.active
    # unlike the plain crash lane, links stay lossy: the only permitted
    # write-offs are crash_lost and shed, which check_invariants asserts
    assert s.faults.active


def rel_scenario(protocol="mhh", **kw):
    return Scenario.reliability_from_seed(5, protocol, **kw)


def test_reliable_run_must_recover_every_link_loss():
    v = check_invariants(
        rel_scenario(), outcome(lost=2, injected_drops=2, meter_drops=2)
    )
    assert any("must recover" in x for x in v)
    clean = outcome(injected_drops=2, meter_drops=2, recovered=2)
    assert check_invariants(rel_scenario(), clean) == []


def test_reliability_decouples_the_duplicate_count():
    # retransmits add duplicates the injector never made (and reassembly
    # may absorb injected copies): neither direction is a violation
    extra = outcome(duplicates=5, injected_dups=2, meter_dups=2)
    fewer = outcome(duplicates=1, injected_dups=2, meter_dups=2)
    assert check_invariants(rel_scenario(), extra) == []
    assert check_invariants(rel_scenario(), fewer) == []


def test_phantom_recoveries_flagged():
    v = check_invariants(rel_scenario(), outcome(recovered=3))
    assert any("recoveries without matching drops" in x for x in v)


def test_shed_without_cap_or_crash_flagged():
    scenario = rel_scenario()
    assert scenario.queue_cap is None  # seed 5 draws no cap
    v = check_invariants(scenario, outcome(shed=1))
    assert any("shed policy" in x for x in v)
    capped = dataclasses.replace(scenario, queue_cap=32)
    assert check_invariants(capped, outcome(shed=1)) == []


def test_reliability_machinery_must_stay_dark_when_off():
    v = check_invariants(scenario_for("mhh"), outcome(retransmits=4))
    assert any("machinery fired" in x for x in v)


def test_reliability_lane_replay_command_carries_the_flags():
    r = ScenarioResult(9, "mhh", "seed=9", [], reliability_lane=True,
                       forced_protocol="mhh")
    assert r.replay_command() == (
        "python -m repro.conformance.fuzzer --scenario-seed 9 "
        "--reliability-lane --protocol mhh"
    )

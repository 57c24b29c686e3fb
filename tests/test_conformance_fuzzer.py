"""The conformance fuzzer: seed-determinism, replay, invariant detection."""

import dataclasses
import hashlib
import json

import pytest

from repro.conformance import fuzzer
from repro.conformance.fuzzer import (
    FuzzReport,
    ScenarioFuzzer,
    ScenarioResult,
    check_invariants,
    compare_outcomes,
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


def test_lane_draws_are_pinned():
    h = hashlib.sha256()
    for lane in LANES:
        cycle = fuzzer._LANE_CYCLES[lane]
        for seed in range(200):
            protocol = cycle[seed % len(cycle)]
            h.update(repr(Scenario.from_seed(seed, lane, protocol).config)
                     .encode())
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
    seed = quick_seed(lambda c: small(c) and c.faults is not None)
    cfg = Scenario.from_seed(seed).config
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a == b
    assert a.delivery_log  # something actually happened


def test_fuzzer_run_one_passes_on_a_small_scenario():
    seed = quick_seed(lambda c: small(c) and c.protocol == "mhh")
    result = ScenarioFuzzer(cross_engine=True).run_one(seed)
    assert result.passed, result.violations


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
        meter_drops=0,
        meter_dups=0,
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
    ``run_one``, where the generator is, flags it."""
    cfg = Scenario.from_seed(7, "crash", "mhh").config
    dead = outcome(repairs=len(cfg.crashes.events))
    assert dead.post_repair_publishes == 0
    assert check_invariants(cfg, dead) == []
    monkeypatch.setattr(fuzzer, "run_scenario", lambda *a, **kw: dead)
    result = ScenarioFuzzer(cross_engine=False, lane="crash").run_one(
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
        "order" in x for x in check_invariants(scenario_for("sub-unsub"), bad)
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
    assert parsed["scenarios"][1]["replay"].endswith(
        "--scenario-seed 6 --lane plain")


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
    """``--protocol`` is honoured on the plain lane too: the replay runs
    the forced protocol on the seed's otherwise unchanged draw."""
    seed = quick_seed(lambda c: small(c) and c.protocol != "mhh")
    out = tmp_path / "fuzz.json"
    rc = main(["--scenario-seed", str(seed), "--protocol", "mhh",
               "--no-cross-engine", "--out", str(out)])
    assert rc == 0
    assert f"PASS seed={seed} lane=plain mhh " in capsys.readouterr().out
    parsed = json.loads(out.read_text())
    assert parsed["protocols"] == {"mhh": 1}
    assert parsed["scenarios"][0]["replay"].endswith(
        "--lane plain --protocol mhh")


def test_cli_refuses_a_protocol_it_would_ignore(capsys):
    """Outside a ``--scenario-seed`` replay, batches sample or cycle their
    protocols: a forced one would be dropped, so it is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["--scenarios", "1", "--protocol", "home-broker",
              "--no-cross-engine"])
    assert exc.value.code == 2
    assert "--protocol" in capsys.readouterr().err


def test_cli_refuses_an_empty_batch(capsys):
    """``--scenarios 0`` would check nothing and still exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["--scenarios", "0"])
    assert exc.value.code == 2
    assert "--scenarios" in capsys.readouterr().err


def test_forced_plain_lane_replay_command_carries_the_protocol():
    r = ScenarioResult(9, "sub-unsub", "seed=9", [],
                       forced_protocol="sub-unsub")
    assert r.replay_command() == (
        "python -m repro.conformance.fuzzer --scenario-seed 9 "
        "--lane plain --protocol sub-unsub"
    )


# ---------------------------------------------------------------------------
# reliability lane
# ---------------------------------------------------------------------------
def rel_scenario(protocol="mhh"):
    return Scenario.from_seed(5, "rel", protocol).config


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


def test_rel_lane_replay_command_carries_the_lane():
    r = ScenarioResult(9, "mhh", "seed=9", [], lane="rel",
                       forced_protocol="mhh")
    assert r.replay_command() == (
        "python -m repro.conformance.fuzzer --scenario-seed 9 "
        "--lane rel --protocol mhh"
    )

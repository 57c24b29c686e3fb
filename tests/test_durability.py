"""End-to-end durability: zero write-offs, handover, driver parity.

The tentpole's acceptance battery:

* **Zero write-off** — with ``durable=True`` a crash, restart or overlay
  partition costs no deliveries: ``crash_lost == shed == 0`` alongside
  the reliability lane's ``missing == lost == 0``, across the fuzzer's
  seeded scenario space and hand-picked worst cases (permanent broker
  death with sessions anchored there).
* **Session handover** — when a client's durable session was anchored at
  a broker declared permanently dead, the repair round hands the unacked
  window to the new home broker (counted in
  ``DurabilityManager.handovers``) instead of exhausting retries against
  the corpse — durable runs never trip a breaker.
* **Opt-in byte-identity** — default-off configs construct no durability
  state at all, and durable runs are trace-identical across sim engines
  and across the simulated/live drivers.
* **Bounded delivery cursor** — at the end of a durable-lane run every
  session's ``acked`` names only events still live in the log, and the
  cursor replayed from the log bytes is the mirror's.
* **Stale-timer regression** (satellite) — a retransmit timer armed
  mid-backoff against a broker that then dies permanently must be
  cancelled by the crash sweep, never fire into the repaired overlay
  (``ReliabilityManager.stale_timer_fires`` pinned at 0).
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest

from repro.conformance.fuzzer import check_invariants, conform, run_scenario
from repro.conformance.scenarios import Scenario
from repro.drivers.live import run_soak, run_virtual_scenario
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments import runner
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.pubsub.system import PubSubSystem
from repro.pubsub.wal import decode_records
from repro.workload.mobility_model import Workload
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(
    clients_per_broker=3,
    mobile_fraction=0.5,
    mean_connected_s=10.0,
    mean_disconnected_s=5.0,
    publish_interval_s=15.0,
    duration_s=120.0,
)

LOSSY = FaultProfile(deliver_loss=0.2, deliver_duplicate=0.05)


def _dur_cfg(protocol="mhh", seed=7, crashes=None, **kw):
    return ExperimentConfig(
        protocol=protocol, grid_k=3, seed=seed, workload=SPEC,
        faults=LOSSY, reliable=True, durable=True, crashes=crashes, **kw,
    )


def _run_simulated(cfg):
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    return system


def _assert_zero_write_off(system):
    st = system.metrics.delivery.stats
    assert st.missing == 0
    assert st.lost_explicit == 0
    assert st.crash_lost == 0
    assert st.shed == 0
    assert st.write_offs == 0
    assert system.metrics.traffic.breaker_trips == 0


# ---------------------------------------------------------------------------
# construction / gating
# ---------------------------------------------------------------------------
def test_default_config_builds_no_durability():
    cfg = ExperimentConfig(protocol="mhh", grid_k=3, seed=7, workload=SPEC)
    system, _ = build_system(cfg)
    assert system.durability is None
    rel_only, _ = build_system(
        ExperimentConfig(protocol="mhh", grid_k=3, seed=7, workload=SPEC,
                         reliable=True)
    )
    assert rel_only.durability is None


def test_wal_dir_requires_durable():
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=3, protocol="mhh", seed=1, wal_dir="/tmp/x")


def test_durable_run_logs_and_checkpoints():
    system = _run_simulated(_dur_cfg())
    dur = system.durability
    assert dur is not None
    assert dur.records_appended > 0
    assert dur.store.name == "memory"
    _assert_zero_write_off(system)


# ---------------------------------------------------------------------------
# zero write-off under every failure shape
# ---------------------------------------------------------------------------
def test_crash_and_restart_loses_nothing():
    cfg = _dur_cfg(crashes=CrashPlan.parse(crashes=["1@60"],
                                           restarts=["1@90"]))
    system = _run_simulated(cfg)
    assert system.recovery.repairs == 2
    _assert_zero_write_off(system)


def test_permanent_death_hands_sessions_over():
    cfg = _dur_cfg(seed=11, crashes=CrashPlan.parse(crashes=["4@60"]))
    system = _run_simulated(cfg)
    _assert_zero_write_off(system)
    # broker 4 never comes back: any session anchored there must have been
    # re-homed by the repair round, and nothing retried against the corpse
    dur = system.durability
    assert all(s.anchor != 4 for s in dur.sessions.values())
    assert system.reliability.stale_timer_fires == 0


def test_partition_loses_nothing():
    cfg = _dur_cfg(crashes=CrashPlan.parse(partitions=["0-1@60"]))
    system = _run_simulated(cfg)
    _assert_zero_write_off(system)


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
def test_durable_lane_scenarios_conform(protocol):
    """One full fuzzer-lane scenario per reliable protocol."""
    cfg = Scenario.from_seed(97, "durable", protocol).config
    outcome = run_scenario(cfg)
    assert check_invariants(cfg, outcome) == []
    assert outcome.crash_lost == 0
    assert outcome.shed == 0


@pytest.mark.parametrize("seed", [44, 54, 126, 135])
def test_home_broker_losses_under_a_crash_are_lost_not_written_off(seed):
    """Home-broker drops in-transit events on its own (``on_loss``). On
    these seeds a crash also marked such a pair, which settled as
    ``crash_lost`` (1, 2, 1 and 1 of them) while a crash mark outranked an
    explicit loss; explicit loss now wins, so the durable lane's
    zero-write-off rows hold for home-broker too."""
    cfg = Scenario.from_seed(seed, "durable", "home-broker").config
    outcome = run_scenario(cfg)
    assert outcome.violations == []
    assert outcome.crash_lost == outcome.shed == 0
    assert outcome.lost > 0


def test_durable_lane_batch_passes():
    for seed, protocol in ((1022050301, "mhh"), (560161641, "sub-unsub"),
                           (1588945316, "home-broker")):
        scenario = Scenario.from_seed(seed, "durable", protocol)
        assert scenario.config.durable
        assert conform(scenario, cross_engine=False) == [], seed


@pytest.mark.parametrize("protocol",
                         ["mhh", "sub-unsub", "home-broker"])
@pytest.mark.parametrize("seed", [3, 5])
def test_delivery_cursor_holds_live_events_only(seed, protocol):
    """Compaction retires an event from the log and from every cursor at
    once, so no cursor outgrows the live set; seeds 3 and 5 checkpoint
    every protocol's run several times."""
    cfg = Scenario.from_seed(seed, "durable", protocol).config
    dur = runner.run_to_end(cfg, record_log=False).durability
    assert dur.checkpoints > 0
    state = dur.replay()
    for cid, s in dur.sessions.items():
        assert s.acked <= dur.events.keys()
        assert state.sessions[cid].acked == s.acked


# ---------------------------------------------------------------------------
# determinism: engines and drivers
# ---------------------------------------------------------------------------
def test_durable_run_identical_across_engines():
    """The fuzzer's identity re-run on a durability-lane scenario: the
    simulator and the virtual clock agree on the whole outcome, event
    count and WAL checkpoints included."""
    assert conform(Scenario.from_seed(41, "durable")) == []


def test_durable_run_identical_across_drivers():
    cfg = _dur_cfg(crashes=CrashPlan.parse(crashes=["1@60"],
                                           restarts=["1@90"]))
    sim = _run_simulated(cfg)
    live = run_virtual_scenario(cfg)
    assert sim.metrics.delivery.log == live.metrics.delivery.log
    assert (sim.durability.records_appended
            == live.durability.records_appended)
    assert sim.durability.handovers == live.durability.handovers
    _assert_zero_write_off(live)


def test_virtual_driver_writes_real_wal_files(tmp_path):
    cfg = _dur_cfg(wal_dir=str(tmp_path),
                   crashes=CrashPlan.parse(crashes=["1@60"],
                                           restarts=["1@90"]))
    system = run_virtual_scenario(cfg)
    _assert_zero_write_off(system)
    assert system.durability.store.name == "file"
    wal_files = sorted(tmp_path.glob("b*/seg*.wal"))
    assert wal_files, "no WAL segments written to --wal-dir"
    for path in wal_files:
        _, torn = decode_records(path.read_bytes())
        assert torn == 0


@pytest.mark.parametrize("how", ["virtual", "soak"])
def test_a_failed_live_run_leaves_no_scratch_wal_behind(
        how, tmp_path, monkeypatch):
    """The live driver's default store is a scratch directory it owns; a
    run that raises must release it like one that ends well, while an
    explicit ``wal_dir`` (the caller's) is kept whatever happens."""
    scratch, kept = tmp_path / "tmp", tmp_path / "kept"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    if how == "virtual":
        monkeypatch.setattr(runner, "run_to_quiescence", boom)
        run = run_virtual_scenario
    else:
        # raises inside the event loop, one model second into the run
        monkeypatch.setattr(Workload, "stop", boom)
        run = run_soak
    brief = dataclasses.replace(SPEC, duration_s=1.0)
    for cfg in (_dur_cfg(), _dur_cfg(wal_dir=str(kept))):
        with pytest.raises(RuntimeError, match="boom"):
            run(dataclasses.replace(cfg, workload=brief))
    assert list(scratch.iterdir()) == []
    assert kept.is_dir()  # the caller's log directory stays


# ---------------------------------------------------------------------------
# satellite: the stale retransmit-timer regression
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_no_stale_timer_fires_after_permanent_death(seed):
    """A timer armed mid-backoff against a broker later declared dead must
    be cancelled by the crash sweep (epoch bump), not fire into the
    repaired generation. Reliability-only (no WAL): the fix is in the
    crash path itself."""
    cfg = ExperimentConfig(
        protocol="mhh", grid_k=3, seed=seed, workload=SPEC,
        faults=FaultProfile(deliver_loss=0.3), reliable=True,
        crashes=CrashPlan.parse(crashes=["1@50"]),
    )
    system = _run_simulated(cfg)
    assert system.reliability.stale_timer_fires == 0
    st = system.metrics.delivery.stats
    assert st.missing == 0


def test_no_stale_timer_fires_across_fuzzer_seeds():
    for seed, protocol in ((1097127993, "mhh"), (1539898300, "sub-unsub"),
                           (124576495, "mhh")):
        scenario = Scenario.from_seed(seed, "rel-crash", protocol)
        assert conform(scenario, cross_engine=False) == [], seed

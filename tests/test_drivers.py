"""Driver parity: the sans-IO kernel under the live driver vs the simulator.

The tentpole guarantee of the driver refactor is that the protocol core is
genuinely engine-agnostic: running the same seeded scenario through the
live driver (on a deterministic :class:`VirtualClock`, the stand-in for
the asyncio loop with asyncio's ordering semantics — one flat
``(when, seq)`` heap, no lanes, no ``schedule_fifo`` machinery) must
produce the same :class:`DeliveryChecker` outcome as the simulated driver,
for every protocol, with and without fault injection. The tests here
assert the *full delivery log*, which subsumes the per-client counters.

Also covered: VirtualClock ordering/cancellation semantics, the
AsyncioClock-based live soak end-to-end, and the Broker dispatch table.
"""

from __future__ import annotations

import pytest

from repro.drivers.base import Driver
from repro.drivers.live import LiveDriver, VirtualClock, run_soak, run_virtual_scenario
from repro.drivers.simulated import SimulatedDriver
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.mobility import registry
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashEvent, CrashPlan
from repro.pubsub import messages as m
from repro.pubsub.broker import Broker
from repro.pubsub.client import Client
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec

PROTOCOLS = tuple(registry.PROTOCOLS)

SPEC = WorkloadSpec(
    clients_per_broker=3,
    mobile_fraction=0.5,
    mean_connected_s=10.0,
    mean_disconnected_s=5.0,
    publish_interval_s=15.0,
    duration_s=120.0,
)

FAULTS = FaultProfile(
    deliver_loss=0.1, deliver_duplicate=0.05, wireless_jitter_ms=5.0
)

# one mid-run broker crash + a late restart: both repair rounds land inside
# the measurement window, so post-recovery deliveries dominate the log
CRASHES = CrashPlan(
    events=(
        CrashEvent("crash", 40_000.0, broker=4),
        CrashEvent("restart", 90_000.0, broker=4),
    )
)


def _outcome(system: PubSubSystem):
    st = system.metrics.delivery.stats
    return (
        st.published,
        st.expected,
        st.delivered,
        st.duplicates,
        st.order_violations,
        st.lost_explicit,
        st.missing,
        st.crash_lost,
        system.metrics.handoffs.handoff_count,
        tuple(system.metrics.delivery.log),
    )


def _run_simulated(cfg: ExperimentConfig):
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    return _outcome(system)


# ---------------------------------------------------------------------------
# the parity gate
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_driver_matches_simulated_driver(protocol):
    cfg = ExperimentConfig(protocol=protocol, grid_k=3, seed=7, workload=SPEC)
    assert _run_simulated(cfg) == _outcome(run_virtual_scenario(cfg))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_driver_matches_simulated_driver_under_faults(protocol):
    cfg = ExperimentConfig(
        protocol=protocol, grid_k=3, seed=11, workload=SPEC, faults=FAULTS
    )
    assert _run_simulated(cfg) == _outcome(run_virtual_scenario(cfg))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_driver_matches_simulated_driver_under_broker_crash(protocol):
    """Crash events are scheduled through the sans-IO clock facade, so a
    mid-run broker crash + restart must leave the *identical* post-recovery
    delivery log (and crash-loss ledger) under both drivers."""
    cfg = ExperimentConfig(
        protocol=protocol, grid_k=3, seed=13, workload=SPEC, crashes=CRASHES
    )
    simulated = _run_simulated(cfg)
    live = _outcome(run_virtual_scenario(cfg))
    assert simulated == live
    assert simulated[6] == 0  # missing: every crash loss accounted
    assert simulated[-1], "degenerate run: no deliveries at all"


# The VirtualClock/AsyncioClock ordering, cancellation and run-until
# semantics are pinned by the shared clock-contract suite in
# tests/test_clock_contract.py, which runs every case against BOTH
# clock implementations.


# ---------------------------------------------------------------------------
# system plumbing
# ---------------------------------------------------------------------------
def test_system_rejects_unknown_driver_spec():
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, driver="warp")


def test_live_system_has_no_simulator_and_refuses_run():
    system = PubSubSystem(grid_k=2, driver=LiveDriver(VirtualClock()))
    assert system.sim is None
    assert system.driver.name == "live"
    with pytest.raises(ConfigurationError):
        system.run(until=10.0)


def test_simulated_driver_is_the_default_and_exposes_sim():
    system = PubSubSystem(grid_k=2)
    assert isinstance(system.driver, SimulatedDriver)
    assert isinstance(system.driver, Driver)
    assert system.sim is system.clock


def test_broker_dispatch_table_covers_exactly_the_core_types():
    assert set(Broker._CORE_DISPATCH) == {
        m.EventMessage,
        m.PublishMessage,
        m.SubscribeMessage,
        m.UnsubscribeMessage,
        m.ConnectMessage,
    }
    # the message types a layer owns join a broker's table with the layer
    plain = PubSubSystem(grid_k=2).brokers[0]
    assert set(plain._dispatch) == set(Broker._CORE_DISPATCH)
    layered = PubSubSystem(grid_k=2, reliable=True, durable=True).brokers[0]
    assert set(layered._dispatch) - set(Broker._CORE_DISPATCH) == {
        m.AckMessage,
        m.SessionTransfer,
    }


def test_unknown_message_falls_through_to_protocol_control():
    system = PubSubSystem(grid_k=2)
    seen = []
    system.protocol.on_control = lambda broker, msg, frm: seen.append(
        (broker.id, msg, frm)
    )
    class Probe(m.Message):
        __slots__ = ("client",)

        def __init__(self, client):
            self.client = client

    probe = Probe(client=0)
    system.brokers[0].receive(probe, 1)
    assert seen == [(0, probe, 1)]


# ---------------------------------------------------------------------------
# the asyncio soak (real wall-clock, kept tiny)
# ---------------------------------------------------------------------------
def test_asyncio_soak_mhh_with_faults_passes():
    # 6 model seconds at 10x: a 0.6 s wall window
    cfg = ExperimentConfig(
        protocol="mhh",
        grid_k=3,
        workload=WorkloadSpec(
            clients_per_broker=3,
            mobile_fraction=0.5,
            mean_connected_s=2.0,
            mean_disconnected_s=0.5,
            publish_interval_s=1.0,
            duration_s=6.0,
            warmup_s=0.2,
        ),
        faults=FaultProfile(deliver_loss=0.1, deliver_duplicate=0.05),
    )
    result = run_soak(cfg, time_scale=10.0)
    assert result.drained, "live drain did not reach quiescence"
    assert result.violations == []
    assert result.published > 0
    assert result.missing == 0


def test_asyncio_soak_fails_on_a_raising_handler(monkeypatch):
    """A handler that raises once on the asyncio loop is a named violation,
    not a line in the loop's log beside a PASS."""
    publish = Client.publish
    raised = []

    def publish_once_raising(self, *args, **kwargs):
        if not raised:
            raised.append(self.id)
            raise RuntimeError("publish handler failed")
        return publish(self, *args, **kwargs)

    monkeypatch.setattr(Client, "publish", publish_once_raising)
    cfg = ExperimentConfig(
        protocol="mhh",
        grid_k=2,
        workload=WorkloadSpec(
            clients_per_broker=2,
            publish_interval_s=0.5,
            duration_s=2.0,
            warmup_s=0.2,
        ),
    )
    result = run_soak(cfg, time_scale=10.0)
    assert raised
    assert result.drained
    assert result.passed is False
    # the clock callback that raised: the publisher process's wakeup
    (violation,) = [v for v in result.violations if "raised" in v]
    assert "Process._resume" in violation
    assert "publish handler failed" in violation


def test_cli_soak_command(capsys):
    from repro.experiments.cli import main

    rc = main(
        ["soak", "--protocol", "sub-unsub", "--duration", "0.4",
         "--time-scale", "10", "--loss", "0.1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS sub-unsub" in out


def test_cli_rejects_cross_mode_flags():
    from repro.experiments.cli import main

    with pytest.raises(SystemExit):
        main(["fig5a", "--duration", "1"])
    with pytest.raises(SystemExit):
        main(["soak", "--scale", "paper"])

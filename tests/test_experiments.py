"""Tests for the experiment harness: configs, runner, figure drivers."""

import dataclasses
import inspect
import time

import pytest
from covering_scan import scan_covering
from test_outcome_digests import SIM_DIGESTS

from repro.conformance.scenarios import Scenario

from repro.drivers.live import LiveDriver, VirtualClock, run_soak
from repro.drivers.simulated import SimulatedDriver
from repro.errors import ConfigurationError
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.figures import (
    fig5a,
    fig5b,
    fig6a,
    fig6b,
    run_fig5,
    run_fig6,
)
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import build_system, run_experiment, run_to_end
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.pubsub.client import Client
from repro.pubsub.filter_table import FilterTable
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.system import PubSubSystem, SystemOptions
from repro.sim.core import Simulator
from repro.workload.mobility_model import Workload
from repro.workload.spec import WorkloadSpec


FAST = WorkloadSpec(
    clients_per_broker=3,
    mean_connected_s=20.0,
    mean_disconnected_s=20.0,
    publish_interval_s=15.0,
    duration_s=300.0,
    warmup_s=1.0,
)


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub", "home-broker"])
def test_runner_end_to_end_reliability(protocol):
    row = run_experiment(
        ExperimentConfig(protocol=protocol, grid_k=3, seed=4, workload=FAST)
    )
    assert row.protocol == protocol
    assert row.published > 0
    assert row.duplicates == 0
    assert row.order_violations == 0
    assert row.missing == 0
    if protocol != "home-broker":
        assert row.lost == 0


def test_runner_snapshot_excludes_drain_traffic():
    # a run whose clients are all disconnected at the end: the drain phase
    # must not add to the snapshot overhead
    cfg = ExperimentConfig(protocol="mhh", grid_k=3, seed=4, workload=FAST)
    row = run_experiment(cfg)
    assert row.overhead_per_handoff is not None
    assert row.handoffs > 0


def test_runner_same_seed_reproducible():
    cfg = ExperimentConfig(protocol="mhh", grid_k=3, seed=11, workload=FAST)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.handoffs == b.handoffs
    assert a.overhead_per_handoff == b.overhead_per_handoff
    assert a.delivered == b.delivered


def test_workloads_identical_across_protocols():
    rows = [
        run_experiment(
            ExperimentConfig(protocol=p, grid_k=3, seed=4, workload=FAST)
        )
        for p in ("mhh", "sub-unsub")
    ]
    assert rows[0].published == rows[1].published
    assert rows[0].handoffs == rows[1].handoffs
    assert rows[0].expected_deliveries == rows[1].expected_deliveries


def test_config_with_workload_override():
    cfg = ExperimentConfig(protocol="mhh", workload=FAST)
    cfg2 = cfg.with_workload(mean_connected_s=99.0)
    assert cfg2.workload.mean_connected_s == 99.0
    assert cfg.workload.mean_connected_s == 20.0
    assert "mhh" in cfg2.label()


def test_scales_registry_complete():
    assert set(SCALES) == {"smoke", "small", "paper"}
    for preset in SCALES.values():
        assert {"grid_k", "clients_per_broker", "duration_s"} <= set(preset)


def test_fig5_sweep_smoke_shapes():
    rows = run_fig5(
        scale="smoke",
        protocols=("mhh", "home-broker"),
        conn_periods_s=(10.0, 5000.0),
        seed=2,
    )
    assert len(rows) == 4
    a = fig5a(rows)
    b = fig5b(rows)
    assert set(a) == {"mhh", "home-broker"}
    assert [x for x, _y in a["mhh"]] == [10.0, 5000.0]
    # HB overhead grows with connection period (triangle routing amortised
    # over ever fewer handoffs); MHH stays flat and ends up far below
    hb = dict(a["home-broker"])
    mhh = dict(a["mhh"])
    assert hb[5000.0] > 3 * hb[10.0]
    assert mhh[5000.0] < hb[5000.0]
    assert mhh[5000.0] < 3 * mhh[10.0] + 10
    assert all(y is not None for _x, y in b["mhh"])


def test_fig6_sweep_smoke_shapes():
    rows = run_fig6(
        scale="smoke",
        protocols=("mhh", "home-broker"),
        grid_sizes=(3, 5),
        seed=2,
    )
    assert len(rows) == 4
    a = fig6a(rows)
    b = fig6b(rows)
    hb = dict(a["home-broker"])
    # triangle routing cost grows with network size
    assert hb[25] > hb[9]
    assert set(x for x, _ in b["mhh"]) == {9, 25}


def test_parallel_sweep_matches_serial():
    """workers=N fans runs out over processes; rows (and their order) are
    identical to the serial loop."""
    kwargs = dict(
        scale="smoke",
        protocols=("mhh", "home-broker"),
        conn_periods_s=(10.0, 100.0),
        seed=2,
    )
    serial = run_fig5(**kwargs)
    parallel = run_fig5(workers=2, **kwargs)
    assert len(parallel) == len(serial) == 4
    for a, b in zip(serial, parallel):
        assert a.protocol == b.protocol
        assert a.params == b.params
        assert a.as_dict() == b.as_dict()
        assert a.sim_events == b.sim_events


def test_covering_index_config_plumbs_through():
    """A configured covering run on the product's index equals the same
    run with the tests-only covering scan substituted for it."""
    cfg = ExperimentConfig(protocol="sub-unsub", grid_k=3, seed=4,
                           workload=FAST, covering_enabled=True)
    indexed = run_experiment(cfg)
    with scan_covering():
        scanned = run_experiment(cfg)
    assert indexed.as_dict() == scanned.as_dict()
    assert indexed.sim_events == scanned.sim_events


def test_every_config_field_reaches_every_driver():
    """The census: a system is built from one options value plus a driver;
    a config is that value plus the runner's two fields by name; and what
    a system makes of the value does not depend on its driver."""
    assert list(inspect.signature(PubSubSystem.__init__).parameters) == [
        "self", "options", "driver", "fields"]
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert names == [f.name for f in dataclasses.fields(SystemOptions)] + [
        "workload", "drain_limit_ms"]
    assert len(names) == 14 + 2

    cfg = ExperimentConfig(  # a non-default value in every field
        protocol="sub-unsub", grid_k=2, seed=9, workload=FAST,
        migration_batch_size=3, covering_enabled=False, drain_limit_ms=1e6,
        stream_pacing_ms=2.5, trace=["publish"],
        faults=FaultProfile(deliver_loss=0.1),
        crashes=CrashPlan.parse(crashes=["1@60"]),
        reliable=True, retry_budget=3, queue_cap=7, durable=True,
        wal_dir=None,
    )
    assert [f.name for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) == f.default] == ["wal_dir"]

    def built(system):
        assert system.options == cfg
        return (
            system.protocol.name, system.broker_count, system.seed,
            system.covering_enabled, system.migration_batch_size,
            system.stream_pacing_ms,
            system.tracer.wants("publish"), system.queue_cap,
            system.net.queue_cap,
            system.reliability.retry_budget, system.durability is not None,
            system.recovery is not None, system.fault_injector is not None,
        )

    simulated, _ = build_system(cfg)
    live, _ = build_system(cfg, driver=LiveDriver(VirtualClock()))
    live.durability.close()  # the live driver's WAL is a scratch directory
    assert built(simulated) == built(live)
    assert built(simulated) == ("sub-unsub", 4, 9, False, 3, 2.5,
                                True, 7, 7, 3, True, True, True)


def test_a_bad_option_value_fails_where_it_is_written_down():
    """Validation lives on the options value, so every holder — here a
    config that is never built into a system — refuses a bad value."""
    with pytest.raises(ConfigurationError, match="retry_budget"):
        ExperimentConfig(protocol="mhh", retry_budget=0)
    with pytest.raises(ConfigurationError, match="grid_k"):
        SystemOptions(grid_k=0)


def test_an_empty_sweep_runs_nothing():
    """``()`` is an empty sweep, not a request for the paper's defaults."""
    assert run_fig5(scale="smoke", conn_periods_s=()) == []
    assert run_fig6(scale="smoke", grid_sizes=()) == []


@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: PubSubSystem(grid_k=2, matching_engine="scan"),
        TypeError, "matching_engine", id="PubSubSystem-matching_engine"),
    pytest.param(
        lambda: ExperimentConfig(protocol="mhh", matching_engine="scan"),
        TypeError, "matching_engine", id="ExperimentConfig-matching_engine"),
    pytest.param(
        lambda: FilterTable(0, [1], engine="scan"),
        TypeError, "engine", id="FilterTable-engine"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, sim_engine="lanes-compiled"),
        TypeError, "sim_engine", id="sim_engine-lanes-compiled"),
    pytest.param(
        lambda: run_soak(protocol="mhh", grid_k=3),
        TypeError, "protocol", id="run_soak-keywords"),
    pytest.param(
        lambda: IntervalIndex(incremental=False),
        TypeError, "incremental", id="IntervalIndex-incremental"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, topology=None),
        TypeError, "topology", id="PubSubSystem-topology"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, durable=True, log_store=None),
        TypeError, "log_store", id="PubSubSystem-log_store"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, covering_index=False),
        TypeError, "covering_index", id="PubSubSystem-covering_index"),
    pytest.param(
        lambda: ExperimentConfig(protocol="mhh", covering_index=False),
        TypeError, "covering_index", id="ExperimentConfig-covering_index"),
    pytest.param(
        lambda: FilterTable(0, [1], covering_index=False),
        TypeError, "covering_index", id="FilterTable-covering_index"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, wired_latency=5.0),
        TypeError, "wired_latency", id="PubSubSystem-wired_latency"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, sim_engine="heap"),
        TypeError, "sim_engine", id="PubSubSystem-sim_engine"),
    pytest.param(
        lambda: ExperimentConfig(protocol="mhh", event_batching=True),
        TypeError, "event_batching", id="ExperimentConfig-event_batching"),
    pytest.param(
        lambda: PubSubSystem(grid_k=2, unicast_routing="tree"),
        TypeError, "unicast_routing", id="PubSubSystem-unicast_routing"),
    pytest.param(
        lambda: ExperimentConfig(protocol="mhh", unicast_routing="tree"),
        TypeError, "unicast_routing", id="ExperimentConfig-unicast_routing"),
    pytest.param(
        lambda: Simulator(engine="heap"),
        TypeError, "engine", id="Simulator-engine"),
    pytest.param(
        lambda: SimulatedDriver(engine="heap"),
        TypeError, "engine", id="SimulatedDriver-engine"),
])
def test_removed_engine_options_fail_loudly(build, error, message):
    """The deleted engine switches (matching, covering, scheduler,
    batching) are not silently accepted: a caller (or a benchmark bundle)
    still naming them must hear about it rather than run the default."""
    with pytest.raises(error, match=message):
        build()


def test_format_table_and_series_render():
    rows = run_fig5(
        scale="smoke", protocols=("mhh",), conn_periods_s=(10.0,), seed=2
    )
    table = format_table(rows, title="t")
    assert "protocol" in table and "mhh" in table
    series = format_series(
        fig5a(rows), "conn_s", "overhead", title="Figure 5(a)"
    )
    assert "Figure 5(a)" in series
    assert "mhh" in series


def test_cli_runs_smoke(capsys):
    from repro.experiments.cli import main

    rc = main(["fig6a", "--scale", "smoke", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 6(a)" in out
    assert "mhh" in out


@pytest.mark.parametrize("argv, option", [
    (["fig5a", "--scale", "smoke", "--queue-cap", "0"], "queue_cap"),
    (["fig5a", "--scale", "smoke", "--loss", "1.5"], "deliver_loss"),
    (["soak", "--duration", "0.5", "--reliable", "--retry-budget", "0"],
     "retry_budget"),
    (["soak", "--duration", "0.5", "--soak-grid", "0"], "grid_k"),
], ids=["queue-cap", "loss", "retry-budget", "soak-grid"])
def test_cli_bad_option_value_is_a_usage_error(argv, option, capsys):
    """A bad value ends in argparse's exit 2 naming the option — before any
    run or worker pool starts — not in a ConfigurationError traceback."""
    from repro.experiments.cli import main

    variants = [argv] if argv[0] == "soak" else [argv, argv + ["--workers", "2"]]
    for line in variants:
        with pytest.raises(SystemExit) as exit_info:
            main(line)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {option} must be" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_workload_overrides_reject_sweep_owned_fields():
    import pytest as _pytest

    from repro.errors import ConfigurationError
    from repro.experiments import figures

    with _pytest.raises(ConfigurationError, match="sweep-owned"):
        figures.run_fig5(scale="smoke", conn_periods_s=(10.0,),
                         workload_overrides={"mean_connected_s": 5.0})
    with _pytest.raises(ConfigurationError, match="sweep-owned"):
        figures.run_fig6(scale="smoke", grid_sizes=(3,),
                         workload_overrides={"duration_s": 5.0})


# ---------------------------------------------------------------------------
# one run, one record, every run audited
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", sorted(SIM_DIGESTS))
def test_the_drain_adds_no_handoff_and_no_delay_sample(seed, monkeypatch):
    """The record reads handoffs and delays at the end of the run, not at
    ``Workload.stop``: the drain reconnects every client at its last
    broker (not a handoff), and the closed window keeps drain deliveries
    from filling in a delay."""
    at_stop = {}
    stop = Workload.stop

    def stop_and_look(workload):
        stop(workload)
        log = workload.system.metrics.handoffs
        at_stop.update(handoffs=log.handoff_count, delays=log.delays())

    monkeypatch.setattr(Workload, "stop", stop_and_look)
    system = run_to_end(Scenario.from_seed(seed).config, record_log=False)
    log = system.metrics.handoffs
    assert at_stop["handoffs"] > 0
    assert log.handoff_count == at_stop["handoffs"]
    assert log.delays() == at_stop["delays"]


def _drop_one_delivery_silently(monkeypatch) -> list:
    """Plant a mutant: the first delivery any client receives vanishes
    without ``on_loss``, so no ledger ever hears of it."""
    deliver = Client._deliver_event
    dropped: list = []

    def deliver_but_drop_one(self, event):
        if not dropped:
            dropped.append((self.id, event.publisher, event.seq))
            return
        deliver(self, event)

    monkeypatch.setattr(Client, "_deliver_event", deliver_but_drop_one)
    return dropped


def test_a_silently_dropped_delivery_fails_the_figure_run(
        monkeypatch, capsys):
    from repro.experiments import figures
    from repro.experiments.cli import main

    started = time.perf_counter()
    dropped = _drop_one_delivery_silently(monkeypatch)
    row = run_experiment(
        ExperimentConfig(protocol="mhh", grid_k=3, seed=4, workload=FAST))
    assert len(dropped) == 1
    assert row.missing == 1
    assert any(v.startswith("missing=1:") for v in row.violations)

    # the figure command on a one-point sweep: the first of its three
    # runs drops the delivery
    dropped.clear()
    monkeypatch.setattr(figures, "CONN_PERIOD_SWEEP_S", (100.0,))
    rc = main(["fig5a", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert len(dropped) == 1
    assert rc == 1
    assert "Figure 5(a)" in out
    assert "FAIL mhh" in out and "- missing=1:" in out
    assert time.perf_counter() - started < 10.0

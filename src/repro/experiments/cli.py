"""Command-line entry point: regenerate the paper's figures, or soak live.

Usage::

    python -m repro.experiments.cli fig5a [--scale smoke|small|paper] [--seed N]
    python -m repro.experiments.cli fig6b --scale paper
    python -m repro.experiments.cli all --scale small
    python -m repro.experiments.cli soak --duration 3 --loss 0.1
    python -m repro.experiments.cli serve --port 7001
    python -m repro.experiments.cli connect --spawn 3 --scenario-seed 303

Each command takes only the flags it reads (``<command> --help``); a flag
of another command is an unrecognized argument, exit 2.

``fig5a``/``fig5b`` share one sweep, as do ``fig6a``/``fig6b``; asking for
both panels of a figure runs the sweep once. Every figure point is audited
against the conformance fuzzer's invariant matrix; a point with a
violation is printed after the figure and the command exits 1.

``soak`` runs the **live asyncio driver** instead of the simulator: the
same broker/protocol kernel under real wall-clock delays, driven by the
standard churn workload for ``--duration`` wall seconds per protocol,
then drained to quiescence and audited against the conformance fuzzer's
delivery invariant matrix (see :mod:`repro.drivers.live`).

Adversarial variants of the paper sweeps: ``--loss/--dup/--jitter`` switch
on seeded wireless fault injection (:mod:`repro.network.faults`) and
``--mobility``/``--topic-skew`` swap the movement and topic-popularity
models (:mod:`repro.workload.models`). ``--reliable`` (with
``--retry-budget``) turns on the end-to-end ACK/retransmit layer and
``--queue-cap`` bounds each client's downlink queue with explicit load
shedding (:mod:`repro.pubsub.reliability`). All default off — the plain
invocation reproduces the paper bit-for-bit. The fault and layer flags
apply to ``soak`` too; ``connect`` takes the fault flags only.

Broker failures (``soak``): ``--broker-crash B@T`` / ``--broker-restart
B@T`` / ``--link-partition A-B@T`` schedule overlay failures at model
second ``T`` (repeatable; see :mod:`repro.network.recovery`); the repair
round runs ``--crash-repair-delay`` model ms after each failure. The
post-drain audit then also checks the crash rows of the invariant matrix.

``serve``/``connect`` run the **multi-process wire harness**
(:mod:`repro.wire`): ``serve`` starts one broker node server (real TCP,
framed binary codec); ``connect`` drives a fuzzer scenario from a
coordinator with the brokers split across node processes — either ones it
spawns itself (``--spawn N``) or already-running servers
(``--node HOST:PORT``, repeatable). ``--verify-sim`` re-runs the scenario
on the simulated driver and diffs the delivery logs (the CI wire-smoke
gate).

Installed entry point: ``mhh-repro`` (see ``setup.cfg``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments import figures, report
from repro.mobility.registry import PROTOCOLS
from repro.network.faults import FaultProfile
from repro.workload.models import MOBILITY_MODELS

__all__ = ["main"]

#: panel -> (figure, series of the sweep's rows, x label, y label, title)
_PANELS = {
    "fig5a": ("5", figures.fig5a, "conn_period_s", "msg overhead / handoff",
              "Figure 5(a): message overhead per handoff vs connection period"),
    "fig5b": ("5", figures.fig5b, "conn_period_s", "handoff delay (ms)",
              "Figure 5(b): handoff delay vs connection period"),
    "fig6a": ("6", figures.fig6a, "base_stations", "msg overhead / handoff",
              "Figure 6(a): message overhead per handoff vs network size"),
    "fig6b": ("6", figures.fig6b, "base_stations", "handoff delay (ms)",
              "Figure 6(b): handoff delay vs network size"),
}
_SWEEPS = {"5": figures.run_fig5, "6": figures.run_fig6}


def _given(args, **names: str) -> dict[str, Any]:
    """``{keyword: args.<flag>}`` for the flags passed on the command line,
    so an omitted flag leaves the default to the function it feeds."""
    return {
        keyword: getattr(args, flag)
        for keyword, flag in names.items()
        if getattr(args, flag) is not None
    }


def _system_options(args) -> dict[str, Any]:
    """The :class:`SystemOptions` fields the command line sets, built and
    validated as one value before any run or worker pool starts."""
    from repro.network.recovery import CrashPlan
    from repro.pubsub.system import SystemOptions

    options: dict[str, Any] = {}
    if args.loss or args.dup or args.jitter:
        options["faults"] = FaultProfile(
            deliver_loss=args.loss,
            deliver_duplicate=args.dup,
            wireless_jitter_ms=args.jitter,
        )
    if args.command == "connect":
        # connect drives a fuzzer scenario's own layers, faults aside
        return options
    if args.retry_budget is not None and not args.reliable:
        raise ConfigurationError("--retry-budget needs --reliable")
    options.update(
        reliable=args.reliable,
        queue_cap=args.queue_cap,
        durable=args.durable,
        **_given(args, retry_budget="retry_budget"),
    )
    if args.command == "soak":
        options.update(grid_k=args.soak_grid, wal_dir=args.wal_dir)
        if args.broker_crash or args.broker_restart or args.link_partition:
            options["crashes"] = CrashPlan.parse(
                crashes=args.broker_crash,
                restarts=args.broker_restart,
                partitions=args.link_partition,
                **_given(args, repair_delay_ms="crash_repair_delay"),
            )
    SystemOptions(**options)
    return options


def _run_figures(args, options: dict[str, Any]) -> int:
    overrides: dict[str, Any] = {}
    if args.mobility is not None:
        overrides["mobility_model"] = args.mobility
    if args.topic_skew:
        overrides["topic_skew"] = args.topic_skew
    # a panel, its figure ("fig5" / "fig6") or "all" names the panels
    want = [p for p in _PANELS if args.command in ("all", p[:4], p)]
    out: list[str] = []
    rows = []
    for fig, sweep in _SWEEPS.items():
        panels = [p for p in want if _PANELS[p][0] == fig]
        if not panels:
            continue
        swept = sweep(
            scale=args.scale, seed=args.seed, workers=args.workers,
            workload_overrides=overrides or None, **options,
        )
        rows += swept
        for panel in panels:
            _, series, *labels = _PANELS[panel]
            out.append(report.format_series(series(swept), *labels))
        if args.raw:
            out.append(report.format_table(swept, f"Figure {fig} raw runs"))
    print("\n\n".join(out))
    # every figure point is audited like a fuzzer scenario: a row that
    # lost, duplicated or reordered deliveries fails the command
    failed = [row for row in rows if row.violations]
    for row in failed:
        point = " ".join(f"{k}={v}" for k, v in row.params.items())
        print(f"FAIL {row.protocol} {point}")
        for violation in row.violations:
            print(f"     - {violation}")
    return 1 if failed else 0


def _run_soak(args, options: dict[str, Any]) -> int:
    from repro.drivers.live import run_soak
    from repro.experiments.config import ExperimentConfig
    from repro.workload.spec import WorkloadSpec

    protocols = (
        tuple(PROTOCOLS) if args.protocol == "all" else (args.protocol,)
    )
    # the standard churn workload in model seconds: --duration wall
    # seconds of it at --time-scale model seconds per wall second
    workload = WorkloadSpec(
        clients_per_broker=3,
        mobile_fraction=0.5,
        mean_connected_s=2.0,
        mean_disconnected_s=0.5,
        publish_interval_s=1.0,
        duration_s=max(args.duration * args.time_scale, 1.0),
        warmup_s=0.2,
    )
    failures: list[tuple[str, list[str]]] = []
    for protocol in protocols:
        result = run_soak(
            ExperimentConfig(
                protocol, seed=args.seed, workload=workload, **options
            ),
            time_scale=args.time_scale,
        )
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {protocol:12s} wall={result.wall_seconds:5.1f}s "
            f"model={result.model_ms / 1000.0:6.1f}s "
            f"handoffs={result.handoffs:3d} published={result.published} "
            f"expected={result.expected_deliveries} "
            f"delivered={result.delivered} dups={result.duplicates} "
            f"lost={result.lost} missing={result.missing}"
        )
        for violation in result.violations:
            print(f"     - {violation}")
        if not result.passed:
            failures.append((protocol, result.violations))
    if failures:
        # the non-zero exit names every violated invariant, so a CI log's
        # last line is already the diagnosis
        print("soak FAILED: " + "; ".join(
            f"{proto}: {violations[0] if violations else 'unknown'}"
            for proto, violations in failures
        ))
        return 1
    return 0


def _run_wire_serve(args) -> int:
    from repro.wire.node import NodeServer

    keepalive = _given(args, keepalive_s="keepalive")
    NodeServer(args.host, args.port, **keepalive).run()
    return 0


def _run_wire_connect(args, faults: Optional[FaultProfile]) -> int:
    import dataclasses

    from repro.conformance.fuzzer import run_scenario
    from repro.conformance.scenarios import Scenario
    from repro.metrics.summary import build_row
    from repro.wire.harness import run_socket_scenario

    endpoints = [
        (host or "127.0.0.1", int(port))
        for host, _, port in (spec.rpartition(":") for spec in args.node)
    ] if args.node else None
    base = Scenario.from_seed(args.scenario_seed).config
    if faults is not None:
        base = dataclasses.replace(base, faults=faults)
    protocols = (
        tuple(PROTOCOLS) if args.wire_protocol == "all"
        else (args.wire_protocol,)
    )
    failures: list[str] = []
    for protocol in protocols:
        cfg = dataclasses.replace(base, protocol=protocol)
        system = run_socket_scenario(
            cfg,
            processes=args.spawn,
            endpoints=endpoints,
            **_given(args, keepalive_s="keepalive"),
        )
        o = build_row(cfg, system)
        wire = system.net.stats
        violations = o.violations
        detail = ""
        if args.verify_sim:
            sim = run_scenario(cfg)
            if any(
                getattr(sim, name) != getattr(o, name)
                for name in ("delivery_log", "delivered", "duplicates",
                             "lost", "missing")
            ):
                detail = " sim-parity MISMATCH"
        failed = bool(violations or detail)
        print(
            f"{'FAIL' if failed else 'PASS'} {protocol:12s} "
            f"published={o.published} "
            f"delivered={o.delivered} dups={o.duplicates} "
            f"lost={o.lost} missing={o.missing} "
            f"dispatches={wire.dispatches} effects={wire.effects} "
            f"resumes={wire.resumes} tx={wire.bytes_tx}B "
            f"rx={wire.bytes_rx}B{detail}"
        )
        for violation in violations:
            print(f"     - {violation}")
        if failed:
            failures.append(protocol)
    if failures:
        print("wire connect FAILED: " + ", ".join(failures))
        return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=1)
    faults = argparse.ArgumentParser(add_help=False)
    arg = faults.add_argument
    arg("--loss", type=float, default=0.0, metavar="P",
        help="wireless delivery loss probability (default 0)")
    arg("--dup", type=float, default=0.0, metavar="P",
        help="wireless delivery duplication probability (default 0)")
    arg("--jitter", type=float, default=0.0, metavar="MS",
        help="max extra wireless service latency in ms (default 0)")
    layers = argparse.ArgumentParser(add_help=False)
    arg = layers.add_argument
    arg("--reliable", action="store_true",
        help="end-to-end reliable downlink delivery: ACK/retransmit with "
             "deterministic backoff + per-link circuit breakers (default "
             "off = the paper's best-effort downlink)")
    arg("--retry-budget", type=int, default=None, metavar="N",
        help="retransmission attempts per frame before the window is "
             "written off (default 8; needs --reliable)")
    arg("--queue-cap", type=int, default=None, metavar="N",
        help="bound each client's downlink queue at N messages; beyond it "
             "data is shed explicitly, control never (default: unbounded)")
    arg("--durable", action="store_true",
        help="durable broker state: per-broker write-ahead log replayed on "
             "crash recovery + persistent client sessions with repair-round "
             "handover (default off = volatile brokers)")
    keepalive = argparse.ArgumentParser(add_help=False)
    keepalive.add_argument(
        "--keepalive", type=float, default=None, metavar="S",
        help="seconds of silence from the coordinator before a node pings "
             "it (default 2)")

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Regenerate the MHH paper's evaluation figures.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True,
        help="which figure (or panel) to regenerate, 'soak' to run the "
             "live asyncio driver under a churn workload, or "
             "'serve'/'connect' for the multi-process wire harness",
    )
    for name in ("fig5a", "fig5b", "fig5", "fig6a", "fig6b", "fig6", "all"):
        sweep = commands.add_parser(name, parents=[seed, faults, layers])
        arg = sweep.add_argument
        arg("--scale", default="small", choices=["smoke", "small", "paper"])
        arg("--workers", type=int, default=None, metavar="N",
            help="fan the sweep's independent runs out over N processes "
                 "(default: serial)")
        arg("--raw", action="store_true",
            help="also print the full per-run result table")
        arg("--mobility", default=None, choices=sorted(MOBILITY_MODELS),
            help="mobility model for mobile clients (default: the paper's "
                 "uniform model)")
        arg("--topic-skew", type=float, default=0.0, metavar="S",
            help="Zipf exponent for topic popularity (0 = uniform, the "
                 "paper's model)")

    arg = commands.add_parser(
        "soak", parents=[seed, faults, layers],
        description="soak (live asyncio driver)",
    ).add_argument
    arg("--wal-dir", default=None, metavar="DIR",
        help="directory for file-backed WAL segments (needs --durable; "
             "default: a scratch dir)")
    arg("--protocol", default="all", choices=sorted(PROTOCOLS) + ["all"],
        help="protocol(s) to soak (default: all three)")
    arg("--duration", type=float, default=3.0, metavar="S",
        help="wall-clock seconds of live churn per protocol (default 3)")
    arg("--time-scale", type=float, default=5.0, metavar="X",
        help="model seconds per wall second (default 5: a 10 ms wired hop "
             "takes 2 ms of wall time)")
    arg("--soak-grid", type=int, default=3, metavar="K",
        help="grid size for the soak (default 3)")
    arg("--broker-crash", action="append", default=[], metavar="B@T",
        help="crash broker B at model second T (repeatable)")
    arg("--broker-restart", action="append", default=[], metavar="B@T",
        help="restart broker B (empty state) at model second T (repeatable)")
    arg("--link-partition", action="append", default=[], metavar="A-B@T",
        help="partition overlay link A-B at model second T (repeatable)")
    arg("--crash-repair-delay", type=float, default=None, metavar="MS",
        help="model ms between a failure event and its repair round "
             "(default 500)")

    arg = commands.add_parser(
        "serve", parents=[keepalive],
        description="wire (multi-process socket harness): serve one node",
    ).add_argument
    arg("--host", default="127.0.0.1", metavar="HOST",
        help="interface to listen on (default 127.0.0.1)")
    arg("--port", type=int, default=0, metavar="PORT",
        help="TCP port; 0 picks a free one and prints it (default 0)")

    connect = commands.add_parser(
        "connect", parents=[faults, keepalive],
        description="wire (multi-process socket harness): drive a scenario "
                    "over node processes",
    )
    arg = connect.add_mutually_exclusive_group().add_argument
    arg("--node", action="append", default=None, metavar="HOST:PORT",
        help="address of a running node server (repeatable; default: spawn "
             "local ones)")
    arg("--spawn", type=int, default=2, metavar="N",
        help="number of local node processes to spawn when no --node is "
             "given (default 2)")
    arg = connect.add_argument
    arg("--scenario-seed", type=int, default=303, metavar="N",
        help="conformance scenario seed to drive over the sockets "
             "(default 303)")
    arg("--wire-protocol", default="all", choices=sorted(PROTOCOLS) + ["all"],
        help="protocol(s) to run (default: all three)")
    arg("--verify-sim", action="store_true",
        help="re-run each scenario on the simulated driver and require "
             "identical delivery logs")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _run_wire_serve(args)
    try:
        options = _system_options(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.command == "connect":
        return _run_wire_connect(args, options.get("faults"))
    if args.command == "soak":
        return _run_soak(args, options)
    return _run_figures(args, options)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line entry point: regenerate the paper's figures, or soak live.

Usage::

    python -m repro.experiments.cli fig5a [--scale smoke|small|paper] [--seed N]
    python -m repro.experiments.cli fig6b --scale paper
    python -m repro.experiments.cli all --scale small
    python -m repro.experiments.cli soak --duration 3 --loss 0.1
    python -m repro.experiments.cli serve --port 7001
    python -m repro.experiments.cli connect --spawn 3 --scenario-seed 303

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
invocation reproduces the paper bit-for-bit. The fault and reliability
flags apply to ``soak`` too.

Broker failures (soak only): ``--broker-crash B@T`` / ``--broker-restart
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

_FIG5 = {"fig5a", "fig5b"}
_FIG6 = {"fig6a", "fig6b"}


def _system_options(args) -> dict[str, Any]:
    """The :class:`SystemOptions` fields the command line sets, built and
    validated as one value before any run or worker pool starts."""
    from repro.network.recovery import CrashPlan
    from repro.pubsub.system import SystemOptions

    options: dict[str, Any] = {
        "reliable": args.reliable,
        "retry_budget": args.retry_budget,
        "queue_cap": args.queue_cap,
        "durable": args.durable,
    }
    if args.loss or args.dup or args.jitter:
        options["faults"] = FaultProfile(
            deliver_loss=args.loss,
            deliver_duplicate=args.dup,
            wireless_jitter_ms=args.jitter,
        )
    if args.figure == "soak":
        options.update(grid_k=args.soak_grid, wal_dir=args.wal_dir)
        if args.broker_crash or args.broker_restart or args.link_partition:
            options["crashes"] = CrashPlan.parse(
                crashes=args.broker_crash,
                restarts=args.broker_restart,
                partitions=args.link_partition,
                repair_delay_ms=args.crash_repair_delay,
            )
    SystemOptions(**options)
    return options


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
        print(
            "soak FAILED: "
            + "; ".join(
                f"{proto}: {violations[0] if violations else 'unknown'}"
                for proto, violations in failures
            )
        )
        return 1
    return 0


def _run_wire_serve(args) -> int:
    from repro.wire.node import main as node_main

    return node_main([
        "serve", "--host", args.host, "--port", str(args.port),
        "--keepalive", str(args.keepalive),
    ])


def _run_wire_connect(args, faults: Optional[FaultProfile]) -> int:
    import dataclasses

    from repro.conformance.fuzzer import run_scenario
    from repro.conformance.scenarios import Scenario
    from repro.metrics.summary import build_row
    from repro.wire.harness import run_socket_scenario

    endpoints = None
    if args.node:
        endpoints = []
        for spec in args.node:
            host, _, port = spec.rpartition(":")
            endpoints.append((host or "127.0.0.1", int(port)))
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
            keepalive_s=args.keepalive,
            endpoints=endpoints,
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Regenerate the MHH paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(
            _FIG5 | _FIG6 | {"fig5", "fig6", "all", "soak", "serve", "connect"}
        ),
        help="which figure (or panel) to regenerate, 'soak' to run the "
             "live asyncio driver under a churn workload, or "
             "'serve'/'connect' for the multi-process wire harness",
    )
    parser.add_argument("--scale", default=None,
                        choices=["smoke", "small", "paper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="fan the sweep's independent runs out over N "
                             "processes (default: serial)")
    parser.add_argument("--raw", action="store_true",
                        help="also print the full per-run result table")
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="wireless delivery loss probability (default 0)")
    parser.add_argument("--dup", type=float, default=0.0, metavar="P",
                        help="wireless delivery duplication probability "
                             "(default 0)")
    parser.add_argument("--jitter", type=float, default=0.0, metavar="MS",
                        help="max extra wireless service latency in ms "
                             "(default 0)")
    parser.add_argument("--reliable", action="store_true",
                        help="end-to-end reliable downlink delivery: "
                             "ACK/retransmit with deterministic backoff + "
                             "per-link circuit breakers (default off = the "
                             "paper's best-effort downlink)")
    parser.add_argument("--retry-budget", type=int, default=None, metavar="N",
                        help="retransmission attempts per frame before the "
                             "window is written off (default 8; needs "
                             "--reliable)")
    parser.add_argument("--queue-cap", type=int, default=None, metavar="N",
                        help="bound each client's downlink queue at N "
                             "messages; beyond it data is shed explicitly, "
                             "control never (default: unbounded)")
    parser.add_argument("--durable", action="store_true",
                        help="durable broker state: per-broker write-ahead "
                             "log replayed on crash recovery + persistent "
                             "client sessions with repair-round handover "
                             "(default off = volatile brokers)")
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="directory for file-backed WAL segments (needs "
                             "--durable; default: the driver's store — "
                             "in-memory for sweeps, a scratch dir for soaks)")
    parser.add_argument("--mobility", default=None,
                        choices=sorted(MOBILITY_MODELS),
                        help="mobility model for mobile clients "
                             "(default: the paper's uniform model)")
    parser.add_argument("--topic-skew", type=float, default=None, metavar="S",
                        help="Zipf exponent for topic popularity "
                             "(0 = uniform, the paper's model)")
    soak = parser.add_argument_group("soak (live asyncio driver)")
    soak.add_argument("--protocol", default=None,
                      choices=sorted(PROTOCOLS) + ["all"],
                      help="protocol(s) to soak (default: all three)")
    soak.add_argument("--duration", type=float, default=None, metavar="S",
                      help="wall-clock seconds of live churn per protocol "
                           "(default 3)")
    soak.add_argument("--time-scale", type=float, default=None, metavar="X",
                      help="model seconds per wall second (default 5: a "
                           "10 ms wired hop takes 2 ms of wall time)")
    soak.add_argument("--soak-grid", type=int, default=None, metavar="K",
                      help="grid size for the soak (default 3)")
    soak.add_argument("--broker-crash", action="append", default=None,
                      metavar="B@T",
                      help="crash broker B at model second T (repeatable)")
    soak.add_argument("--broker-restart", action="append", default=None,
                      metavar="B@T",
                      help="restart broker B (empty state) at model "
                           "second T (repeatable)")
    soak.add_argument("--link-partition", action="append", default=None,
                      metavar="A-B@T",
                      help="partition overlay link A-B at model second T "
                           "(repeatable)")
    soak.add_argument("--crash-repair-delay", type=float, default=None,
                      metavar="MS",
                      help="model ms between a failure event and its "
                           "repair round (default 500)")
    wire = parser.add_argument_group("wire (multi-process socket harness)")
    wire.add_argument("--host", default=None, metavar="HOST",
                      help="serve: interface to listen on "
                           "(default 127.0.0.1)")
    wire.add_argument("--port", type=int, default=None, metavar="PORT",
                      help="serve: TCP port; 0 picks a free one and prints "
                           "it (default 0)")
    wire.add_argument("--keepalive", type=float, default=None, metavar="S",
                      help="seconds of silence from the coordinator "
                           "before a node pings it (default 2)")
    wire.add_argument("--node", action="append", default=None,
                      metavar="HOST:PORT",
                      help="connect: address of a running node server "
                           "(repeatable; default: spawn local ones)")
    wire.add_argument("--spawn", type=int, default=None, metavar="N",
                      help="connect: number of local node processes to "
                           "spawn when no --node is given (default 2)")
    wire.add_argument("--scenario-seed", type=int, default=None, metavar="N",
                      help="connect: conformance scenario seed to drive "
                           "over the sockets (default 303)")
    wire.add_argument("--wire-protocol", default=None,
                      choices=sorted(PROTOCOLS) + ["all"],
                      help="connect: protocol(s) to run (default: all three)")
    wire.add_argument("--verify-sim", action="store_true",
                      help="connect: re-run each scenario on the simulated "
                           "driver and require identical delivery logs")
    args = parser.parse_args(argv)

    # --seed and the fault flags are shared; everything else is scoped to
    # one mode. Mode-scoped flags parse with a None sentinel so that a
    # flag *explicitly* passed — even at its documented default value —
    # is rejected in the wrong mode instead of being silently ignored;
    # the real defaults are filled in below, after the check.
    soak_only = ("protocol", "duration", "time_scale", "soak_grid",
                 "broker_crash", "broker_restart", "link_partition",
                 "crash_repair_delay")
    figure_only = ("scale", "workers", "raw", "mobility", "topic_skew")
    serve_only = ("host", "port")
    connect_only = ("node", "spawn", "scenario_seed", "wire_protocol",
                    "verify_sim")
    wire_shared = ("keepalive",)
    # the opt-in layers run under sweeps and soak; connect drives a fuzzer
    # scenario exactly as sampled
    layer_flags = ("reliable", "durable", "queue_cap")
    mode = args.figure if args.figure in ("soak", "serve", "connect") else "figures"
    allowed = {
        "figures": figure_only + layer_flags,
        "soak": soak_only + layer_flags,
        "serve": serve_only + wire_shared,
        "connect": connect_only + wire_shared,
    }[mode]
    scope_names = {
        "figures": "figure sweeps",
        "soak": "soak",
        "serve": "serve",
        "connect": "connect",
    }
    stray = [
        name
        for name in soak_only + figure_only + serve_only + connect_only
        + wire_shared + layer_flags
        if name not in allowed and getattr(args, name) not in (None, False)
    ]
    if stray:
        parser.error(
            f"--{stray[0].replace('_', '-')} does not apply to "
            f"{scope_names[mode]} (target: {args.figure})"
        )
    if mode in ("serve", "connect"):
        if mode == "serve" and (args.loss or args.dup or args.jitter):
            parser.error(
                "fault flags apply to the coordinator (connect), not serve"
            )
        if args.node and args.spawn is not None:
            parser.error("--node and --spawn are mutually exclusive")
    if args.keepalive is None:
        args.keepalive = 2.0
    if args.host is None:
        args.host = "127.0.0.1"
    if args.port is None:
        args.port = 0
    if args.spawn is None:
        args.spawn = 2
    if args.scenario_seed is None:
        args.scenario_seed = 303
    if args.wire_protocol is None:
        args.wire_protocol = "all"
    if args.scale is None:
        args.scale = "small"
    if args.topic_skew is None:
        args.topic_skew = 0.0
    if args.protocol is None:
        args.protocol = "all"
    if args.duration is None:
        args.duration = 3.0
    if args.time_scale is None:
        args.time_scale = 5.0
    if args.soak_grid is None:
        args.soak_grid = 3
    if args.broker_crash is None:
        args.broker_crash = []
    if args.broker_restart is None:
        args.broker_restart = []
    if args.link_partition is None:
        args.link_partition = []
    if args.crash_repair_delay is None:
        from repro.network.recovery import DEFAULT_REPAIR_DELAY_MS
        args.crash_repair_delay = DEFAULT_REPAIR_DELAY_MS
    if args.retry_budget is not None and not args.reliable:
        parser.error("--retry-budget needs --reliable")
    if args.retry_budget is None:
        args.retry_budget = 8
    if args.wal_dir is not None and not args.durable:
        parser.error("--wal-dir needs --durable")
    if args.wal_dir is not None and args.figure != "soak":
        parser.error("--wal-dir only applies to soak (figure sweeps run "
                     "the simulated driver's in-memory store)")

    if args.figure == "serve":
        return _run_wire_serve(args)
    try:
        options = _system_options(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.figure == "connect":
        return _run_wire_connect(args, options.get("faults"))
    if args.figure == "soak":
        return _run_soak(args, options)
    overrides: dict[str, Any] = {}
    if args.mobility is not None:
        overrides["mobility_model"] = args.mobility
    if args.topic_skew:
        overrides["topic_skew"] = args.topic_skew

    want = {args.figure}
    if args.figure == "fig5":
        want = _FIG5
    elif args.figure == "fig6":
        want = _FIG6
    elif args.figure == "all":
        want = _FIG5 | _FIG6

    out: list[str] = []
    rows = []
    if want & _FIG5:
        rows5 = figures.run_fig5(
            scale=args.scale, seed=args.seed, workers=args.workers,
            workload_overrides=overrides or None, **options,
        )
        rows += rows5
        if "fig5a" in want:
            out.append(report.format_series(
                figures.fig5a(rows5), "conn_period_s", "msg overhead / handoff",
                title="Figure 5(a): message overhead per handoff vs connection period",
            ))
        if "fig5b" in want:
            out.append(report.format_series(
                figures.fig5b(rows5), "conn_period_s", "handoff delay (ms)",
                title="Figure 5(b): handoff delay vs connection period",
            ))
        if args.raw:
            out.append(report.format_table(rows5, title="Figure 5 raw runs"))
    if want & _FIG6:
        rows6 = figures.run_fig6(
            scale=args.scale, seed=args.seed, workers=args.workers,
            workload_overrides=overrides or None, **options,
        )
        rows += rows6
        if "fig6a" in want:
            out.append(report.format_series(
                figures.fig6a(rows6), "base_stations", "msg overhead / handoff",
                title="Figure 6(a): message overhead per handoff vs network size",
            ))
        if "fig6b" in want:
            out.append(report.format_series(
                figures.fig6b(rows6), "base_stations", "handoff delay (ms)",
                title="Figure 6(b): handoff delay vs network size",
            ))
        if args.raw:
            out.append(report.format_table(rows6, title="Figure 6 raw runs"))
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

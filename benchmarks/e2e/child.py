"""One run of one workload, in this (fresh) interpreter.

``python3 -m benchmarks.e2e.child --workload NAME --seed N --spawned-at T``
prints one JSON object as its last line. The parent (``__main__``) starts
one such process per repetition, so nothing is warm that a user's own run
would find cold, and set-up is timed from the moment the parent spawned us.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

#: slices a timed phase is cut into for the host-speed probe (see hostspeed)
SLICES = 300
QUICK_SLICES = 20


class SetupOnly(Exception):
    """Raised out of a socket run once set-up has been timed."""


#: the checkout this benchmark sits in
ROOT = Path(__file__).resolve().parents[2]


def add_src_to_path() -> None:
    """Put this checkout's ``src`` first on ``sys.path``: the program under
    test is the one next to the benchmark, not one installed elsewhere."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(
            f"benchmarks.e2e: the program under test is missing "
            f"({src}/repro not found)"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@contextmanager
def _patched(owner: Any, attr: str, replacement: Callable) -> Iterator[None]:
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def _collect_latencies(samples: list) -> Iterator[None]:
    """Give every client an ``on_event`` callback that records
    publish-to-delivery latency in simulated ms."""
    from repro.pubsub.system import PubSubSystem

    original = PubSubSystem.add_client

    def add_client(system, *args, **kwargs):
        client = original(system, *args, **kwargs)
        clock = system.clock
        append = samples.append
        client.on_event = lambda event: append(clock.now - event.publish_time)
        return client

    with _patched(PubSubSystem, "add_client", add_client):
        yield


@contextmanager
def _snapshot_on_stop(snapshot: dict) -> Iterator[None]:
    """Freeze the paper's per-handoff metrics when the measurement window
    closes (``Workload.stop``), before drain traffic can pollute them."""
    from repro.workload.mobility_model import Workload

    original = Workload.stop

    def stop(workload):
        original(workload)
        metrics = workload.system.metrics
        snapshot["handoffs"] = metrics.handoffs.handoff_count
        snapshot["overhead_hops"] = metrics.traffic.overhead_hops()
        snapshot["overhead_by_category"] = dict(metrics.traffic.by_category())
        snapshot["delays"] = list(metrics.handoffs.delays())
        snapshot["mean_delay"] = metrics.handoffs.mean_delay()
        snapshot["median_delay"] = metrics.handoffs.median_delay()

    with _patched(Workload, "stop", stop):
        yield


def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ----------------------------------------------------------------------
# the two drivers
# ----------------------------------------------------------------------
def _run_sim(cfg, slices: int, ready: Callable[[], "CalibratedTimer"]):
    from repro.experiments.runner import build_system, drain_to_quiescence

    system, workload = build_system(cfg)
    timer = ready()
    duration = cfg.workload.duration_ms
    for i in range(1, slices):
        timer.slice(lambda: system.run(until=duration * i / slices))
    timer.slice(lambda: system.run(until=duration))

    def stop_and_drain() -> None:
        workload.stop()
        system.metrics.handoffs.discard_open()
        drain_to_quiescence(system, workload, cfg.drain_limit_ms)

    timer.slice(stop_and_drain)
    return system, timer, system.sim.events_processed


def _run_socket(cfg, slices: int, ready: Callable[[], "CalibratedTimer"]):
    from repro.drivers.live import VirtualClock
    from repro.wire.harness import run_socket_scenario

    original_run = VirtualClock.run
    started: list = []  # [timer, perf_counter at ready]

    def sliced_run(clock, until=None):
        timer = started[0]
        if until is None:
            timer.slice(lambda: original_run(clock))
            return
        start = clock.now
        for i in range(1, slices):
            timer.slice(lambda: original_run(
                clock, until=start + (until - start) * i / slices))
        timer.slice(lambda: original_run(clock, until=until))

    def tweak(_transport) -> None:
        started.append(ready())
        started.append(time.perf_counter())

    with _patched(VirtualClock, "run", sliced_run):
        system = run_socket_scenario(cfg, processes=2, tweak=tweak)
    timer, t_ready = started
    # population build, reconnects, node stats and shutdown happen outside
    # clock.run and cannot be sliced
    timer.add_unsliced(
        time.perf_counter() - t_ready - timer.raw_s - timer.overhead_s)
    return system, timer, system.clock.events_processed


def _socket_parity(cfg, system) -> Optional[str]:
    """The socket run must end exactly where the in-process live driver
    ends on the same config."""
    from repro.drivers.live import run_virtual_scenario

    reference = run_virtual_scenario(cfg)

    def outcome(s) -> tuple:
        wired = {k: v for k, v in s.metrics.traffic.by_category().items()
                 if not k.startswith("wire_")}
        return (dataclasses.asdict(s.metrics.delivery.stats),
                s.metrics.handoffs.handoff_count, wired,
                tuple(s.metrics.delivery.log))

    if outcome(reference) != outcome(system):
        return "socket outcome differs from run_virtual_scenario"
    return None


# ----------------------------------------------------------------------
# what a finished run says
# ----------------------------------------------------------------------
def _outcome(cfg, system, snapshot: dict, latencies: list,
             sim_events: int) -> dict[str, Any]:
    """Simulated metrics, counts and digest of a finished run: everything
    that must repeat exactly for one seed and commit."""
    from benchmarks.e2e.metrics import mid_quantile
    from repro.metrics.summary import summarize

    stats = system.metrics.delivery.stats
    handoffs = snapshot["handoffs"]
    delays = snapshot["delays"]
    # a duplicate is a failure only where nothing in the configuration can
    # legitimately produce one
    legit_dups = (cfg.faults is not None or cfg.reliable
                  or cfg.crashes is not None)
    failed = (stats.missing + stats.order_violations + stats.write_offs
              + (0 if legit_dups else stats.duplicates))
    failed_share = failed / max(stats.expected, 1)
    hops_per_handoff = snapshot["overhead_hops"] / max(handoffs, 1)

    row = summarize(cfg.protocol, system.metrics, params={
        "k": cfg.grid_k, "brokers": system.broker_count,
        "conn_s": cfg.workload.mean_connected_s,
        "disc_s": cfg.workload.mean_disconnected_s,
        "duration_s": cfg.workload.duration_s, "seed": cfg.seed,
    })
    row.handoffs = handoffs
    row.overhead_per_handoff = hops_per_handoff
    row.mean_handoff_delay_ms = snapshot["mean_delay"]
    row.median_handoff_delay_ms = snapshot["median_delay"]
    digest_input = (
        sorted(row.as_dict().items()), sim_events,
        sorted(snapshot["overhead_by_category"].items()),
    )
    return {
        "simulated": {
            "overhead_hops_per_handoff": hops_per_handoff,
            "handoff_delay_ms_p50": mid_quantile(delays, 50),
            "handoff_delay_ms_p95": mid_quantile(delays, 95),
            "delivery_latency_ms_p50": mid_quantile(latencies, 50),
            "delivery_latency_ms_p99": mid_quantile(latencies, 99),
            "delivered_share": 1.0 - failed_share,
        },
        "failed_deliveries_share": failed_share,
        "counts": {
            "expected": stats.expected,
            "delivered_unique": stats.delivered - stats.duplicates,
            "duplicates": stats.duplicates, "missing": stats.missing,
            "order_violations": stats.order_violations,
            "write_offs": stats.write_offs, "failed": failed,
            "handoffs": handoffs, "handoff_delay_samples": len(delays),
            "delivery_latency_samples": len(latencies),
            "sim_events": sim_events,
        },
        "sim_digest": hashlib.sha256(
            repr(digest_input).encode()).hexdigest()[:16],
    }


def _failed_checks(counts: dict, quick: bool) -> list[str]:
    from benchmarks.e2e.workloads import (
        MIN_DELIVERY_LATENCY_SAMPLES, MIN_HANDOFF_DELAY_SAMPLES,
    )

    checks = [f"{name} == {counts[name]}"
              for name in ("missing", "order_violations") if counts[name]]
    if not quick:
        for name, floor in (
                ("handoff_delay_samples", MIN_HANDOFF_DELAY_SAMPLES),
                ("delivery_latency_samples", MIN_DELIVERY_LATENCY_SAMPLES)):
            if counts[name] < floor:
                checks.append(f"{name} == {counts[name]} < {floor}")
    return checks


def run(args: argparse.Namespace) -> dict:
    add_src_to_path()
    from benchmarks.e2e.hostspeed import (
        REFERENCE_BURST_S, CalibratedTimer, SpeedProbe, rss_mb,
    )
    from benchmarks.e2e.workloads import WORKLOADS, build_config

    result: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "status": "ok",
        "error": None, "checks": [],
    }
    cfg = build_config(args.workload, args.seed, quick=args.quick,
                       bundle=args.bundle, layers=args.layers)
    if cfg is None:
        result["status"] = "unavailable"
        return result
    socket_driver = WORKLOADS[args.workload].driver == "socket"

    tracer = span_cost = None
    if args.trace:
        from benchmarks.e2e import trace

        tracer = trace.Tracer()
        trace.install_layers(tracer)
        span_cost = trace.SpanCostMeter()

    host: dict[str, float] = {}
    raw: dict[str, float] = {}
    result.update(host=host, host_raw=raw)

    def ready() -> CalibratedTimer:
        raw["setup_s"] = time.time() - args.spawned_at
        # the probe is built only now, so that its table is not part of the
        # set-up being timed
        probe = SpeedProbe()
        timer = CalibratedTimer(
            probe, between=span_cost.sample if span_cost else None)
        host["setup_s"] = raw["setup_s"] * REFERENCE_BURST_S / (
            statistics.median(probe.burst() for _ in range(5)))
        raw["ready_rss_mb"] = rss_mb()
        if args.setup_only:
            raise SetupOnly()
        if tracer is not None:
            tracer.reset()  # set-up is not part of the traced phases
        return timer

    latencies: list[float] = []
    snapshot: dict[str, Any] = {}
    runner = _run_socket if socket_driver else _run_sim
    try:
        with _collect_latencies(latencies), _snapshot_on_stop(snapshot):
            system, timer, sim_events = runner(
                cfg, QUICK_SLICES if args.quick else SLICES, ready)
    except SetupOnly:
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()

    result.update(_outcome(cfg, system, snapshot, latencies, sim_events))
    counts = result["counts"]
    host["run_wall_s"] = timer.calibrated_s
    host["deliveries_per_s"] = counts["delivered_unique"] / timer.calibrated_s
    host["handoffs_per_s"] = counts["handoffs"] / timer.calibrated_s
    peak_rss_mb = _peak_rss_mb(socket_driver)
    host["peak_rss_mb"] = peak_rss_mb - timer.probe.footprint_mb
    raw.update(run_wall_s=timer.raw_s, host_speed=timer.speed,
               run_growth_mb=peak_rss_mb - raw["ready_rss_mb"],
               clients=len(system.clients))

    result["checks"] = _failed_checks(counts, args.quick)
    if socket_driver:
        result["transport"] = "loopback TCP, coordinator + 2 node processes"
        if tracer is None:
            diff = _socket_parity(cfg, system)
            if diff:
                result["checks"].append(diff)
    if tracer is not None:
        from benchmarks.e2e.layers import layer_metrics

        result["layers"] = layer_metrics(
            tracer, span_cost.cost(), system, wall_s=timer.raw_s,
            handoffs=counts["handoffs"],
            delays=snapshot["delays"], deliveries=counts["delivered_unique"],
        )
        result["trace_missing"] = tracer.missing
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--bundle", default="default")
    parser.add_argument("--layers", default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None and hasattr(os, "sched_setaffinity"):
        # one CPU for the run and the node processes it spawns: a socket
        # run is three processes in lockstep, and a second CPU only adds
        # cross-CPU wake-ups to it (30 % slower, three times the spread)
        os.sched_setaffinity(0, {args.cpu})
    if args.spawned_at is None:
        args.spawned_at = time.time()
    try:
        result = run(args)
    except Exception:
        # a run that raises counts as a run in which every delivery failed
        result = {
            "workload": args.workload, "seed": args.seed, "status": "error",
            "error": traceback.format_exc(limit=8),
            "failed_deliveries_share": 1.0, "checks": ["run raised"],
        }
    print(json.dumps(result))
    return 0 if result["status"] != "error" and not result["checks"] else 1


if __name__ == "__main__":
    sys.exit(main())

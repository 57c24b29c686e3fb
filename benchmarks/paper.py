"""The paper-density record: three protocols at the paper's density.

``python3 -m benchmarks.paper`` runs MHH, sub-unsub and home-broker at the
paper's density (k=14, 10 clients per broker, conn = disc = 300 s, seed 1)
to 60 and to 600 model seconds, each point in a fresh interpreter, and
prints per point:

* host cost: the host's speed just before the point, CPU seconds of the
  set-up (build plus the flood to the end of warm-up), of the measurement
  window and of the drain, and the point process's own peak RSS;
* what the simulation fixes: sim events, publishes, handoffs, wired event
  hops per publish, overhead per handoff, and a digest of the simulated
  fields of the run's :class:`~repro.metrics.summary.ResultRow` named in
  :data:`DIGEST_FIELDS` (a fixed list, so that adding a field to the row
  cannot move the digest of an unchanged run).

``--append`` adds one record, keyed by commit (``git describe --always
--dirty``), to ``BENCH_paper.json`` at the repo root.
``--check`` compares each point's simulated fields with the last record's
and exits 1 on any difference; CPU seconds and RSS are printed and never
gated. ``--until 60`` runs only the 60 s points. Host speed is read
right before each point, with the e2e harness's probe
(:mod:`benchmarks.e2e.hostspeed`: 1.0 is the reference box, lower is
slower): on a shared box it moves within the minute the six points take,
so one reading for all of them would misstate most. The probe runs here,
not in the point's process, because its 40 MB table would set the max RSS
of every point that peaks below it. For the same reason a point reads its
peak as ``VmHWM``, the high-water mark of its own pages: its
``ru_maxrss`` also holds this process's resident size at the spawn (Linux
carries the old pages' high-water mark across ``exec``), so a point that
peaks below this process would read this process's size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

from benchmarks.e2e.hostspeed import REFERENCE_BURST_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_paper.json"
PROTOCOLS = ("mhh", "sub-unsub", "home-broker")
UNTIL_S = (60.0, 600.0)
#: the ``ResultRow`` fields ``row_digest`` hashes: every compared field as
#: of record ``0a20fa4-dirty``. A field added later is not hashed (the
#: printed columns still show what it moves); add one here only with a new
#: record that says so
DIGEST_FIELDS = (
    "protocol", "params", "handoffs", "overhead_per_handoff",
    "mean_handoff_delay_ms", "median_handoff_delay_ms", "published",
    "expected_deliveries", "delivered", "duplicates", "order_violations",
    "lost", "missing", "overhead_by_category", "sim_events", "crash_lost",
    "recovered", "shed", "injected_drops", "injected_dups", "meter_drops",
    "meter_dups", "retransmits", "breaker_trips", "repairs",
    "post_repair_publishes", "stale_timer_fires", "wal_handovers",
    "wal_checkpoints", "wired_by_category", "delivery_log", "model_ms",
    "drained", "violations",
)

#: one point, run in a fresh interpreter (argv: protocol, model seconds,
#: the comma-separated digest fields); it imports nothing but the program
#: and what it measures with, so its peak RSS is the run's
_CHILD = """
import hashlib, json, sys, time
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.metrics.summary import build_row
from repro.workload.spec import WorkloadSpec

protocol, until_s = sys.argv[1], float(sys.argv[2])
cpu = time.process_time
t0 = cpu()
cfg = ExperimentConfig(protocol, grid_k=14, seed=1, workload=WorkloadSpec(
    clients_per_broker=10, mean_connected_s=300.0, mean_disconnected_s=300.0,
    duration_s=until_s))
system, workload = build_system(cfg)
system.metrics.delivery.record_log = False
system.run(until=cfg.workload.warmup_ms)
t1 = cpu()
system.run(until=cfg.workload.duration_ms)
workload.stop()
t2 = cpu()
drain_to_quiescence(system, workload, cfg.drain_limit_ms)
system.close()
t3 = cpu()
row = build_row(cfg, system)
# hashed names the record now holds under another: the traffic meter's
# copies of the injector's fault counts, always equal to them
renamed = {"meter_drops": "injected_drops", "meter_dups": "injected_dups"}
fields = {name: getattr(row, renamed.get(name, name))
          for name in sys.argv[3].split(",")}
json.dump({
    "host": {
        "setup_cpu_s": round(t1 - t0, 3),
        "window_cpu_s": round(t2 - t1, 3),
        "drain_cpu_s": round(t3 - t2, 3),
        "max_rss_mb": round(int(open("/proc/self/status").read()
                                .split("VmHWM:")[1].split()[0]) / 1024, 1),
    },
    "simulated": {
        "sim_events": row.sim_events,
        "published": row.published,
        "handoffs": row.handoffs,
        "event_hops_per_publish": round(
            row.wired_by_category.get("event", 0) / max(row.published, 1), 3),
        "overhead_per_handoff": row.overhead_per_handoff,
        "violations": len(row.violations),
        "row_digest": hashlib.sha256(json.dumps(
            fields, sort_keys=True).encode()).hexdigest()[:16],
    },
}, sys.stdout)
"""


def run_point(protocol: str, until_s: float) -> dict:
    """One point in a fresh interpreter: ``{"host": ..., "simulated": ...}``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, protocol, repr(until_s),
         ",".join(DIGEST_FIELDS)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def host_speed(probe: SpeedProbe) -> float:
    """Median host speed over a few probe bursts, 1.0 = the reference box."""
    return round(REFERENCE_BURST_S
                 / statistics.median(probe.burst() for _ in range(9)), 3)


def describe_commit() -> str:
    out = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True,
    )
    return out.stdout.strip() or "unknown"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.paper")
    parser.add_argument("--until", type=float, action="append",
                        choices=UNTIL_S, help="model seconds (repeatable; "
                        "default: 60 and 600)")
    parser.add_argument("--append", action="store_true",
                        help=f"append this run as a record to {RECORD.name}")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every point's simulated fields "
                        "equal the last record's")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    points = {}
    for until_s in args.until or UNTIL_S:
        for protocol in PROTOCOLS:
            key = f"{protocol}@{until_s:g}s"
            speed = host_speed(probe)
            point = points[key] = run_point(protocol, until_s)
            point["host"] = {"host_speed": speed, **point["host"]}
            host, sim = point["host"], point["simulated"]
            print(f"{key:<18} host speed {host['host_speed']:5.3f}  setup "
                  f"{host['setup_cpu_s']:6.2f} s  window "
                  f"{host['window_cpu_s']:6.2f} s  drain "
                  f"{host['drain_cpu_s']:5.2f} s CPU  max RSS "
                  f"{host['max_rss_mb']:6.1f} MB | {sim['sim_events']} events"
                  f"  {sim['published']} publishes  {sim['handoffs']} "
                  f"handoffs  {sim['event_hops_per_publish']} hops/publish"
                  f"  overhead {sim['overhead_per_handoff']}"
                  f"  digest {sim['row_digest']}")

    records = (json.loads(RECORD.read_text())["records"]
               if RECORD.exists() else [])
    status = 0
    if args.check:
        if not records:
            print(f"FAIL: {RECORD.name} holds no record to check against")
            return 1
        last = records[-1]
        for key, point in points.items():
            want = last["points"].get(key, {}).get("simulated")
            if point["simulated"] != want:
                print(f"FAIL {key}: {point['simulated']} != {want} "
                      f"(record {last['commit']})")
                status = 1
        if status == 0:
            print(f"{len(points)} points equal record {last['commit']}")
    if args.append:
        records.append({
            "commit": describe_commit(),
            "python": platform.python_version(),
            "points": points,
        })
        RECORD.write_text(json.dumps({"records": records}, indent=1) + "\n")
        print(f"appended record {records[-1]['commit']} to {RECORD.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Emit a machine-readable perf-trajectory snapshot (``BENCH_core.json``).

CI runs this after the benchmark smoke job and uploads the JSON as an
artifact, so every PR leaves a wall-time data point behind and perf
regressions in the core hot paths are visible as a trajectory across
PRs rather than anecdotes (whole-run, per-layer numbers — matching
included — live in ``benchmarks/e2e``):

* **scheduler** — lane vs heap engine throughput on at-scale link traffic
  (:mod:`benchmarks.bench_sim_engine`);
* **control plane** — routing-state churn: interval-index churn
  throughput at 2k filters, covering withdrawals, and the
  churn-heaviest fig5a point (conn=1s)
  (:mod:`benchmarks.bench_control_plane`);
* **reliability** — wall-time overhead of the end-to-end ACK/retransmit
  layer on a lossy churn run, off vs on at the same seed
  (:mod:`repro.pubsub.reliability`);
* **durability** — wall-time overhead of the write-ahead log + persistent
  sessions over the reliable baseline at the same seed
  (:mod:`repro.pubsub.wal`);
* **fig5a** — the full Figure 5 sweep wall time at the chosen scale (the
  end-to-end number everything else serves).

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --out BENCH_core.json
    MHH_BENCH_SCALE=small PYTHONPATH=src python -m benchmarks.perf_trajectory

Timings are best-of-N wall clock (N=3 for the microbenches, 1 for the
sweep — sweeps are deterministic per seed). Absolute numbers vary across
machines; the lanes/heap ratio is the stable signal.

``commit`` is ``git rev-parse HEAD`` at collection time and ``tree_dirty``
says whether the working tree differed from it — a snapshot regenerated as
part of a change is therefore recorded as "parent commit, dirty tree", not
passed off as a measurement of the parent.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

# support both `python benchmarks/perf_trajectory.py` and -m invocation
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_control_plane import (  # noqa: E402
    measure_interval_churn,
    measure_withdraw_covering,
)
from benchmarks.bench_sim_engine import measure_link_throughput  # noqa: E402
from dataclasses import replace  # noqa: E402
from repro.experiments.config import ExperimentConfig, bench_scale  # noqa: E402
from repro.experiments.figures import run_fig5  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.network.faults import FaultProfile  # noqa: E402
from repro.workload.spec import WorkloadSpec  # noqa: E402

SCHEMA_VERSION = 1


def _git(*cmd: str) -> Optional[str]:
    try:
        return subprocess.check_output(
            ["git", *cmd],
            cwd=Path(__file__).resolve().parent.parent,
            text=True,
            stderr=subprocess.DEVNULL,
        ).strip()
    except Exception:  # pragma: no cover - git absent in some envs
        return None


def collect(scale: str) -> dict:
    """Run the core measurements and return the snapshot dict."""
    metrics: dict[str, float] = {}

    # scheduler: at-scale link traffic, both engines (same measurement
    # protocol as the CI acceptance gate — one source of truth)
    link = measure_link_throughput()
    metrics["scheduler_in_flight"] = link["in_flight"]
    metrics["scheduler_lanes_events_per_s"] = link["lanes_events_per_s"]
    metrics["scheduler_heap_events_per_s"] = link["heap_events_per_s"]
    metrics["scheduler_lanes_speedup"] = link["speedup"]

    # control plane: routing-state churn (same measurement protocols as the
    # bench_control_plane CI gates — one source of truth)
    churn = measure_interval_churn()
    metrics["control_plane_incremental_ops_per_s"] = churn["incremental_ops_per_s"]
    metrics["control_plane_n_filters"] = churn["n_filters"]
    withdraw = measure_withdraw_covering()
    metrics["control_plane_withdraw_indexed_ops_per_s"] = withdraw["indexed_ops_per_s"]

    # reliability: wall-time cost of the ACK/retransmit layer on one lossy
    # churn run, same seed off vs on. Default-off must stay free (it
    # constructs nothing), so the overhead ratio is the price of turning
    # the layer on — timer traffic, acks, retransmits — not of having it.
    # 600 simulated seconds: sub-0.2s wall times put the scheduler-noise
    # floor inside the ratio — a longer run amortizes it away
    rel_cfg = ExperimentConfig(
        protocol="mhh", grid_k=3, seed=1,
        workload=WorkloadSpec(
            clients_per_broker=4, mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=10.0, duration_s=600.0,
        ),
        faults=FaultProfile(deliver_loss=0.1),
    )
    # a ratio of two short runs doubles their noise: interleave the three
    # variants round-robin (sequential blocks let CPU warm-up drift land
    # entirely on one variant) and take best-of-7 rounds each.
    # durability = the WAL + persistent sessions on top of the same
    # reliable run; its ratio vs the reliable baseline is the price of
    # append-before-send logging and checkpoint/compaction (the sim
    # driver's in-memory store — the fsync cost of the live file store is
    # I/O-bound and belongs to a soak, not a trajectory snapshot).
    variants = [
        rel_cfg,
        replace(rel_cfg, reliable=True),
        replace(rel_cfg, reliable=True, durable=True),
    ]
    run_experiment(variants[-1])  # warm caches outside timing
    best = [float("inf")] * len(variants)
    for _ in range(7):
        for i, c in enumerate(variants):
            t0 = time.perf_counter()
            run_experiment(c)
            best[i] = min(best[i], time.perf_counter() - t0)
    t_off, t_on, t_dur = best
    metrics["reliability_off_wall_s"] = t_off
    metrics["reliability_on_wall_s"] = t_on
    metrics["reliability_overhead"] = t_on / t_off
    metrics["durability_on_wall_s"] = t_dur
    metrics["durability_overhead"] = t_dur / t_on

    # end to end: the Figure 5 sweep at the requested scale
    t0 = time.perf_counter()
    rows = run_fig5(scale=scale, seed=1)
    metrics["fig5a_wall_s"] = time.perf_counter() - t0
    metrics["fig5a_runs"] = float(len(rows))
    metrics["fig5a_sim_events"] = float(sum(r.sim_events for r in rows))
    metrics["fig5a_sim_events_per_s"] = (
        metrics["fig5a_sim_events"] / metrics["fig5a_wall_s"]
    )
    # the churn-heaviest point (conn=1s), carved out of the same sweep's
    # per-run timings — no second simulation of the most expensive point
    conn1 = [r for r in rows if r.params.get("conn_s") == 1.0]
    metrics["control_plane_fig5a_conn1_wall_s"] = sum(
        r.wall_seconds for r in conn1
    )
    metrics["control_plane_fig5a_conn1_sim_events"] = float(
        sum(r.sim_events for r in conn1)
    )

    status = _git("status", "--porcelain")
    return {
        "schema": SCHEMA_VERSION,
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "tree_dirty": bool(status) if status is not None else None,
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Collect the perf-trajectory snapshot (BENCH_core.json)."
    )
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output path (default: BENCH_core.json)")
    args = parser.parse_args(argv)

    scale = bench_scale()
    snapshot = collect(scale)
    Path(args.out).write_text(json.dumps(snapshot, indent=2, sort_keys=True))

    m = snapshot["metrics"]
    print(f"perf trajectory [{scale}] -> {args.out}")
    print(f"  scheduler  lanes {m['scheduler_lanes_events_per_s'] / 1e6:.2f}M ev/s"
          f"  heap {m['scheduler_heap_events_per_s'] / 1e6:.2f}M ev/s"
          f"  ({m['scheduler_lanes_speedup']:.2f}x)")
    print(f"  ctrl plane churn {m['control_plane_incremental_ops_per_s'] / 1e3:.1f}k ops/s,"
          f" withdraw {m['control_plane_withdraw_indexed_ops_per_s']:.0f} ops/s,"
          f" fig5a conn=1s {m['control_plane_fig5a_conn1_wall_s']:.2f}s")
    print(f"  reliable   off {m['reliability_off_wall_s']:.2f}s"
          f"  on {m['reliability_on_wall_s']:.2f}s"
          f"  ({m['reliability_overhead']:.2f}x overhead)")
    print(f"  durable    on {m['durability_on_wall_s']:.2f}s"
          f"  ({m['durability_overhead']:.2f}x over reliable)")
    print(f"  fig5 sweep {m['fig5a_wall_s']:.2f}s wall,"
          f" {m['fig5a_sim_events']:.0f} sim events"
          f" ({m['fig5a_sim_events_per_s'] / 1e3:.0f}k ev/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

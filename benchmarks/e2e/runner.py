"""Parent side of the benchmark: child processes, repetitions, aggregation.

Each repetition is one ``benchmarks.e2e.child`` process, run alone, and
so is the traced pass.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from benchmarks.e2e.child import ROOT
from benchmarks.e2e.metrics import HOST, PER_LAYER, SIMULATED

__all__ = ["measure"]

#: set-up-only child runs per measurement: set-up takes well under a second,
#: so its median needs more samples than the repetitions alone provide
SETUP_RUNS = 4
#: the contract gives a run 180 s; a child that takes longer is stuck
CHILD_TIMEOUT_S = 170


def _first_cpu() -> int:
    if hasattr(os, "sched_getaffinity"):
        return min(os.sched_getaffinity(0))
    return 0


def _spawn(workload: str, seed: int, *flags: str) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "benchmarks.e2e.child",
           "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.time()), *flags]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _collect(proc: subprocess.Popen) -> dict:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nchild killed after {CHILD_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        result = {"status": "error", "checks": ["child printed no result"],
                  "error": err.strip()[-2000:] or "no output",
                  "failed_deliveries_share": 1.0}
    return result


def _spread(values: list[float]) -> dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(
    workload: str,
    seed: int,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    quick: bool = False,
    trace: bool = False,
    bundle: str = "default",
    layers: Optional[str] = None,
    spans_out: Optional[str] = None,
) -> dict[str, Any]:
    """Run one workload and aggregate its repetitions into a report.

    ``reps`` fixes the number of repetitions; otherwise they repeat while
    another one still fits into ``seconds`` (always at least one).
    """
    variant = ["--bundle", bundle] + (["--layers", layers] if layers else [])
    # every timed run is pinned to our first CPU (see child.main); a quick
    # run is a smoke test whose timings mean nothing, so it goes unpinned
    # and the harness tests can run several side by side
    flags = variant + (["--quick"] if quick else ["--cpu", str(_first_cpu())])
    report: dict[str, Any] = {
        "workload": workload, "seed": seed, "status": "ok",
        "variant": {"bundle": bundle, "layers": layers},
        "checks": [], "layers": None,
    }

    setup_runs = [
        _collect(_spawn(workload, seed, *flags, "--setup-only"))
        for _ in range(0 if quick else SETUP_RUNS)
    ]
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(_collect(_spawn(workload, seed, *flags)))
        last = time.perf_counter() - t0
        if reps is not None:
            if len(runs) >= reps:
                break
        elif time.perf_counter() - started + last > (seconds or 0.0):
            break

    if runs[0]["status"] == "unavailable":
        report["status"] = "unavailable"
        return report
    errors = [r for r in runs + setup_runs if r["status"] == "error"]
    if errors:
        report.update(status="failed", failed_deliveries_share=1.0,
                      error=errors[0]["error"])
        report["checks"].append("run raised")
        return report

    first = runs[0]
    for r in runs:
        report["checks"].extend(r["checks"])
        if (r["simulated"], r["sim_digest"], r["counts"]) != (
                first["simulated"], first["sim_digest"], first["counts"]):
            report["checks"].append(
                "simulated results differ between repetitions")
    setups = [r["host"]["setup_s"] for r in setup_runs + runs]
    metrics = {"setup_s": _spread(setups)}
    for name in HOST:
        if name != "setup_s":
            metrics[name] = _spread([r["host"][name] for r in runs])
    for name in SIMULATED:
        metrics[name] = _spread([r["simulated"][name] for r in runs])
    report.update(
        reps=len(runs), metrics=metrics,
        raw={
            "setup_s": _spread(
                [r["host_raw"]["setup_s"] for r in setup_runs + runs]),
            "run_wall_s": _spread([r["host_raw"]["run_wall_s"] for r in runs]),
            "host_speed": _spread([r["host_raw"]["host_speed"] for r in runs]),
        },
        sim_digest=first["sim_digest"], counts=first["counts"],
        failed_deliveries_share=first["failed_deliveries_share"],
        transport=first.get("transport"),
    )

    if trace:
        traced_flags = flags + (["--spans-out", spans_out] if spans_out else [])
        traced = _collect(_spawn(workload, seed, *traced_flags, "--trace"))
        if traced["status"] == "error":
            report.update(status="failed", error=traced["error"])
            report["checks"].append("traced run raised")
            return report
        if traced["sim_digest"] != first["sim_digest"]:
            report["checks"].append("tracing changed the simulated results")
        layer_values = traced["layers"]
        # memory is read off the untraced runs: the tracer's own spans and
        # aggregates are not the program's
        growth = statistics.median(
            r["host_raw"]["run_growth_mb"] for r in runs)
        layer_values["mem.run_growth_mb"] = growth
        layer_values["mem.bytes_per_client"] = (
            growth * 2**20 / first["host_raw"]["clients"])
        layer_values["trace.overhead_ratio"] = (
            traced["host"]["run_wall_s"] / metrics["run_wall_s"]["median"])
        report["layers"] = {m.name: layer_values[m.name] for m in PER_LAYER}
        report["trace_missing"] = traced["trace_missing"]

    if report["checks"]:
        report["status"] = "failed"
    return report

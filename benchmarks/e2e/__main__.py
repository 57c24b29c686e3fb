"""Command line of the benchmark.

    python3 -m benchmarks.e2e [--seed 1] [--reps 3] [--workload NAME]
                              [--trace] [--quick] [--out FILE]

prints every end-to-end metric of every workload by name with its unit,
checks the outputs and exits non-zero on a failed check. With
``--seconds S`` (the form the benchmark driver uses) one workload is run
for about S seconds and the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Optional

from benchmarks.e2e.child import ROOT, add_src_to_path
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.runner import measure


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    from benchmarks.e2e.workloads import BUNDLES, LAYERS, WORKLOADS

    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None,
                   choices=list(WORKLOADS),
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=1,
                   help="feeds ExperimentConfig.seed (default 1)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per workload (default 3)")
    p.add_argument("--seconds", type=float, default=None,
                   help="driver form: repeat while another repetition fits "
                        "into this many seconds, then print one JSON line")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="add one traced run per workload (per-layer metrics)")
    p.add_argument("--spans-out", default=None,
                   help="write the traced run's raw spans to this file")
    p.add_argument("--quick", action="store_true",
                   help="shrink every workload to about a second (smoke "
                        "test; never a result to record)")
    p.add_argument("--bundle", default="default", choices=list(BUNDLES),
                   help="diagnostic engine bundle (never recorded)")
    p.add_argument("--layers", default=None, choices=list(LAYERS),
                   help="diagnostic layer stack for lossy_durable")
    p.add_argument("--out", default=None, help="write the reports as JSON")
    args = p.parse_args(argv)
    if args.seconds is not None and (
            args.workload is None or len(args.workload) != 1):
        p.error("--seconds needs exactly one --workload")
    if args.seconds is not None and args.reps is not None:
        p.error("--seconds and --reps exclude each other")
    if args.layers is not None and args.workload != ["lossy_durable"]:
        p.error("--layers needs --workload lossy_durable")
    return args


def _git(*cmd: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _meta(args: argparse.Namespace) -> dict[str, Any]:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "tree_dirty": bool(status) if status is not None else None,
        "seed": args.seed, "quick": args.quick,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
    }


def _print_report(report: dict[str, Any]) -> None:
    from benchmarks.e2e.workloads import WORKLOADS

    name = report["workload"]
    variant = report["variant"]
    tag = "".join(
        f" [{k}={v}]" for k, v in variant.items()
        if v not in (None, "default"))
    print(f"\n== {name}{tag} seed={report['seed']} ==")
    if report["status"] == "unavailable":
        print("unavailable: this variant names a config field that no "
              "longer exists")
        return
    if "metrics" not in report:
        print(f"FAILED: {report['checks']}\n{report.get('error', '')}")
        print(f"{name}.failed_deliveries_share 1.0 ratio")
        return
    if report.get("transport"):
        print(f"transport: {report['transport']}")
    print(f"headline: {WORKLOADS[name].headline}")
    for m in END_TO_END:
        v = report["metrics"][m.name]
        print(f"{name}.{m.name:<28} {v['median']:>14.6g} {m.unit:<7}"
              f" [{v['min']:.6g} .. {v['max']:.6g}] n={v['n']} ({m.kind})")
    raw = report["raw"]
    print(f"{name}.failed_deliveries_share      "
          f"{report['failed_deliveries_share']:>14.6g} ratio")
    print(f"raw wall {raw['run_wall_s']['median']:.3f} s, raw set-up "
          f"{raw['setup_s']['median']:.3f} s, host speed "
          f"{raw['host_speed']['median']:.2f} of the reference box")
    print(f"counts: {report['counts']}")
    print(f"sim_digest {report['sim_digest']}")
    if report["layers"] is not None:
        for m in PER_LAYER:
            print(f"{name}.{m.name:<34} {report['layers'][m.name]:>14.6g} "
                  f"{m.unit}")
        if report["trace_missing"]:
            print(f"entry points not found (their time reads as "
                  f"unattributed): {report['trace_missing']}")
    print("checks: " + ("ok" if not report["checks"]
                        else "FAILED " + "; ".join(report["checks"])))


def _driver_line(report: dict[str, Any], trace: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    if trace:
        metrics = {m.name: {"value": report["layers"][m.name], "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": report["metrics"][m.name]["median"],
                            "unit": m.unit} for m in END_TO_END}
    counts = report["counts"]
    return json.dumps({
        "correct": report["status"] == "ok",
        "attempted": max(int(counts["expected"]), 1),
        "failed": int(counts["failed"]),
        "metrics": metrics,
    })


def main(argv: Optional[list[str]] = None) -> int:
    add_src_to_path()
    args = _parse(argv)
    from benchmarks.e2e.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = 1 if args.quick else 3

    reports = {}
    for name in names:
        report = measure(
            name, args.seed, reps=reps, seconds=args.seconds,
            quick=args.quick, trace=bool(args.trace), bundle=args.bundle,
            layers=args.layers, spans_out=args.spans_out,
        )
        reports[name] = report
        _print_report(report)
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": _meta(args), "workloads": reports}, fh,
                      indent=1)
    failed = [n for n, r in reports.items() if r["status"] == "failed"]
    if args.seconds is not None:
        report = reports[names[0]]
        if "metrics" not in report or (args.trace and not report["layers"]):
            return 1  # nothing measured: no result line
        print(_driver_line(report, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

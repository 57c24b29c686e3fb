"""Diff a fresh perf-trajectory snapshot against the checked-in baseline.

``BENCH_core.json`` at the repo root is the committed perf-trajectory
baseline (regenerate with ``benchmarks/perf_trajectory.py`` when a PR
intentionally moves the numbers). CI produces a fresh snapshot on every
run and this script compares the two, so the trajectory is *tracked*, not
merely uploaded:

* **schema / scale / key set** — a fresh snapshot must measure everything
  the baseline measures; a silently dropped metric fails the diff.
* **speedup ratios** (``*_speedup``) — machine-independent-ish signals
  (lanes/heap). A fresh ratio below ``tolerance x baseline`` fails: the
  optimisation a past PR paid for has regressed.
* **absolute throughputs/wall times and overhead ratios** — reported with
  deltas for the PR log but not gated by default (CI machines vary too
  much, and an ``*_overhead`` is a quotient of two sub-second runs);
  ``--strict`` gates ``*_per_s`` metrics at the same tolerance. The
  calibrated measurement of an opt-in layer's cost is
  ``python3 -m benchmarks.e2e --layers durable``.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --out BENCH_fresh.json
    python benchmarks/compare_trajectory.py \
        --baseline BENCH_core.json --fresh BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: counters/parameters carried for context, never gated or delta-reported
_CONTEXT_KEYS = ("_n_filters", "_in_flight", "_runs", "_sim_events")


def _is_context(key: str) -> bool:
    return any(key.endswith(suffix) for suffix in _CONTEXT_KEYS)


def compare(baseline: dict, fresh: dict, tolerance: float, strict: bool):
    """Return (report_lines, failures) for two snapshot dicts."""
    lines: list[str] = []
    failures: list[str] = []

    if baseline.get("schema") != fresh.get("schema"):
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs fresh {fresh.get('schema')}"
        )
    if baseline.get("scale") != fresh.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')!r} "
            f"vs fresh {fresh.get('scale')!r} (set MHH_BENCH_SCALE)"
        )

    base_m = baseline.get("metrics", {})
    fresh_m = fresh.get("metrics", {})
    missing = sorted(set(base_m) - set(fresh_m))
    if missing:
        failures.append(f"metrics dropped from the trajectory: {missing}")

    for key in sorted(set(base_m) & set(fresh_m)):
        if _is_context(key):
            continue
        b, f = base_m[key], fresh_m[key]
        ratio = f / b if b else float("inf")
        gated = key.endswith("_speedup") or (
            strict and key.endswith("_per_s")
        )
        # wall times regress by going *up*; everything else by going down
        if key.endswith("_wall_s"):
            ok = (not gated) or ratio <= 1.0 / tolerance
            direction = f"{ratio:5.2f}x slower" if ratio > 1 else f"{1 / ratio:5.2f}x faster"
        else:
            ok = (not gated) or ratio >= tolerance
            direction = f"{ratio:5.2f}x"
        marker = " " if ok else "!"
        gate = "gated" if gated else "info "
        lines.append(
            f"{marker} [{gate}] {key:45s} {b:14.2f} -> {f:14.2f}  ({direction})"
        )
        if not ok:
            failures.append(
                f"{key} regressed beyond tolerance {tolerance}: "
                f"baseline {b:.2f} -> fresh {f:.2f}"
            )
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a fresh BENCH snapshot against the repo baseline."
    )
    parser.add_argument("--baseline", default="BENCH_core.json",
                        help="checked-in baseline (default BENCH_core.json)")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated snapshot to compare")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="minimum fresh/baseline ratio for gated "
                             "metrics (default 0.35 — generous, CI "
                             "machines vary; the per-bench asserts hold "
                             "the tight lines)")
    parser.add_argument("--strict", action="store_true",
                        help="also gate absolute *_per_s throughputs")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    lines, failures = compare(baseline, fresh, args.tolerance, args.strict)

    print(f"perf trajectory diff: {args.baseline} (commit "
          f"{baseline.get('commit', '?')}) vs {args.fresh} "
          f"(commit {fresh.get('commit', '?')})")
    for line in lines:
        print(line)
    if failures:
        print("\ntrajectory regressions:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ntrajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

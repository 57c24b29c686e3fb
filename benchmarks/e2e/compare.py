"""Compare two result files written by ``python3 -m benchmarks.e2e --out``.

    python3 -m benchmarks.e2e.compare A.json B.json

One row per (workload, metric) with both medians and ranges and a verdict:

* simulated metrics and ``sim_digest`` are compared exactly — they repeat
  exactly for one seed and commit, so any difference is a real change;
* a host metric is ``better`` / ``worse`` when B's median moved by more
  than the metric's bound and the two ranges do not overlap;
* it is ``unresolved`` when the run-to-run spread of either side (or an
  overlap of the ranges) is wider than the bound can resolve;
* otherwise it is ``unchanged``.

Exits 1 on any ``worse`` row or a larger ``failed_deliveries_share``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional

from benchmarks.e2e.metrics import END_TO_END, Metric

__all__ = ["compare", "verdict", "main"]


def _spread(v: dict[str, float]) -> float:
    return (v["max"] - v["min"]) / abs(v["median"]) if v["median"] else 0.0


def verdict(metric: Metric, a: dict[str, float], b: dict[str, float]) -> str:
    """``a`` and ``b`` are ``{"median", "min", "max"}`` of the two sides."""
    if a["median"] == b["median"] and metric.kind == "simulated":
        return "unchanged"
    gain = b["median"] - a["median"]
    if metric.better == "lower":
        gain = -gain
    direction = "better" if gain > 0 else "worse"
    if metric.kind == "simulated":
        return direction
    change = abs(gain) / abs(a["median"]) if a["median"] else float("inf")
    apart = a["max"] < b["min"] or b["max"] < a["min"]
    if change > metric.bound and apart:
        return direction
    if change > metric.bound or max(_spread(a), _spread(b)) > metric.bound:
        return "unresolved"
    return "unchanged"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a_text, b_text, change_text, verdict)`` and
    whether B is worse than A anywhere."""
    rows: list[tuple] = []
    worse = False
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        fa = ra.get("failed_deliveries_share", 1.0)
        fb = rb.get("failed_deliveries_share", 1.0)
        failed = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        rows.append((name, "failed_deliveries_share", f"{fa:.6g}",
                     f"{fb:.6g}", "", failed))
        worse = worse or failed == "worse"
        if "metrics" not in ra or "metrics" not in rb:
            continue
        for metric in END_TO_END:
            va, vb = ra["metrics"][metric.name], rb["metrics"][metric.name]
            v = verdict(metric, va, vb)
            worse = worse or v == "worse"
            change = ((vb["median"] - va["median"]) / abs(va["median"])
                      if va["median"] else 0.0)
            rows.append((
                name, metric.name,
                f"{va['median']:.6g} [{va['min']:.6g}..{va['max']:.6g}]",
                f"{vb['median']:.6g} [{vb['min']:.6g}..{vb['max']:.6g}]",
                f"{change:+.1%}", v,
            ))
        same = ra["sim_digest"] == rb["sim_digest"]
        rows.append((name, "sim_digest", ra["sim_digest"], rb["sim_digest"],
                     "", "unchanged" if same else "changed"))
    return rows, worse


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as fh:
            sides.append(json.load(fh))
    a, b = sides
    for key in ("seed", "quick"):
        if a["meta"][key] != b["meta"][key]:
            print(f"not comparable: {key} differs "
                  f"({a['meta'][key]} vs {b['meta'][key]})", file=sys.stderr)
            return 2
    rows, worse = compare(a, b)
    widths = [max(len(str(r[i])) for r in rows) for i in range(6)]
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[5]] = counts.get(row[5], 0) + 1
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

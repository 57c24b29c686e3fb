#!/usr/bin/env python
"""Side-by-side protocol comparison on one identical workload.

Runs the paper's three protocols on the same seeded workload — same
subscriptions, same publishes, same movement — and prints the §5.1
metrics for each: message overhead per handoff, mean handoff delay, and
the reliability audit. A miniature, single-command version of the
paper's evaluation section.

Run:  python examples/protocol_comparison.py            (quick)
      python examples/protocol_comparison.py --paper    (full §5.1 scale)
"""

import sys

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.report import format_table
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ("mhh", "sub-unsub", "home-broker")


def main() -> None:
    paper_scale = "--paper" in sys.argv
    if paper_scale:
        spec = WorkloadSpec(duration_s=2400.0)           # §5.1 defaults
        grid_k = 10
    else:
        spec = WorkloadSpec(
            clients_per_broker=5,
            mean_connected_s=60.0,
            mean_disconnected_s=60.0,
            publish_interval_s=60.0,
            duration_s=900.0,
        )
        grid_k = 5

    rows = []
    for protocol in PROTOCOLS:
        cfg = ExperimentConfig(
            protocol=protocol, grid_k=grid_k, seed=1, workload=spec
        )
        row = run_experiment(cfg)
        rows.append(row)
        print(f"ran {protocol:12} ({row.wall_seconds:.1f}s wall, "
              f"{row.sim_events} sim events)")

    print()
    print(format_table(rows, title="identical workload, three protocols:"))
    print()

    by_name = {r.protocol: r for r in rows}
    mhh, su, hb = by_name["mhh"], by_name["sub-unsub"], by_name["home-broker"]
    # the paper's headline comparisons
    assert mhh.missing == 0 and mhh.duplicates == 0 and mhh.lost == 0
    assert su.missing == 0 and su.duplicates == 0 and su.lost == 0
    assert hb.missing == 0  # every event delivered OR counted lost
    assert su.mean_handoff_delay_ms > mhh.mean_handoff_delay_ms
    print("OK: MHH and sub-unsub reliable; sub-unsub slower; "
          f"home-broker lost {hb.lost} event(s)")


if __name__ == "__main__":
    main()

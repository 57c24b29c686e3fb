#!/usr/bin/env python
"""An adversarial scenario: hotspot mobility over a lossy wireless edge.

Everything the paper's evaluation assumed away, at once: mobile clients
crowd a few popular base stations (Zipf mobility), publishers favour hot
topics (Zipf popularity), and the wireless last hop loses 10 % of
deliveries, duplicates 5 % and jitters service times — all seeded and
replayable. Each of the three protocols runs on the *identical* workload
and fault draws; the table prints the delivery audit
(:class:`repro.metrics.delivery.DeliveryStats`) plus the injected-fault
ledgers.

What to look for: every protocol stays fully *accounted* (missing = 0 —
nothing vanishes silently), the reliable protocols lose exactly what the
link dropped, and the home-broker baseline loses *more* than the link
dropped — the protocol's own triangle-routing losses, the paper's
reliability gap, now measurable under realistic link conditions.

Run:  python examples/lossy_hotspot.py
"""

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.network.faults import FaultProfile
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ("mhh", "sub-unsub", "home-broker")
RELIABLE = ("mhh", "sub-unsub")

FAULTS = FaultProfile(
    deliver_loss=0.10,        # 10 % of deliveries lost over the air
    deliver_duplicate=0.05,   # 5 % arrive twice (retransmit, ack lost)
    wireless_jitter_ms=10.0,  # service time stretches by up to 10 ms
)

SPEC = WorkloadSpec(
    clients_per_broker=5,
    mobile_fraction=0.4,
    mean_connected_s=4.0,     # rapid-fire movement: lots of handoffs and
    mean_disconnected_s=8.0,  # in-transit events when the client leaves
    publish_interval_s=20.0,
    duration_s=400.0,
    mobility_model="hotspot",
    mobility_params={"exponent": 1.3},  # broker 0 is the hot cell
    topic_skew=1.1,                     # hot topics too
)


def main() -> None:
    print(f"scenario: hotspot mobility + topic skew, {FAULTS.label()}")
    print()
    header = (
        f"{'protocol':12} {'expect':>7} {'deliver':>8} {'dup':>5} "
        f"{'lost':>5} {'miss':>5} {'order':>6} {'linkdrop':>9} {'linkdup':>8}"
    )
    print(header)
    print("-" * len(header))

    results = {}
    for protocol in PROTOCOLS:
        cfg = ExperimentConfig(
            protocol=protocol,
            grid_k=4,
            seed=7,
            workload=SPEC,
            faults=FAULTS,
        )
        system, workload = build_system(cfg)
        system.run(until=cfg.workload.duration_ms)
        workload.stop()
        drain_to_quiescence(system, workload)
        stats = system.metrics.delivery.stats
        injector = system.fault_injector
        results[protocol] = (stats, injector)
        print(
            f"{protocol:12} {stats.expected:>7} {stats.delivered:>8} "
            f"{stats.duplicates:>5} {stats.lost_explicit:>5} "
            f"{stats.missing:>5} {stats.order_violations:>6} "
            f"{injector.drops:>9} {injector.dups_delivered:>8}"
        )

    print()
    for protocol, (stats, injector) in results.items():
        # the conformance matrix, asserted (check_invariants: the rules
        # every conformance run is judged by)
        assert stats.missing == 0, protocol
        assert stats.duplicates == injector.dups_delivered, protocol
        if protocol in RELIABLE:
            assert stats.lost_explicit == injector.drops, protocol
            assert stats.order_violations == 0, protocol
        else:
            assert stats.lost_explicit >= injector.drops, protocol
    hb_stats, hb_injector = results["home-broker"]
    protocol_losses = hb_stats.lost_explicit - hb_injector.drops
    print(
        "OK: all three protocols fully accounted under loss+dup+jitter; "
        f"home-broker lost {protocol_losses} event(s) of its own on top of "
        f"{hb_injector.drops} link drops"
    )


if __name__ == "__main__":
    main()

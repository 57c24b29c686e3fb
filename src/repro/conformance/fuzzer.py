"""Protocol conformance of one scenario: invariant matrix + cross-engine identity.

:func:`conform` runs a :class:`~repro.conformance.scenarios.Scenario`
through the figure runs' own pipeline (:func:`~repro.experiments.runner.
run_to_end`: measurement window, stop, drain to quiescence; then one
audited record) with the delivery log recorded, and then checks:

**Invariant matrix** (per protocol, after the drain;
:func:`~repro.metrics.summary.check_invariants`, which judges every run's
record, figure points included):

=============  ==========================================================
protocol       guarantee checked
=============  ==========================================================
mhh            zero unaccounted deliveries; losses exactly the injected
               link drops; duplicates exactly the injected link copies;
               per-publisher order intact
sub-unsub      same as mhh (the paper's reliable baseline)
home-broker    losses *allowed* but fully accounted: every expected
               delivery is delivered or explicitly lost, protocol losses
               on top of (never below) the injected link drops; no
               duplicates beyond the injected copies. Per-publisher order
               is not part of its contract and is not asserted.
=============  ==========================================================

The injector's ``drops`` and ``dups_delivered`` are the only fault
counts, so the losses and duplicates above are audited against them
directly; no injector fires while the fault profile is inactive.

The lanes add rows (:data:`~repro.conformance.scenarios.LANES`; each
lane's layers are drawn on top of the plain draw of the same seed):

* ``crash``: a seeded broker crash/restart/partition plan on perfect
  links. Every loss is accounted (``missing == 0``, write-offs of events
  whose only copy died with a broker in ``crash_lost``); reliable
  protocols keep zero duplicates and publisher order; exactly one repair
  round runs per failure event; and the reconverged overlay carries live
  traffic (``post_repair_publishes > 0``, a check on the generated plan
  that only :func:`conform` makes).
* ``rel``: forced lossy links with the ACK/retransmit layer (a third of
  the draws also cap the downlink queue). Reliable protocols must show
  ``lost == 0`` — every injected drop retransmitted, counted
  ``recovered`` — with ``missing == 0`` and publisher order; a ``shed``
  needs its trigger (queue cap, breaker trip, retry budget).
* ``rel-crash``: both; the only permitted write-offs are ``crash_lost``
  and ``shed``.
* ``durable``: ``rel-crash`` with the write-ahead log and session
  handover: ``crash_lost == shed == breaker_trips == 0`` on top — every
  delivery a crash, restart or partition put at risk is recovered from
  the log, never written off; home-broker's in-transit losses settle as
  ``lost``.

**Cross-engine identity**: the same scenario re-run once through the live
driver on a :class:`~repro.drivers.live.VirtualClock` — the simulator's
heap behind the live-driver path, with the file log store the live driver
builds and the phase loop the live and socket drivers run on — must
produce a byte-identical delivery log, identical delivery/loss/duplicate
counters, identical per-category wired traffic and the same processed
event count. Every ``Clock`` is documented as firing in ``(time, seq)``
order.

Replay: ``python -m repro.conformance.fuzzer --scenario-seed N --lane X
[--protocol P] [--no-cross-engine]`` reruns exactly that scenario (same
workload, same fault draws, byte-identical) and prints its violations.
The search over scenarios lives in the tests: the pinned draws and the
model-based state machine of ``tests/test_model_machine.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.conformance.scenarios import LANES, PROTOCOLS, Scenario
from repro.drivers.live import run_virtual_scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_to_end
from repro.metrics.summary import ResultRow, build_row, check_invariants

__all__ = ["conform", "run_scenario", "check_invariants", "compare_outcomes",
           "main"]


def run_scenario(cfg: ExperimentConfig) -> ResultRow:
    """Run one config end-to-end on the simulator, delivery log recorded;
    its audited record."""
    return build_row(cfg, run_to_end(cfg))


def compare_outcomes(a: ResultRow, b: ResultRow) -> list[str]:
    """Cross-engine identity violations between two runs of one scenario
    (``a`` on the simulator, ``b`` on the virtual clock): every record
    field but ``wall_seconds``."""
    v: list[str] = []
    for f in dataclasses.fields(ResultRow):
        if f.name in ("wall_seconds", "wired_by_category", "delivery_log"):
            continue
        av, bv = getattr(a, f.name), getattr(b, f.name)
        if av != bv:
            v.append(
                f"cross-engine {f.name} diverged: simulator={av} "
                f"vs virtual-clock={bv}"
            )
    if a.wired_by_category != b.wired_by_category:
        v.append(
            f"cross-engine wired traffic diverged: "
            f"{a.wired_by_category} vs {b.wired_by_category}"
        )
    if a.delivery_log != b.delivery_log:
        # locate the first divergence for a actionable message
        idx = next(
            (
                i
                for i, (x, y) in enumerate(zip(a.delivery_log, b.delivery_log))
                if x != y
            ),
            min(len(a.delivery_log), len(b.delivery_log)),
        )
        v.append(
            f"cross-engine delivery log diverged at entry {idx}: "
            f"{a.delivery_log[idx:idx + 1]} vs {b.delivery_log[idx:idx + 1]}"
        )
    return v


def conform(scenario: Scenario, cross_engine: bool = True) -> list[str]:
    """Every violation of ``scenario`` (empty = conformant): the simulator
    run's invariant matrix, the crash lanes' live post-repair traffic and,
    with ``cross_engine``, the ``[virtual-clock]`` re-run's matrix and its
    identity with the simulator run."""
    cfg = scenario.config
    primary = run_scenario(cfg)
    violations = list(primary.violations)
    if cfg.crashes is not None and primary.post_repair_publishes == 0:
        # judges the scenario generator, not the protocol: a crash
        # schedule must leave live traffic on the reconverged overlay
        violations.append(
            "no post-repair publishes: the scenario never exercised "
            "the reconverged overlay"
        )
    if cross_engine:
        alt = build_row(cfg, run_virtual_scenario(cfg))
        violations += [f"[virtual-clock] {v}" for v in alt.violations]
        violations += compare_outcomes(primary, alt)
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance.fuzzer",
        description=(
            "Replay one conformance scenario byte-identically: run it "
            "end-to-end, assert the per-protocol invariant matrix and "
            "cross-engine trace identity."
        ),
    )
    parser.add_argument("--scenario-seed", type=int, required=True,
                        metavar="N", help="the scenario's seed")
    parser.add_argument("--lane", choices=LANES, default="plain",
                        help="plain (default; sampled protocols and "
                             "faults), crash (perfect links + seeded "
                             "crash/restart/partition schedules), rel "
                             "(forced lossy links with ACK/retransmit; "
                             "asserts zero losses for reliable protocols), "
                             "rel-crash (both) or durable (rel-crash with "
                             "the write-ahead log; asserts missing == "
                             "crash_lost == shed == 0, and lost == 0 for "
                             "mhh and sub-unsub)")
    parser.add_argument("--protocol", choices=PROTOCOLS, default=None,
                        help="force the protocol (default: the seed's own "
                             "draw); every other draw stays the seed's")
    parser.add_argument("--no-cross-engine", action="store_true",
                        help="skip the VirtualClock identity re-run "
                             "(half the runtime, live-driver path not "
                             "exercised)")
    args = parser.parse_args(argv)

    scenario = Scenario.from_seed(args.scenario_seed, args.lane, args.protocol)
    violations = conform(scenario, cross_engine=not args.no_cross_engine)
    print(("FAIL " if violations else "PASS ") + scenario.label())
    for violation in violations:
        print(f"     - {violation}")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The protocol-conformance fuzzer: invariant matrix + cross-engine identity.

For every sampled :class:`~repro.conformance.scenarios.Scenario` the fuzzer
runs the figure runs' own pipeline (:func:`~repro.experiments.runner.
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

In all cases the traffic meter's fault ledgers must agree with the
injector's own counters — a drop that escaped accounting is a conformance
failure even if delivery happens to reconcile.

**Crash lane** (``--lane crash``): scenarios gain a seeded broker
crash/restart/partition schedule and run on perfect wireless links, so
every loss is attributable to the failure model. On top of the standard
rows the matrix asserts: every protocol accounts every loss
(``missing == 0`` with ``crash_lost`` carrying the write-offs for events
whose only copy died with a broker); reliable protocols additionally keep
zero duplicates, per-publisher order, and zero unaccounted link losses
through the repair; exactly one repair round runs per scheduled failure
event; and the reconverged overlay carries live traffic
(``post_repair_publishes > 0``). Protocols cycle deterministically, so a
30-scenario batch covers each of the three ten times.

**Reliability lane** (``--lane rel``): scenarios run with a forced
lossy wireless profile *and* the end-to-end ACK/retransmit layer enabled
(a third of the draws also bound the downlink queue). The matrix flips for
this lane: reliable protocols must show ``lost == 0`` — every injected
link drop retransmitted away, counted ``recovered`` — alongside
``missing == 0``, intact per-publisher order, and wire-level duplicates no
lower than the injected copies (retransmits add legitimate extras); a
``shed`` needs its trigger (queue cap, breaker trip, retry budget).
On ``--lane rel-crash``, seeded broker failures layer on top of the loss
profile and the only permitted write-offs are ``crash_lost`` and
``shed``; ``lost`` stays exactly zero. Protocols cycle through the
reliable pair, so a 30-scenario batch covers each fifteen times.

**Durability lane** (``--lane durable``): the rel-crash lane's
crash-composed scenarios run again with the write-ahead log and session
handover enabled. The matrix hardens to the zero-write-off contract:
``crash_lost == 0`` and ``shed == 0`` on top of ``missing == 0`` (and
``lost == 0`` for the reliable pair) — every delivery put at risk by a
broker crash, restart or partition must be recovered from the log (replay
on restart, handover to the new home broker on permanent death), never
written off; home-broker's in-transit losses settle as ``lost``. The
durable retry path never exhausts, so ``breaker_trips`` stays 0 too.

**Cross-engine identity**: the same scenario re-run once through the live
driver on a :class:`~repro.drivers.live.VirtualClock` — a scheduler written
independently of :class:`~repro.sim.core.Simulator`, under the phase loop
the live and socket drivers run on — must produce a byte-identical
delivery log, identical delivery/loss/duplicate counters, identical
per-category wired traffic and the same processed event count. Every
``Clock`` is documented as firing in ``(time, seq)`` order; the fuzzer
makes that a standing randomized gate every future optimisation inherits.

Replay: every failure line carries the scenario seed and lane;
``python -m repro.conformance.fuzzer --scenario-seed N --lane X
[--protocol P]`` reruns exactly that scenario (same workload, same fault
draws, byte-identical).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.conformance.scenarios import LANES, PROTOCOLS, Scenario
from repro.drivers.live import run_virtual_scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_to_end
from repro.metrics.summary import (
    RELIABLE_PROTOCOLS,
    ResultRow,
    build_row,
    check_invariants,
)

__all__ = [
    "FuzzReport",
    "ScenarioFuzzer",
    "run_scenario",
    "check_invariants",
    "compare_outcomes",
    "main",
]

#: deterministic cycling order for the rel and rel-crash lanes (their
#: lost == 0 row only makes sense for protocols that promise no losses
#: of their own, so home-broker sits them out)
_RELIABLE_CYCLE = tuple(p for p in PROTOCOLS if p in RELIABLE_PROTOCOLS)

#: the protocols each lane cycles over a batch, so coverage is guaranteed,
#: not merely probable (None = the plain lane samples its own)
_LANE_CYCLES: dict[str, tuple[Optional[str], ...]] = {
    "plain": (None,),
    "crash": PROTOCOLS,
    "rel": _RELIABLE_CYCLE,
    "rel-crash": _RELIABLE_CYCLE,
    "durable": PROTOCOLS,
}


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


# ---------------------------------------------------------------------------
# the fuzzer
# ---------------------------------------------------------------------------
@dataclass
class ScenarioResult:
    seed: int
    protocol: str
    label: str
    violations: list[str]
    lane: str = "plain"
    forced_protocol: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def replay_command(self) -> str:
        cmd = (
            f"python -m repro.conformance.fuzzer --scenario-seed {self.seed} "
            f"--lane {self.lane}"
        )
        if self.forced_protocol is not None:
            cmd += f" --protocol {self.forced_protocol}"
        return cmd


@dataclass
class FuzzReport:
    master_seed: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.passed]

    def protocol_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.protocol] = counts.get(r.protocol, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "passed": self.passed,
            "protocols": self.protocol_counts(),
            "scenarios": [
                {
                    "seed": r.seed,
                    "label": r.label,
                    "violations": r.violations,
                    "replay": r.replay_command(),
                }
                for r in self.results
            ],
        }


class ScenarioFuzzer:
    """Samples and runs ``n_scenarios`` scenarios of one ``lane`` (see
    :data:`~repro.conformance.scenarios.LANES`) derived from one master
    seed; each scenario also re-runs on the ``VirtualClock`` when
    ``cross_engine`` is on (the default). Every lane but ``plain`` cycles
    its protocols, so any batch as long as the cycle covers them all.
    """

    def __init__(
        self,
        n_scenarios: int = 30,
        master_seed: int = 0,
        cross_engine: bool = True,
        lane: str = "plain",
    ) -> None:
        self.n_scenarios = n_scenarios
        self.master_seed = master_seed
        self.cross_engine = cross_engine
        self.lane = lane

    def scenario_seeds(self) -> list[int]:
        rnd = random.Random(self.master_seed)
        return [rnd.randrange(2**31) for _ in range(self.n_scenarios)]

    def run_one(
        self, scenario_seed: int, protocol: Optional[str] = None
    ) -> ScenarioResult:
        scenario = Scenario.from_seed(scenario_seed, self.lane, protocol)
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
        if self.cross_engine:
            alt = build_row(cfg, run_virtual_scenario(cfg))
            violations += [f"[virtual-clock] {v}" for v in alt.violations]
            violations += compare_outcomes(primary, alt)
        return ScenarioResult(
            scenario_seed,
            cfg.protocol,
            scenario.label(),
            violations,
            lane=self.lane,
            forced_protocol=protocol,
        )

    def run(
        self, progress: Optional[Callable[[str], None]] = None
    ) -> FuzzReport:
        report = FuzzReport(master_seed=self.master_seed)
        cycle = _LANE_CYCLES[self.lane]
        for i, seed in enumerate(self.scenario_seeds()):
            result = self.run_one(seed, cycle[i % len(cycle)])
            report.results.append(result)
            if progress is not None:
                status = "PASS" if result.passed else "FAIL"
                progress(f"{status} {result.label}")
                for violation in result.violations:
                    progress(f"     - {violation}")
        return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance.fuzzer",
        description=(
            "Randomized protocol-conformance gate: sample adversarial "
            "scenarios, run them end-to-end, assert the per-protocol "
            "invariant matrix and cross-engine trace identity."
        ),
    )
    parser.add_argument("--scenarios", type=int, default=30, metavar="N",
                        help="number of scenarios to sample (default 30)")
    parser.add_argument("--master-seed", type=int, default=0, metavar="S",
                        help="seed deriving the scenario seeds (default 0)")
    parser.add_argument("--scenario-seed", type=int, default=None, metavar="X",
                        help="replay exactly one scenario by its seed "
                             "(ignores --scenarios/--master-seed)")
    parser.add_argument("--no-cross-engine", action="store_true",
                        help="skip the VirtualClock identity re-run "
                             "(half the runtime, second scheduler not "
                             "exercised)")
    parser.add_argument("--lane", choices=LANES, default="plain",
                        help="plain (default; sampled protocols and "
                             "faults), crash (perfect links + seeded "
                             "crash/restart/partition schedules), rel "
                             "(forced lossy links with ACK/retransmit; "
                             "asserts zero losses for reliable protocols), "
                             "rel-crash (both) or durable (rel-crash with "
                             "the write-ahead log; asserts missing == "
                             "crash_lost == shed == 0, and lost == 0 for "
                             "mhh and sub-unsub). Every lane but plain "
                             "cycles its protocols")
    parser.add_argument("--protocol", choices=PROTOCOLS, default=None,
                        help="force the protocol of a --scenario-seed "
                             "replay, on any lane (batch runs sample or "
                             "cycle protocols themselves)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full report (incl. every scenario "
                             "seed + replay command) as JSON")
    args = parser.parse_args(argv)
    if args.scenarios < 1:
        parser.error(f"--scenarios must be >= 1, got {args.scenarios}")
    if args.protocol is not None and args.scenario_seed is None:
        parser.error("--protocol forces a --scenario-seed replay; batch "
                     "runs sample or cycle protocols themselves")

    fuzzer = ScenarioFuzzer(
        n_scenarios=args.scenarios,
        master_seed=args.master_seed,
        cross_engine=not args.no_cross_engine,
        lane=args.lane,
    )
    if args.scenario_seed is not None:
        result = fuzzer.run_one(args.scenario_seed, args.protocol)
        report = FuzzReport(master_seed=args.master_seed, results=[result])
        print(("PASS " if result.passed else "FAIL ") + result.label)
        for violation in result.violations:
            print(f"     - {violation}")
    else:
        report = fuzzer.run(progress=print)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
        print(f"report written to {args.out}")

    n_failed = len(report.failures)
    print(
        f"{len(report.results) - n_failed}/{len(report.results)} scenarios "
        f"conformant; protocols covered: {report.protocol_counts()}"
    )
    if n_failed:
        print("replay failing scenarios byte-identically with:")
        for r in report.failures:
            print(f"  {r.replay_command()}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

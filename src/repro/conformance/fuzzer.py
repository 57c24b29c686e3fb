"""The protocol-conformance fuzzer: invariant matrix + cross-engine identity.

For every sampled :class:`~repro.conformance.scenarios.Scenario` the fuzzer
runs the full experiment pipeline (measurement window, metric snapshot,
drain to quiescence) and then checks:

**Invariant matrix** (per protocol, after the drain):

=============  ==========================================================
protocol       guarantee checked
=============  ==========================================================
mhh            zero unaccounted deliveries; losses exactly the injected
               link drops; duplicates exactly the injected link copies;
               per-publisher order intact
sub-unsub      same as mhh (the paper's reliable baseline)
two-phase      same as mhh (its documented guarantee: exactly-once with
               FIFO capture untouched — only slower under concurrency)
home-broker    losses *allowed* but fully accounted: every expected
               delivery is delivered or explicitly lost, protocol losses
               on top of (never below) the injected link drops; no
               duplicates beyond the injected copies. Per-publisher order
               is not part of its contract and is not asserted.
=============  ==========================================================

In all cases the traffic meter's fault ledgers must agree with the
injector's own counters — a drop that escaped accounting is a conformance
failure even if delivery happens to reconcile.

**Crash lane** (``--crash-lane``): scenarios gain a seeded broker
crash/restart/partition schedule and run on perfect wireless links, so
every loss is attributable to the failure model. On top of the standard
rows the matrix asserts: every protocol accounts every loss
(``missing == 0`` with ``crash_lost`` carrying the write-offs for events
whose only copy died with a broker); reliable protocols additionally keep
zero duplicates, per-publisher order, and zero unaccounted link losses
through the repair; exactly one repair round runs per scheduled failure
event; and the reconverged overlay carries live traffic
(``post_repair_publishes > 0``). Protocols cycle deterministically, so a
30-scenario batch covers each of the four at least seven times.

**Reliability lane** (``--reliability-lane``): scenarios run with a forced
lossy wireless profile *and* the end-to-end ACK/retransmit layer enabled
(a third of the draws also bound the downlink queue). The matrix flips for
this lane: reliable protocols must show ``lost == 0`` — every injected
link drop retransmitted away, reconciled as ``recovered`` — alongside
``missing == 0``, intact per-publisher order, and wire-level duplicates no
lower than the injected copies (retransmits add legitimate extras).
Combined with ``--crash-lane``, seeded broker failures layer on top of the
loss profile and the only permitted write-offs are ``crash_lost`` and
``shed``; ``lost`` stays exactly zero. Protocols cycle through the
reliable trio, so a 30-scenario batch covers each at least ten times.

**Durability lane** (``--durability-lane``): the reliability lane's
crash-composed scenarios run again with the write-ahead log and session
handover enabled. The matrix hardens to the zero-write-off contract:
``crash_lost == 0`` and ``shed == 0`` on top of ``missing == 0`` and
``lost == 0`` — every delivery put at risk by a broker crash, restart or
partition must be recovered from the log (replay on restart, handover to
the new home broker on permanent death), never reconciled away. The
durable retry path never exhausts, so ``breaker_trips`` stays 0 too.

**Cross-engine identity**: the same scenario re-run once through the live
driver on a :class:`~repro.drivers.live.VirtualClock` — a scheduler written
independently of :class:`~repro.sim.core.Simulator`, under the phase loop
the live and socket drivers run on — must produce a byte-identical
delivery log, identical delivery/loss/duplicate counters, identical
per-category wired traffic and the same processed event count. Every
``Clock`` is documented as firing in ``(time, seq)`` order; the fuzzer
makes that a standing randomized gate every future optimisation inherits.

Replay: every failure line carries the scenario seed;
``python -m repro.conformance.fuzzer --scenario-seed N`` reruns exactly
that scenario (same workload, same fault draws, byte-identical).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.conformance.scenarios import PROTOCOLS, Scenario
from repro.drivers.live import run_virtual_scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_to_quiescence
from repro.pubsub.system import PubSubSystem

__all__ = [
    "ScenarioOutcome",
    "FuzzReport",
    "ScenarioFuzzer",
    "run_scenario",
    "snapshot_outcome",
    "check_invariants",
    "compare_outcomes",
    "main",
]

#: protocols whose contract is exactly-once, ordered, loss-free delivery
RELIABLE_PROTOCOLS = frozenset({"mhh", "sub-unsub", "two-phase"})

#: deterministic cycling order for the reliability lane (the lane's
#: lost == 0 row only makes sense for protocols that promise no losses
#: of their own, so home-broker sits this lane out)
_RELIABLE_CYCLE = tuple(p for p in PROTOCOLS if p in RELIABLE_PROTOCOLS)


@dataclass
class ScenarioOutcome:
    """End-state of one scenario run, whichever driver ran it."""

    published: int
    expected: int
    delivered: int
    duplicates: int
    order_violations: int
    lost: int
    missing: int
    handoffs: int
    injected_drops: int
    injected_dups: int
    meter_drops: int
    meter_dups: int
    sim_events: int
    crash_lost: int = 0
    repairs: int = 0
    post_repair_publishes: int = 0
    recovered: int = 0
    shed: int = 0
    retransmits: int = 0
    breaker_trips: int = 0
    #: retransmit timers that fired against a link already retired by the
    #: crash/repair machinery (must stay 0: satellite regression gate)
    stale_timer_fires: int = 0
    #: durable sessions handed to a new home broker in repair rounds
    wal_handovers: int = 0
    #: WAL checkpoint/compaction passes across all brokers
    wal_checkpoints: int = 0
    wired_by_category: dict[str, int] = field(default_factory=dict)
    #: (client, event_id, time) per delivery, in delivery order
    delivery_log: tuple[tuple[int, int, float], ...] = ()


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run one scenario end-to-end (measurement + drain) and snapshot it."""
    cfg = scenario.config()
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    run_to_quiescence(system, workload, cfg.workload.duration_ms)
    return snapshot_outcome(system)


def snapshot_outcome(system: PubSubSystem) -> ScenarioOutcome:
    """The end-state of a finished run, whichever driver ran it."""
    stats = system.metrics.delivery.stats
    injector = system.fault_injector
    meter = system.metrics.traffic
    return ScenarioOutcome(
        published=stats.published,
        expected=stats.expected,
        delivered=stats.delivered,
        duplicates=stats.duplicates,
        order_violations=stats.order_violations,
        lost=stats.lost_explicit,
        missing=stats.missing,
        handoffs=system.metrics.handoffs.handoff_count,
        injected_drops=injector.drops if injector else 0,
        injected_dups=injector.dups_delivered if injector else 0,
        meter_drops=meter.total_dropped(),
        meter_dups=meter.total_duplicated(),
        sim_events=system.clock.events_processed,
        crash_lost=stats.crash_lost,
        repairs=system.recovery.repairs if system.recovery else 0,
        post_repair_publishes=(
            system.recovery.post_repair_publishes if system.recovery else 0
        ),
        recovered=stats.recovered,
        shed=stats.shed,
        retransmits=meter.total_retransmits(),
        breaker_trips=meter.total_breaker_trips(),
        stale_timer_fires=(
            system.reliability.stale_timer_fires if system.reliability else 0
        ),
        wal_handovers=(
            system.durability.handovers if system.durability else 0
        ),
        wal_checkpoints=(
            system.durability.checkpoints if system.durability else 0
        ),
        wired_by_category=dict(meter.by_category()),
        delivery_log=tuple(system.metrics.delivery.log),
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------
def check_invariants(
    scenario: Union[Scenario, ExperimentConfig], o: ScenarioOutcome
) -> list[str]:
    """Violations of the protocol's invariant matrix (empty = conformant).

    ``scenario`` is a :class:`Scenario` or the config a live or socket run
    was built from: only ``protocol``, ``reliable``, ``durable``,
    ``queue_cap``, ``faults`` and ``crashes`` (``None`` = inactive) are read.
    """
    v: list[str] = []
    reliable = scenario.protocol in RELIABLE_PROTOCOLS
    faults_active = scenario.faults is not None and scenario.faults.active
    crashes_active = scenario.crashes is not None and scenario.crashes.active
    if o.missing != 0:
        v.append(
            f"missing={o.missing}: expected deliveries neither performed "
            f"nor explicitly accounted as lost"
        )
    if scenario.reliable:
        # No duplicate bound under reliability: the rx window decouples
        # the delivery-level count from the injector in both directions.
        # Retransmits whose ack (not the frame) was lost add duplicates
        # the injector never made, while injected copies of a buffered or
        # stale-session frame are absorbed by sequence-number reassembly
        # before they reach the delivery meter. The per-client app
        # callback dedups regardless; exactly-once is what the missing/
        # lost rows assert.
        pass
    elif o.duplicates != o.injected_dups:
        v.append(
            f"duplicates={o.duplicates} != injected link copies "
            f"{o.injected_dups}: the protocol introduced or swallowed "
            f"duplicates of its own"
        )
    if reliable:
        if scenario.reliable:
            # The whole point of the reliability lane: injected link loss
            # is retransmitted away, never written off. Under a crash plan
            # the only permitted write-offs are crash_lost (volatile state
            # died with a broker) and shed (budget/bulkhead policy) —
            # both tracked separately, so lost stays exactly zero.
            if o.lost != 0:
                v.append(
                    f"lost={o.lost} != 0: reliable delivery must recover "
                    f"every injected link loss (drops={o.injected_drops})"
                )
        elif o.lost != o.injected_drops:
            v.append(
                f"lost={o.lost} != injected link drops {o.injected_drops}: "
                f"a reliable protocol must lose exactly what the link lost"
            )
        if o.order_violations != 0:
            v.append(
                f"order_violations={o.order_violations}: per-publisher "
                f"order must hold"
            )
    elif not scenario.reliable:
        if o.lost < o.injected_drops:
            v.append(
                f"lost={o.lost} < injected link drops {o.injected_drops}: "
                f"link losses escaped the accounting"
            )
    if o.meter_drops != o.injected_drops:
        v.append(
            f"traffic meter drop ledger {o.meter_drops} != injector "
            f"drops {o.injected_drops}"
        )
    if o.meter_dups != o.injected_dups:
        v.append(
            f"traffic meter dup ledger {o.meter_dups} != injector "
            f"dups {o.injected_dups}"
        )
    if not faults_active and (o.injected_drops or o.injected_dups):
        v.append("fault profile inactive but the injector fired")
    if scenario.reliable:
        if o.recovered > o.injected_drops:
            v.append(
                f"recovered={o.recovered} > injected link drops "
                f"{o.injected_drops}: recoveries without matching drops"
            )
        if o.shed and scenario.queue_cap is None and not crashes_active:
            v.append(
                f"shed={o.shed} with no queue cap and no crash plan: "
                f"nothing should trigger the shed policy"
            )
    elif scenario.queue_cap is None and (
        o.recovered or o.shed or o.retransmits or o.breaker_trips
    ):
        v.append(
            f"reliability off but its machinery fired (recovered="
            f"{o.recovered} shed={o.shed} retransmits={o.retransmits} "
            f"breaker_trips={o.breaker_trips})"
        )
    if crashes_active:
        # Reliable protocols may write off deliveries whose only copy
        # lived on the crashed broker (volatile state is genuinely gone) —
        # but every such write-off must be *marked*, which the global
        # ``missing == 0`` row already enforces. What distinguishes them
        # from home-broker here is the rest of the matrix: no duplicates,
        # order intact, zero unaccounted link losses.
        if o.repairs != len(scenario.crashes.events):
            v.append(
                f"repairs={o.repairs} != scheduled failure events "
                f"{len(scenario.crashes.events)}: a repair round was "
                f"skipped or double-fired"
            )
    elif o.crash_lost or o.repairs:
        v.append("crash plan inactive but the recovery machinery fired")
    if scenario.reliable and o.stale_timer_fires:
        v.append(
            f"stale_timer_fires={o.stale_timer_fires}: a retransmit timer "
            f"fired against a link the crash/repair machinery had already "
            f"retired (epoch bump missed)"
        )
    if scenario.durable:
        # The zero-write-off contract: with the WAL and session handover
        # active, machine failures must never cost a delivery. crash_lost
        # and shed stay exactly 0 (missing == 0 is asserted above, so the
        # recovered deliveries are real, not reconciled away), and the
        # durable retry path never opens a breaker.
        if o.crash_lost != 0:
            v.append(
                f"crash_lost={o.crash_lost} != 0: a durable run wrote off "
                f"deliveries to a broker crash instead of replaying the WAL"
            )
        if o.shed != 0:
            v.append(
                f"shed={o.shed} != 0: a durable run wrote off deliveries "
                f"via the shed policy instead of retrying from the log"
            )
        if o.breaker_trips != 0:
            v.append(
                f"breaker_trips={o.breaker_trips} != 0: durable retry "
                f"never exhausts, so no circuit breaker should exist"
            )
    elif o.wal_handovers or o.wal_checkpoints:
        v.append(
            f"durability off but the WAL machinery fired (handovers="
            f"{o.wal_handovers} checkpoints={o.wal_checkpoints})"
        )
    if o.published == 0:
        v.append("degenerate scenario: nothing was published")
    return v


def compare_outcomes(a: ScenarioOutcome, b: ScenarioOutcome) -> list[str]:
    """Cross-engine identity violations between two runs of one scenario
    (``a`` on the simulator, ``b`` on the virtual clock)."""
    v: list[str] = []
    for attr in (
        "published",
        "expected",
        "delivered",
        "duplicates",
        "order_violations",
        "lost",
        "missing",
        "handoffs",
        "injected_drops",
        "injected_dups",
        "sim_events",
        "crash_lost",
        "repairs",
        "post_repair_publishes",
        "recovered",
        "shed",
        "retransmits",
        "breaker_trips",
        "stale_timer_fires",
        "wal_handovers",
        "wal_checkpoints",
    ):
        av, bv = getattr(a, attr), getattr(b, attr)
        if av != bv:
            v.append(
                f"cross-engine {attr} diverged: simulator={av} "
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
    crash_lane: bool = False
    reliability_lane: bool = False
    durability_lane: bool = False
    forced_protocol: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def replay_command(self) -> str:
        cmd = f"python -m repro.conformance.fuzzer --scenario-seed {self.seed}"
        if self.crash_lane:
            cmd += " --crash-lane"
        if self.reliability_lane:
            cmd += " --reliability-lane"
        if self.durability_lane:
            cmd += " --durability-lane"
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
    """Samples and runs ``n_scenarios`` scenarios derived from one master
    seed; each scenario also re-runs on the ``VirtualClock`` when
    ``cross_engine`` is on (the default).

    With ``crash_lane`` on, every scenario is the
    :meth:`~repro.conformance.scenarios.Scenario.crash_from_seed` variant —
    perfect wireless links plus a seeded broker-failure schedule — and the
    protocol cycles deterministically through all four so any seed count
    >= 4 covers the whole matrix. The crash rows of the invariant matrix
    (losses fully accounted including crash write-offs, one repair per
    failure event, live post-repair traffic) are asserted on top of the
    standard rows.
    """

    def __init__(
        self,
        n_scenarios: int = 30,
        master_seed: int = 0,
        cross_engine: bool = True,
        crash_lane: bool = False,
        reliability_lane: bool = False,
        durability_lane: bool = False,
    ) -> None:
        self.n_scenarios = n_scenarios
        self.master_seed = master_seed
        self.cross_engine = cross_engine
        self.crash_lane = crash_lane
        self.reliability_lane = reliability_lane
        self.durability_lane = durability_lane

    def scenario_seeds(self) -> list[int]:
        rnd = random.Random(self.master_seed)
        return [rnd.randrange(2**31) for _ in range(self.n_scenarios)]

    def run_one(
        self, scenario_seed: int, protocol: Optional[str] = None
    ) -> ScenarioResult:
        if self.durability_lane:
            scenario = Scenario.durable_from_seed(scenario_seed, protocol)
        elif self.reliability_lane:
            scenario = Scenario.reliability_from_seed(
                scenario_seed, protocol, crash=self.crash_lane
            )
        elif self.crash_lane:
            scenario = Scenario.crash_from_seed(scenario_seed, protocol)
        else:
            scenario = Scenario.from_seed(scenario_seed, protocol)
        primary = run_scenario(scenario)
        violations = check_invariants(scenario, primary)
        if scenario.crashes.active and primary.post_repair_publishes == 0:
            # judges the scenario generator, not the protocol: a crash
            # schedule must leave live traffic on the reconverged overlay
            violations.append(
                "no post-repair publishes: the scenario never exercised "
                "the reconverged overlay"
            )
        if self.cross_engine:
            alt = snapshot_outcome(run_virtual_scenario(scenario.config()))
            violations += [
                f"[virtual-clock] {v}" for v in check_invariants(scenario, alt)
            ]
            violations += compare_outcomes(primary, alt)
        return ScenarioResult(
            scenario_seed,
            scenario.protocol,
            scenario.label(),
            violations,
            crash_lane=self.crash_lane,
            reliability_lane=self.reliability_lane,
            durability_lane=self.durability_lane,
            forced_protocol=protocol,
        )

    def run(
        self, progress: Optional[Callable[[str], None]] = None
    ) -> FuzzReport:
        report = FuzzReport(master_seed=self.master_seed)
        for i, seed in enumerate(self.scenario_seeds()):
            # lanes cycle protocols so coverage is guaranteed, not merely
            # probable, over the whole batch; the reliability lane cycles
            # only the protocols whose contract is loss-free
            if self.reliability_lane or self.durability_lane:
                protocol = _RELIABLE_CYCLE[i % len(_RELIABLE_CYCLE)]
            elif self.crash_lane:
                protocol = PROTOCOLS[i % len(PROTOCOLS)]
            else:
                protocol = None
            result = self.run_one(seed, protocol)
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
    parser.add_argument("--crash-lane", action="store_true",
                        help="fuzz the broker-failure lane: perfect links "
                             "plus seeded crash/restart/partition schedules, "
                             "protocols cycled for guaranteed coverage")
    parser.add_argument("--reliability-lane", action="store_true",
                        help="fuzz the end-to-end reliability lane: forced "
                             "lossy links with ACK/retransmit enabled; "
                             "asserts zero losses for reliable protocols. "
                             "Combine with --crash-lane to layer seeded "
                             "broker failures on top")
    parser.add_argument("--durability-lane", action="store_true",
                        help="fuzz the durable zero-write-off lane: lossy "
                             "links + ACK/retransmit + seeded broker "
                             "failures with the write-ahead log on; asserts "
                             "missing == lost == crash_lost == shed == 0")
    parser.add_argument("--protocol", choices=PROTOCOLS, default=None,
                        help="force the protocol of a --scenario-seed "
                             "replay, on any lane (batch runs sample or "
                             "cycle protocols themselves)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full report (incl. every scenario "
                             "seed + replay command) as JSON")
    args = parser.parse_args(argv)

    fuzzer = ScenarioFuzzer(
        n_scenarios=args.scenarios,
        master_seed=args.master_seed,
        cross_engine=not args.no_cross_engine,
        crash_lane=args.crash_lane,
        reliability_lane=args.reliability_lane,
        durability_lane=args.durability_lane,
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

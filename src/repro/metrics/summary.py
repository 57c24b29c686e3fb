"""The run record: one :class:`ResultRow` per finished run, audited.

Every run ends here, whichever loop drove it — a figure point, a fuzzer
scenario (on the simulator or the virtual clock), a socket run or a live
soak: :func:`build_row` fills the record from the config and the finished
system, and sets its ``violations`` to :func:`check_invariants` of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig
    from repro.metrics.hub import MetricsHub
    from repro.pubsub.system import PubSubSystem

__all__ = [
    "RELIABLE_PROTOCOLS",
    "ResultRow",
    "summarize",
    "build_row",
    "check_invariants",
]

#: protocols whose contract is exactly-once, ordered, loss-free delivery
RELIABLE_PROTOCOLS = frozenset({"mhh", "sub-unsub"})


@dataclass
class ResultRow:
    """One finished run: one point of a paper figure, one fuzzer scenario
    or one soak.

    ``handoffs`` and the delays cover the measurement window and so do
    ``overhead_per_handoff`` and ``overhead_by_category``; every other
    count is read at the end of the drained run.
    """

    protocol: str
    params: dict[str, Any] = field(default_factory=dict)
    handoffs: int = 0
    overhead_per_handoff: Optional[float] = None
    mean_handoff_delay_ms: Optional[float] = None
    median_handoff_delay_ms: Optional[float] = None
    published: int = 0
    expected_deliveries: int = 0
    delivered: int = 0
    duplicates: int = 0
    order_violations: int = 0
    lost: int = 0
    missing: int = 0
    overhead_by_category: dict[str, int] = field(default_factory=dict)
    sim_events: int = 0
    #: host time, the one field two runs of one config may differ in
    wall_seconds: float = field(default=0.0, compare=False)
    # -- the audit: ledger write-offs, injector, meter and layer counters --
    crash_lost: int = 0
    recovered: int = 0
    shed: int = 0
    #: the traffic meter's shed count: frames shed, per cause
    #: ("queue_cap", "breaker", "retry_exhausted")
    shed_by_cause: dict[str, int] = field(default_factory=dict)
    injected_drops: int = 0
    injected_dups: int = 0
    retransmits: int = 0
    breaker_trips: int = 0
    repairs: int = 0
    post_repair_publishes: int = 0
    #: retransmit timers that fired against a link already retired by the
    #: crash/repair machinery (must stay 0)
    stale_timer_fires: int = 0
    #: durable sessions handed to a new home broker in repair rounds
    wal_handovers: int = 0
    #: WAL checkpoint/compaction passes across all brokers
    wal_checkpoints: int = 0
    #: wired hops by category over the whole run, drain included
    wired_by_category: dict[str, int] = field(default_factory=dict)
    #: (client, event_id, time) per delivery, in delivery order; empty
    #: unless the run recorded its delivery log
    delivery_log: tuple[tuple[int, int, float], ...] = ()
    #: the clock's model time when the run ended
    model_ms: float = 0.0
    #: whether the drain reached quiescence (only a soak can end without)
    drained: bool = True
    #: what :func:`check_invariants` (and a soak's clock) found wrong
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            **self.params,
            "handoffs": self.handoffs,
            "overhead_per_handoff": self.overhead_per_handoff,
            "mean_handoff_delay_ms": self.mean_handoff_delay_ms,
            "median_handoff_delay_ms": self.median_handoff_delay_ms,
            "published": self.published,
            "expected": self.expected_deliveries,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "order_violations": self.order_violations,
            "lost": self.lost,
            "missing": self.missing,
        }


def summarize(
    protocol: str,
    metrics: "MetricsHub",
    params: Mapping[str, Any],
    sim_events: int = 0,
    wall_seconds: float = 0.0,
) -> ResultRow:
    """The hub's half of the record: window metrics, the delivery ledger
    and the traffic meter's counts."""
    stats = metrics.delivery.stats
    meter = metrics.traffic
    return ResultRow(
        protocol=protocol,
        params=dict(params),
        handoffs=metrics.handoffs.handoff_count,
        overhead_per_handoff=metrics.overhead_per_handoff(),
        mean_handoff_delay_ms=metrics.handoffs.mean_delay(),
        median_handoff_delay_ms=metrics.handoffs.median_delay(),
        published=stats.published,
        expected_deliveries=stats.expected,
        delivered=stats.delivered,
        duplicates=stats.duplicates,
        order_violations=stats.order_violations,
        lost=stats.lost_explicit + stats.early_lost,
        missing=stats.missing,
        overhead_by_category=dict(metrics.window_wired),
        sim_events=sim_events,
        wall_seconds=wall_seconds,
        crash_lost=stats.crash_lost,
        recovered=stats.recovered,
        shed=stats.shed,
        shed_by_cause=meter.shed_by_cause(),
        retransmits=meter.total_retransmits(),
        breaker_trips=meter.breaker_trips,
        wired_by_category=dict(meter.by_category()),
        delivery_log=tuple(metrics.delivery.log),
    )


def build_row(
    cfg: "ExperimentConfig", system: "PubSubSystem", wall_seconds: float = 0.0
) -> ResultRow:
    """The record of ``system``, finished running ``cfg``: the hub's half
    (:func:`summarize`), the layers' counters, and the violations of
    :func:`check_invariants`."""
    row = summarize(
        cfg.protocol,
        system.metrics,
        params={
            "k": cfg.grid_k,
            "brokers": system.broker_count,
            "conn_s": cfg.workload.mean_connected_s,
            "disc_s": cfg.workload.mean_disconnected_s,
            "duration_s": cfg.workload.duration_s,
            "seed": cfg.seed,
        },
        sim_events=system.clock.events_processed,
        wall_seconds=wall_seconds,
    )
    injector, recovery = system.fault_injector, system.recovery
    if injector is not None:
        row.injected_drops = injector.drops
        row.injected_dups = injector.dups_delivered
    if recovery is not None:
        row.repairs = recovery.repairs
        row.post_repair_publishes = recovery.post_repair_publishes
    if system.reliability is not None:
        row.stale_timer_fires = system.reliability.stale_timer_fires
    if system.durability is not None:
        row.wal_handovers = system.durability.handovers
        row.wal_checkpoints = system.durability.checkpoints
    row.model_ms = system.clock.now
    row.violations = check_invariants(cfg, row)
    return row


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------
def check_invariants(cfg: "ExperimentConfig", o: ResultRow) -> list[str]:
    """Violations of the protocol's invariant matrix (empty = conformant).

    Only ``protocol``, ``reliable``, ``durable``, ``queue_cap``, ``faults``
    and ``crashes`` (``None`` = inactive) of ``cfg`` are read.
    """
    v: list[str] = []
    reliable = cfg.protocol in RELIABLE_PROTOCOLS
    faults_active = cfg.faults is not None and cfg.faults.active
    crashes_active = cfg.crashes is not None and cfg.crashes.active
    if o.missing != 0:
        v.append(
            f"missing={o.missing}: expected deliveries neither performed "
            f"nor explicitly accounted as lost"
        )
    # No duplicate bound under reliability: the rx window decouples the
    # delivery-level count from the injector in both directions.
    # Retransmits whose ack (not the frame) was lost add duplicates the
    # injector never made, while injected copies of a buffered or
    # stale-session frame are absorbed by sequence-number reassembly
    # before they reach the delivery meter. The per-client app callback
    # dedups regardless; exactly-once is what the missing/lost rows assert.
    if not cfg.reliable and o.duplicates != o.injected_dups:
        v.append(
            f"duplicates={o.duplicates} != injected link copies "
            f"{o.injected_dups}: the protocol introduced or swallowed "
            f"duplicates of its own"
        )
    if reliable:
        if cfg.reliable:
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
    elif not cfg.reliable:
        if o.lost < o.injected_drops:
            v.append(
                f"lost={o.lost} < injected link drops {o.injected_drops}: "
                f"link losses escaped the accounting"
            )
    if not faults_active and (o.injected_drops or o.injected_dups):
        v.append("fault profile inactive but the injector fired")
    if cfg.reliable:
        if o.recovered > o.injected_drops:
            v.append(
                f"recovered={o.recovered} > injected link drops "
                f"{o.injected_drops}: recoveries without matching drops"
            )
        # every shed needs its trigger; retry exhaustion is the budget's
        # documented policy (at 20 % loss one frame in ~3 000 misses all
        # five tries)
        causes = o.shed_by_cause
        for cause, trigger, armed in (
            ("queue_cap", "queue cap", cfg.queue_cap is not None),
            ("breaker", "breaker trip", o.breaker_trips > 0),
        ):
            if causes.get(cause) and not armed:
                v.append(f"shed by {cause}={causes[cause]} with no {trigger}")
        if o.shed > sum(causes.values()):
            v.append(
                f"shed={o.shed} > sheds the traffic meter saw "
                f"{sum(causes.values())}: a write-off with no shed event"
            )
    elif cfg.queue_cap is None and (
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
        if o.repairs != len(cfg.crashes.events):
            v.append(
                f"repairs={o.repairs} != scheduled failure events "
                f"{len(cfg.crashes.events)}: a repair round was "
                f"skipped or double-fired"
            )
    elif o.crash_lost or o.repairs:
        v.append("crash plan inactive but the recovery machinery fired")
    if cfg.reliable and o.stale_timer_fires:
        v.append(
            f"stale_timer_fires={o.stale_timer_fires}: a retransmit timer "
            f"fired against a link the crash/repair machinery had already "
            f"retired (epoch bump missed)"
        )
    if cfg.durable:
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

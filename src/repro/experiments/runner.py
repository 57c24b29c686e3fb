"""End-to-end scenario runner.

A run has three phases:

1. **measurement** — the workload drives connects/disconnects/publishes for
   ``duration_s`` of simulated time; traffic and handoff metrics accumulate.
2. **snapshot** — overhead hops, handoff counts and delays are frozen
   (drain-phase traffic must not pollute the paper's per-handoff metrics).
3. **drain** — publishing and movement stop, every disconnected client
   reconnects at its last-visited broker, and the simulation runs until the
   event heap empties and the protocol reports quiescence. After the drain,
   every reliable protocol must satisfy ``expected == delivered + lost``
   exactly — the delivery checker turns the paper's reliability claims into
   hard assertions.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.drivers.base import Driver
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ResultRow, summarize
from repro.pubsub.system import PubSubSystem
from repro.workload.mobility_model import Workload

__all__ = [
    "run_experiment",
    "build_system",
    "drain_to_quiescence",
    "run_to_quiescence",
    "run_to_end",
]


def build_system(
    cfg: ExperimentConfig, driver: Optional[Driver] = None
) -> tuple[PubSubSystem, Workload]:
    """Construct the system + workload for a config (not yet run)."""
    system = cfg.make_system(driver)
    return system, Workload(system, cfg.workload)


def run_experiment(cfg: ExperimentConfig) -> ResultRow:
    """Run one scenario to completion and summarise it."""
    wall_start = time.perf_counter()
    system, workload = build_system(cfg)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()

    # ------------------------------------------------------------------
    # snapshot the paper's metrics before the drain phase
    # ------------------------------------------------------------------
    overhead_hops = system.metrics.traffic.overhead_hops()
    overhead_by_cat = dict(system.metrics.traffic.by_category())
    handoffs = system.metrics.handoffs.handoff_count
    mean_delay = system.metrics.handoffs.mean_delay()
    median_delay = system.metrics.handoffs.median_delay()
    # handoffs whose first delivery has not happened yet must not have their
    # delay filled in by drain-phase deliveries
    system.metrics.handoffs.discard_open()

    drain_to_quiescence(system, workload, cfg.drain_limit_ms)

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
        sim_events=system.sim.events_processed,
        wall_seconds=time.perf_counter() - wall_start,
    )
    row.handoffs = handoffs
    row.overhead_per_handoff = (
        overhead_hops / handoffs if handoffs else None
    )
    row.mean_handoff_delay_ms = mean_delay
    row.median_handoff_delay_ms = median_delay
    row.overhead_by_category = overhead_by_cat
    return row


def drain_to_quiescence(
    system: PubSubSystem,
    workload: Workload,
    drain_limit_ms: Optional[float] = None,
) -> None:
    """Reconnect everyone and run until the system is empty and quiescent.

    Reads only ``system.clock`` (``run(until)``, ``peek()``, ``now``), so
    it drains a ``Simulator`` and a ``VirtualClock`` alike.
    """
    clock = system.clock
    deadline = (
        clock.now + drain_limit_ms if drain_limit_ms is not None else None
    )
    workload.reconnect_all()
    # The drain may need several rounds: reconnects trigger handoff
    # machinery whose completion schedules more events.
    for _round in range(10_000):
        clock.run(until=deadline)
        if clock.peek() is None:
            if system.protocol.quiescent():
                system.metrics.delivery.finalize_accounting()
                return
            raise SimulationError(
                "drain deadlock: event heap empty but protocol not quiescent"
            )
        if deadline is not None and clock.now >= deadline:
            raise SimulationError(
                f"drain did not finish within {drain_limit_ms} ms"
            )
    raise SimulationError("drain did not converge")  # pragma: no cover


def run_to_quiescence(
    system: PubSubSystem, workload: Workload, duration_ms: float
) -> None:
    """Every run phase on a clock that runs itself: measurement window,
    stop, then :func:`drain_to_quiescence`."""
    system.clock.run(until=duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)


def run_to_end(
    cfg: ExperimentConfig, driver: Optional[Driver] = None
) -> PubSubSystem:
    """Build ``cfg`` on ``driver`` (None = the simulator), record its
    delivery log and run it to quiescence; the finished system is closed
    however the run ended (a scratch WAL goes, an explicit ``wal_dir``
    belongs to the caller and is kept)."""
    system, workload = build_system(cfg, driver)
    system.metrics.delivery.record_log = True
    try:
        run_to_quiescence(system, workload, cfg.workload.duration_ms)
    finally:
        system.close()
    return system

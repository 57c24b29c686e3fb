"""End-to-end scenario runner: one run loop, one record.

Every run goes through :func:`run_to_quiescence`:

1. **measurement** — the workload drives connects/disconnects/publishes
   for ``duration_s`` of model time.
2. **stop** — :meth:`Workload.stop` ends the window: behaviour freezes, and
   so do the wired hops by category and the open handoffs (drain-phase
   traffic must not pollute the paper's per-handoff metrics).
3. **drain** — every disconnected client reconnects at its last-visited
   broker, and the clock runs until it is empty and the protocol reports
   quiescence.

:func:`run_experiment` then returns the run's one record,
:func:`repro.metrics.summary.build_row`, audited by ``check_invariants``:
every reliable protocol must satisfy ``expected == delivered + lost``
exactly, for a figure point as for a fuzzer scenario.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.drivers.base import Driver
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ResultRow, build_row
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
    """Run one config to the end on the simulator, no delivery log
    recorded; its audited record."""
    wall_start = time.perf_counter()
    system = run_to_end(cfg, record_log=False)
    return build_row(cfg, system, time.perf_counter() - wall_start)


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
    system: PubSubSystem,
    workload: Workload,
    duration_ms: float,
    drain_limit_ms: Optional[float] = None,
) -> None:
    """Every run phase on a clock that runs itself: measurement window,
    stop, then :func:`drain_to_quiescence`."""
    system.clock.run(until=duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload, drain_limit_ms)


def run_to_end(
    cfg: ExperimentConfig,
    driver: Optional[Driver] = None,
    *,
    record_log: bool = True,
) -> PubSubSystem:
    """Build ``cfg`` on ``driver`` (None = the simulator), record its
    delivery log unless ``record_log`` is off, and run it to quiescence;
    the finished system is closed however the run ended (a scratch WAL
    goes, an explicit ``wal_dir`` belongs to the caller and is kept)."""
    system, workload = build_system(cfg, driver)
    system.metrics.delivery.record_log = record_log
    try:
        run_to_quiescence(
            system, workload, cfg.workload.duration_ms, cfg.drain_limit_ms
        )
    finally:
        system.close()
    return system

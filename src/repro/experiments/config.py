"""Experiment configuration and scale presets.

``paper`` scale matches Section 5.1 exactly (k=10 / size sweep, 10 clients
per broker, 20 % mobile, exponential 5-minute periods, one event per client
per 5 minutes, 6.25 % matching). ``small`` and ``smoke`` shrink the grid,
population and measurement window proportionally so tests and default
benchmark runs finish quickly while preserving every ratio that shapes the
curves (mobility timescales vs link latencies, match fraction, backlog per
disconnection).

Select the benchmark scale with the ``MHH_BENCH_SCALE`` environment
variable (``smoke`` | ``small`` | ``paper``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.drivers.base import Driver
from repro.errors import ConfigurationError
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec

__all__ = ["ExperimentConfig", "RUNNER_ONLY", "SCALES", "bench_scale"]


#: fields a runner reads itself (population and processes, drain deadline);
#: every other field is the ``PubSubSystem`` keyword of the same name
RUNNER_ONLY = frozenset({"workload", "drain_limit_ms"})


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation run: a protocol on a grid under a workload."""

    protocol: str
    grid_k: int = 10
    seed: int = 1
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    migration_batch_size: int = 10
    #: override covering (None = protocol default)
    covering_enabled: Optional[bool] = None
    #: hard wall on the drain phase in simulated ms (None = unbounded)
    drain_limit_ms: Optional[float] = None
    #: scheduler implementation: 'lanes' (default) or 'heap' (legacy,
    #: kept for differential testing — see repro.sim.core)
    sim_engine: str = "lanes"
    #: indexed covering control plane (default) vs the legacy scan-based
    #: covering checks (kept for differential testing — see
    #: repro.pubsub.filter_table)
    covering_index: bool = True
    #: batched event fan-out: drain same-instant wired EventMessage
    #: arrivals at a broker as one FilterTable.match_batch pass.
    #: Trace-identical to per-event routing (fuzzer-gated); default off so
    #: seed digests are untouched
    event_batching: bool = False
    #: wireless fault profile (None = perfect links; see
    #: repro.network.faults)
    faults: Optional[FaultProfile] = None
    #: broker crash/restart/partition schedule (None = crash-free; see
    #: repro.network.recovery)
    crashes: Optional[CrashPlan] = None
    #: end-to-end reliable downlink delivery (ACK/retransmit with backoff
    #: + per-link circuit breakers; see repro.pubsub.reliability).
    #: Default off = the paper's best-effort downlink, byte-identical.
    reliable: bool = False
    #: retransmission attempts per frame before the window is written off
    retry_budget: int = 8
    #: downlink bulkhead: max queued messages per client before the shed
    #: policy runs (None = unbounded, the paper's model)
    queue_cap: Optional[int] = None
    #: durable broker state: per-broker write-ahead log + persistent
    #: client sessions with repair-round handover (see repro.pubsub.wal).
    #: Default off = volatile brokers, byte-identical to the seed.
    durable: bool = False
    #: directory for file-backed WAL segments (None = the driver's
    #: default store: in-memory under simulation, a scratch dir live)
    wal_dir: Optional[str] = None

    def make_system(self, driver: Optional[Driver] = None) -> PubSubSystem:
        """The one ``ExperimentConfig`` -> ``PubSubSystem`` mapping: every
        driver builds its system here, so no field can reach one driver
        and be dropped by another."""
        return PubSubSystem(
            **{
                f.name: getattr(self, f.name)
                for f in fields(self)
                if f.name not in RUNNER_ONLY
            },
            driver=driver,
        )

    def with_workload(self, **changes: Any) -> "ExperimentConfig":
        return replace(self, workload=replace(self.workload, **changes))

    def label(self) -> str:
        fault_tag = (
            f" {self.faults.label()}"
            if self.faults is not None and self.faults.active
            else ""
        )
        crash_tag = (
            f" [{self.crashes.label()}]"
            if self.crashes is not None and self.crashes.active
            else ""
        )
        rel_tag = ""
        if self.reliable:
            rel_tag = f" rel(budget={self.retry_budget})"
        if self.queue_cap is not None:
            rel_tag += f" cap={self.queue_cap}"
        if self.durable:
            rel_tag += " dur"
        return (
            f"{self.protocol} k={self.grid_k} "
            f"conn={self.workload.mean_connected_s:g}s "
            f"disc={self.workload.mean_disconnected_s:g}s "
            f"T={self.workload.duration_s:g}s seed={self.seed}"
            f"{fault_tag}{crash_tag}{rel_tag}"
        )


#: named presets shrinking the paper's setup for fast runs
SCALES: dict[str, dict[str, Any]] = {
    # full Section 5.1 parameters
    "paper": {"grid_k": 10, "clients_per_broker": 10, "duration_s": 2400.0},
    # ~4x smaller population, same time constants
    "small": {"grid_k": 7, "clients_per_broker": 5, "duration_s": 1200.0},
    # minutes of simulated time, tiny grid: CI-speed
    "smoke": {"grid_k": 4, "clients_per_broker": 4, "duration_s": 600.0},
}


def bench_scale(default: str = "smoke") -> str:
    """Benchmark scale from ``MHH_BENCH_SCALE`` (validated)."""
    scale = os.environ.get("MHH_BENCH_SCALE", default)
    if scale not in SCALES:
        raise ConfigurationError(
            f"MHH_BENCH_SCALE must be one of {sorted(SCALES)}, got {scale!r}"
        )
    return scale

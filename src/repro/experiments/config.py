"""Experiment configuration and scale presets.

``paper`` scale matches Section 5.1 exactly (k=10 / size sweep, 10 clients
per broker, 20 % mobile, exponential 5-minute periods, one event per client
per 5 minutes, 6.25 % matching). ``small`` and ``smoke`` shrink the grid,
population and measurement window proportionally so tests and quick figure
runs finish fast while preserving every ratio that shapes the curves
(mobility timescales vs link latencies, match fraction, backlog per
disconnection).

:class:`ExperimentConfig` *is* a :class:`~repro.pubsub.system.SystemOptions`
(the one declaration of every system option, defaults and validation
included) plus what a runner needs on top: the workload and the drain
deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.drivers.base import Driver
from repro.pubsub.system import PubSubSystem, SystemOptions
from repro.workload.spec import WorkloadSpec

__all__ = ["ExperimentConfig", "SCALES"]


@dataclass(frozen=True)
class ExperimentConfig(SystemOptions):
    """One run: a system (every inherited field, protocol first) under a
    workload. Only the two fields below are the runner's own."""

    #: population and the processes that drive it
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: hard wall on the drain phase in simulated ms (None = unbounded)
    drain_limit_ms: Optional[float] = None

    def make_system(self, driver: Optional[Driver] = None) -> PubSubSystem:
        """Every driver builds its system here, from the whole value."""
        return PubSubSystem(self, driver)

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
        rel_tag = f" rel(budget={self.retry_budget})" if self.reliable else ""
        if self.queue_cap is not None:
            rel_tag += f" cap={self.queue_cap}"
        rel_tag += " dur" if self.durable else ""
        return (
            f"{self.protocol} k={self.grid_k} "
            f"cpb={self.workload.clients_per_broker} "
            f"mob={self.workload.mobility_model} "
            f"skew={self.workload.topic_skew:g} "
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

"""Workload parameter record.

All durations are in **seconds** (the paper quotes seconds/minutes); the
simulation itself runs in milliseconds — conversion happens at the edge, in
:mod:`repro.workload.mobility_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["WorkloadSpec"]

SECONDS = 1000.0  # ms per second


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the paper's workload (§5.1 defaults).

    The defaults reproduce the paper exactly; ``mobility_model`` /
    ``mobility_params`` and ``topic_skew`` swap in adversarial movement
    and topic-popularity models from
    :mod:`repro.workload.models` (the defaults are draw-for-draw the
    paper's uniform models).
    """

    clients_per_broker: int = 10
    mobile_fraction: float = 0.2
    mean_connected_s: float = 300.0
    mean_disconnected_s: float = 300.0
    publish_interval_s: float = 300.0
    match_fraction: float = 0.0625
    duration_s: float = 1800.0
    #: delay before mobility begins, letting initial subscriptions settle
    warmup_s: float = 2.0
    #: registered mobility model choosing reconnect destinations
    mobility_model: str = "uniform"
    #: constructor kwargs for the mobility model (e.g. hotspot exponent)
    mobility_params: Mapping[str, Any] = field(default_factory=dict)
    #: Zipf exponent for topic popularity (0 = the paper's uniform topics)
    topic_skew: float = 0.0

    def __post_init__(self) -> None:
        check_positive("clients_per_broker", self.clients_per_broker)
        check_probability("mobile_fraction", self.mobile_fraction)
        check_positive("mean_connected_s", self.mean_connected_s)
        check_positive("mean_disconnected_s", self.mean_disconnected_s)
        check_positive("publish_interval_s", self.publish_interval_s)
        check_in_range("match_fraction", self.match_fraction, 0.0, 0.5)
        check_positive("duration_s", self.duration_s)
        check_non_negative("warmup_s", self.warmup_s)
        check_non_negative("topic_skew", self.topic_skew)
        from repro.workload.models import MOBILITY_MODELS

        if self.mobility_model not in MOBILITY_MODELS:
            raise ConfigurationError(
                f"unknown mobility model {self.mobility_model!r}; "
                f"registered: {sorted(MOBILITY_MODELS)}"
            )

    @property
    def duration_ms(self) -> float:
        return self.duration_s * SECONDS

    @property
    def warmup_ms(self) -> float:
        return self.warmup_s * SECONDS

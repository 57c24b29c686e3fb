"""Metrics: traffic accounting, delivery checking, handoff bookkeeping.

The two paper metrics (Section 5.1):

* **message overhead per handoff** — wired hops of mobility-caused traffic
  divided by the number of handoffs (:mod:`repro.metrics.traffic` +
  :mod:`repro.metrics.handoff`);
* **average handoff delay** — reconnection to first delivered event
  (:mod:`repro.metrics.handoff`).

Additionally the delivery checker (:mod:`repro.metrics.delivery`) audits the
paper's reliability claims: exactly-once and per-publisher-ordered delivery
for MHH and sub-unsub, quantified loss for home-broker.
"""

from repro.metrics.traffic import TrafficMeter
from repro.metrics.delivery import DeliveryChecker, DeliveryStats
from repro.metrics.handoff import HandoffLog
from repro.metrics.hub import MetricsHub
from repro.metrics.summary import ResultRow, summarize

__all__ = [
    "TrafficMeter",
    "DeliveryChecker",
    "DeliveryStats",
    "HandoffLog",
    "MetricsHub",
    "ResultRow",
    "summarize",
]

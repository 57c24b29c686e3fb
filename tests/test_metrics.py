"""Unit tests for the metrics layer."""

from repro.metrics.delivery import DeliveryChecker
from repro.metrics.handoff import HandoffLog
from repro.metrics.summary import ResultRow, summarize
from repro.metrics.hub import MetricsHub
from repro.metrics.traffic import TrafficMeter
from repro.pubsub.events import Notification
from repro.pubsub import messages as m


def ev(i, publisher=0, seq=None, topic=0.5, t=0.0):
    return Notification(i, publisher, seq if seq is not None else i, t, topic)


# ---------------------------------------------------------------------------
# TrafficMeter
# ---------------------------------------------------------------------------
class TestTrafficMeter:
    def test_wired_hops_accumulate_per_category(self):
        tm = TrafficMeter()
        tm.account("event", 3)
        tm.account("event", 2)
        tm.account("mobility_ctrl", 5)
        assert tm.wired_hops["event"] == 5
        assert tm.by_category() == {"event": 5, "mobility_ctrl": 5}

    def test_overhead_selects_mobility_categories(self):
        tm = TrafficMeter()
        tm.account(m.CAT_EVENT, 100)
        tm.account(m.CAT_SUB_INITIAL, 50)
        tm.account(m.CAT_MOBILITY_CTRL, 7)
        tm.account(m.CAT_MIGRATION, 9)
        tm.account(m.CAT_HB_FORWARD, 4)
        tm.account(m.CAT_SUB_HANDOFF, 2)
        assert tm.overhead_hops() == 7 + 9 + 4 + 2


# ---------------------------------------------------------------------------
# DeliveryChecker
# ---------------------------------------------------------------------------
class TestDeliveryChecker:
    def make(self):
        dc = DeliveryChecker()
        dc.register_subscription(1, 0.0, 0.5)
        dc.register_subscription(2, 0.4, 0.9)
        return dc

    def test_expected_counts_matching_clients(self):
        dc = self.make()
        dc.on_publish(ev(0, topic=0.45))  # matches both
        dc.on_publish(ev(1, topic=0.1))   # matches 1
        dc.on_publish(ev(2, topic=0.95))  # matches none
        assert dc.stats.expected == 3
        assert dc.expected_per_client == {1: 2, 2: 1}

    def test_delivery_balances(self):
        dc = self.make()
        e = ev(0, topic=0.45)
        dc.on_publish(e)
        dc.on_delivery(1, e, 10.0)
        dc.on_delivery(2, e, 11.0)
        assert dc.stats.missing == 0

    def test_duplicate_detected(self):
        dc = self.make()
        e = ev(0, topic=0.2)
        dc.on_publish(e)
        dc.on_delivery(1, e, 10.0)
        dc.on_delivery(1, e, 11.0)
        assert dc.stats.duplicates == 1
        assert dc.stats.missing == 0

    def test_order_violation_detected_per_publisher(self):
        dc = self.make()
        e1 = ev(0, publisher=7, seq=0, topic=0.2)
        e2 = ev(1, publisher=7, seq=1, topic=0.2)
        dc.on_publish(e1)
        dc.on_publish(e2)
        dc.on_delivery(1, e2, 10.0)
        dc.on_delivery(1, e1, 11.0)  # older after newer
        assert dc.stats.order_violations == 1

    def test_order_across_publishers_unconstrained(self):
        dc = self.make()
        a = ev(0, publisher=7, seq=5, topic=0.2)
        b = ev(1, publisher=8, seq=0, topic=0.2)
        dc.on_publish(a)
        dc.on_publish(b)
        dc.on_delivery(1, a, 10.0)
        dc.on_delivery(1, b, 11.0)
        assert dc.stats.order_violations == 0

    def test_explicit_loss(self):
        dc = self.make()
        e = ev(0, topic=0.2)
        dc.on_publish(e)
        dc.on_loss(1, e)
        dc.finalize_accounting()
        assert dc.stats.lost_explicit == 1
        assert dc.stats.missing == 0

    def test_matching_clients_vectorised(self):
        dc = self.make()
        # a list of the matching ranges' clients, in registration order
        assert dc.matching_clients(0.45) == [1, 2]
        assert dc.matching_clients(0.95) == []

    def test_per_client_missing_diagnostics(self):
        dc = self.make()
        e = ev(0, topic=0.2)
        dc.on_publish(e)
        assert dc.per_client_missing() == {1: 1}

    def test_per_client_missing_not_masked_by_a_duplicate(self):
        dc = self.make()
        a, b = ev(0, topic=0.2), ev(1, topic=0.2)
        dc.on_publish(a)
        dc.on_publish(b)
        dc.on_delivery(1, a, 10.0)
        dc.on_delivery(1, a, 11.0)  # a twice, b never
        assert dc.stats.missing == 1
        assert dc.per_client_missing() == {1: 1}
        dc.on_loss(1, b)  # an accounted loss is not missing
        dc.finalize_accounting()
        assert dc.stats.missing == 0
        assert dc.per_client_missing() == {}


# ---------------------------------------------------------------------------
# HandoffLog
# ---------------------------------------------------------------------------
class TestHandoffLog:
    def test_first_attach_is_not_a_handoff(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, None, 3)
        assert log.handoff_count == 0

    def test_same_broker_reconnect_counted_separately(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 3)
        assert log.handoff_count == 0
        # and no delay sample either: the reconnect opened no handoff
        log.on_delivery(1, 20.0)
        assert log.delays() == []

    def test_delay_measures_first_delivery_only(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.on_delivery(1, 150.0)
        log.on_delivery(1, 200.0)
        assert log.delays() == [140.0]
        assert log.mean_delay() == 140.0

    def test_disconnect_before_delivery_discards_open_record(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.on_disconnect(1, 50.0)
        log.on_delivery(1, 150.0)
        assert log.delays() == []
        assert log.handoff_count == 1  # the handoff still happened

    def test_mean_delay_none_when_no_samples(self):
        assert HandoffLog().mean_delay() is None


# ---------------------------------------------------------------------------
# hub + summary
# ---------------------------------------------------------------------------
def test_hub_wires_delivery_and_handoffs():
    hub = MetricsHub()
    hub.delivery.register_subscription(1, 0.0, 1.0)
    hub.on_client_connect(1, 0.0, None, 0)
    hub.on_client_connect(1, 100.0, 0, 3)  # a handoff
    e = ev(0, topic=0.5)
    hub.on_publish(e)
    hub.on_delivery(1, e, 180.0)
    assert hub.handoffs.handoff_count == 1
    assert hub.handoffs.mean_delay() == 80.0
    hub.account(m.CAT_MIGRATION, 10)
    assert hub.overhead_per_handoff() == 10.0


def test_overhead_per_handoff_none_without_handoffs():
    hub = MetricsHub()
    hub.account(m.CAT_MIGRATION, 10)
    assert hub.overhead_per_handoff() is None


def test_summarize_builds_row():
    hub = MetricsHub()
    hub.delivery.register_subscription(1, 0.0, 1.0)
    e = ev(0, topic=0.5)
    hub.on_publish(e)
    hub.on_delivery(1, e, 5.0)
    row = summarize("mhh", hub, {"k": 3}, sim_events=42, wall_seconds=0.1)
    assert isinstance(row, ResultRow)
    assert row.protocol == "mhh"
    assert row.delivered == 1
    assert row.params["k"] == 3
    d = row.as_dict()
    assert d["protocol"] == "mhh"
    assert d["missing"] == 0


class TestHandoffLogDiscardOpen:
    def test_discard_reports_count_and_keeps_records(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.on_connect(2, 20.0, 5, 6)
        assert log.discard_open() == 2
        assert log.handoff_count == 2  # the handoffs still happened...
        assert log.delays() == []      # ...but contribute no delay samples

    def test_delivery_after_discard_cannot_fill_in_delay(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.discard_open()
        log.on_delivery(1, 500.0)  # drain-phase delivery
        assert log.delays() == []
        assert log.handoff_count == 1  # still counted, with no delay

    def test_discard_is_idempotent_and_safe_when_empty(self):
        log = HandoffLog()
        assert log.discard_open() == 0
        log.on_connect(1, 10.0, 3, 4)
        assert log.discard_open() == 1
        assert log.discard_open() == 0

    def test_closed_records_survive_discard(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.on_delivery(1, 60.0)   # closes the record (delay = 50)
        log.on_connect(2, 20.0, 5, 6)
        assert log.discard_open() == 1  # only client 2's was still open
        assert log.delays() == [50.0]

    def test_same_broker_reconnect_closes_an_open_record(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)      # handoff, open
        log.on_disconnect(1, 30.0)
        log.on_connect(1, 40.0, 4, 4)      # same-broker reconnect
        assert log.discard_open() == 0     # nothing left open
        log.on_delivery(1, 90.0)
        assert log.delays() == []          # and nothing can be filled in

    def test_new_handoff_after_discard_measures_normally(self):
        log = HandoffLog()
        log.on_connect(1, 10.0, 3, 4)
        log.discard_open()
        log.on_connect(1, 100.0, 4, 5)
        log.on_delivery(1, 130.0)
        assert log.delays() == [30.0]
        assert log.median_delay() == 30.0

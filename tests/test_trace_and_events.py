"""Unit tests for the tracer and the notification model."""

import pytest

from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.trace import Tracer, TraceRecord


class TestTracer:
    def test_disabled_by_default(self):
        t = Tracer(lambda: 1.0)
        t.emit("anything", x=1)
        assert t.records == []
        assert not t.wants("anything")

    def test_category_filtering(self):
        t = Tracer(lambda: 2.0, enabled=["a"])
        t.emit("a", v=1)
        t.emit("b", v=2)
        assert len(t.records) == 1
        assert t.wants("a") and not t.wants("b")

    def test_wildcard_records_all(self):
        t = Tracer(lambda: 3.0, enabled="*")
        t.emit("x")
        t.emit("y")
        assert len(t.records) == 2

    def test_record_fields_and_time(self):
        now = [0.0]
        t = Tracer(lambda: now[0], enabled="*")
        now[0] = 42.0
        t.emit("evt", broker=3, client=7)
        rec = t.records[0]
        assert rec.time == 42.0
        assert rec.get("broker") == 3
        assert rec.get("missing", "dflt") == "dflt"
        assert rec.as_dict() == {"broker": 3, "client": 7}

    def test_select_and_format(self):
        t = Tracer(lambda: 1.0, enabled="*")
        t.emit("a", x=1)
        t.emit("b", y=2)
        t.emit("a", x=3)
        assert [r.get("x") for r in t.select("a")] == [1, 3]
        text = t.format()
        assert "a" in text and "y=2" in text
        assert len(t.format(limit=1).splitlines()) == 1

    def test_clear(self):
        t = Tracer(lambda: 1.0, enabled="*")
        t.emit("a")
        t.clear()
        assert t.records == []


class TestNotification:
    def test_an_event_is_five_fields(self):
        """Publisher, order and one routing attribute: no attribute map."""
        e = Notification(1, 7, 3, 100.0, 0.25)
        assert Notification.__slots__ == (
            "event_id", "publisher", "seq", "publish_time", "topic")
        assert (e.event_id, e.publisher, e.seq, e.publish_time, e.topic) \
            == (1, 7, 3, 100.0, 0.25)
        with pytest.raises(TypeError):
            Notification(1, 7, 3, 100.0, 0.25, {"kind": "alert"})

    def test_order_key_sorts_by_publish_time(self):
        a = Notification(1, 7, 0, 100.0, 0.1)
        b = Notification(2, 7, 1, 200.0, 0.1)
        c = Notification(3, 8, 0, 150.0, 0.1)
        assert sorted([b, c, a], key=lambda e: e.order_key()) == [a, c, b]

    def test_equality_and_hash_by_event_id(self):
        a = Notification(5, 7, 0, 100.0, 0.1)
        b = Notification(5, 8, 9, 999.0, 0.9)
        assert a == b
        assert len({a, b}) == 1


class TestTracingOffCostsNothing:
    """The per-publish and per-handoff sites ask ``wants`` before they build
    a record's fields, so a run with tracing off never enters ``emit``."""

    @staticmethod
    def handoff_run(protocol, trace, monkeypatch):
        entered = []
        real_emit = Tracer.emit

        def emit(tracer, category, **fields):
            entered.append(category)
            real_emit(tracer, category, **fields)

        monkeypatch.setattr(Tracer, "emit", emit)
        system = PubSubSystem(grid_k=3, protocol=protocol, seed=3, trace=trace)
        sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
        pub = system.add_client(RangeFilter(0.9, 0.9), broker=8)
        sub.connect(0)
        pub.connect(8)
        system.run(until=2000.0)
        sub.disconnect()
        for _ in range(3):
            pub.publish(0.25)
        system.run(until=4000.0)
        sub.connect(4)
        system.sim.run()
        assert system.metrics.delivery.stats.delivered == 3
        assert system.metrics.handoffs.handoff_count == 1
        return system, entered

    @pytest.mark.parametrize(
        "protocol", ["mhh", "sub-unsub", "home-broker"])
    def test_no_emit_and_no_record_with_trace_none(self, protocol, monkeypatch):
        system, entered = self.handoff_run(protocol, None, monkeypatch)
        assert entered == []
        assert system.tracer.records == []

    def test_the_guards_let_an_enabled_category_through(self, monkeypatch):
        system, entered = self.handoff_run(
            "mhh", ["publish", "handoff_request"], monkeypatch)
        assert sorted(set(entered)) == ["handoff_request", "publish"]
        assert [r.category for r in system.tracer.records] == (
            ["publish"] * 3 + ["handoff_request"])


class TestTracerEdgeCases:
    def test_wants_is_true_for_everything_under_wildcard(self):
        t = Tracer(lambda: 0.0, enabled="*")
        assert t.wants("anything") and t.wants("")

    def test_empty_enabled_iterable_records_nothing(self):
        t = Tracer(lambda: 0.0, enabled=())
        t.emit("a", x=1)
        assert t.records == []
        assert not t.wants("a")

    def test_select_unknown_category_is_empty(self):
        t = Tracer(lambda: 0.0, enabled="*")
        t.emit("a")
        assert t.select("zzz") == []

    def test_format_limit_zero_and_empty(self):
        t = Tracer(lambda: 0.0, enabled="*")
        assert t.format() == ""
        t.emit("a", x=1)
        t.emit("b", y=2)
        assert t.format(limit=0) == ""
        assert len(t.format(limit=5).splitlines()) == 2

    def test_clear_resets_but_keeps_category_filter(self):
        t = Tracer(lambda: 0.0, enabled=["a"])
        t.emit("a")
        t.clear()
        assert t.records == []
        t.emit("a")
        t.emit("b")
        assert len(t.records) == 1 and t.wants("a") and not t.wants("b")

    def test_records_carry_emission_time_order(self):
        now = [0.0]
        t = Tracer(lambda: now[0], enabled="*")
        for i in range(3):
            now[0] = 10.0 * i
            t.emit("tick", i=i)
        assert [r.time for r in t.records] == [0.0, 10.0, 20.0]

    def test_record_get_returns_first_match(self):
        rec = TraceRecord(1.0, "c", (("k", 1), ("k", 2)))
        assert rec.get("k") == 1

"""The event-id bitmaps: the client's seen store and sub-unsub's
``delivered_ids``.

Both remember which events a subscriber already received, as one
``bytearray`` indexed by event id (``repro.util.ids``). The test-and-set is
written out on the two delivery hops (``Client._deliver_event``,
``SubUnsubProtocol._deliver``); the lookup, the clear and the snapshot OR
are the shared helpers. A differential against a plain ``set`` drives all of
them on one store each, a run with duplicated and late copies checks the
application sees each event once, and a structural bound checks that the
stores stay at one bit per event id, not an object per entry.
"""

from __future__ import annotations

import math
import sys

from hypothesis import example, given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.network.faults import FaultProfile
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.util.ids import discard_id, has_id, merge_ids
from repro.workload.spec import WorkloadSpec

#: ids reach well past the end of a store that starts empty
ids = st.integers(min_value=0, max_value=5000)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), ids),
        st.tuples(st.just("test"), ids),
        st.tuples(st.just("clear"), ids),
        st.tuples(st.just("or"), st.frozensets(ids, max_size=6)),
    ),
    max_size=40,
)


class _Broker:
    """What ``SubUnsubProtocol._deliver`` hands an event to."""

    def __init__(self) -> None:
        self.handed: list[int] = []

    def deliver_to_client(self, client: int, event: Notification) -> None:
        self.handed.append(event.event_id)


def _as_int(ref: set[int]) -> int:
    return sum(1 << eid for eid in ref)


@settings(max_examples=150, deadline=None)
@given(ops)
@example([("set", 5000), ("test", 4999), ("clear", 5000), ("set", 5000)])
@example([("or", frozenset({4095})), ("set", 0), ("test", 4095)])
def test_bitmaps_agree_with_a_set(sequence):
    system = PubSubSystem(grid_k=2, protocol="sub-unsub", seed=1)
    client = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    fired: list[int] = []
    client.on_event = lambda event: fired.append(event.event_id)
    protocol = system.protocol
    root = protocol._new_root(system.brokers[0], client.id)
    sink = _Broker()
    ref: set[int] = set()
    reach = 0  # bytes a store must span: set and ORed ids only grow it
    for op, arg in sequence:
        if op == "set":
            event = Notification(arg, 0, arg, 0.0, 0.5)
            client._deliver_event(event)
            protocol._deliver(sink, root, client.id, event)
            # handed on the first copy only
            assert fired == sink.handed == ([] if arg in ref else [arg])
            fired.clear()
            sink.handed.clear()
            ref.add(arg)
            reach = max(reach, (arg >> 3) + 1)
        elif op == "test":
            lengths = len(client._seen_events), len(root.delivered_ids)
            event = Notification(arg, 0, arg, 0.0, 0.5)
            assert client.has_seen(event) is (arg in ref)
            assert has_id(root.delivered_ids, arg) is (arg in ref)
            assert (len(client._seen_events), len(root.delivered_ids)) == lengths
        elif op == "clear":
            discard_id(client._seen_events, arg)
            discard_id(root.delivered_ids, arg)
            ref.discard(arg)
        else:
            merge_ids(client._seen_events, _as_int(set(arg)))
            merge_ids(root.delivered_ids, _as_int(set(arg)))
            ref |= arg
            reach = max([reach] + [(eid >> 3) + 1 for eid in arg])
        for store in (client._seen_events, root.delivered_ids):
            assert int.from_bytes(store, "little") == _as_int(ref)
            assert len(store) == reach


def test_has_seen_past_the_end_is_false_and_grows_nothing():
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=1)
    client = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    client._deliver_event(Notification(3, 0, 0, 0.0, 0.5))
    assert bytes(client._seen_events) == bytes([1 << 3])
    for eid in (2, 4, 7, 8, 10_000):  # never delivered; the last two past the end
        assert not client.has_seen(Notification(eid, 0, eid, 0.0, 0.5))
    assert bytes(client._seen_events) == bytes([1 << 3])
    assert client.has_seen(Notification(3, 0, 0, 0.0, 0.5))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def _config(protocol: str, duration_s: float, **options) -> ExperimentConfig:
    """The fanout shape at tier-1 size: k=3, 36 clients publishing every
    1 s (the CI flat-RSS ``steady`` shape, shortened)."""
    return ExperimentConfig(
        protocol=protocol, grid_k=3, seed=5, **options,
        workload=WorkloadSpec(
            clients_per_broker=4, mobile_fraction=0.2, mean_connected_s=10.0,
            mean_disconnected_s=5.0, publish_interval_s=1.0,
            duration_s=duration_s,
        ),
    )


def _run(cfg: ExperimentConfig, before_run=None):
    system, workload = build_system(cfg)
    if before_run is not None:
        before_run(system)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    return system


def test_the_application_sees_each_event_once_among_duplicated_and_late_copies():
    """Home-broker promises no order; fault duplicates, wireless jitter and
    retransmits bring extra and late copies. The ledger counts every copy,
    the application callback fires once per ``(publisher, seq)``."""
    cfg = _config(
        "home-broker", 40.0, reliable=True,
        faults=FaultProfile(deliver_loss=0.05, deliver_duplicate=0.1,
                            wireless_jitter_ms=30.0),
    )
    seen: dict[int, dict[tuple[int, int], int]] = {}

    def count_app_events(system):
        for cid, client in system.clients.items():
            counts = seen.setdefault(cid, {})

            def on_event(event, counts=counts):
                key = (event.publisher, event.seq)
                counts[key] = counts.get(key, 0) + 1

            client.on_event = on_event

    system = _run(cfg, count_app_events)
    stats = system.metrics.delivery.stats
    assert stats.duplicates > 100 and stats.missing == 0
    assert all(n == 1 for counts in seen.values() for n in counts.values())
    assert sum(map(len, seen.values())) == stats.delivered - stats.duplicates


#: bytes a store may hold beyond one bit per allocated event id: the
#: bytearray header and its growth over-allocation at this size
SLACK_BYTES = 128


def _bound(system) -> int:
    # every publish allocates one event id, counting from 0
    return math.ceil(system.metrics.delivery.stats.published / 8) + SLACK_BYTES


def test_seen_stores_hold_one_bit_per_event_id():
    system = _run(_config("mhh", 30.0))
    bound = _bound(system)
    assert bound > 100 + SLACK_BYTES  # more than 800 events published
    sizes = [sys.getsizeof(c._seen_events) for c in system.clients.values()]
    assert max(sizes) <= bound, (max(sizes), bound)


def test_sub_unsub_roots_hold_one_bit_per_event_id():
    system = _run(_config("sub-unsub", 30.0))
    bound = _bound(system)
    roots = [st for b in system.brokers.values() for st in b.pstate.values()]
    assert len(roots) >= len(system.clients)
    sizes = [sys.getsizeof(root.delivered_ids) for root in roots]
    assert max(sizes) <= bound, (max(sizes), bound)

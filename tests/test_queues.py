"""Unit tests for persistent queues."""

import pytest

from repro.mobility.queues import PersistentQueue
from repro.pubsub.events import Notification
from repro.util.ids import QueueRef


def ev(i):
    return Notification(i, 0, i, 0.0, 0.5)


@pytest.fixture
def q():
    return PersistentQueue(QueueRef(3, 7), client=42)


def test_fifo_order(q):
    for i in range(5):
        q.append(ev(i))
    assert [e.event_id for e in q.drain()] == [0, 1, 2, 3, 4]
    assert len(q) == 0


def test_pop_batch(q):
    for i in range(5):
        q.append(ev(i))
    q.freeze()  # a streaming queue is frozen; popping is still allowed
    assert [e.event_id for e in q.pop_batch(2)] == [0, 1]
    assert [e.event_id for e in q.pop_batch(10)] == [2, 3, 4]
    assert q.pop_batch(3) == [] and len(q) == 0


def test_extend_front_preserves_order(q):
    q.append(ev(10))
    q.extend_front([ev(1), ev(2), ev(3)])
    assert [e.event_id for e in q] == [1, 2, 3, 10]


def test_frozen_queue_rejects_append(q):
    q.append(ev(1))
    q.freeze()
    with pytest.raises(RuntimeError):
        q.append(ev(2))
    # drain still allowed
    assert [e.event_id for e in q.drain()] == [1]


def test_frozen_queue_rejects_extend_front(q):
    """A frozen (migrating) queue must refuse requeues at the head just
    like appends at the tail — a reclaimed downlink window that raced a
    migration would otherwise be silently dropped by the handover."""
    q.append(ev(1))
    q.freeze()
    with pytest.raises(RuntimeError):
        q.extend_front([ev(2)])
    assert [e.event_id for e in q.drain()] == [1]


def test_bool_and_len(q):
    assert not q
    q.append(ev(1))
    assert q
    assert len(q) == 1


def test_ref_identity(q):
    assert q.ref == QueueRef(3, 7)
    assert q.ref.broker == 3 and q.ref.qid == 7
    assert q.client == 42


def test_queue_ref_hashable_and_distinct():
    assert QueueRef(1, 2) == QueueRef(1, 2)
    assert QueueRef(1, 2) != QueueRef(1, 3)
    assert len({QueueRef(1, 2), QueueRef(1, 2), QueueRef(2, 2)}) == 2

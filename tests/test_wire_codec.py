"""Codec round-trip battery: ``decode(encode(msg)) == msg`` for every type.

Two layers of pinning:

1. Hypothesis property tests per message class, over generated field
   values — point, full, infinite and max-range intervals, unicode keys,
   full ``SessionTransfer`` windows.
2. An exhaustiveness gate: every concrete class in ``pubsub/messages.py``
   must have a schema, every schema must cover exactly the class's slots,
   and type ids must be unique — so adding a message without codec support
   (or adding a slot without a wire field) fails here, not in production.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub import messages as m
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.pubsub.wal import _decode_record, encode_record
from repro.util.ids import QueueRef
from repro.wire import codec
from repro.wire.codec import (
    CODEC_VERSION,
    MESSAGE_SCHEMAS,
    CodecError,
    decode_control,
    decode_message,
    encode_control,
    encode_message,
)
from repro.wire.framing import HEADER_SIZE

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
uints = st.integers(min_value=0, max_value=2 ** 40)
small_uints = st.integers(min_value=0, max_value=63)
floats = st.floats(allow_nan=False, allow_infinity=True, width=64)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# includes unicode well outside ASCII (subscription keys, categories)
texts = st.text(max_size=12)


def notifications():
    return st.builds(
        Notification,
        event_id=uints,
        publisher=small_uints,
        seq=uints,
        publish_time=finite,
        topic=floats,
    )


def filters():
    # includes degenerate (lo == hi, the narrowest valid interval), full,
    # half-infinite and max-range intervals
    return st.one_of(
        st.tuples(floats, floats).map(lambda b: RangeFilter(*sorted(b))),
        finite.map(lambda x: RangeFilter(x, x)),  # point
        st.sampled_from([
            RangeFilter(-math.inf, math.inf),      # full
            RangeFilter(-math.inf, 0.5),
            RangeFilter(0.5, math.inf),
            RangeFilter(-1e308, 1e308),            # max finite range
        ]),
    )


def qrefs():
    return st.builds(QueueRef, broker=small_uints, qid=uints)


sub_keys = st.one_of(
    small_uints,
    texts,
    st.tuples(texts, small_uints),
    st.tuples(st.just("mhh"), small_uints, uints),
)

categories = st.sampled_from(
    [m.CAT_EVENT, m.CAT_SUB_INITIAL, m.CAT_SUB_HANDOFF, m.CAT_MOBILITY_CTRL,
     m.CAT_MIGRATION, m.CAT_HB_FORWARD, m.CAT_RELIABILITY]
)

MESSAGE_STRATEGIES = {
    m.EventMessage: st.builds(m.EventMessage, event=notifications()),
    m.SubscribeMessage: st.builds(
        m.SubscribeMessage, key=sub_keys, filter=filters(), category=categories
    ),
    m.UnsubscribeMessage: st.builds(
        m.UnsubscribeMessage, key=sub_keys, category=categories
    ),
    m.PublishMessage: st.builds(m.PublishMessage, event=notifications()),
    m.ConnectMessage: st.builds(
        m.ConnectMessage, client=small_uints,
        filter=st.none() | filters(),
        last_broker=st.none() | small_uints, epoch=uints,
    ),
    m.DeliverMessage: st.builds(
        m.DeliverMessage, client=small_uints, event=notifications()
    ),
    m.ReliableDeliver: st.builds(
        m.ReliableDeliver, client=small_uints, event=notifications(),
        origin=small_uints, session=uints, rel_seq=uints,
    ),
    m.AckMessage: st.builds(
        m.AckMessage, client=small_uints, origin=small_uints, session=uints,
        cum_ack=st.integers(min_value=-1, max_value=2 ** 32),
        nacks=st.lists(uints, max_size=6).map(tuple),
    ),
    m.HandoffRequest: st.builds(
        m.HandoffRequest, client=small_uints, new_broker=small_uints,
        epoch=uints,
    ),
    m.SubMigration: st.builds(
        m.SubMigration, client=small_uints, key=sub_keys, filter=filters(),
        dest=small_uints, pqlist=st.lists(qrefs(), max_size=4).map(tuple),
        epoch=uints,
    ),
    m.SubMigrationAck: st.builds(m.SubMigrationAck, client=small_uints),
    m.DeliverTQ: st.builds(
        m.DeliverTQ, client=small_uints, dest=small_uints,
        target=small_uints, append_to=st.none() | qrefs(),
        remaining=st.lists(qrefs(), max_size=4).map(tuple),
    ),
    m.MigrateBatch: st.builds(
        m.MigrateBatch, client=small_uints,
        events=st.lists(notifications(), max_size=5),
        append_to=st.none() | qrefs(),
    ),
    m.FetchQueue: st.builds(
        m.FetchQueue, client=small_uints, ref=qrefs(), dest=small_uints,
        append_to=st.none() | qrefs(),
    ),
    m.QueueStreamed: st.builds(
        m.QueueStreamed, client=small_uints, ref=qrefs()
    ),
    m.StopEventMigration: st.builds(
        m.StopEventMigration, client=small_uints
    ),
    m.TransferRequest: st.builds(
        m.TransferRequest, client=small_uints, epoch=uints,
        new_broker=small_uints,
    ),
    m.TransferBatch: st.builds(
        m.TransferBatch, client=small_uints, epoch=uints,
        events=st.lists(notifications(), max_size=5),
    ),
    # delivered_ids is the old root's bitmap snapshot: bit eid per event id
    m.TransferDone: st.builds(
        m.TransferDone, client=small_uints, epoch=uints,
        delivered_ids=st.integers(min_value=0, max_value=2 ** 512),
    ),
    m.Register: st.builds(
        m.Register, client=small_uints, foreign=small_uints, epoch=uints
    ),
    m.Deregister: st.builds(m.Deregister, client=small_uints, epoch=uints),
    m.ForwardedEvent: st.builds(
        m.ForwardedEvent, client=small_uints, event=notifications()
    ),
    m.ForwardedBatch: st.builds(
        m.ForwardedBatch, client=small_uints,
        events=st.lists(notifications(), max_size=5),
    ),
    # a full window: unacked retransmit events plus settled-id cursor
    m.SessionTransfer: st.builds(
        m.SessionTransfer, client=small_uints, origin=small_uints,
        anchor=small_uints,
        events=st.lists(notifications(), max_size=6).map(tuple),
        acked=st.lists(uints, max_size=8).map(tuple),
    ),
}


def _note_tuple(ev):
    return (ev.event_id, ev.publisher, ev.seq, ev.publish_time, ev.topic)


def _assert_events_identical(a, b):
    """Notification compares by identity, so check clones field-by-field."""
    if isinstance(a, Notification):
        assert isinstance(b, Notification)
        assert _note_tuple(a) == _note_tuple(b)
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_events_identical(x, y)


# ---------------------------------------------------------------------------
# the round-trip battery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls", sorted(MESSAGE_STRATEGIES, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_round_trip_property(cls):
    @settings(max_examples=40, deadline=None)
    @given(msg=MESSAGE_STRATEGIES[cls])
    def run(msg):
        payload = encode_message(msg)
        assert payload[0] == CODEC_VERSION
        out = decode_message(payload)
        assert type(out) is cls
        assert out == msg
        assert out.category == msg.category
        # events are identity-equal in the kernel; verify clones structurally
        for name, value in msg.wire_fields():
            _assert_events_identical(value, getattr(out, name))

    run()


def test_round_trip_unicode_keys_and_interning():
    key = ("температура", 7, "температура", "city🌍")
    msg = m.SubscribeMessage(key, RangeFilter(10, 30), m.CAT_SUB_HANDOFF)
    payload = encode_message(msg)
    assert decode_message(payload) == msg
    # the repeated string must have been interned: cheaper than twice raw
    raw = "температура".encode("utf-8")
    assert payload.count(raw) == 1


def test_session_transfer_full_window_round_trips():
    events = tuple(
        Notification(i, publisher=2, seq=i, publish_time=float(i),
                     topic=i / 10)
        for i in range(10)
    )
    msg = m.SessionTransfer(3, origin=1, anchor=4, events=events,
                            acked=tuple(range(100, 120)))
    out = decode_message(encode_message(msg))
    assert out == msg
    _assert_events_identical(events, out.events)


def test_empty_and_max_range_filters_round_trip():
    # the narrowest interval RangeFilter admits (a point; it refuses
    # lo > hi) up to the whole line
    for f in (RangeFilter(0.5, 0.5), RangeFilter(-1e308, 1e308),
              RangeFilter(-math.inf, math.inf), RangeFilter(0.0, math.inf)):
        msg = m.SubscribeMessage("k", f)
        assert decode_message(encode_message(msg)).filter == f


# ---------------------------------------------------------------------------
# version 4: one filter kind, attr-less events
# ---------------------------------------------------------------------------
#: ``SubscribeMessage("k", RangeFilter(0.25, 0.5))`` as version 3 wrote it:
#: filter kind 1, then the attribute string "topic", then the bounds
V3_SUBSCRIBE = (b"\x03\x02\x05\x00\x01k\x01\x00\x05topic"
                b"\x00\x00\x00\x00\x00\x00\xd0?\x00\x00\x00\x00\x00\x00\xe0?"
                b"\x00\x0bsub_initial")
#: ``PublishMessage(Notification(7, 2, 3, 1.5, 0.25))`` as version 3 wrote
#: it: the event ends in its attrs count, a zero byte
V3_PUBLISH = (b"\x03\x04\x07\x02\x03\x00\x00\x00\x00\x00\x00\xf8?"
              b"\x00\x00\x00\x00\x00\x00\xd0?\x00")


def test_version_3_payloads_are_refused():
    assert CODEC_VERSION == 4
    for payload in (V3_SUBSCRIBE, V3_PUBLISH):
        with pytest.raises(CodecError, match="unsupported codec version 3"):
            decode_message(payload)
    # the same messages now: the attr string and the attrs count are gone
    sub = encode_message(m.SubscribeMessage("k", RangeFilter(0.25, 0.5)))
    assert sub[1:] == V3_SUBSCRIBE[1:7] + V3_SUBSCRIBE[14:]
    pub = encode_message(m.PublishMessage(Notification(7, 2, 3, 1.5, 0.25)))
    assert pub[1:] == V3_PUBLISH[1:-1]


@settings(max_examples=150, deadline=None)
@given(f=filters(), ev=notifications(), lsn=uints)
def test_property_filters_and_events_round_trip(f, ev, lsn):
    """A range filter through the message codec, and an attr-less event
    through it and through a WAL ``pub`` record, come back field for field."""
    out = decode_message(encode_message(m.SubMigration(
        1, "k", f, 2, (), 3)))
    assert out.filter == f and type(out.filter) is RangeFilter
    assert out.filter.topic_range == f.topic_range
    back = decode_message(encode_message(m.PublishMessage(ev))).event
    assert _note_tuple(back) == _note_tuple(ev)
    record = _decode_record(encode_record(("pub", lsn, ev))[HEADER_SIZE:])
    assert record[:2] == ("pub", lsn)
    assert _note_tuple(record[2]) == _note_tuple(ev)


def test_retired_filter_kind_is_a_codec_error():
    """Kind 2 was the conjunction of attribute constraints; it is retired,
    and a payload naming it, even one otherwise shaped like a version-3
    empty conjunction, is refused."""
    for body in (bytes([12, 2, 0]), bytes([12, 2]), bytes([12, 0]),
                 bytes([12, 3]) + struct.pack("<dd", 0.0, 1.0)):
        with pytest.raises(CodecError, match="unknown filter kind"):
            decode_control(bytes([CODEC_VERSION]) + body)
    with pytest.raises(CodecError, match="unknown filter kind 2"):
        decode_message(bytes([CODEC_VERSION, 2, 5, 0, 1]) + b"k"
                       + bytes([2, 0, 0]) + b"\x0bsub_initial")


# ---------------------------------------------------------------------------
# exhaustiveness: the registry must cover pubsub/messages.py exactly
# ---------------------------------------------------------------------------
def _concrete_message_classes():
    found = []
    for name in dir(m):
        obj = getattr(m, name)
        if (isinstance(obj, type) and issubclass(obj, m.Message)
                and obj is not m.Message):
            found.append(obj)
    return found


def test_every_message_class_has_a_codec_registration():
    missing = [c.__name__ for c in _concrete_message_classes()
               if c not in MESSAGE_SCHEMAS]
    assert missing == [], f"message classes without a wire schema: {missing}"


def test_every_message_class_has_a_round_trip_strategy():
    missing = [c.__name__ for c in _concrete_message_classes()
               if c not in MESSAGE_STRATEGIES]
    assert missing == [], f"message classes without a test strategy: {missing}"


def test_schemas_cover_exactly_the_declared_slots():
    for cls, (_tid, fields) in MESSAGE_SCHEMAS.items():
        slots = [s for k in reversed(cls.__mro__)
                 for s in getattr(k, "__slots__", ())]
        assert [name for name, _ in fields] == slots, (
            f"{cls.__name__}: schema fields {[n for n, _ in fields]} "
            f"!= slots {slots}"
        )


def test_type_ids_are_unique_and_stable():
    ids = sorted(tid for tid, _ in MESSAGE_SCHEMAS.values())
    assert len(ids) == len(set(ids))
    # pinned: renumbering ids is a wire-protocol break and needs a version
    # bump; a retired id stays unused
    retired = {16, 26, 27, 28}
    assert ids == [i for i in range(1, len(ids) + len(retired) + 1)
                   if i not in retired]
    assert MESSAGE_SCHEMAS[m.SessionTransfer][0] == ids[-1] == 25


def test_register_refuses_a_taken_id_and_an_unknown_kind():
    class Probe(m.Message):
        __slots__ = ("x",)

    with pytest.raises(RuntimeError, match="duplicate wire type id 20"):
        codec.register(Probe, 20, (("x", "uint"),))
    with pytest.raises(RuntimeError, match="unknown field kind 'uint_set'"):
        codec.register(Probe, 29, (("x", "uint_set"),))
    assert Probe not in MESSAGE_SCHEMAS
    assert 29 not in codec._BY_ID


def test_unregistered_message_is_a_codec_error():
    class Rogue(m.Message):
        __slots__ = ("x",)

        def __init__(self, x):
            self.x = x

    with pytest.raises(CodecError):
        encode_message(Rogue(1))


# ---------------------------------------------------------------------------
# decoder hostility
# ---------------------------------------------------------------------------
def test_decoder_rejects_unknown_version():
    payload = bytearray(encode_message(m.StopEventMigration(1)))
    payload[0] = 99
    with pytest.raises(CodecError):
        decode_message(bytes(payload))


def test_decoder_rejects_unknown_type_id():
    with pytest.raises(CodecError):
        decode_message(bytes([CODEC_VERSION, 0x7F]))


def test_decoder_rejects_truncation_at_every_offset():
    payload = encode_message(
        m.SubMigration(1, ("k", 2), RangeFilter(0.1, 0.9), 3,
                       (QueueRef(1, 2), QueueRef(3, 4)), 5)
    )
    for cut in range(len(payload)):
        with pytest.raises(CodecError):
            decode_message(payload[:cut])


def test_decoder_rejects_trailing_garbage():
    with pytest.raises(CodecError):
        decode_message(encode_message(m.StopEventMigration(1)) + b"\x00")


@settings(max_examples=60, deadline=None)
@given(junk=st.binary(min_size=1, max_size=64))
def test_decoder_never_raises_foreign_exceptions(junk):
    try:
        decode_message(bytes([CODEC_VERSION]) + junk)
    except CodecError:
        pass


@pytest.mark.parametrize("body", [
    bytes([9, 1, 7, 0, 0]),                    # dict keyed by a list
    bytes([8, 1, 7, 0]),                       # frozenset holding a list
    bytes([6, 1]) * 600 + bytes([0]),          # 600 nested 1-tuples
    bytes([12, 1]) + struct.pack("<dd", 2.0, 1.0),  # lo > hi
    bytes([12, 1]) + struct.pack("<dd", math.nan, 1.0),  # NaN bound
], ids=["dict-key", "set-member", "nesting", "filter", "nan-filter"])
def test_well_tagged_but_unbuildable_values_are_codec_errors(body):
    """Bytes that parse tag by tag but name a value Python (or the filter
    constructor) refuses to build: still the codec's error, not
    TypeError/RecursionError/FilterError."""
    with pytest.raises(CodecError):
        decode_control(bytes([CODEC_VERSION]) + body)


# ---------------------------------------------------------------------------
# control-value channel (node protocol frames)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    value=st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), finite, texts,
                  st.binary(max_size=8), qrefs()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(texts, children, max_size=3),
        ),
        max_leaves=12,
    )
)
def test_control_values_round_trip(value):
    assert decode_control(encode_control(value)) == value


def test_control_round_trips_config_like_payload():
    blob = ("hello", 1, {"protocol": "mhh", "grid_k": 3, "seed": 7,
                         "trace": {0: (1, 2), 5: (0,)}},
            (0, 1, 2), frozenset({4, 5}))
    assert decode_control(encode_control(blob)) == blob


def test_nested_message_inside_control_frame():
    msg = m.DeliverMessage(2, Notification(9, 1, 0, 5.0, 0.25))
    kind, out = decode_control(encode_control(("effect", msg)))
    assert kind == "effect" and out == msg


def test_module_exports_are_consistent():
    for name in codec.__all__:
        assert hasattr(codec, name)

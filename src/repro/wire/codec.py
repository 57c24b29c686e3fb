"""Versioned compact binary codec for :mod:`repro.pubsub.messages`.

Layout of an encoded message::

    <u8 version> <varint type-id> <fields per the type's schema>

Every message class has an explicit entry in :data:`MESSAGE_SCHEMAS` — a
stable type id plus a ``(field-name, kind)`` tuple per slot, entered by
:func:`register`; a protocol with private messages registers them from
its own module. An exhaustiveness test pins the registry against
the module's class list, so adding a message without a schema (or a slot
without a field) fails CI.

Primitives:

- unsigned ints are LEB128 varints; signed ints are zigzag varints
  (arbitrary precision — Python ints never truncate);
- floats are little-endian IEEE-754 doubles (bit-exact round-trip);
- strings are interned per encode: the first occurrence ships UTF-8 bytes
  and enters the table, repeats ship a 1-2 byte table index — traffic
  categories repeat heavily inside batched frames;
- heterogeneous fields (subscription keys, control-frame bodies) use a
  tagged value encoding that covers None/bool/int/float/str/bytes,
  tuples/lists/frozensets/dicts, and the domain types
  (:class:`Notification`, :class:`RangeFilter`, :class:`QueueRef`, nested
  messages).

Compatibility rule: the version byte names the schema generation. A
decoder refuses versions it does not know (:class:`CodecError`) — peers
must speak the same generation, there is no in-band negotiation beyond the
``hello`` exchange checking it up front.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.errors import FilterError
from repro.pubsub import messages as m
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter
from repro.util.ids import QueueRef

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "MESSAGE_SCHEMAS",
    "register",
    "encode_message",
    "decode_message",
    "encode_control",
    "decode_control",
]

#: 3: ``TransferDone.delivered_ids`` is one ``uint`` bitmap, not a set;
#: 4: an event has no attrs and a filter is one topic range (kind 2, the
#: conjunction, is retired and never to be reused)
CODEC_VERSION = 4

_F64 = struct.Struct("<d")


class CodecError(Exception):
    """Malformed payload, unknown type id, or unsupported field value."""


# ---------------------------------------------------------------------------
# primitive writers / readers
# ---------------------------------------------------------------------------
class _Writer:
    __slots__ = ("out", "strings")

    def __init__(self) -> None:
        self.out = bytearray()
        self.strings: Dict[str, int] = {}

    def uint(self, value: int) -> None:
        if value < 0:
            raise CodecError(f"negative value {value} for unsigned field")
        out = self.out
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)

    def f64(self, value: float) -> None:
        self.out += _F64.pack(value)

    def string(self, value: str) -> None:
        idx = self.strings.get(value)
        if idx is not None:
            self.uint(idx + 1)
            return
        raw = value.encode("utf-8")
        self.uint(0)
        self.uint(len(raw))
        self.out += raw
        self.strings[value] = len(self.strings)


class _Reader:
    __slots__ = ("data", "pos", "strings")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.strings: List[str] = []

    def uint(self) -> int:
        data, pos = self.data, self.pos
        result = shift = 0
        try:
            while True:
                byte = data[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
        except IndexError:
            raise CodecError("truncated varint") from None
        self.pos = pos
        return result

    def f64(self) -> float:
        end = self.pos + 8
        if end > len(self.data):
            raise CodecError("truncated float")
        value = _F64.unpack_from(self.data, self.pos)[0]
        self.pos = end
        return value

    def string(self) -> str:
        idx = self.uint()
        if idx:
            try:
                return self.strings[idx - 1]
            except IndexError:
                raise CodecError(f"string table index {idx} out of range") from None
        length = self.uint()
        end = self.pos + length
        if end > len(self.data):
            raise CodecError("truncated string")
        try:
            value = self.data[self.pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from None
        self.pos = end
        self.strings.append(value)
        return value

    def done(self) -> bool:
        return self.pos >= len(self.data)


# ---------------------------------------------------------------------------
# zigzag for signed ints (two's-complement-free, any magnitude)
# ---------------------------------------------------------------------------
def _write_sint(w: _Writer, value: int) -> None:
    w.uint(value << 1 if value >= 0 else ((-value) << 1) - 1)


def _read_sint(r: _Reader) -> int:
    raw = r.uint()
    return raw >> 1 if not raw & 1 else -((raw + 1) >> 1)


# ---------------------------------------------------------------------------
# domain payloads
# ---------------------------------------------------------------------------
def _write_event(w: _Writer, ev: Notification) -> None:
    w.uint(ev.event_id)
    w.uint(ev.publisher)
    w.uint(ev.seq)
    w.f64(ev.publish_time)
    w.f64(ev.topic)


def _read_event(r: _Reader) -> Notification:
    event_id = r.uint()
    publisher = r.uint()
    seq = r.uint()
    publish_time = r.f64()
    return Notification(event_id, publisher, seq, publish_time, r.f64())


_FILTER_RANGE = 1


def _write_filter(w: _Writer, f: RangeFilter) -> None:
    w.uint(_FILTER_RANGE)
    w.f64(f.lo)
    w.f64(f.hi)


def _read_filter(r: _Reader) -> RangeFilter:
    kind = r.uint()
    if kind != _FILTER_RANGE:
        raise CodecError(f"unknown filter kind {kind}")
    lo = r.f64()
    return RangeFilter(lo, r.f64())


def _write_qref(w: _Writer, ref: QueueRef) -> None:
    w.uint(ref.broker)
    w.uint(ref.qid)


def _read_qref(r: _Reader) -> QueueRef:
    broker = r.uint()
    return QueueRef(broker, r.uint())


# ---------------------------------------------------------------------------
# tagged values (subscription keys, control frames)
# ---------------------------------------------------------------------------
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3
_V_F64 = 4
_V_STR = 5
_V_TUPLE = 6
_V_LIST = 7
_V_FROZENSET = 8
_V_DICT = 9
_V_QREF = 10
_V_EVENT = 11
_V_FILTER = 12
_V_MESSAGE = 13
_V_BYTES = 14


def _write_value(w: _Writer, value: Any) -> None:
    if value is None:
        w.uint(_V_NONE)
    elif value is False:
        w.uint(_V_FALSE)
    elif value is True:
        w.uint(_V_TRUE)
    elif isinstance(value, int):
        w.uint(_V_INT)
        _write_sint(w, value)
    elif isinstance(value, float):
        w.uint(_V_F64)
        w.f64(value)
    elif isinstance(value, str):
        w.uint(_V_STR)
        w.string(value)
    elif isinstance(value, tuple):
        w.uint(_V_TUPLE)
        w.uint(len(value))
        for item in value:
            _write_value(w, item)
    elif isinstance(value, list):
        w.uint(_V_LIST)
        w.uint(len(value))
        for item in value:
            _write_value(w, item)
    elif isinstance(value, frozenset):
        w.uint(_V_FROZENSET)
        w.uint(len(value))
        # canonical item order, so the same set always produces the same
        # bytes regardless of hash-table iteration order
        for item in sorted(value, key=_sort_key):
            _write_value(w, item)
    elif isinstance(value, dict):
        w.uint(_V_DICT)
        w.uint(len(value))
        for key, val in value.items():
            _write_value(w, key)
            _write_value(w, val)
    elif isinstance(value, QueueRef):
        w.uint(_V_QREF)
        _write_qref(w, value)
    elif isinstance(value, Notification):
        w.uint(_V_EVENT)
        _write_event(w, value)
    elif isinstance(value, RangeFilter):
        w.uint(_V_FILTER)
        _write_filter(w, value)
    elif isinstance(value, m.Message):
        w.uint(_V_MESSAGE)
        _write_message_body(w, value)
    elif isinstance(value, (bytes, bytearray)):
        w.uint(_V_BYTES)
        w.uint(len(value))
        w.out += value
    else:
        raise CodecError(f"unencodable value type {type(value).__name__}")


def _sort_key(item: Any):
    return (type(item).__name__, repr(item))


def _read_value(r: _Reader) -> Any:
    tag = r.uint()
    if tag == _V_NONE:
        return None
    if tag == _V_FALSE:
        return False
    if tag == _V_TRUE:
        return True
    if tag == _V_INT:
        return _read_sint(r)
    if tag == _V_F64:
        return r.f64()
    if tag == _V_STR:
        return r.string()
    if tag == _V_TUPLE:
        return tuple(_read_value(r) for _ in range(r.uint()))
    if tag == _V_LIST:
        return [_read_value(r) for _ in range(r.uint())]
    if tag == _V_FROZENSET:
        return frozenset(_read_value(r) for _ in range(r.uint()))
    if tag == _V_DICT:
        count = r.uint()
        out = {}
        for _ in range(count):
            key = _read_value(r)
            out[key] = _read_value(r)
        return out
    if tag == _V_QREF:
        return _read_qref(r)
    if tag == _V_EVENT:
        return _read_event(r)
    if tag == _V_FILTER:
        return _read_filter(r)
    if tag == _V_MESSAGE:
        return _read_message_body(r)
    if tag == _V_BYTES:
        length = r.uint()
        end = r.pos + length
        if end > len(r.data):
            raise CodecError("truncated bytes value")
        raw = r.data[r.pos:end]
        r.pos = end
        return raw
    raise CodecError(f"unknown value tag {tag}")


# ---------------------------------------------------------------------------
# field kinds
# ---------------------------------------------------------------------------
def _opt(writer: Callable, reader: Callable):
    def write(w: _Writer, value: Any) -> None:
        if value is None:
            w.uint(0)
        else:
            w.uint(1)
            writer(w, value)

    def read(r: _Reader) -> Any:
        return reader(r) if r.uint() else None

    return write, read


def _seq(writer: Callable, reader: Callable, factory: Callable):
    def write(w: _Writer, value: Any) -> None:
        w.uint(len(value))
        for item in value:
            writer(w, item)

    def read(r: _Reader) -> Any:
        return factory(reader(r) for _ in range(r.uint()))

    return write, read


def _write_uint(w: _Writer, v: int) -> None:
    w.uint(v)


def _read_uint(r: _Reader) -> int:
    return r.uint()


def _write_str(w: _Writer, v: str) -> None:
    w.string(v)


def _read_str(r: _Reader) -> str:
    return r.string()


def _write_f64(w: _Writer, v: float) -> None:
    w.f64(v)


def _read_f64(r: _Reader) -> float:
    return r.f64()


#: kind -> (writer(w, value), reader(r) -> value)
FIELD_KINDS: Dict[str, Tuple[Callable, Callable]] = {
    "uint": (_write_uint, _read_uint),
    "int": (_write_sint, _read_sint),
    "f64": (_write_f64, _read_f64),
    "str": (_write_str, _read_str),
    "value": (_write_value, _read_value),
    "event": (_write_event, _read_event),
    "filter": (_write_filter, _read_filter),
    "opt_filter": _opt(_write_filter, _read_filter),
    "opt_uint": _opt(_write_uint, _read_uint),
    "qref": (_write_qref, _read_qref),
    "opt_qref": _opt(_write_qref, _read_qref),
    "uint_tuple": _seq(_write_uint, _read_uint, tuple),
    "qref_tuple": _seq(_write_qref, _read_qref, tuple),
    "event_list": _seq(_write_event, _read_event, list),
    "event_tuple": _seq(_write_event, _read_event, tuple),
}


# ---------------------------------------------------------------------------
# the registry: every message class, explicit stable ids + field schemas
# ---------------------------------------------------------------------------
#: type -> (type-id, ((slot-name, kind), ...)), filled by :func:`register`.
#: Field order is wire order and must list every slot the class (and its
#: bases) defines.
MESSAGE_SCHEMAS: Dict[Type[m.Message], Tuple[int, Tuple[Tuple[str, str], ...]]] = {}
_BY_ID: Dict[int, Tuple[Type[m.Message], Tuple[Tuple[str, str], ...]]] = {}


def register(cls: Type[m.Message], type_id: int,
             fields: Tuple[Tuple[str, str], ...]) -> None:
    """Give ``cls`` wire id ``type_id`` and its ``(slot-name, kind)``
    schema; a protocol with private messages registers them itself, so
    the codec imports no protocol."""
    if type_id in _BY_ID:
        raise RuntimeError(f"duplicate wire type id {type_id}")
    for _name, kind in fields:
        if kind not in FIELD_KINDS:
            raise RuntimeError(f"unknown field kind {kind!r} in {cls.__name__}")
    MESSAGE_SCHEMAS[cls] = (type_id, fields)
    _BY_ID[type_id] = (cls, fields)


for _cls, (_tid, _fields) in {
    m.EventMessage: (1, (("event", "event"),)),
    m.SubscribeMessage: (2, (("key", "value"), ("filter", "filter"),
                             ("category", "str"))),
    m.UnsubscribeMessage: (3, (("key", "value"), ("category", "str"))),
    m.PublishMessage: (4, (("event", "event"),)),
    m.ConnectMessage: (5, (("client", "uint"), ("filter", "opt_filter"),
                           ("last_broker", "opt_uint"), ("epoch", "uint"))),
    m.DeliverMessage: (6, (("client", "uint"), ("event", "event"))),
    m.ReliableDeliver: (7, (("client", "uint"), ("event", "event"),
                            ("origin", "uint"), ("session", "uint"),
                            ("rel_seq", "uint"))),
    m.AckMessage: (8, (("client", "uint"), ("origin", "uint"),
                       ("session", "uint"), ("cum_ack", "int"),
                       ("nacks", "uint_tuple"))),
    m.HandoffRequest: (9, (("client", "uint"), ("new_broker", "uint"),
                           ("epoch", "uint"))),
    m.SubMigration: (10, (("client", "uint"), ("key", "value"),
                          ("filter", "filter"), ("dest", "uint"),
                          ("pqlist", "qref_tuple"), ("epoch", "uint"))),
    m.SubMigrationAck: (11, (("client", "uint"),)),
    m.DeliverTQ: (12, (("client", "uint"), ("dest", "uint"),
                       ("target", "uint"), ("append_to", "opt_qref"),
                       ("remaining", "qref_tuple"))),
    m.MigrateBatch: (13, (("client", "uint"), ("events", "event_list"),
                          ("append_to", "opt_qref"))),
    m.FetchQueue: (14, (("client", "uint"), ("ref", "qref"),
                        ("dest", "uint"), ("append_to", "opt_qref"))),
    m.QueueStreamed: (15, (("client", "uint"), ("ref", "qref"))),
    # 16 was StreamDone, which had no sender and no handler: retired, and
    # never to be reused
    m.StopEventMigration: (17, (("client", "uint"),)),
    m.TransferRequest: (18, (("client", "uint"), ("epoch", "uint"),
                             ("new_broker", "uint"))),
    m.TransferBatch: (19, (("client", "uint"), ("epoch", "uint"),
                           ("events", "event_list"))),
    m.TransferDone: (20, (("client", "uint"), ("epoch", "uint"),
                          ("delivered_ids", "uint"))),
    m.Register: (21, (("client", "uint"), ("foreign", "uint"),
                      ("epoch", "uint"))),
    m.Deregister: (22, (("client", "uint"), ("epoch", "uint"))),
    m.ForwardedEvent: (23, (("client", "uint"), ("event", "event"))),
    m.ForwardedBatch: (24, (("client", "uint"), ("events", "event_list"))),
    m.SessionTransfer: (25, (("client", "uint"), ("origin", "uint"),
                             ("anchor", "uint"), ("events", "event_tuple"),
                             ("acked", "uint_tuple"))),
    # 26-28 were the transfer-grant handshake of the removed two-phase
    # protocol: retired, and never to be reused
}.items():
    register(_cls, _tid, _fields)
del _cls, _tid, _fields


def _write_message_body(w: _Writer, msg: m.Message) -> None:
    try:
        type_id, fields = MESSAGE_SCHEMAS[type(msg)]
    except KeyError:
        raise CodecError(
            f"no wire schema registered for {type(msg).__name__}"
        ) from None
    w.uint(type_id)
    for name, kind in fields:
        FIELD_KINDS[kind][0](w, getattr(msg, name))


def _read_message_body(r: _Reader) -> m.Message:
    type_id = r.uint()
    try:
        cls, fields = _BY_ID[type_id]
    except KeyError:
        raise CodecError(f"unknown wire type id {type_id}") from None
    kwargs = {}
    for name, kind in fields:
        kwargs[name] = FIELD_KINDS[kind][1](r)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"cannot rebuild {cls.__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------
def encode_message(msg: m.Message) -> bytes:
    """Encode one message to its versioned wire payload."""
    w = _Writer()
    w.out.append(CODEC_VERSION)
    _write_message_body(w, msg)
    return bytes(w.out)


def _decode(data: bytes, read: Callable[[_Reader], Any]) -> Any:
    if not data:
        raise CodecError("empty payload")
    if data[0] != CODEC_VERSION:
        raise CodecError(f"unsupported codec version {data[0]}")
    r = _Reader(data, pos=1)
    try:
        value = read(r)
    except (TypeError, RecursionError, FilterError) as exc:
        # an unhashable dict key or set member, nesting deeper than the
        # interpreter's stack, a filter its own constructor refuses: bytes
        # no encoder here ever produced
        raise CodecError(f"malformed payload: {exc}") from None
    if not r.done():
        raise CodecError(f"{len(data) - r.pos} trailing bytes after payload")
    return value


def decode_message(data: bytes) -> m.Message:
    """Decode one versioned wire payload back into a message object."""
    return _decode(data, _read_message_body)


def encode_control(value: Any) -> bytes:
    """Encode an arbitrary control value (node-protocol frames)."""
    w = _Writer()
    w.out.append(CODEC_VERSION)
    _write_value(w, value)
    return bytes(w.out)


def decode_control(data: bytes) -> Any:
    """Decode a control value produced by :func:`encode_control`."""
    return _decode(data, _read_value)

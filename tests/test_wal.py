"""The write-ahead log: records, stores, compaction, replay.

Satellite battery for the durability subsystem's storage layer:

* **Records** — the four record shapes round-trip through the wire codec
  inside wire frames (the log has no byte format of its own); a torn tail
  (short frame, bad checksum) truncates to the last clean record instead
  of poisoning the replay, while a checksum-valid payload that is not a
  record — any log written in the old ``repr`` format included — is a
  typed :class:`CodecError` and the file is left untouched. Arbitrary
  bytes are ``tests/test_wire_framing.py``'s job, for stream and log.
* **Stores** — the in-memory (simulated driver) and file-backed (live
  driver) stores behave identically behind the :class:`LogStore` facade,
  including segment rolling and atomic compaction replace; the file store
  physically truncates torn tails and removes an interrupted compaction's
  temp file on open, like a real recovery scan.
* **Replay idempotence** — applying every record twice yields exactly the
  state of applying it once (crash-during-replay is safe to restart).
* **Compaction safety** — a checkpoint never drops an unacked delivery or
  the event payload it needs: the property the zero-write-off lane rests
  on, driven here by randomized publish/deliver/ack/checkpoint schedules.
* **Replay oracle** — after a real durable end-to-end run, the state
  rebuilt purely from log bytes matches the independently maintained
  in-memory mirror exactly: anchors, unacked windows and delivery
  cursors, which hold live events only (``acked ⊆ events``) — the
  checkpoint that retires an event takes it out of every cursor.
* **Compaction oracle** — the manager's per-broker live sets and session
  stab write, call for call, the checkpoint images of the scan-based rule
  (``tests/wal_scan.py``), in randomized schedules and in a real run.
"""

from __future__ import annotations

import functools
import random
import struct
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.metrics.delivery import DeliveryChecker
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.pubsub.events import Notification
from repro.pubsub.wal import (
    DurabilityManager,
    FileLogStore,
    MemoryLogStore,
    decode_records,
    encode_record,
)
from repro.wire.codec import CodecError, encode_control
from repro.wire.framing import encode_frame
from repro.workload.spec import WorkloadSpec
from wal_scan import ScanDurabilityManager


def state_key(session) -> tuple:
    """A :class:`~repro.pubsub.wal.ClientSession`'s canonical comparison
    key (for the replay-oracle cases)."""
    return (session.client, session.anchor, session.lo, session.hi,
            tuple(sorted(session.acked)), tuple(sorted(session.unacked)))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------
RECORDS = [
    ("pub", 1, Notification(7, 2, 0, 1500.0, 3.25)),
    ("dlv", 2, 11, 7),
    ("ack", 3, 11, 7),
    ("ses", 4, 11, 0.0, 4.5, (3, 7)),
    ("ses", 5, 12, None, None, ()),
]


def test_codec_round_trip():
    blob = b"".join(encode_record(r) for r in RECORDS)
    records, torn = decode_records(blob)
    assert records == RECORDS
    assert torn == 0
    # Notification compares by id alone: pin the payload field by field
    event, logged = records[0][2], RECORDS[0][2]
    for field in ("event_id", "publisher", "seq", "publish_time", "topic"):
        assert getattr(event, field) == getattr(logged, field)


def test_decode_empty():
    assert decode_records(b"") == ([], 0)


@pytest.mark.parametrize("cut", [1, 4, 7, 11])
def test_torn_tail_truncates_to_clean_prefix(cut):
    """A mid-record crash leaves a partial frame; decode drops exactly it."""
    blob = b"".join(encode_record(r) for r in RECORDS)
    tail = encode_record(("dlv", 6, 99, 1234))
    torn_blob = blob + tail[:cut]
    records, torn = decode_records(torn_blob)
    assert records == RECORDS
    assert torn == cut


def test_corrupt_checksum_stops_decode():
    blob = bytearray(b"".join(encode_record(r) for r in RECORDS))
    # flip a payload byte of the third record: everything from there on is
    # untrusted, even the structurally intact records behind it
    offset = len(encode_record(RECORDS[0]) + encode_record(RECORDS[1])) + 10
    blob[offset] ^= 0xFF
    records, torn = decode_records(bytes(blob))
    assert records == RECORDS[:2]
    assert torn == len(blob) - len(
        encode_record(RECORDS[0]) + encode_record(RECORDS[1])
    )


def test_non_tuple_payload_is_torn():
    """A checksum-valid payload that is not a record is *not* a torn tail
    (on purpose, since the log moved onto the wire codec): some writer
    framed exactly these bytes, so they are refused with a typed error
    instead of being truncated away."""
    good = encode_record(RECORDS[0])
    for payload in (
        b"[1, 2, 3]",                                # not a codec payload
        encode_control([1, 2, 3]),                   # a value, not a tuple
        encode_control(("dlv", 2, 11)),              # a field short
        encode_control(("ses", 4, 11, None, None, ("7",))),
        encode_control((["pub"], 1, 2, 3)),          # unhashable kind
    ):
        with pytest.raises(CodecError):
            decode_records(good + encode_frame(payload))


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------
def _fill(store, broker=0, n=10):
    recs = [("dlv", i, 5, i) for i in range(n)]
    for r in recs:
        store.append(broker, encode_record(r))
    return recs


def test_memory_store_rolls_segments():
    store = MemoryLogStore(segment_bytes=64)
    recs = _fill(store)
    segs = store.segments(0)
    assert len(segs) > 1
    decoded = []
    for seg in segs:
        got, torn = decode_records(seg)
        assert torn == 0
        decoded.extend(got)
    assert decoded == recs
    assert store.brokers() == [0]


def test_file_store_rolls_segments(tmp_path):
    store = FileLogStore(str(tmp_path), segment_bytes=64)
    recs = _fill(store)
    segs = store.segments(0)
    assert len(segs) > 1
    decoded = []
    for seg in segs:
        got, torn = decode_records(seg)
        assert torn == 0
        decoded.extend(got)
    assert decoded == recs
    assert store.brokers() == [0]


def test_memory_and_file_stores_are_equivalent(tmp_path):
    """Identical append/replace sequences, of framed bytes and of records,
    yield identical segment lists: the same bytes cut at the same segment
    boundaries. The memory store frames records only when they are read;
    a replaced image stays one segment there too, however large."""
    mem = MemoryLogStore(segment_bytes=96)
    fil = FileLogStore(str(tmp_path), segment_bytes=96)
    image = [("dlv", 100 + i, 6, i) for i in range(20)]
    assert sum(len(encode_record(r)) for r in image) > 3 * 96
    for store in (mem, fil):
        _fill(store, broker=0, n=12)
        _fill(store, broker=3, n=2)
        store.replace(3, encode_record(("ack", 99, 1, 1)))
        for i in range(5):
            store.append_record(5, ("ack", 200 + i, 6, i))
        store.replace_records(5, image)
        for i in range(9):
            store.append_record(5, ("dlv", 300 + i, 6, i))
    assert mem.brokers() == fil.brokers() == [0, 3, 5]
    for bid in mem.brokers():
        assert mem.segments(bid) == fil.segments(bid)
        assert mem.segments(bid) == fil.segments(bid)  # a read frames nothing twice
    segs = mem.segments(5)
    assert segs[0] == b"".join(map(encode_record, image)) and len(segs) > 2
    # records appended after a read land behind what it framed
    for store in (mem, fil):
        for i in range(4):
            store.append_record(5, ("ack", 400 + i, 6, i))
    assert mem.segments(5) == fil.segments(5)


def test_file_store_truncates_torn_tail_on_open(tmp_path):
    """A real mid-record crash artifact is physically removed on reopen."""
    store = FileLogStore(str(tmp_path), segment_bytes=1 << 16)
    recs = _fill(store, n=4)
    # simulate the crash: raw garbage after the last clean record
    paths = store._segment_paths(0)
    assert len(paths) == 1
    with open(paths[0], "ab") as fh:
        fh.write(encode_record(("dlv", 77, 1, 1))[:9])
    reopened = FileLogStore(str(tmp_path), segment_bytes=1 << 16)
    segs = reopened.segments(0)
    records, torn = decode_records(segs[0])
    assert records == recs
    assert torn == 0  # the tail is gone from disk, not just skipped
    # appends continue cleanly after the truncated tail
    reopened.append(0, encode_record(("ack", 5, 5, 0)))
    records, torn = decode_records(reopened.segments(0)[0])
    assert records == recs + [("ack", 5, 5, 0)]
    assert torn == 0


def test_file_store_replace_is_atomic_swap(tmp_path):
    store = FileLogStore(str(tmp_path), segment_bytes=64)
    _fill(store, n=10)
    assert len(store._segment_paths(0)) > 1
    compacted = encode_record(("ses", 1, 4, None, None, ()))
    store.replace(0, compacted)
    paths = store._segment_paths(0)
    assert len(paths) == 1
    assert store.segments(0) == [compacted]
    assert not any(p.endswith(".tmp") for p in paths)


def test_file_store_truncates_every_torn_offset_and_replays(tmp_path):
    """Cut the last record at each of its bytes: open keeps the clean
    prefix on disk and replay sees exactly the records before the cut."""
    recs = [("pub", 1, Notification(3, 0, 0, 5.0, 1.0)), ("dlv", 2, 5, 3)]
    blob = b"".join(encode_record(r) for r in recs)
    tail = encode_record(("ack", 3, 5, 3))
    seg = tmp_path / "b000" / "seg000000.wal"
    seg.parent.mkdir()
    for cut in range(1, len(tail)):
        seg.write_bytes(blob + tail[:cut])
        store = FileLogStore(str(tmp_path))
        assert seg.read_bytes() == blob
        state = DurabilityManager(_Host(DeliveryChecker()), store).replay()
        assert state.torn_segments == 0
        assert sorted(state.events) == [3]
        assert sorted(state.sessions[5].unacked) == [3]


def test_file_store_removes_stale_compaction_tmp_on_open(tmp_path):
    """A crash between the compaction write and its rename leaves
    ``segNNNNNN.wal.tmp`` next to the segments it never replaced."""
    store = FileLogStore(str(tmp_path), segment_bytes=64)
    recs = _fill(store, n=10)
    bdir = tmp_path / "b000"
    before = sorted(p.name for p in bdir.iterdir())
    (bdir / "seg000099.wal.tmp").write_bytes(encode_record(("ack", 99, 1, 1)))
    reopened = FileLogStore(str(tmp_path), segment_bytes=64)
    assert sorted(p.name for p in bdir.iterdir()) == before
    decoded = [r for seg in reopened.segments(0)
               for r in decode_records(seg)[0]]
    assert decoded == recs


def test_parent_format_log_is_refused_and_left_intact(tmp_path):
    """A ``--wal-dir`` written before the log moved onto the wire codec
    (``<len><crc32>`` + ``repr`` text) opens as a typed error, not as an
    empty log with the old records truncated away."""
    old = b"".join(
        struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        for payload in (repr(r).encode() for r in [
            ("pub", 1, (7, 2, 0, 1500.0, 3.25, None)), ("dlv", 2, 11, 7),
        ]))
    seg = tmp_path / "b000" / "seg000000.wal"
    seg.parent.mkdir()
    seg.write_bytes(old + b"torn")
    with pytest.raises(CodecError, match="seg000000.wal"):
        FileLogStore(str(tmp_path))
    assert seg.read_bytes() == old + b"torn"
    mem = MemoryLogStore()
    mem.append(0, old)
    with pytest.raises(CodecError):
        DurabilityManager(_Host(DeliveryChecker()), mem).replay()


#: ``encode_record(("pub", 1, Notification(7, 2, 3, 1.5, 0.25)))`` as codec
#: version 3 wrote it: 40 bytes, the event ending in its attrs count
V3_PUB_RECORD = (b" \x00\x00\x00\xf6\xb6\xd7\xde\x03\x06\x03\x05\x00\x03pub"
                 b"\x03\x02\x0b\x07\x02\x03\x00\x00\x00\x00\x00\x00\xf8?"
                 b"\x00\x00\x00\x00\x00\x00\xd0?\x00")


def test_version_3_pub_record_is_refused_and_left_intact(tmp_path):
    """A log written by codec version 3 (whose events carried an attrs
    count) is checksum-valid but of another generation: a typed error, not
    a log truncated to nothing. The version-4 record is one byte shorter."""
    record = ("pub", 1, Notification(7, 2, 3, 1.5, 0.25))
    assert len(encode_record(record)) == len(V3_PUB_RECORD) - 1 == 39
    with pytest.raises(CodecError, match="unsupported codec version 3"):
        decode_records(V3_PUB_RECORD)
    seg = tmp_path / "b000" / "seg000000.wal"
    seg.parent.mkdir()
    seg.write_bytes(V3_PUB_RECORD)
    with pytest.raises(CodecError, match="seg000000.wal"):
        FileLogStore(str(tmp_path))
    assert seg.read_bytes() == V3_PUB_RECORD


def test_file_store_close_removes_owned_scratch_dir(tmp_path):
    root = tmp_path / "scratch"
    store = FileLogStore(str(root), owns_dir=True)
    _fill(store, n=2)
    assert root.is_dir()
    store.close()
    assert not root.exists()
    keeper = FileLogStore(str(tmp_path / "kept"))
    _fill(keeper, n=2)
    keeper.close()
    assert (tmp_path / "kept").is_dir()


# ---------------------------------------------------------------------------
# manager-level: randomized schedules against a real delivery checker
# ---------------------------------------------------------------------------
class _Host:
    """Minimal system facade the DurabilityManager needs (unit scope)."""

    def __init__(self, checker: DeliveryChecker) -> None:
        self.clients: dict = {}
        self.brokers: dict = {}
        self.reliability = None

        class _M:
            pass

        self.metrics = _M()
        self.metrics.delivery = checker


def _drive(seed: int, store=None, checkpoint_every: int = 8):
    """One randomized publish/deliver/ack/checkpoint schedule."""
    rnd = random.Random(seed)
    checker = DeliveryChecker()
    clients = list(range(4))
    for cid in clients:
        checker.register_subscription(cid, 0.0, 10.0)
    dur = DurabilityManager(
        _Host(checker),
        store if store is not None else MemoryLogStore(segment_bytes=256),
        checkpoint_every=checkpoint_every,
    )
    events = []
    for step in range(rnd.randrange(20, 60)):
        op = rnd.choice(("pub", "pub", "dlv", "dlv", "ack", "ckpt"))
        if op == "pub":
            ev = Notification(
                len(events), rnd.randrange(2), len(events),
                float(step), rnd.uniform(0.0, 10.0),
            )
            events.append(ev)
            dur.on_publish(rnd.randrange(3), ev)
        elif op == "dlv" and events:
            dur.on_deliver(
                rnd.randrange(3), rnd.choice(clients), rnd.choice(events)
            )
        elif op == "ack" and events:
            cid = rnd.choice(clients)
            s = dur.sessions.get(cid)
            if s is not None and s.unacked:
                eid = rnd.choice(sorted(s.unacked))
                dur.on_settled(s.anchor, cid, s.unacked[eid])
        elif op == "ckpt":
            dur.checkpoint(rnd.randrange(3))
    return dur


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_compaction_never_drops_an_unacked_delivery(seed):
    """After arbitrary checkpoints, every unacked window survives replay
    with its event payload intact — the invariant zero-write-off needs."""
    dur = _drive(seed)
    for bid in (0, 1, 2):
        dur.checkpoint(bid)
    state = dur.replay()
    for cid, mirror in dur.sessions.items():
        replayed = state.sessions.get(cid)
        if mirror.unacked:
            assert replayed is not None
        if replayed is None:
            continue
        assert set(replayed.unacked) == set(mirror.unacked)
        for eid in mirror.unacked:
            assert eid in state.events
            assert state.events[eid].event_id == eid


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_replay_is_idempotent(seed):
    """Feeding the log twice reconstructs exactly the single-pass state:
    a crash mid-recovery can always restart the replay from scratch."""
    dur = _drive(seed)
    once = dur.replay()
    doubled = MemoryLogStore()
    for bid in dur.store.brokers():
        for seg in dur.store.segments(bid):
            doubled.append(bid, seg)
    for bid in dur.store.brokers():
        for seg in dur.store.segments(bid):
            doubled.append(bid, seg)
    dur2 = DurabilityManager(dur.system, doubled)
    twice = dur2.replay()
    assert sorted(once.events) == sorted(twice.events)
    assert {
        c: state_key(s) for c, s in once.sessions.items()
    } == {c: state_key(s) for c, s in twice.sessions.items()}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
@example(55)  # an event is retired, then delivered again to its acker
@example(237)
def test_replay_matches_mirror_oracle_unit(seed):
    """Replay from log bytes == the independently maintained mirror."""
    dur = _drive(seed)
    state = dur.replay()
    assert sorted(state.events) == sorted(dur.events)
    for cid, mirror in dur.sessions.items():
        replayed = state.sessions.get(cid)
        if replayed is None:
            assert not mirror.unacked
            continue
        assert replayed.anchor == mirror.anchor
        assert replayed.lo == mirror.lo and replayed.hi == mirror.hi
        assert set(replayed.unacked) == set(mirror.unacked)
        assert replayed.acked == mirror.acked
        assert mirror.acked <= dur.events.keys()


def _one_event_manager():
    """A manager with one event published at broker 0, delivered to client
    0 at broker 1 and settled there: the session lives at broker 1."""
    dur = DurabilityManager(_Host(DeliveryChecker()), MemoryLogStore())
    ev = Notification(0, 5, 0, 0.0, 1.0)
    dur.on_publish(0, ev)
    dur.on_deliver(1, 0, ev)
    dur.on_settled(1, 0, ev)
    return dur, ev


def test_compaction_retires_the_event_from_every_cursor():
    """Once every matching session has acked an event, the checkpoint of
    its ingress broker retires it from the log *and* from the cursors; a
    late settle of it is already answered and logs nothing."""
    dur, ev = _one_event_manager()
    assert dur.sessions[0].acked == {0}
    dur.checkpoint(0)
    assert 0 not in dur.events
    assert dur.sessions[0].acked == set()
    appended = dur.records_appended
    dur.on_settled(1, 0, ev)
    assert dur.records_appended == appended
    assert dur.sessions[0].acked == set()
    assert dur.replay().sessions[0].acked == set()


def test_a_revived_event_replays_as_the_mirror_holds_it():
    """A deliver of a retired event logs it afresh. Broker 1 has not
    checkpointed since the retirement, so its log still holds the old
    ``dlv`` and ``ack`` of the event; replayed on the revived event they
    would settle a delivery the cursor has not settled."""
    dur, ev = _one_event_manager()
    dur.checkpoint(0)
    dur.on_deliver(1, 0, ev)
    mirror = dur.sessions[0]
    assert (mirror.acked, set(mirror.unacked)) == (set(), {0})
    replayed = dur.replay().sessions[0]
    assert state_key(replayed) == state_key(mirror)
    dur.on_settled(1, 0, ev)
    assert state_key(dur.replay().sessions[0]) == state_key(mirror)


# ---------------------------------------------------------------------------
# end-to-end replay oracle: a real durable run's log vs its mirror
# ---------------------------------------------------------------------------
_E2E = ExperimentConfig(
    protocol="mhh",
    grid_k=3,
    seed=11,
    workload=WorkloadSpec(
        clients_per_broker=3,
        mobile_fraction=0.5,
        mean_connected_s=10.0,
        mean_disconnected_s=5.0,
        publish_interval_s=15.0,
        duration_s=120.0,
    ),
    faults=FaultProfile(deliver_loss=0.1),
    crashes=CrashPlan.parse(crashes=["1@60"], restarts=["1@90"]),
    reliable=True,
    durable=True,
)


def test_replayed_state_matches_live_mirror_end_to_end():
    system, workload = build_system(_E2E)
    system.run(until=_E2E.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    dur = system.durability
    assert dur is not None
    assert dur.records_appended > 0
    state = dur.replay()
    assert state.torn_segments == 0
    assert sorted(state.events) == sorted(dur.events)
    for cid, mirror in dur.sessions.items():
        replayed = state.sessions.get(cid)
        if replayed is None:
            assert not mirror.unacked
            continue
        assert replayed.anchor == mirror.anchor
        assert set(replayed.unacked) == set(mirror.unacked)
        assert replayed.acked == mirror.acked
        assert mirror.acked <= dur.events.keys()


# ---------------------------------------------------------------------------
# compaction oracle: the stab-based rule against the scan-based one
# ---------------------------------------------------------------------------
def _images(dur):
    return {bid: dur.store.segments(bid) for bid in dur.store.brokers()}


_RANGES = [(0.0, 10.0), (2.0, 4.0), (4.0, 4.0), (2.0, 4.0), (6.0, 9.5),
           (float("-inf"), 1.0), (None, None)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
@example(0)
def test_checkpoint_images_equal_the_scan_rule(seed):
    """The same calls into the product manager and the scan reference:
    ranged sessions opened before and after checkpoints (shared, nested,
    zero-width and unknown ranges), events ingressed again while live,
    and every checkpoint writes the same image; so does the repair
    gather offer the same backlog."""
    rnd = random.Random(seed)
    every = rnd.choice((4, 8, 512))
    managers = [cls(_Host(DeliveryChecker()), MemoryLogStore(segment_bytes=256),
                    checkpoint_every=every)
                for cls in (DurabilityManager, ScanDurabilityManager)]
    events = []
    for step in range(rnd.randrange(30, 90)):
        op = rnd.choice(("ses", "pub", "pub", "repub", "dlv", "dlv", "ack",
                         "ckpt"))
        calls = []
        if op == "ses":
            cid = rnd.randrange(8)
            if cid not in managers[0].sessions:
                calls.append(("open_session", cid, rnd.randrange(3),
                              *rnd.choice(_RANGES)))
        elif op == "pub" or (op == "repub" and not events):
            ev = Notification(len(events), rnd.randrange(2), len(events),
                              float(step), rnd.choice((2.0, 4.0, 9.5,
                                                       rnd.uniform(0, 10))))
            events.append(ev)
            calls.append(("on_publish", rnd.randrange(3), ev))
        elif op == "repub":
            calls.append(("on_publish", rnd.randrange(3), rnd.choice(events)))
        elif op == "dlv" and events:
            calls.append(("on_deliver", rnd.randrange(3), rnd.randrange(8),
                          rnd.choice(events)))
        elif op == "ack":
            s = managers[0].sessions.get(rnd.randrange(8))
            if s is not None and s.unacked:
                eid = rnd.choice(sorted(s.unacked))
                calls.append(("on_settled", s.anchor, s.client,
                              s.unacked[eid]))
        elif op == "ckpt":
            calls.append(("checkpoint", rnd.randrange(3)))
        for name, *args in calls:
            for dur in managers:
                getattr(dur, name)(*args)
        product, scan = managers
        assert product.checkpoints == scan.checkpoints, step
        assert _images(product) == _images(scan), step
        assert product.replay_events() == scan.replay_events(), step


def test_checkpoint_images_equal_the_scan_rule_end_to_end(monkeypatch):
    """A real durable run (loss, a crash and a restart), compacting every
    16 appends, writes every checkpoint image the scan-based rule writes
    for the same run."""
    def run(cls):
        monkeypatch.setattr("repro.pubsub.wal.DurabilityManager",
                            functools.partial(cls, checkpoint_every=16))
        system, workload = build_system(_E2E)
        store = system.durability.store
        written = []
        replace = store.replace_records

        def record(broker, records):
            written.append((broker, encode_record(tuple(records))))
            replace(broker, records)

        store.replace_records = record
        system.run(until=_E2E.workload.duration_ms)
        workload.stop()
        drain_to_quiescence(system, workload)
        return written, _images(system.durability)

    product, scan = run(DurabilityManager), run(ScanDurabilityManager)
    assert len(product[0]) > 20, "the run hardly compacted"
    assert product == scan

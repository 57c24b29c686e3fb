"""Durable broker state: write-ahead log, persistent sessions, handover.

PR 6 made brokers mortal and PR 7 made delivery reliable, but both buy
correctness with *accounted write-offs*: a crashed broker loses its
volatile downlink queues and retransmit windows (``crash_lost``), and a
retry budget exhausted against a dead link is shed. This module closes
both holes behind an opt-in ``durable=True`` switch:

* **Write-ahead log** (a :class:`LogStore` of per-broker segments) — every
  broker appends a record *before* the corresponding send: ``pub`` at the
  ingress broker before the event is routed, ``dlv`` before a deliver
  frame leaves for a client, ``ack`` when the cumulative-ACK cursor
  advances, ``ses`` when a client session is created or re-homed. This
  module owns no byte format: a record is a wire-codec control value
  (:func:`repro.wire.codec.encode_control`) inside a wire frame
  (:func:`repro.wire.framing.encode_frame`) — the bytes a socket peer
  would receive. A torn tail (mid-record crash: short header, short body,
  bad checksum) is a framing verdict and is truncated on open; a
  checksum-valid payload that is not one of the four records is a
  :class:`~repro.wire.codec.CodecError`, raised before any byte of the log
  is changed.

* **Persistent client sessions** (:class:`ClientSession`) — subscription
  range, delivery cursor (the settled ids of events still live in the
  log) and the unacked retransmit window, all reconstructible purely from
  the log by :meth:`DurabilityManager.replay`. A topic-range subscriber's
  session is logged at its home broker the moment it subscribes.

* **Checkpoint/compaction** — every ``checkpoint_every`` appends a broker
  rewrites its log to the live set: publishes not yet acked by every
  session the log knows that matches them (a retired event leaves their
  cursors too), and the cursor and unacked window of each session
  anchored here. Keyed to the cumulative-ACK cursor, so the log stays
  bounded while *never* dropping an unacked record.

* **Recovery integration** — the repair round
  (:meth:`repro.pubsub.recovery.RecoveryCoordinator._repair`) folds
  :meth:`DurabilityManager.replay_events` into its gathered backlog (so a
  restarted broker's queues are rebuilt from stable storage,
  ``crash_lost -> 0``) and calls :meth:`DurabilityManager.rehome_session`
  for every client whose session anchor died: the unacked window rides a
  :class:`repro.pubsub.messages.SessionTransfer` to the new home broker
  instead of exhausting the retry budget against a corpse
  (``shed -> 0``).

Modeling note: the log is *stable storage* — it survives crash, restart
and permanent death of the broker process, exactly like a disk that
outlives the machine that wrote it. The simulated driver backs it with
:class:`MemoryLogStore`; the live driver uses :class:`FileLogStore`
(real files, real torn tails) behind the same facade.

Determinism: all bookkeeping is driven by the event stream itself (append
counts, not wall time; sorted iteration everywhere), so durable runs stay
byte-identical across clocks and drivers. Default-off runs construct
nothing from this module; a durable run reaches the kernel through the
hook points of :meth:`DurabilityManager.register` (ARCHITECTURE, "Layer seam").
"""

from __future__ import annotations

import os
import shutil
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.pubsub import messages as m
from repro.pubsub.events import Notification
from repro.pubsub.interval_index import IntervalStab
from repro.wire.codec import CodecError, decode_control, encode_control
from repro.wire.framing import encode_frame, split_frames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pubsub.broker import Broker
    from repro.pubsub.system import PubSubSystem

__all__ = [
    "LogStore",
    "MemoryLogStore",
    "FileLogStore",
    "ClientSession",
    "DurabilityManager",
    "ReplayState",
    "encode_record",
    "decode_records",
]

#: default segment roll size (bytes of encoded records per segment)
SEGMENT_BYTES = 64 * 1024
#: default appends between checkpoint/compaction passes per broker
CHECKPOINT_EVERY = 512

# ---------------------------------------------------------------------------
# records: wire-codec control values in wire frames
# ---------------------------------------------------------------------------

_OPT_NUM = (float, int, type(None))

#: record kind -> the types of its fields after the kind. ``lsn`` is a
#: manager-global log sequence number that gives replay a total order
#: across brokers:
#:
#: * ``("pub", lsn, event)`` — the ingress broker logged a publish
#: * ``("dlv", lsn, client, event_id)`` — deliver frame about to leave
#: * ``("ack", lsn, client, event_id)`` — delivery cursor advanced
#: * ``("ses", lsn, client, lo, hi, acked)`` — session created / re-homed
#:   here; ``acked`` folds the delivery cursor into the anchor record (one
#:   record per move, not one per settled event)
_RECORD_FIELDS: Dict[str, tuple] = {
    "pub": (int, Notification),
    "dlv": (int, int, int),
    "ack": (int, int, int),
    "ses": (int, int, _OPT_NUM, _OPT_NUM, tuple),
}


def encode_record(record: tuple) -> bytes:
    """One log record as bytes: the codec's control value in a wire frame."""
    return encode_frame(encode_control(record))


def _decode_record(payload: bytes) -> tuple:
    """A checksum-valid payload back to its record, or :class:`CodecError`.

    The checksum proves these are the bytes some writer framed, so a
    payload that is not one of the four records was never a crash
    artifact: it is a log in another format (the ``repr`` text of older
    versions starts with ``(``, not the codec version byte) or another
    program's file, and must be refused, not truncated away.
    """
    rec = decode_control(payload)
    kind = rec[0] if isinstance(rec, tuple) and rec else None
    fields = _RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
    if (fields is None or len(rec) != len(fields) + 1
            or not all(map(isinstance, rec[1:], fields))
            or (kind == "ses"
                and not all(isinstance(eid, int) for eid in rec[5]))):
        raise CodecError(f"not a log record: {rec!r:.80}")
    return rec


def decode_records(blob: bytes) -> Tuple[List[tuple], int]:
    """Decode a segment image into records, measuring any torn tail.

    Returns ``(records, torn_bytes)``. The framer splits the clean prefix;
    everything behind it — a short header, a short body, a failed checksum
    and whatever follows — is the torn tail left by a mid-record crash and
    is reported (not returned) so callers can truncate stable storage to
    the clean prefix. Raises :class:`CodecError` for a checksum-valid
    payload that is not a log record.
    """
    payloads, clean, _ = split_frames(blob)
    return [_decode_record(p) for p in payloads], len(blob) - clean


# ---------------------------------------------------------------------------
# log stores: one facade, a simulated and a file-backed implementation
# ---------------------------------------------------------------------------


class LogStore:
    """Per-broker append-only segment storage behind one facade.

    The durability layer only ever needs four primitives; both drivers
    implement them so the protocol kernel stays sans-IO:

    * :meth:`append` — add framed bytes to the broker's open segment,
      rolling to a new segment past the size threshold;
    * :meth:`segments` — the ordered raw segment images for replay;
    * :meth:`replace` — atomically swap all segments for a compacted one;
    * :meth:`brokers` — which brokers have any logged state.

    The manager writes through the record forms :meth:`append_record` and
    :meth:`replace_records`, which frame here by default.
    """

    name = "abstract"

    def append(self, broker: int, data: bytes) -> None:
        raise NotImplementedError

    def append_record(self, broker: int, payload: tuple) -> None:
        """Append one not-yet-framed record (the manager's hot path).

        Stores where "stable" means bytes-on-media encode immediately;
        stores where it is a modeling statement (:class:`MemoryLogStore`)
        may defer framing until the bytes are actually observed
        (:meth:`segments`) — the byte images are identical either way.
        """
        self.append(broker, encode_record(payload))

    def segments(self, broker: int) -> List[bytes]:
        raise NotImplementedError

    def replace(self, broker: int, data: bytes) -> None:
        raise NotImplementedError

    def replace_records(self, broker: int, records: List[tuple]) -> None:
        """Swap all segments for a compacted image of not-yet-framed
        records (a checkpoint). The image is one segment, however large —
        the same one :meth:`replace` writes for its framed bytes — and, as
        with :meth:`append_record`, a store may frame it when it is read.
        """
        self.replace(broker, b"".join(map(encode_record, records)))

    def brokers(self) -> List[int]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemoryLogStore(LogStore):
    """In-memory stable storage for the simulated driver.

    "Stable" is a modeling statement: the byte arrays live in the
    :class:`DurabilityManager`, not in the broker objects, so a broker
    crash (which clears its volatile queues) leaves them intact — the same
    contract a surviving disk gives the live driver.

    Records are framed when they are first *read* (:meth:`segments`), not
    when they are written: encoding (codec + crc) is a pure function of
    the record, so the segment images — bytes and segment boundaries —
    are identical to eager framing.
    """

    name = "memory"

    def __init__(self, segment_bytes: int = SEGMENT_BYTES) -> None:
        self.segment_bytes = segment_bytes
        self._segs: Dict[int, List[bytearray]] = {}
        # a checkpoint image not yet framed: it becomes the broker's one
        # segment (a replaced image is never split, see replace_records)
        self._images: Dict[int, List[tuple]] = {}
        # records appended but not yet framed, behind the image if any
        self._pending: Dict[int, List[tuple]] = {}

    def _flush(self, broker: int) -> None:
        image = self._images.pop(broker, None)
        if image is not None:
            self._segs[broker] = [
                bytearray(b"".join(map(encode_record, image)))]
        pending = self._pending.get(broker)
        if not pending:
            return
        self._pending[broker] = []
        segs = self._segs.setdefault(broker, [bytearray()])
        for payload in pending:
            data = encode_record(payload)
            if segs[-1] and len(segs[-1]) + len(data) > self.segment_bytes:
                segs.append(bytearray())
            segs[-1] += data

    def append(self, broker: int, data: bytes) -> None:
        self._flush(broker)
        segs = self._segs.setdefault(broker, [bytearray()])
        if segs[-1] and len(segs[-1]) + len(data) > self.segment_bytes:
            segs.append(bytearray())
        segs[-1] += data

    def append_record(self, broker: int, payload: tuple) -> None:
        try:
            self._pending[broker].append(payload)
        except KeyError:
            self._segs.setdefault(broker, [bytearray()])
            self._pending[broker] = [payload]

    def segments(self, broker: int) -> List[bytes]:
        self._flush(broker)
        return [bytes(s) for s in self._segs.get(broker, [])]

    def replace(self, broker: int, data: bytes) -> None:
        # the compacted image supersedes every record appended so far,
        # framed or still pending
        self._pending.pop(broker, None)
        self._images.pop(broker, None)
        self._segs[broker] = [bytearray(data)]

    def replace_records(self, broker: int, records: List[tuple]) -> None:
        # framed by _flush as one segment: framing the image through the
        # append path would roll it into segment_bytes-sized pieces
        self._pending.pop(broker, None)
        self._images[broker] = records
        self._segs[broker] = [bytearray()]

    def brokers(self) -> List[int]:
        return sorted(self._segs)


class FileLogStore(LogStore):
    """File-backed stable storage for the live driver.

    Layout: ``<root>/b<broker>/seg<index>.wal``. Appends go to the
    highest-index segment and are flushed per record (append-before-send
    is only meaningful if the bytes actually hit the file). On open, every
    existing segment is decoded: a log holding a checksum-valid payload
    that is not a record (another version's format, another program's
    file) is refused with :class:`~repro.wire.codec.CodecError` before
    anything on disk changes. Only then are the artifacts of a real crash
    removed — torn tails are truncated to the last clean record boundary,
    and a ``*.tmp`` left between a compaction write and its rename (the
    segments it would have replaced are all still there) is unlinked.
    """

    name = "file"

    def __init__(self, root: str, segment_bytes: int = SEGMENT_BYTES,
                 owns_dir: bool = False) -> None:
        self.root = str(root)
        self.segment_bytes = segment_bytes
        self._owns_dir = owns_dir
        self._sizes: Dict[int, int] = {}  # open-segment size per broker
        self._index: Dict[int, int] = {}  # open-segment index per broker
        os.makedirs(self.root, exist_ok=True)
        torn: List[Tuple[str, int]] = []  # (path, clean length)
        for bid in self.brokers():
            for path in self._segment_paths(bid):
                with open(path, "rb") as fh:
                    blob = fh.read()
                try:
                    _, torn_bytes = decode_records(blob)
                except CodecError as exc:
                    raise CodecError(f"{path}: {exc}") from None
                if torn_bytes:
                    torn.append((path, len(blob) - torn_bytes))
        for path, clean in torn:
            with open(path, "r+b") as fh:
                fh.truncate(clean)
        for bid in self.brokers():
            bdir = self._broker_dir(bid)
            for name in os.listdir(bdir):
                if name.endswith(".tmp"):
                    os.unlink(os.path.join(bdir, name))
            paths = self._segment_paths(bid)
            self._index[bid] = self._path_index(paths[-1]) if paths else 0
            self._sizes[bid] = os.path.getsize(paths[-1]) if paths else 0

    # -- path helpers -----------------------------------------------------

    def _broker_dir(self, broker: int) -> str:
        return os.path.join(self.root, f"b{broker:03d}")

    @staticmethod
    def _path_index(path: str) -> int:
        stem = os.path.splitext(os.path.basename(path))[0]
        return int(stem[3:])

    def _segment_paths(self, broker: int) -> List[str]:
        bdir = self._broker_dir(broker)
        if not os.path.isdir(bdir):
            return []
        names = sorted(n for n in os.listdir(bdir)
                       if n.startswith("seg") and n.endswith(".wal"))
        return [os.path.join(bdir, n) for n in names]

    # -- LogStore primitives ---------------------------------------------

    def append(self, broker: int, data: bytes) -> None:
        bdir = self._broker_dir(broker)
        os.makedirs(bdir, exist_ok=True)
        idx = self._index.get(broker, 0)
        size = self._sizes.get(broker, 0)
        if size and size + len(data) > self.segment_bytes:
            idx += 1
            size = 0
        path = os.path.join(bdir, f"seg{idx:06d}.wal")
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self._index[broker] = idx
        self._sizes[broker] = size + len(data)

    def segments(self, broker: int) -> List[bytes]:
        out = []
        for path in self._segment_paths(broker):
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    def replace(self, broker: int, data: bytes) -> None:
        bdir = self._broker_dir(broker)
        os.makedirs(bdir, exist_ok=True)
        idx = self._index.get(broker, 0) + 1
        path = os.path.join(bdir, f"seg{idx:06d}.wal")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        for old in self._segment_paths(broker):
            if old != path:
                os.unlink(old)
        self._index[broker] = idx
        self._sizes[broker] = len(data)

    def brokers(self) -> List[int]:
        out = []
        for name in os.listdir(self.root):
            if name.startswith("b") and name[1:].isdigit():
                out.append(int(name[1:]))
        return sorted(out)

    def close(self) -> None:
        if self._owns_dir:
            shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# persistent client sessions
# ---------------------------------------------------------------------------


class ClientSession:
    """Durable per-client delivery state.

    ``anchor`` is the broker whose WAL currently owns the session;
    ``acked`` is the delivery cursor (event ids settled by cumulative ACK
    or, without the reliability layer, by app-level delivery) of events
    still live in the log: the checkpoint that retires an event removes it
    from every cursor. ``unacked`` is the retransmit window —
    delivered-but-unsettled events in send order. ``lo``/``hi`` record the
    client's topic-range subscription (``None`` when unknown): the handover
    message carries it, and replay and compaction match events against it.
    """

    __slots__ = ("client", "anchor", "lo", "hi", "acked", "unacked")

    def __init__(self, client: int, anchor: int,
                 lo: Optional[float] = None, hi: Optional[float] = None) -> None:
        self.client = client
        self.anchor = anchor
        self.lo = lo
        self.hi = hi
        self.acked: set[int] = set()
        self.unacked: Dict[int, Notification] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClientSession(c{self.client}@b{self.anchor}, "
                f"acked={len(self.acked)}, unacked={len(self.unacked)})")


class ReplayState:
    """What :meth:`DurabilityManager.replay` reconstructs from the log."""

    __slots__ = ("events", "sessions", "torn_segments")

    def __init__(self, events: Dict[int, Notification],
                 sessions: Dict[int, ClientSession], torn_segments: int) -> None:
        self.events = events
        self.sessions = sessions
        self.torn_segments = torn_segments


# ---------------------------------------------------------------------------
# the durability manager
# ---------------------------------------------------------------------------


class DurabilityManager:
    """WAL + session bookkeeping for every broker in one system.

    Runtime hooks (:meth:`on_publish`, :meth:`on_deliver`,
    :meth:`on_settled`) append to the log *before* the corresponding send
    and mirror the state in memory; recovery deliberately ignores the
    mirror and reconstructs everything from the log bytes
    (:meth:`replay`), so the WAL stays load-bearing rather than
    decorative.
    """

    def __init__(self, system: "PubSubSystem", store: LogStore,
                 checkpoint_every: int = CHECKPOINT_EVERY) -> None:
        self.system = system
        self.store = store
        self.checkpoint_every = checkpoint_every
        self._lsn = 0
        #: live (uncompacted) published events, id -> Notification
        self.events: Dict[int, Notification] = {}
        #: ingress broker -> ids of the live events it logged, each once
        self._homed: Dict[int, List[int]] = {}
        #: publisher-outbox dead letters: publishes that died on the wire
        #: before reaching any broker's log (uplink into a dead or
        #: generation-stale target). The publishing device's library holds
        #: the event durably and re-submits it after the repair round;
        #: client devices do not crash in this model, so a plain dict is
        #: the outbox.
        self.dead_letters: Dict[int, Notification] = {}
        self.sessions: Dict[int, ClientSession] = {}
        #: anchor broker -> ids of the sessions anchored there; every write
        #: of a session's ``anchor`` goes through :meth:`_anchor_at`
        self._anchored: Dict[int, set[int]] = {}
        # the cursors (``acked``) of the sessions with a range, stabbed by
        # topic (None after open_session, rebuilt by the next checkpoint),
        # and those of the sessions without one
        self._ranged: Optional[IntervalStab] = None
        self._unranged: List[set[int]] = []
        self._since_ckpt: Dict[int, int] = {}
        self.checkpoints = 0
        self.handovers = 0
        self.records_appended = 0

    def register(self, hooks, net) -> None:
        """Claim the hook points of durable broker state."""
        hooks.subscribe.append(self.open_session)
        hooks.ingress.append(self.on_publish)
        hooks.before_send.append(self.on_deliver)
        hooks.broker_rx[m.SessionTransfer] = self.on_session_transfer
        hooks.settled.append(self.on_settled)
        if not self.system.options.reliable:
            # the app-level receipt is the delivery cursor — unless the
            # cumulative ACK is (hooks.settled): one source for the log
            hooks.delivered.append(self.on_client_delivered)
        hooks.backlog_source.append(self.replay_events)
        hooks.rehome.append(self.rehome_session)
        hooks.publish_dropped.append(self.dead_letter)
        hooks.close.append(self.close)

    # -- plumbing ---------------------------------------------------------

    def _append(self, broker: int, kind: str, *fields) -> None:
        """Log record ``(kind, lsn, *fields)`` at ``broker`` under the next
        lsn, and checkpoint the broker every ``checkpoint_every`` appends."""
        self._lsn = lsn = self._lsn + 1
        self.store.append_record(broker, (kind, lsn, *fields))
        self.records_appended += 1
        n = self._since_ckpt.get(broker, 0) + 1
        if n >= self.checkpoint_every:
            self.checkpoint(broker)
        else:
            self._since_ckpt[broker] = n

    def open_session(self, client: int, broker: int,
                     lo: Optional[float] = None,
                     hi: Optional[float] = None) -> ClientSession:
        """Create and log the session of a client that has none (callers
        probe :attr:`sessions` first); a topic-range subscriber's, with its
        range, at its home broker when it subscribes (``hooks.subscribe``)."""
        s = self.sessions[client] = ClientSession(client, broker, lo, hi)
        self._anchored.setdefault(broker, set()).add(client)
        self._ranged = None
        self._append(broker, "ses", client, lo, hi, ())
        return s

    # -- runtime hooks (append-before-send) -------------------------------

    def on_publish(self, broker: int, event: Notification) -> None:
        """Ingress broker logs the event before routing it anywhere."""
        eid = event.event_id
        if eid in self.events:  # ingressed again while live: it moves home
            for ids in self._homed.values():
                if eid in ids:
                    ids.remove(eid)
        self.events[eid] = event
        self._homed.setdefault(broker, []).append(eid)
        self._append(broker, "pub", event)

    def on_deliver(self, broker: int, client: int, event: Notification) -> None:
        """A deliver frame is about to leave ``broker`` for ``client``."""
        s = self.sessions.get(client)
        if s is None:
            s = self.open_session(client, broker)
        elif s.anchor != broker:
            self._move_session(s, broker)
        eid = event.event_id
        if eid not in self.events:
            # retired by compaction, or a dead letter: no dlv is logged
            # without its payload. Logs not compacted since a retirement
            # still hold the acks and dlvs the cursors forgot: rewrite them
            # first, or replay would apply them to the revived event
            for bid in self.store.brokers():
                self.checkpoint(bid)
            self.on_publish(broker, event)
        # mirror before append: the append itself may trigger a checkpoint,
        # which compacts from the mirror — a not-yet-mirrored delivery
        # would be dropped from the very image replacing its record
        if eid not in s.acked:
            s.unacked.setdefault(eid, event)
        self._append(broker, "dlv", client, eid)

    def _move_session(self, s: ClientSession, broker: int) -> None:
        """Re-anchor ``s`` at ``broker``, logging its full state there.

        A mobility handoff moves the session's home; without this, the old
        anchor's next checkpoint would drop the session's records (it only
        rewrites sessions anchored *there*) while the new anchor's log had
        never seen them — an unacked window silently lost from stable
        storage. Writing the whole window at the new anchor keeps every
        anchor's log self-contained, so old-anchor records are redundant
        by the time compaction discards them.
        """
        self._anchor_at(s, broker)
        # the delivery cursor rides inside the ses record (one append per
        # move, not one per settled event)
        self._append(broker, "ses", s.client, s.lo, s.hi,
                     tuple(sorted(s.acked)))
        for eid in s.unacked:  # insertion order == send order
            self._append(broker, "dlv", s.client, eid)

    def _anchor_at(self, s: ClientSession, broker: int) -> None:
        """Set ``s.anchor`` to ``broker``, keeping :attr:`_anchored` in step."""
        self._anchored[s.anchor].discard(s.client)
        s.anchor = broker
        self._anchored.setdefault(broker, set()).add(s.client)

    def on_settled(self, broker: int, client: int, event: Notification) -> None:
        """The delivery cursor advanced (cum-ACK progress or app receipt)."""
        s = self.sessions.get(client)
        if s is None:
            s = self.open_session(client, broker)
        eid = event.event_id
        acked = s.acked
        if eid in acked or eid not in self.events:
            # settled already: on_deliver made it live, and compaction
            # retires an event only once every matching session acked it
            return
        acked.add(eid)
        s.unacked.pop(eid, None)
        self._append(broker, "ack", client, eid)

    def on_client_delivered(self, client: int, broker: Optional[int],
                            event: Notification) -> None:
        """App-level delivery receipt — the cursor when reliability is off
        (see :meth:`register`)."""
        s = self.sessions.get(client)
        if s is None or event.event_id not in s.unacked:
            return
        self.on_settled(broker if broker is not None else s.anchor,
                        client, event)

    # -- checkpoint / compaction -----------------------------------------

    def checkpoint(self, broker: int) -> None:
        """Compact ``broker``'s log to the live set (cum-ACK keyed).

        Keeps: publishes ingressed here and not yet acked by every session
        that matches them (one with no known range matches every topic) —
        a retired event leaves those sessions' cursors too; for each
        session anchored here, its ``ses`` record with its cursor and its
        unacked window (``dlv``). Everything else is provably never needed
        by replay, so the log stays bounded. Never drops an unacked record
        — the property the WAL test battery pins.
        """
        out: List[tuple] = []
        lsn = self._lsn
        ranged = self._ranged
        if ranged is None:
            sessions = self.sessions.values()
            ranged = self._ranged = IntervalStab(
                (s.acked, s.lo, s.hi) for s in sessions if s.lo is not None)
            self._unranged = [s.acked for s in sessions if s.lo is None]
        events, unranged = self.events, self._unranged
        kept: List[int] = []
        for eid in sorted(self._homed.get(broker, ())):
            ev = events[eid]
            cursors = ranged.holders(ev.topic)
            cursors += unranged
            for acked in cursors:
                if eid not in acked:  # a matching session owes its ack
                    kept.append(eid)
                    lsn += 1
                    out.append(("pub", lsn, ev))
                    break
            else:  # every matching session acked it: retire it
                del events[eid]
                for acked in cursors:
                    acked.remove(eid)
        self._homed[broker] = kept
        for cid in sorted(self._anchored.get(broker, ())):
            s = self.sessions[cid]
            lsn += 1
            out.append(("ses", lsn, cid, s.lo, s.hi, tuple(sorted(s.acked))))
            for eid in s.unacked:
                lsn += 1
                out.append(("dlv", lsn, cid, eid))
        self._lsn = lsn
        self.store.replace_records(broker, out)
        self._since_ckpt[broker] = 0
        self.checkpoints += 1

    # -- replay (pure function of the log bytes) --------------------------

    def replay(self) -> ReplayState:
        """Rebuild events + sessions purely from stable storage.

        Records from all brokers are merged in global ``lsn`` order, so a
        session re-homed at repair time resolves to its newest anchor and
        an ack always lands before any stale ``dlv`` rewrite. Applying a
        log twice yields the same state as applying it once (every record
        application is idempotent), which the test battery asserts.
        """
        merged: List[Tuple[int, int, tuple]] = []
        torn = 0
        for bid in sorted(self.store.brokers()):
            for blob in self.store.segments(bid):
                records, torn_bytes = decode_records(blob)
                torn += bool(torn_bytes)
                merged.extend((rec[1], bid, rec) for rec in records)
        merged.sort(key=lambda t: (t[0], t[1]))
        # pass 1: the event payloads. Compaction rewrites surviving pub
        # records with fresh lsns, so a pub may sort *after* a dlv that
        # references it — events must be complete before sessions apply.
        events: Dict[int, Notification] = {}
        for _lsn, _bid, rec in merged:
            if rec[0] == "pub":
                events[rec[2].event_id] = rec[2]
        # pass 2: sessions, in global lsn order (newest anchor wins, acks
        # land before any stale dlv rewrite); an ack of an event not in
        # pass 1 went with the event's retirement, as in the mirror
        sessions: Dict[int, ClientSession] = {}
        for _lsn, bid, rec in merged:
            kind = rec[0]
            if kind == "pub":
                continue
            cid = rec[2]
            s = sessions.get(cid)
            if s is None:
                s = sessions[cid] = ClientSession(cid, bid)
            if kind == "dlv":
                eid = rec[3]
                s.anchor = bid
                if eid not in s.acked and eid in events:
                    s.unacked.setdefault(eid, events[eid])
                continue
            if kind == "ses":
                s.anchor, s.lo, s.hi = bid, rec[3], rec[4]
            for eid in rec[5] if kind == "ses" else rec[3:]:
                if eid in events:
                    s.acked.add(eid)
                    s.unacked.pop(eid, None)
        return ReplayState(events, sessions, torn)

    def replay_events(self) -> List[Tuple[int, Notification]]:
        """The repair-round gather: each live logged event and dead letter,
        in id order, with each logged session whose range holds it (one
        with no known range is offered nothing: no filter says it wants)."""
        state = self.replay()
        events = [state.events[eid] for eid in sorted(state.events)]
        stab = IntervalStab((cid, s.lo, s.hi)
                            for cid, s in sorted(state.sessions.items())
                            if s.lo is not None)
        return [(cid, ev) for ev in events + self.dead_letter_events()
                for cid in stab.holders(ev.topic)]

    def dead_letter(self, event: Notification) -> None:
        """A publish was dropped before any broker's log saw it."""
        self.dead_letters.setdefault(event.event_id, event)

    def dead_letter_events(self) -> List[Notification]:
        """Outstanding dead letters in id order (repair re-submission).

        Never drained: the repair round's ``keep`` dedups against what the
        subscriber has seen, and an event re-ingressed into a volatile
        backlog may be wiped by a *later* crash — the outbox only forgets
        when the run ends.
        """
        return [self.dead_letters[eid] for eid in sorted(self.dead_letters)]

    # -- repair-round integration ----------------------------------------

    def rehome_session(self, client: int, anchor: int,
                       down: Iterable[int]) -> None:
        """Hand the session over to ``anchor`` if its home broker died.

        Rides the repair round's synchronous resync (same trust model as
        the routing-table reinstall): the unacked window and the delivery
        cursor travel in a
        :class:`~repro.pubsub.messages.SessionTransfer`, which the new
        anchor logs to *its* WAL before any redelivery happens.
        """
        s = self.sessions.get(client)
        if s is None or s.anchor == anchor or s.anchor not in down:
            return
        msg = m.SessionTransfer(client, s.anchor, anchor,
                                tuple(s.unacked.values()),
                                tuple(sorted(s.acked)))
        self.system.brokers[anchor].receive(msg, -1 - client)
        self.handovers += 1

    def on_session_transfer(self, broker: "Broker", msg: "m.SessionTransfer",
                            frm: int) -> None:
        """New anchor installs a handed-over session and logs it durably
        (broker dispatch handler; the repair round synthesizes the message)."""
        bid = broker.id
        s = self.sessions.get(msg.client)
        if s is None:
            s = self.open_session(msg.client, bid)
        self._anchor_at(s, bid)
        for eid in msg.acked:
            s.acked.add(eid)
            s.unacked.pop(eid, None)
        # one ses record re-anchors the session *and* carries the
        # handed-over delivery cursor
        self._append(bid, "ses", msg.client, s.lo, s.hi,
                     tuple(sorted(s.acked)))
        for ev in msg.events:
            # mirror before append (see on_deliver): a checkpoint fired by
            # this very append compacts from the mirror
            if ev.event_id not in s.acked:
                s.unacked.setdefault(ev.event_id, ev)
            self._append(bid, "dlv", msg.client, ev.event_id)

    def close(self) -> None:
        self.store.close()

"""Socket transport: the Transport facade with brokers in other processes.

Architecture (see ARCHITECTURE.md "Wire protocol"): determinism lives with
the coordinator. It keeps the :class:`~repro.drivers.live.VirtualClock`,
the real :class:`~repro.network.links.LinkLayer` (latency, FIFO channels,
fault draws, shed ledgers) and all client objects. Each broker assigned to
a remote node runs inside that node's process as an SPMD replica of the
kernel; the coordinator ships it *dispatches* (a received message, a timer
firing, a client disconnect) and applies the *effects* the node streams
back (sends, timer requests, loss accounting) through the unmodified link
layer — in stream order, because a handler may enqueue a downlink message
and then reclaim the same client's channel within one dispatch.

:class:`SocketTransport` subclasses :class:`LinkLayer`, so every local
semantic (adjacency checks, per-category accounting, wireless fate draws)
is inherited verbatim; only ``register_broker`` is intercepted to route a
remote broker's rx into a dispatch.

Reliability of the coordinator-node stream itself: every dispatch carries
a monotone sequence number and every node keeps an outbox of the frames it
emitted for the current dispatch. When a connection dies mid-stream (see
the kill hooks used by the parity tests), the coordinator reconnects,
offers ``(session token, seq, frames already consumed)``, and the node
retransmits exactly the suffix the coordinator never saw — effects are
applied exactly once, so the scenario outcome is byte-identical to the
uninterrupted run.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.network.links import LinkLayer
from repro.wire.codec import decode_control, encode_control
from repro.wire.framing import FrameDecoder, FrameError, encode_frame

__all__ = ["BrokerPeer", "SocketTransport", "WireStats", "PeerError"]


class PeerError(ConfigurationError):
    """A node connection failed beyond what session resume can repair."""


class WireStats:
    """Coordinator-side counters for the node streams."""

    __slots__ = ("dispatches", "effects", "queries", "resumes",
                 "frames_resent", "frames_replayed", "bytes_tx", "bytes_rx",
                 "pings")

    def __init__(self) -> None:
        self.dispatches = 0
        self.effects = 0
        self.queries = 0
        self.resumes = 0
        self.frames_resent = 0
        #: frames received on a resumed connection for a dispatch that
        #: began on the severed one: the node's retransmitted outbox
        #: suffix plus whatever the kernel emitted while the link was down
        self.frames_replayed = 0
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.pings = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class BrokerPeer:
    """One blocking, session-resumable connection to a broker node process.

    The coordinator is single-threaded and lockstep: at most one dispatch
    is in flight per peer, so a plain blocking socket is the honest
    transport here — and node-side too, where one thread per session
    answers each dispatch with one write per segment.
    """

    RESUME_ATTEMPTS = 40
    RESUME_BACKOFF_S = 0.05

    def __init__(self, host: str, port: int, token: str,
                 stats: Optional[WireStats] = None,
                 connect_timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.stats = stats or WireStats()
        self.connect_timeout = connect_timeout
        self.sock: Optional[socket.socket] = None
        self.decoder = FrameDecoder()
        self._inbox: Deque[bytes] = deque()
        self.seq = 0
        self.consumed = 0           # frames consumed for the current seq
        self._dispatch_frame = b""  # raw frame of the current dispatch
        self._last_answer: Optional[Tuple[int, int, bytes]] = None
        # test hook: kill the connection after consuming N more frames
        self.kill_after_frames: Optional[int] = None
        self.kills = 0

    # ------------------------------------------------------------------
    # raw stream
    # ------------------------------------------------------------------
    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        """Frames received but not consumed die with the connection: a
        node writes a whole dispatch segment at once, so the rest of it is
        usually buffered here already, and a kill that kept it would sever
        nothing."""
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None
        self.decoder = FrameDecoder()
        self._inbox.clear()

    def kill(self) -> None:
        """Sever the TCP connection (test hook for mid-stream failures)."""
        self.kills += 1
        self.close()

    def _send_raw(self, frame: bytes) -> None:
        if self.sock is None:
            raise OSError("peer socket closed")
        self.sock.sendall(frame)
        self.stats.bytes_tx += len(frame)

    def _recv_value(self) -> Any:
        """Next control value, skipping keepalive pings."""
        while True:
            while not self._inbox:
                if self.sock is None:
                    raise OSError("peer socket closed")
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise OSError("peer connection closed")
                self.stats.bytes_rx += len(chunk)
                self._inbox.extend(self.decoder.feed(chunk))
            value = decode_control(self._inbox.popleft())
            if value and value[0] == "ping":
                self.stats.pings += 1
                continue
            return value

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------
    def hello(self, config: dict, brokers: Tuple[int, ...]) -> None:
        self.connect()
        self._send_raw(encode_frame(encode_control(
            ("hello", self.token, config, tuple(brokers))
        )))
        reply = self._recv_value()
        if reply[0] != "hello-ok":
            raise PeerError(f"node refused hello: {reply!r}")

    def _resume(self) -> None:
        """Reconnect and replay the frame suffix the drop swallowed."""
        self.stats.resumes += 1
        last_err: Optional[Exception] = None
        for _ in range(self.RESUME_ATTEMPTS):
            try:
                self.connect()
                self._send_raw(encode_frame(encode_control(
                    ("resume", self.token, self.seq, self.consumed)
                )))
                ack = self._recv_value()
                break
            except (OSError, FrameError) as exc:
                last_err = exc
                time.sleep(self.RESUME_BACKOFF_S)
        else:
            raise PeerError(
                f"node {self.host}:{self.port} unreachable after "
                f"{self.RESUME_ATTEMPTS} resume attempts: {last_err}"
            )
        if ack[0] != "resume-ok":
            raise PeerError(f"node refused resume: {ack!r}")
        node_seq, pending_query = int(ack[1]), ack[2]
        if node_seq < self.seq:
            # the dispatch frame itself was swallowed: re-send it (the node
            # has not executed it, so this is still exactly-once)
            self._send_raw(self._dispatch_frame)
            self.stats.frames_resent += 1
        elif pending_query is not None and self._last_answer is not None:
            ans_seq, ans_index, ans_frame = self._last_answer
            if (ans_seq, ans_index) == (self.seq, pending_query):
                # the node asked, we answered, the answer died on the wire
                self._send_raw(ans_frame)
                self.stats.frames_resent += 1

    def _send_with_resume(self, frame: bytes) -> None:
        try:
            self._send_raw(frame)
        except OSError:
            self._resume()

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def dispatch(
        self,
        kind: str,
        args: tuple,
        deltas: tuple,
        now: float,
        on_effect: Callable[[tuple], None],
        on_query: Callable[[tuple], Any],
    ) -> Any:
        """Run one dispatch on the node; stream effects/queries until done."""
        self.seq += 1
        self.consumed = 0
        self._last_answer = None
        self.stats.dispatches += 1
        self._dispatch_frame = encode_frame(encode_control(
            ("dispatch", self.seq, now, deltas, kind, args)
        ))
        self._send_with_resume(self._dispatch_frame)
        resumed = False
        while True:
            try:
                value = self._recv_value()
            except (OSError, FrameError):
                self._resume()
                resumed = True
                continue
            if resumed:
                self.stats.frames_replayed += 1
            tag = value[0]
            if tag in ("effect", "query"):
                index = int(value[1])
                if index <= self.consumed:
                    continue  # duplicate from an over-eager resume replay
                if index != self.consumed + 1:
                    raise PeerError(
                        f"gap in the node stream: frame {index} of dispatch "
                        f"{self.seq} after frame {self.consumed}"
                    )
                self.consumed = index
            if tag == "effect":
                self.stats.effects += 1
                on_effect(tuple(value[2]))
            elif tag == "query":
                self.stats.queries += 1
                result = on_query(tuple(value[2]))
                frame = encode_frame(encode_control(("answer", result)))
                self._last_answer = (self.seq, self.consumed, frame)
                self._send_with_resume(frame)
            elif tag == "done":
                if int(value[1]) != self.seq:
                    continue  # stale completion replayed across a resume
                epochs = tuple(value[3]) if len(value) > 3 else ()
                return value[2], epochs
            elif tag == "error":
                raise PeerError(f"node kernel error: {value[1]}")
            else:
                raise PeerError(f"unexpected frame from node: {tag!r}")
            self._maybe_kill()

    def _maybe_kill(self) -> None:
        if self.kill_after_frames is not None:
            self.kill_after_frames -= 1
            if self.kill_after_frames <= 0:
                self.kill_after_frames = None
                self.kill()

    def _part(self, tag: str) -> None:
        try:
            if self.sock is not None:
                self._send_raw(encode_frame(encode_control((tag,))))
        except OSError:
            pass
        self.close()

    def bye(self) -> None:
        """End the session: the node frees its replica and keeps serving."""
        self._part("bye")

    def shutdown(self) -> None:
        """End the session and stop the node server."""
        self._part("shutdown")


class SocketTransport(LinkLayer):
    """:class:`LinkLayer` with some brokers living in node processes.

    ``owner`` maps broker id -> index into ``peers``; brokers absent from
    the map stay local (their rx callback is installed unchanged), so one
    system can mix in-process and remote brokers freely.
    """

    def __init__(self, *args: Any, peers: List[BrokerPeer],
                 owner: Dict[int, int], stats: Optional[WireStats] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.peers = peers
        self.owner = dict(owner)
        self.stats = stats or WireStats()
        for peer in peers:
            peer.stats = self.stats
        self._clients: Dict[int, Any] = {}
        self._on_loss: Optional[Callable[[int, Any], None]] = None
        # per-node snapshot of client dynamic state already shipped
        self._sent_state: List[Dict[int, tuple]] = [dict() for _ in peers]
        # global per-client protocol epochs (sub-unsub's shared counter):
        # nodes report allocations in their done frames; the coordinator
        # merges them here and ships deltas to every *other* node, so the
        # counter stays globally monotone across the process split
        self._epoch_state: Dict[int, int] = {}
        self._sent_epochs: List[Dict[int, int]] = [dict() for _ in peers]
        self._timer_handles: Dict[Tuple[int, int], Any] = {}

    # ------------------------------------------------------------------
    # late binding (the system object exists only after construction)
    # ------------------------------------------------------------------
    def bind_system(self, system: Any) -> None:
        self._clients = system.clients
        self._on_loss = system.metrics.on_loss

    # ------------------------------------------------------------------
    # Transport facade interception
    # ------------------------------------------------------------------
    def register_broker(self, broker_id: int, rx: Callable[[Any, int], None]) -> None:
        if broker_id in self.owner:
            def proxy(msg: Any, frm: int, _bid: int = broker_id) -> None:
                self._dispatch(_bid, "recv", (_bid, msg, frm))
            super().register_broker(broker_id, proxy)
        else:
            super().register_broker(broker_id, rx)

    # ------------------------------------------------------------------
    # protocol-entry forwarding (client disconnect paths + quiescence)
    # ------------------------------------------------------------------
    def remote_on_disconnect(self, broker_id: int, client: int) -> None:
        self._dispatch(broker_id, "disconnect", (broker_id, client))

    def remote_on_proclaimed_disconnect(
        self, broker_id: int, client: int, dest: int
    ) -> None:
        self._dispatch(broker_id, "proclaimed", (broker_id, client, dest))

    def remote_quiescent(self) -> bool:
        for idx in range(len(self.peers)):
            if not self._dispatch_to_node(idx, "quiescent", ()):
                return False
        return True

    def shutdown_peers(self) -> None:
        for peer in self.peers:
            peer.shutdown()

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, broker_id: int, kind: str, args: tuple) -> Any:
        return self._dispatch_to_node(self.owner[broker_id], kind, args)

    def _dispatch_to_node(self, node_idx: int, kind: str, args: tuple) -> Any:
        peer = self.peers[node_idx]
        result, epochs = peer.dispatch(
            kind, args, self._deltas(node_idx), self.clock.now,
            lambda eff: self._apply_effect(node_idx, eff),
            lambda query: self._answer_query(query),
        )
        sent = self._sent_epochs[node_idx]
        for cid, value in epochs:
            cid, value = int(cid), int(value)
            self._epoch_state[cid] = value
            sent[cid] = value  # the reporting node already holds it
        return result

    def _deltas(self, node_idx: int) -> tuple:
        sent = self._sent_state[node_idx]
        deltas = []
        for cid, client in self._clients.items():
            state = (client.connected, client.current_broker,
                     client.last_broker, client.connect_epoch)
            if sent.get(cid) != state:
                sent[cid] = state
                deltas.append((cid,) + state)
        sent_epochs = self._sent_epochs[node_idx]
        epoch_deltas = []
        for cid, value in self._epoch_state.items():
            if sent_epochs.get(cid) != value:
                sent_epochs[cid] = value
                epoch_deltas.append((cid, value))
        return tuple(deltas), tuple(epoch_deltas)

    def _apply_effect(self, node_idx: int, eff: tuple) -> None:
        kind = eff[0]
        if kind == "send_broker":
            self.broker_to_broker(int(eff[1]), int(eff[2]), eff[3])
        elif kind == "unicast":
            self.unicast(int(eff[1]), int(eff[2]), eff[3])
        elif kind == "send_client":
            self.broker_to_client(int(eff[1]), eff[2])
        elif kind == "timer":
            token, delay, fifo = int(eff[1]), float(eff[2]), bool(eff[3])
            if fifo:
                self.clock.call_later_fifo(
                    delay, self._fire_timer, node_idx, token
                )
            else:
                self._timer_handles[(node_idx, token)] = self.clock.call_later(
                    delay, self._fire_timer, node_idx, token
                )
        elif kind == "cancel":
            handle = self._timer_handles.pop((node_idx, int(eff[1])), None)
            if handle is not None:
                handle.cancel()
        elif kind == "loss":
            if self._on_loss is not None:
                self._on_loss(int(eff[1]), eff[2])
        else:
            raise PeerError(f"unknown effect kind {kind!r}")

    def _fire_timer(self, node_idx: int, token: int) -> None:
        self._timer_handles.pop((node_idx, token), None)
        self._dispatch_to_node(node_idx, "fire", (token,))

    def _answer_query(self, query: tuple) -> Any:
        kind = query[0]
        if kind == "reclaim":
            return tuple(self.cancel_downlink_pending(int(query[1])))
        if kind == "backlog":
            return self.downlink_backlog(int(query[1]))
        raise PeerError(f"unknown query kind {kind!r}")

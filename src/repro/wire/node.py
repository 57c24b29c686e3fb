"""Broker node process: a blocking TCP server running kernel replicas.

One node owns a subset of the brokers. It builds an SPMD replica of the
:class:`~repro.pubsub.system.PubSubSystem` from the
:class:`~repro.experiments.config.ExperimentConfig` the coordinator sends
in ``hello`` (the same mapping every driver builds through; same seed,
same named random streams, same id allocators — so queue ids and
populations match the coordinator bit for bit), then executes the
dispatches the coordinator streams at it:

``recv``        a message arriving at an owned broker
``fire``        a timer the broker requested earlier
``disconnect``  / ``proclaimed``  client-side protocol entry points
``quiescent``   drain check (owned brokers only; the coordinator ANDs)

Handlers run on the *real* kernel code — broker, protocol, filter tables —
against a :class:`NodeClock` and :class:`NodeTransport` that turn every
side effect (send, timer, loss accounting) into a frame for the
coordinator, which applies it through its unmodified link layer. Queries
(``reclaim_downlink``/``downlink_backlog``) read their ``answer`` from the
socket before the handler goes on, because their results feed its very
next statement.

The stream is lockstep, so the server is synchronous: a blocking listener
and **one thread per session** that reads a dispatch, runs the kernel
inline, collects the frames it emits in the outbox and writes them with
**one** ``sendall`` **per dispatch segment** — at ``done``/``error``, and
before blocking on a query. Backpressure is that blocking ``sendall``
against the TCP send buffer. Keepalive is a ping after ``keepalive_s`` of
silence on the read side, sent ``MSG_DONTWAIT`` and *shed* — counted,
never queued — when the peer has stopped draining. A reconnecting
coordinator's ``resume`` is read by a short-lived greeter thread that
hands its socket to the session and shuts the old one down; the session
thread adopts it at its next read and replays what the drop swallowed.
"""

from __future__ import annotations

import argparse
import select
import socket
import sys
import threading
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.drivers.base import CancelHandle, Driver, Transport
from repro.errors import ConfigurationError, SchedulingError
from repro.metrics.hub import MetricsHub
from repro.network.links import WIRED_LATENCY_MS, WIRELESS_LATENCY_MS
from repro.wire.codec import CodecError, decode_control, encode_control
from repro.wire.framing import FrameDecoder, FrameError, encode_frame

# every protocol a session may name, imported here on the main thread: a
# replica build importing one first would allocate it in its session
# thread's fresh malloc arena (+1.2 MB of a node's peak RSS, measured)
import repro.mobility.home_broker  # noqa: E402,F401
import repro.mobility.mhh  # noqa: E402,F401
import repro.mobility.sub_unsub  # noqa: E402,F401

__all__ = ["NodeServer", "main"]

KEEPALIVE_S = 2.0
#: a connection that has not sent its first frame by then is closed
GREET_TIMEOUT_S = 10.0
#: how often the accept loop looks at the stop flag
ACCEPT_POLL_S = 0.5


def _frame(value: tuple) -> bytes:
    return encode_frame(encode_control(value))


_PING = _frame(("ping",))


def _recv_frames(sock: socket.socket, decoder: FrameDecoder) -> List[bytes]:
    chunk = sock.recv(65536)
    if not chunk:
        raise ConnectionError("coordinator closed the connection")
    return decoder.feed(chunk)


# ---------------------------------------------------------------------------
# recording clock / transport / metrics: kernel side effects become frames
# ---------------------------------------------------------------------------
class _NodeHandle(CancelHandle):
    __slots__ = ("_clock", "_token")

    def __init__(self, clock: "NodeClock", token: int) -> None:
        self._clock = clock
        self._token = token

    def cancel(self) -> None:
        self._clock._cancel(self._token)


class NodeClock:
    """Clock facade whose timers are scheduled by the coordinator.

    ``now`` is set from each dispatch frame (the coordinator's virtual
    time); ``call_later`` hands out a token, remembers the callback, and
    emits a ``timer`` effect — the coordinator schedules the real timer
    and dispatches ``fire`` with the token when it goes off.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self.now = 0.0
        self._next_token = 1
        self._timers: Dict[int, Tuple[Any, tuple]] = {}

    def _register(self, delay: float, cb: Any, args: tuple, fifo: bool) -> int:
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        token = self._next_token
        self._next_token += 1
        self._timers[token] = (cb, args)
        self._session.emit_effect(("timer", token, float(delay), fifo))
        return token

    def call_later(self, delay: float, cb: Any, *args: Any) -> CancelHandle:
        return _NodeHandle(self, self._register(delay, cb, args, False))

    def call_later_fifo(self, delay: float, cb: Any, *args: Any) -> None:
        self._register(delay, cb, args, True)

    def _cancel(self, token: int) -> None:
        if self._timers.pop(token, None) is not None:
            self._session.emit_effect(("cancel", token))

    def fire(self, token: int) -> None:
        entry = self._timers.pop(token, None)
        if entry is None:
            raise ConfigurationError(f"fire for unknown timer token {token}")
        cb, args = entry
        cb(*args)


class NodeTransport(Transport):
    """Transport facade that streams sends back as effects.

    Uplink sends never happen here (clients live with the coordinator);
    reclaim/backlog are synchronous queries against the coordinator's
    channels, answered before the handler continues.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._broker_rx: Dict[int, Any] = {}
        self.wired_latency = WIRED_LATENCY_MS
        self.wireless_latency = WIRELESS_LATENCY_MS

    def register_broker(self, broker_id: int, rx: Any) -> None:
        self._broker_rx[broker_id] = rx

    def register_client(self, client_id: int, rx: Any) -> None:
        pass  # clients live coordinator-side; replica objects are state only

    def send_broker(self, frm: int, to: int, msg: Any) -> None:
        self._session.emit_effect(("send_broker", frm, to, msg))

    def unicast(self, frm: int, to: int, msg: Any) -> None:
        self._session.emit_effect(("unicast", frm, to, msg))

    def send_client(self, client_id: int, msg: Any) -> None:
        self._session.emit_effect(("send_client", client_id, msg))

    def send_uplink(self, client_id: int, broker_id: int, msg: Any) -> None:
        raise ConfigurationError("broker replica attempted a client uplink")

    def reclaim_downlink(self, client_id: int) -> List[Any]:
        return list(self._session.query(("reclaim", client_id)))

    def downlink_backlog(self, client_id: int) -> int:
        return int(self._session.query(("backlog", client_id)))


class NodeMetrics(MetricsHub):
    """Replica metrics: explicit losses are effects, the rest is local."""

    def __init__(self, session: "Session") -> None:
        super().__init__()
        self._session = session

    def on_loss(self, client: int, event: Any) -> None:
        self._session.emit_effect(("loss", client, event))


class NodeDriver(Driver):
    name = "wire-node"
    sim = None

    def __init__(self, clock: NodeClock, transport: NodeTransport) -> None:
        self.clock = clock
        self.transport = transport

    def build_transport(self, topo: Any, paths: Any,
                        **_ignored: Any) -> Transport:
        return self.transport

    def build_log_store(self, wal_dir: Optional[str] = None) -> Any:
        raise ConfigurationError("durable state is not supported over wire nodes")


# ---------------------------------------------------------------------------
# session: one coordinator's replica, resumable frame stream and thread
# ---------------------------------------------------------------------------
class Session:
    """Replica state plus the exactly-once outbox for one coordinator."""

    def __init__(self, server: "NodeServer", token: str, config: dict,
                 brokers: Tuple[int, ...]) -> None:
        self.server = server
        self.token = token
        self.brokers = tuple(brokers)
        #: the live connection; ``None`` while waiting for a resume
        self.sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._inbox: Deque[bytes] = deque()
        #: ``(socket, seq, consumed)`` of a resume the session has not
        #: adopted yet; the condition guards it and ``sock``'s hand-over
        self._offer: Optional[Tuple[socket.socket, int, int]] = None
        self._offered = threading.Condition()
        self.last_seq = 0
        self.outbox: List[bytes] = []
        self.flushed = 0  # outbox[:flushed] has been handed to a socket
        self.out_count = 0
        self._pending: Optional[int] = None  # index of the unanswered query
        self._epoch_sent: Dict[int, int] = {}
        self._epoch_updates: List[Tuple[int, int]] = []
        self._building = True
        self.clock = NodeClock(self)
        self.transport = NodeTransport(self)
        self.system = self._build_replica(config)
        self._building = False

    def _build_replica(self, config: dict) -> Any:
        from repro.experiments.config import ExperimentConfig
        from repro.workload.generator import build_population
        from repro.workload.spec import WorkloadSpec

        cfg = ExperimentConfig(
            **{**config, "workload": WorkloadSpec(**config["workload"])}
        )
        system = cfg.make_system(NodeDriver(self.clock, self.transport))
        system.metrics = NodeMetrics(self)
        build_population(system, cfg.workload)
        return system

    # ------------------------------------------------------------------
    # frames out
    # ------------------------------------------------------------------
    def emit_effect(self, eff: tuple) -> None:
        if self._building:
            raise ConfigurationError(
                f"kernel side effect during replica construction: {eff[0]!r}"
            )
        self.out_count += 1
        self.outbox.append(_frame(("effect", self.out_count, eff)))

    def query(self, q: tuple) -> Any:
        self.out_count += 1
        self._pending = self.out_count
        self.outbox.append(_frame(("query", self.out_count, q)))
        self._flush()
        reply = self._read()
        self._pending = None
        if reply[0] != "answer":
            raise FrameError(f"expected an answer, got {reply[0]!r}")
        return reply[1]

    def _flush(self) -> None:
        """One write for every frame emitted since the last one."""
        segment = b"".join(self.outbox[self.flushed:])
        self.flushed = len(self.outbox)
        self._write(segment)

    def _write(self, data: bytes) -> None:
        """Blocks while the coordinator is not draining (backpressure). A
        dead or absent connection just leaves the frames in the outbox for
        the next session resume."""
        try:
            if self.sock is not None:
                self.sock.sendall(data)
        except OSError:
            self._drop()

    def _drop(self) -> None:
        """Frames received but not consumed die with their connection."""
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()
        self._decoder = FrameDecoder()
        self._inbox.clear()

    # ------------------------------------------------------------------
    # frames in
    # ------------------------------------------------------------------
    def _read(self) -> tuple:
        """Next control value from the coordinator, whichever connection
        it arrives on; sits out a dead one until the coordinator resumes."""
        while True:
            try:
                if self._inbox:
                    return decode_control(self._inbox.popleft())
                self._adopt(wait=self.sock is None)
                self._inbox.extend(self._recv())
            except (OSError, FrameError, CodecError):
                self._drop()

    def _recv(self) -> List[bytes]:
        """Block for the next frames, pinging the coordinator after every
        ``keepalive_s`` of silence. A ping the send buffer has no room for
        is shed, never queued and never waited for: a peer that stopped
        draining gets no keepalive backlog on top of its data backlog."""
        sock = self.sock
        if sock is None:
            raise ConnectionError("the adopted connection died in the replay")
        while not select.select([sock], [], [], self.server.keepalive_s)[0]:
            try:
                if sock.send(_PING, socket.MSG_DONTWAIT) < len(_PING):
                    raise ConnectionError("send buffer filled mid-ping")
            except BlockingIOError:
                with self.server.lock:
                    self.server.shed_pings += 1
        return _recv_frames(sock, self._decoder)

    def offer(self, sock: socket.socket, seq: int, consumed: int) -> None:
        """Hand the session a resumed connection (greeter thread): the
        coordinator consumed ``consumed`` frames of dispatch ``seq``."""
        with self._offered:
            if self._offer is not None:
                self._offer[0].close()  # superseded before it was adopted
            self._offer = (sock, seq, consumed)
            live = self.sock
            if live is not None:
                try:  # wake a recv/sendall blocked on the old connection
                    live.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._offered.notify()

    def _adopt(self, wait: bool) -> None:
        """Move to the offered connection, if any, and replay onto it."""
        with self._offered:
            while self._offer is None:
                if not wait:
                    return
                self._offered.wait()
            (sock, seq, consumed), self._offer = self._offer, None
            self._drop()
            self.sock = sock
        ack = _frame(("resume-ok", self.last_seq, self._pending))
        # a dispatch that never arrived has nothing to replay: the
        # coordinator re-sends it on seeing last_seq
        start = consumed if seq == self.last_seq else self.flushed
        self._write(b"".join((ack, *self.outbox[start:self.flushed])))

    # ------------------------------------------------------------------
    # the session thread
    # ------------------------------------------------------------------
    def serve(self, sock: socket.socket) -> None:
        """Lockstep loop: read a dispatch, run it, write what it emitted."""
        self.sock = sock
        self._write(_frame(("hello-ok",)))
        try:
            while True:
                value = self._read()
                tag = value[0]
                if tag == "dispatch":
                    _, seq, now, deltas, kind, args = value
                    self._execute(
                        int(seq), float(now), deltas, kind, tuple(args)
                    )
                elif tag == "bye":
                    return
                elif tag == "shutdown":
                    self.server.request_stop()
                    return
                else:
                    self._drop()  # not our protocol: only a resume resyncs
        finally:
            self.server.sessions.pop(self.token, None)
            self._drop()

    def _execute(self, seq: int, now: float, deltas: tuple,
                 kind: str, args: tuple) -> None:
        if seq <= self.last_seq:
            return  # duplicate of a dispatch we already own
        self.last_seq = seq
        self.outbox = []
        self.flushed = 0
        self.out_count = 0
        try:
            result = self._run_kernel(now, deltas, kind, args)
            epochs = tuple(self._epoch_updates)
            self._epoch_updates = []
            self.outbox.append(_frame(("done", seq, result, epochs)))
        except Exception as exc:
            traceback.print_exc()
            self.outbox.append(
                _frame(("error", f"{type(exc).__name__}: {exc}"))
            )
        self._flush()

    def _run_kernel(self, now: float, deltas: tuple,
                    kind: str, args: tuple) -> Any:
        self.clock.now = float(now)
        self._apply_deltas(deltas)
        system = self.system
        if kind == "recv":
            bid, msg, frm = args
            system.brokers[int(bid)].receive(msg, int(frm))
        elif kind == "fire":
            self.clock.fire(int(args[0]))
        elif kind == "disconnect":
            bid, client = args
            system.protocol.on_disconnect(system.brokers[int(bid)], int(client))
        elif kind == "proclaimed":
            bid, client, dest = args
            system.protocol.on_proclaimed_disconnect(
                system.brokers[int(bid)], int(client), int(dest)
            )
        elif kind == "quiescent":
            return bool(system.protocol.quiescent())
        elif kind == "stats":
            return {"shed_pings": self.server.shed_pings}
        else:
            raise ConfigurationError(f"unknown dispatch kind {kind!r}")
        self._collect_epochs()
        return None

    def _apply_deltas(self, deltas: tuple) -> None:
        client_deltas, epoch_deltas = deltas
        clients = self.system.clients
        for cid, connected, current, last, epoch in client_deltas:
            c = clients[int(cid)]
            c.connected = bool(connected)
            c.current_broker = current
            c.last_broker = last
            c.connect_epoch = int(epoch)
        if epoch_deltas:
            epochs = getattr(self.system.protocol, "_epochs", None)
            for cid, value in epoch_deltas:
                self._epoch_sent[int(cid)] = int(value)
                if epochs is not None:
                    epochs[int(cid)] = int(value)

    def _collect_epochs(self) -> None:
        """Diff the protocol's shared per-client counters for the done frame.

        The sub-unsub baseline allocates a global per-client epoch at
        whichever broker handles a connect; with brokers split across
        processes that counter must travel, or two nodes would hand out
        the same epoch. (In a real deployment this would be client-carried
        state; here the coordinator is its bus.)
        """
        epochs = getattr(self.system.protocol, "_epochs", None)
        if epochs is None:
            return
        for cid, value in epochs.items():
            if self._epoch_sent.get(cid) != value:
                self._epoch_sent[cid] = value
                self._epoch_updates.append((cid, value))


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
class NodeServer:
    """The broker node process: serve until told to shut down."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 keepalive_s: float = KEEPALIVE_S) -> None:
        self.host = host
        self.port = port
        self.keepalive_s = keepalive_s
        self.sessions: Dict[str, Session] = {}
        self.shed_pings = 0
        self.lock = threading.Lock()  # shed_pings is bumped by every session
        self._stop = threading.Event()

    def request_stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        address = (self.host, self.port)
        with socket.create_server(address, family=family) as srv:
            self.host, self.port = srv.getsockname()[:2]
            print(f"WIRE_NODE_LISTENING {self.host} {self.port}", flush=True)
            srv.settimeout(ACCEPT_POLL_S)
            while not self._stop.is_set():
                try:
                    sock, _ = srv.accept()
                except (socket.timeout, ConnectionAbortedError):
                    continue
                threading.Thread(
                    target=self._greet, args=(sock,), daemon=True
                ).start()

    def _greet(self, sock: socket.socket) -> None:
        """A connection's first frame decides whose socket it is: ``hello``
        turns this thread into the new session's thread, ``resume`` hands
        the socket to the session that owns the token."""
        def refuse(reason: str) -> None:
            try:
                sock.sendall(_frame(("error", reason)))
            except OSError:
                pass
            sock.close()

        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(GREET_TIMEOUT_S)
            decoder = FrameDecoder()
            payloads: List[bytes] = []
            while not payloads:
                payloads = _recv_frames(sock, decoder)
            value = decode_control(payloads[0])
            sock.settimeout(None)
        except (OSError, FrameError, CodecError):
            sock.close()
            return
        if value[0] == "hello":
            _, token, config, brokers = value
            try:
                session = Session(self, token, config, tuple(brokers))
            except Exception as exc:
                traceback.print_exc()
                refuse(f"replica build failed: {exc}")
                return
            self.sessions[token] = session
            session.serve(sock)
        elif value[0] == "resume":
            _, token, seq, consumed = value
            session = self.sessions.get(token)
            if session is None:
                refuse(f"unknown session {token!r}")
            else:
                session.offer(sock, int(seq), int(consumed))
        else:
            refuse(f"unknown frame tag {value[0]!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.wire.node", description="run one broker node process"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="listen for a coordinator")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks a free port (printed on stdout)")
    serve.add_argument("--keepalive", type=float, default=KEEPALIVE_S,
                       help="seconds of silence from the coordinator before "
                            "the node pings it")
    args = parser.parse_args(argv)
    if args.command == "serve":
        NodeServer(args.host, args.port, keepalive_s=args.keepalive).run()
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""What the synchronous broker node promises, pinned at its own seams.

``tests/test_wire_transport.py`` holds the end-to-end contract (socket
outcome == simulated outcome). This file pins the node's I/O shape, which
parity alone cannot see:

* one ``sendall`` per dispatch segment, frames in emission order;
* keepalive only after silence, shed — never queued — against a full send
  buffer, and a session that still adopts a ``resume`` afterwards;
* resume at *every* early frame boundary, including the two around a
  ``query``/``answer`` exchange;
* a ``bye`` frees the replica, so a long-lived ``serve`` can be reused;
* a gap in the node's frame numbering is a typed error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import socket
import sys
import threading
import time

import pytest

from repro.conformance.fuzzer import run_scenario
from repro.metrics.summary import build_row
from repro.conformance.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.drivers.socket import BrokerPeer, PeerError, WireStats
from repro.wire.codec import decode_control, encode_control
from repro.wire.framing import encode_frame, split_frames
from repro.wire.harness import run_socket_scenario, spawn_nodes
from repro.wire.node import NodeServer, Session

from test_wire_transport import PARITY_SEED, _parity_diff

NO_DELTAS = ((), ())


def _small(protocol: str) -> ExperimentConfig:
    """The parity scenario cut to 40 s: ~100 frames per node, two or more
    handoffs (hence queries), a twentieth of a second per socket run."""
    return dataclasses.replace(
        Scenario.from_seed(PARITY_SEED).config, protocol=protocol
    ).with_workload(duration_s=40.0)


def _replica_config(protocol: str = "mhh") -> dict:
    cfg = _small(protocol)
    return dataclasses.asdict(
        dataclasses.replace(cfg, faults=None, crashes=None, queue_cap=None)
    )


def _frame(value: tuple) -> bytes:
    return encode_frame(encode_control(value))


def _values(data: bytes) -> list:
    payloads, clean, err = split_frames(data)
    assert err is None and clean == len(data), "a write tore a frame"
    return [decode_control(p) for p in payloads]


def _wait_for(condition, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _unexpected(*_args):
    raise AssertionError("a quiescent dispatch emits no effect or query")


@contextlib.contextmanager
def _running_server(keepalive_s: float = 2.0):
    server = NodeServer(port=0, keepalive_s=keepalive_s)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert _wait_for(lambda: server.port != 0), "server never bound a port"
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# (i) one write per dispatch segment
# ---------------------------------------------------------------------------
class _RecordingSocket:
    """One end of a socketpair that remembers every ``sendall``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.writes: list = []

    def sendall(self, data: bytes) -> None:
        self.writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):  # fileno, recv, send, close, shutdown
        return getattr(self._sock, name)


def test_one_write_per_dispatch_segment():
    node_end, coordinator_end = socket.socketpair()
    recorder = _RecordingSocket(node_end)
    session = Session(NodeServer(), "seg", _replica_config(), (0, 2))
    answers = []

    def scripted_kernel(now, deltas, kind, steps):
        # the kernel's two ways out, in a scripted order: what NodeClock /
        # NodeTransport / NodeMetrics call while a real handler runs
        for step in steps:
            if step == "query":
                value = session.query(("backlog", 3))
                answers.append((value, len(recorder.writes)))
            else:
                session.emit_effect(("cancel", step))

    session._run_kernel = scripted_kernel
    # the coordinator's whole side of the conversation, buffered up front
    coordinator_end.sendall(b"".join([
        _frame(("dispatch", 1, 0.0, NO_DELTAS, "script", (11, 12, 13))),
        _frame(("dispatch", 2, 1.0, NO_DELTAS, "script",
                (21, 22, "query", 23))),
        _frame(("answer", 7)),
        _frame(("bye",)),
    ]))
    session.serve(recorder)  # returns at bye

    greeting, plain, asked, finished = recorder.writes  # exactly four writes
    assert _values(greeting) == [("hello-ok",)]
    assert _values(plain) == [
        ("effect", 1, ("cancel", 11)),
        ("effect", 2, ("cancel", 12)),
        ("effect", 3, ("cancel", 13)),
        ("done", 1, None, ()),
    ]
    assert _values(asked) == [
        ("effect", 1, ("cancel", 21)),
        ("effect", 2, ("cancel", 22)),
        ("query", 3, ("backlog", 3)),
    ]
    assert _values(finished) == [
        ("effect", 4, ("cancel", 23)),
        ("done", 2, None, ()),
    ]
    # the query went out before its answer was taken: three writes (hello,
    # first dispatch, query segment) had happened when query() returned
    assert answers == [(7, 3)]
    coordinator_end.close()


# ---------------------------------------------------------------------------
# (ii) idle keepalive, shed not queued
# ---------------------------------------------------------------------------
def _fill_send_buffer(sock: socket.socket) -> None:
    junk = b"\0" * 65536
    with contextlib.suppress(BlockingIOError):
        while True:
            sock.send(junk, socket.MSG_DONTWAIT)


def test_idle_keepalive_pings_and_sheds_against_a_full_buffer():
    with _running_server(keepalive_s=0.05) as server:
        stats = WireStats()
        peer = BrokerPeer("127.0.0.1", server.port, token="idle", stats=stats)
        peer.hello(_replica_config(), (0, 2))

        def quiescent():
            return peer.dispatch(
                "quiescent", (), NO_DELTAS, 0.0, _unexpected, _unexpected
            )

        # an idle peer is pinged; a busy one is not (no free-running timer)
        time.sleep(0.3)
        assert quiescent() == (True, ())
        assert stats.pings >= 2
        before = stats.pings
        for _ in range(20):
            quiescent()
        assert stats.pings - before <= 1

        # a peer that stops reading: once the buffer is full every ping is
        # shed, one per keepalive period, and the thread is never stuck in
        # a send — it adopts the resumed connection straight away
        session = server.sessions["idle"]
        node_sock = session.sock

        def shed_thrice():
            # keep it full: an unread TCP stream still drains in trickles
            # while the receiver's buffer autotunes upwards
            _fill_send_buffer(node_sock)
            return server.shed_pings >= 3

        assert server.shed_pings == 0
        assert _wait_for(shed_thrice)
        assert session.sock is node_sock  # shed, not severed
        peer.kill()
        assert quiescent() == (True, ())
        assert (stats.resumes, stats.frames_resent) == (1, 1)
        peer.bye()
        assert _wait_for(lambda: not server.sessions)


# ---------------------------------------------------------------------------
# (iii) kill-point sweep over reused nodes
# ---------------------------------------------------------------------------
SWEEP = range(1, 41)


@pytest.fixture(scope="module")
def two_nodes():
    nodes = spawn_nodes(2)
    try:
        yield [(node.host, node.port) for node in nodes]
    finally:
        for node in nodes:
            node.terminate()


def _frame_logs(cfg, endpoints) -> list:
    """Per peer, the tags of the frames an unkilled run consumes."""
    logs: list = []

    def tap(transport):
        for peer in transport.peers:
            log: list = []
            logs.append(log)

            def dispatch(kind, args, deltas, now, on_effect, on_query,
                         _inner=peer.dispatch, _log=log):
                def effect(eff):
                    _log.append("effect")
                    on_effect(eff)

                def query(q):
                    _log.append("query")
                    return on_query(q)

                return _inner(kind, args, deltas, now, effect, query)

            peer.dispatch = dispatch

    run_socket_scenario(cfg, endpoints=endpoints, tweak=tap)
    return logs


@pytest.mark.parametrize("protocol", ["mhh"])
def test_every_early_kill_point_resumes_to_the_same_outcome(
    protocol, two_nodes
):
    cfg = _small(protocol)
    sim = run_scenario(cfg)
    assert sim.handoffs > 0 and sim.delivered > 0

    # the sweep must cross a query: kill_after_frames = q - 1 severs the
    # stream with the query frame written but unread, q severs it right
    # after the answer went out, q + 1 one effect into the next segment
    query_points = [
        index + 1
        for log in _frame_logs(cfg, two_nodes)
        for index, tag in enumerate(log) if tag == "query"
    ]
    assert any(
        {q - 1, q, q + 1} <= set(SWEEP) for q in query_points
    ), query_points

    for kill_after in SWEEP:
        def arm(transport, _n=kill_after):
            for peer in transport.peers:
                peer.kill_after_frames = _n

        system = run_socket_scenario(cfg, endpoints=two_nodes, tweak=arm)
        assert all(p.kills == 1 for p in system.net.peers), kill_after
        assert system.net.stats.resumes >= 2, kill_after
        assert _parity_diff(sim, build_row(cfg, system)) == [], kill_after


# ---------------------------------------------------------------------------
# a finished run frees its replica
# ---------------------------------------------------------------------------
def test_bye_frees_the_session_and_its_thread():
    cfg = _small("mhh")
    with _running_server() as server:
        endpoints = [("127.0.0.1", server.port)]
        idle_threads = threading.active_count()
        for _ in range(3):
            system = run_socket_scenario(cfg, endpoints=endpoints)
            assert system.metrics.delivery.stats.delivered > 0
            # bye is fire-and-forget: the session thread pops its
            # replica and returns a moment after the run does
            assert _wait_for(lambda: server.sessions == {})
            assert _wait_for(
                lambda: threading.active_count() == idle_threads
            ), "a session or greeter thread outlived its run"


# ---------------------------------------------------------------------------
# a gap in the node stream is a typed error
# ---------------------------------------------------------------------------
def test_gap_in_the_node_stream_is_a_peer_error():
    coordinator_end, fake_node = socket.socketpair()
    peer = BrokerPeer("unused", 0, token="gap")
    peer.sock = coordinator_end
    fake_node.sendall(
        _frame(("effect", 1, ("cancel", 1)))
        + _frame(("effect", 1, ("cancel", 1)))  # a duplicate is skipped
        + _frame(("effect", 3, ("cancel", 3)))  # effect 2 never came
    )
    applied = []
    with pytest.raises(PeerError, match="gap in the node stream"):
        peer.dispatch("recv", (), NO_DELTAS, 0.0, applied.append, _unexpected)
    assert applied == [("cancel", 1)]
    assert peer.consumed == 1
    peer.close()
    fake_node.close()


# ---------------------------------------------------------------------------
# sessions share a server, greeters race session threads: stress both
# ---------------------------------------------------------------------------
def test_concurrent_sessions_with_repeated_kills_stay_exact():
    """More sessions than cores on one server, every connection severed
    every seventh frame, threads switched every 10 us: the socket hand-over
    between greeter and session thread must never lose or double a frame
    (parity would break) nor strand a session (the run would hang)."""
    cfg = _small("mhh")
    sim = run_scenario(cfg)
    outcomes: dict = {}

    def rearming_kill(transport):
        peer = transport.peers[0]
        severed = peer.kill

        def kill_and_rearm():
            severed()
            peer.kill_after_frames = 7

        peer.kill = kill_and_rearm
        peer.kill_after_frames = 7

    def coordinator(slot: int, endpoints: list) -> None:
        system = run_socket_scenario(
            cfg, endpoints=endpoints, tweak=rearming_kill
        )
        outcomes[slot] = (
            build_row(cfg, system), system.net.peers[0].kills
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _running_server() as server:
            endpoints = [("127.0.0.1", server.port)]
            runs = [
                threading.Thread(target=coordinator, args=(slot, endpoints))
                for slot in range(4)
            ]
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=60.0)
            assert not any(run.is_alive() for run in runs)
            assert _wait_for(lambda: server.sessions == {})
    finally:
        sys.setswitchinterval(interval)
    assert sorted(outcomes) == [0, 1, 2, 3]
    for outcome, kills in outcomes.values():
        assert kills >= 10
        assert _parity_diff(sim, outcome) == []

"""Multi-process scenario harness: broker nodes as real OS processes.

:func:`run_socket_scenario` is the socket twin of
:func:`repro.drivers.live.run_virtual_scenario`: it takes the same
:class:`~repro.experiments.config.ExperimentConfig`, spawns ``processes``
broker node servers (``python -m repro.wire.node serve``), splits the
broker grid round-robin across them, and drives the identical workload
from a coordinator holding the virtual clock, the link layer and every
client. The returned system carries the same
:class:`~repro.metrics.delivery.DeliveryChecker` state the sim and live
drivers produce — the driver-parity tests diff them field for field.

Determinism: the coordinator owns every random stream that matters
(workload, fault draws, event ids). Node replicas consume only the
population-construction draws, which are identical by seed, and queue-id
serials, which are broker-local. The dispatch/effect stream is lockstep —
one dispatch in flight globally — so the interleaving is exactly the
virtual clock's, and outcomes are byte-identical to the in-process run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import uuid
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.drivers.base import Driver, Transport
from repro.drivers.live import VirtualClock
from repro.drivers.socket import BrokerPeer, PeerError, SocketTransport
from repro.errors import ConfigurationError
from repro.experiments.runner import run_to_quiescence
from repro.workload.mobility_model import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ExperimentConfig
    from repro.pubsub.system import PubSubSystem

__all__ = ["SocketDriver", "run_socket_scenario", "spawn_nodes", "NodeProc"]

_SRC_DIR = str(Path(__file__).resolve().parents[2])
_LISTEN_PREFIX = "WIRE_NODE_LISTENING"


class SocketDriver(Driver):
    """Driver whose transport proxies some brokers to node processes."""

    name = "socket"
    sim = None

    def __init__(self, clock: VirtualClock, peers: List[BrokerPeer],
                 owner: Dict[int, int]) -> None:
        self.clock = clock
        self.peers = peers
        self.owner = owner
        self.transport: Optional[SocketTransport] = None

    def build_transport(self, topo, paths, **kwargs) -> Transport:
        self.transport = SocketTransport(
            self.clock, topo, paths,
            peers=self.peers, owner=self.owner, **kwargs,
        )
        return self.transport


class _ProtocolProxy:
    """Routes client-entry protocol calls for remote brokers to their node.

    The coordinator's own protocol instance stays pristine (its brokers
    never execute a handler), so ``quiescent`` is the AND of the local
    check — trivially true — and every node's.
    """

    def __init__(self, inner, transport: SocketTransport) -> None:
        self._inner = inner
        self._transport = transport

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def on_disconnect(self, broker, client: int) -> None:
        if broker.id in self._transport.owner:
            self._transport.remote_on_disconnect(broker.id, client)
        else:
            self._inner.on_disconnect(broker, client)

    def on_proclaimed_disconnect(self, broker, client: int, dest: int) -> None:
        if broker.id in self._transport.owner:
            self._transport.remote_on_proclaimed_disconnect(
                broker.id, client, dest
            )
        else:
            self._inner.on_proclaimed_disconnect(broker, client, dest)

    def quiescent(self) -> bool:
        return self._inner.quiescent() and self._transport.remote_quiescent()


class NodeProc:
    """One spawned ``repro.wire.node serve`` process."""

    def __init__(self, proc: subprocess.Popen, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck node
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def spawn_nodes(count: int, keepalive_s: float = 2.0) -> List[NodeProc]:
    """Start ``count`` node servers on free loopback ports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    nodes: List[NodeProc] = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.wire.node", "serve",
                 "--port", "0", "--keepalive", str(keepalive_s)],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            nodes.append(_await_listening(proc))
    except BaseException:
        for node in nodes:
            node.terminate()
        raise
    return nodes


def _await_listening(proc: subprocess.Popen) -> NodeProc:
    assert proc.stdout is not None
    for _ in range(100):  # tolerate interpreter warnings before the banner
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith(_LISTEN_PREFIX):
            _, host, port = line.split()
            return NodeProc(proc, host, int(port))
    rest = proc.stdout.read() if proc.poll() is not None else ""
    proc.kill()
    raise PeerError(f"node process never announced a port: {rest!r}")


#: config fields the process split cannot honour yet, and why. Every
#: other field reaches the coordinator's system through
#: ``ExperimentConfig.make_system`` like under any other driver.
_UNSUPPORTED = {
    "reliable": "the ACK/retransmit layer is client- and broker-entangled",
    "durable": "the WAL and session handover are broker-entangled",
    "crashes": "crash plans drive broker state coordinator-side",
}


def run_socket_scenario(
    cfg: "ExperimentConfig",
    processes: int = 2,
    keepalive_s: float = 2.0,
    tweak: Optional[Callable[[SocketTransport], None]] = None,
    endpoints: Optional[List] = None,
) -> "PubSubSystem":
    """Run one experiment config with brokers split across OS processes.

    Mirrors :func:`repro.drivers.live.run_virtual_scenario` phase for
    phase. ``tweak`` runs after the transport is wired and before the
    workload starts — the parity tests use it to arm mid-stream
    connection kills (``peer.kill_after_frames``).

    By default the harness spawns ``processes`` node servers and tears
    them down afterwards. Pass ``endpoints`` (``[(host, port), ...]`` of
    already-running ``repro.wire.node serve`` processes, e.g. started
    from the CLI) to use those instead — they are left running for the
    next run, told ``bye`` so they free this run's replicas.
    """
    if not isinstance(cfg.protocol, str):
        raise ConfigurationError("socket scenarios need a registry protocol name")
    for name, why in _UNSUPPORTED.items():
        value = getattr(cfg, name)
        if getattr(value, "active", value):  # a plan counts when active
            raise ConfigurationError(
                f"the socket harness does not support {name} yet: {why}"
            )
    if endpoints is None and processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    if endpoints is not None and not endpoints:
        raise ConfigurationError("endpoints must name at least one node")

    n_brokers = cfg.grid_k * cfg.grid_k
    nodes: List[NodeProc] = []
    if endpoints is None:
        nodes = spawn_nodes(min(processes, n_brokers), keepalive_s=keepalive_s)
        endpoints = [(node.host, node.port) for node in nodes]
    owner = {bid: bid % len(endpoints) for bid in range(n_brokers)}
    try:
        run_token = uuid.uuid4().hex
        peers = [
            BrokerPeer(host, port, token=f"{run_token}-{i}")
            for i, (host, port) in enumerate(endpoints)
        ]
        # fault draws, the downlink cap and its shed ledger stay with the
        # coordinator's link layer; the replicas get the rest of the config
        replica = asdict(
            replace(cfg, faults=None, crashes=None, queue_cap=None)
        )
        for i, peer in enumerate(peers):
            peer.hello(
                replica, tuple(b for b in sorted(owner) if owner[b] == i)
            )

        system = cfg.make_system(SocketDriver(VirtualClock(), peers, owner))
        transport = system.net
        transport.bind_system(system)
        system.protocol = _ProtocolProxy(system.protocol, transport)
        system.metrics.delivery.record_log = True
        if tweak is not None:
            tweak(transport)

        workload = Workload(system, cfg.workload)
        run_to_quiescence(
            system, workload, cfg.workload.duration_ms, cfg.drain_limit_ms
        )

        # fold the nodes' keepalive shedding into the coordinator ledger
        # (cause-tagged like every other shed; client -1 = not client data)
        for idx in range(len(peers)):
            stats = transport._dispatch_to_node(idx, "stats", ())
            for _ in range(int(stats.get("shed_pings", 0))):
                system.metrics.traffic.account_shed("wire_keepalive")

        if nodes:
            # harness-spawned servers die with the run; externally managed
            # ones stay up for the caller's next scenario
            transport.shutdown_peers()
        else:
            for peer in peers:
                peer.bye()
        return system
    finally:
        for node in nodes:
            node.terminate()

"""Socket-transport parity: broker processes over real TCP vs the simulator.

The wire tentpole's contract is that moving brokers into their own OS
processes — real sockets, real framing, real keepalives — changes *nothing*
observable: the same fuzzer scenario must produce the identical delivery
log, counters and invariant-matrix verdict as the in-process simulated
driver, for every protocol. A second battery severs live node connections
mid-stream and requires the session-resume layer to restore byte-identical
outcomes (no double-applied effects, no swallowed ones).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.conformance.fuzzer import check_invariants, run_scenario
from repro.conformance.scenarios import PROTOCOLS, Scenario
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ResultRow, build_row
from repro.wire.harness import run_socket_scenario

#: the pinned parity scenario: k=2 grid, hotspot mobility, lossy+duplicating
#: wireless links — handoffs, queue migrations and fault draws all active
PARITY_SEED = 303

#: outcome fields the socket run must reproduce exactly (sim_events
#: describes the scheduler, not the behaviour)
_PARITY_FIELDS = (
    "published", "expected_deliveries", "delivered", "duplicates",
    "order_violations", "lost", "missing", "handoffs", "injected_drops",
    "injected_dups", "crash_lost", "repairs",
    "post_repair_publishes", "recovered", "shed", "retransmits",
    "breaker_trips", "stale_timer_fires", "wal_handovers", "wal_checkpoints",
    "wired_by_category", "delivery_log",
)


def _parity_diff(sim: ResultRow, sock: ResultRow) -> list:
    diffs = []
    for name in _PARITY_FIELDS:
        a, b = getattr(sim, name), getattr(sock, name)
        if name == "wired_by_category":
            # keepalive shedding is wire-only bookkeeping; every *traffic*
            # category must still match hop for hop
            b = {k: v for k, v in b.items() if not k.startswith("wire_")}
        if a != b:
            diffs.append((name, a, b))
    return diffs


def _config(protocol: str) -> ExperimentConfig:
    return dataclasses.replace(
        Scenario.from_seed(PARITY_SEED).config, protocol=protocol)


# ---------------------------------------------------------------------------
# the parity gate: four protocols over loopback TCP
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol,capped",
    [(p, False) for p in PROTOCOLS] + [("mhh", True)],
    ids=[*PROTOCOLS, "mhh-queue-cap"],
)
def test_socket_transport_matches_simulated_driver(protocol, capped):
    cfg = _config(protocol)
    if capped:
        # a one-slot downlink under a 2 s publish interval: the bulkhead
        # sheds, and the coordinator's link layer must shed identically
        cfg = dataclasses.replace(cfg, queue_cap=1).with_workload(
            publish_interval_s=2.0)
    sim = run_scenario(cfg)
    system = run_socket_scenario(cfg, processes=2)
    sock = build_row(cfg, system)
    assert _parity_diff(sim, sock) == []
    assert sock.delivery_log, "degenerate run: no deliveries at all"
    assert (sock.shed > 0) == capped
    # the socket run must clear the same invariant matrix the fuzzer
    # applies to the simulated engines
    assert check_invariants(cfg, sock) == []
    # and the run genuinely crossed process boundaries
    stats = system.net.stats
    assert stats.dispatches > 0 and stats.effects > 0
    assert stats.bytes_tx > 0 and stats.bytes_rx > 0


def test_three_process_split_is_also_identical():
    """Ownership partitioning must not matter: 2-way and 3-way splits of
    the same grid produce the identical outcome."""
    cfg = _config("mhh")
    sim = run_scenario(cfg)
    system = run_socket_scenario(cfg, processes=3)
    assert _parity_diff(sim, build_row(cfg, system)) == []


# ---------------------------------------------------------------------------
# mid-stream connection kills: resume must be invisible
# ---------------------------------------------------------------------------
def test_killed_connections_resume_with_identical_outcome():
    cfg = _config("mhh")
    sim = run_scenario(cfg)

    def arm(transport):
        # sever each node's TCP connection mid-dispatch-stream, at
        # different points, so both resume paths (lost dispatch frame,
        # lost effect suffix) get exercised across the run
        transport.peers[0].kill_after_frames = 25
        transport.peers[1].kill_after_frames = 60

    system = run_socket_scenario(cfg, processes=2, tweak=arm)
    sock = build_row(cfg, system)
    stats = system.net.stats
    assert stats.resumes >= 2, "the kill hooks never fired"
    assert all(p.kills == 1 for p in system.net.peers)
    # Each kill lands mid-dispatch (after an effect/query frame, before the
    # "done" frame), so the node MUST retransmit the severed suffix of its
    # outbox for the run to complete at all -- make that visible.
    assert stats.frames_replayed > 0
    assert _parity_diff(sim, sock) == []
    assert check_invariants(cfg, sock) == []


def test_repeated_kills_on_one_connection_still_converge():
    cfg = _config("mhh")
    sim = run_scenario(cfg)
    killer_state = {"count": 0}

    def rearming_kill(transport):
        peer = transport.peers[0]
        original = peer.kill
        def kill_and_rearm():
            original()
            killer_state["count"] += 1
            if killer_state["count"] < 4:
                peer.kill_after_frames = 30
        peer.kill = kill_and_rearm
        peer.kill_after_frames = 30

    system = run_socket_scenario(cfg, processes=2, tweak=rearming_kill)
    assert killer_state["count"] >= 2
    assert system.net.stats.resumes >= killer_state["count"]
    assert _parity_diff(sim, build_row(cfg, system)) == []


# ---------------------------------------------------------------------------
# configuration gates
# ---------------------------------------------------------------------------
def test_harness_refuses_unsupported_layers():
    from repro.wire.harness import _UNSUPPORTED

    plain = _config("mhh")
    refused = {
        "reliable": dataclasses.replace(plain, reliable=True),
        "durable": dataclasses.replace(plain, durable=True),
        "crashes": Scenario.from_seed(PARITY_SEED, "crash", "mhh").config,
    }
    assert set(refused) == set(_UNSUPPORTED)  # every entry, nothing else
    for name, cfg in refused.items():
        with pytest.raises(ConfigurationError, match=name):
            run_socket_scenario(cfg, processes=2)
    with pytest.raises(ConfigurationError):
        run_socket_scenario(plain, processes=0)

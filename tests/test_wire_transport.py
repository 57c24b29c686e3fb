"""Socket-transport parity: broker processes over real TCP vs the simulator.

The wire tentpole's contract is that moving brokers into their own OS
processes — real sockets, real framing, real keepalives — changes *nothing*
observable: the same fuzzer scenario must produce the identical delivery
log, counters and invariant-matrix verdict as the in-process simulated
driver, for every protocol. A second battery severs live node connections
mid-stream and requires the session-resume layer to restore byte-identical
outcomes (no double-applied effects, no swallowed ones).

A digest gate pins the simulated driver itself: seven fixed fuzzer seeds
must keep their exact outcome hashes, proving the wire subsystem landed
without perturbing the kernel — and fourteen layered draws (crash plan,
ACK/retransmit, both, and the WAL on top) pin the opt-in stacks the same
way.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.conformance.fuzzer import (
    ScenarioOutcome,
    check_invariants,
    run_scenario,
    snapshot_outcome,
)
from repro.conformance.scenarios import PROTOCOLS, Scenario
from repro.errors import ConfigurationError
from repro.wire.harness import run_socket_scenario

#: the pinned parity scenario: k=2 grid, hotspot mobility, lossy+duplicating
#: wireless links — handoffs, queue migrations and fault draws all active
PARITY_SEED = 303

#: outcome fields the socket run must reproduce exactly (engine_bundle and
#: sim_events describe the engine, not the behaviour)
_PARITY_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(ScenarioOutcome)
    if f.name not in ("engine_bundle", "sim_events")
)


def _parity_diff(sim: ScenarioOutcome, sock: ScenarioOutcome) -> list:
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


def _scenario(protocol: str) -> Scenario:
    return dataclasses.replace(Scenario.from_seed(PARITY_SEED), protocol=protocol)


# ---------------------------------------------------------------------------
# the parity gate: four protocols over loopback TCP
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol,capped",
    [(p, False) for p in PROTOCOLS] + [("mhh", True)],
    ids=[*PROTOCOLS, "mhh-queue-cap"],
)
def test_socket_transport_matches_simulated_driver(protocol, capped):
    scenario = _scenario(protocol)
    if capped:
        # a one-slot downlink under a 2 s publish interval: the bulkhead
        # sheds, and the coordinator's link layer must shed identically
        scenario = dataclasses.replace(
            scenario, queue_cap=1, publish_interval_s=2.0
        )
    sim = run_scenario(scenario)
    system = run_socket_scenario(scenario.config(), processes=2)
    sock = snapshot_outcome(system)
    assert _parity_diff(sim, sock) == []
    assert sock.delivery_log, "degenerate run: no deliveries at all"
    assert (sock.shed > 0) == capped
    # the socket run must clear the same invariant matrix the fuzzer
    # applies to the simulated engines
    assert check_invariants(scenario, sock) == []
    # and the run genuinely crossed process boundaries
    stats = system.net.stats
    assert stats.dispatches > 0 and stats.effects > 0
    assert stats.bytes_tx > 0 and stats.bytes_rx > 0


def test_three_process_split_is_also_identical():
    """Ownership partitioning must not matter: 2-way and 3-way splits of
    the same grid produce the identical outcome."""
    scenario = _scenario("mhh")
    sim = run_scenario(scenario)
    system = run_socket_scenario(scenario.config(), processes=3)
    assert _parity_diff(sim, snapshot_outcome(system)) == []


# ---------------------------------------------------------------------------
# mid-stream connection kills: resume must be invisible
# ---------------------------------------------------------------------------
def test_killed_connections_resume_with_identical_outcome():
    scenario = _scenario("mhh")
    sim = run_scenario(scenario)

    def arm(transport):
        # sever each node's TCP connection mid-dispatch-stream, at
        # different points, so both resume paths (lost dispatch frame,
        # lost effect suffix) get exercised across the run
        transport.peers[0].kill_after_frames = 25
        transport.peers[1].kill_after_frames = 60

    system = run_socket_scenario(scenario.config(), processes=2, tweak=arm)
    sock = snapshot_outcome(system)
    stats = system.net.stats
    assert stats.resumes >= 2, "the kill hooks never fired"
    assert all(p.kills == 1 for p in system.net.peers)
    # Each kill lands mid-dispatch (after an effect/query frame, before the
    # "done" frame), so the node MUST retransmit the severed suffix of its
    # outbox for the run to complete at all -- make that visible.
    assert stats.frames_replayed > 0
    assert _parity_diff(sim, sock) == []
    assert check_invariants(scenario, sock) == []


def test_repeated_kills_on_one_connection_still_converge():
    scenario = _scenario("two-phase")
    sim = run_scenario(scenario)
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

    system = run_socket_scenario(
        scenario.config(), processes=2, tweak=rearming_kill
    )
    assert killer_state["count"] >= 2
    assert system.net.stats.resumes >= killer_state["count"]
    assert _parity_diff(sim, snapshot_outcome(system)) == []


# ---------------------------------------------------------------------------
# configuration gates
# ---------------------------------------------------------------------------
def test_harness_refuses_unsupported_layers():
    from repro.wire.harness import _UNSUPPORTED

    plain = _scenario("mhh").config()
    refused = {
        "reliable": dataclasses.replace(plain, reliable=True),
        "durable": dataclasses.replace(plain, durable=True),
        "crashes": Scenario.crash_from_seed(
            PARITY_SEED, protocol="mhh"
        ).config(),
    }
    assert set(refused) == set(_UNSUPPORTED)  # every entry, nothing else
    for name, cfg in refused.items():
        with pytest.raises(ConfigurationError, match=name):
            run_socket_scenario(cfg, processes=2)
    with pytest.raises(ConfigurationError):
        run_socket_scenario(plain, processes=0)


# ---------------------------------------------------------------------------
# the kernel-untouched gate: pinned simulated-driver digests
# ---------------------------------------------------------------------------
#: sha256 over the full outcome tuple of Scenario.from_seed(seed) under the
#: default engine bundle. These digests predate the wire subsystem; any
#: drift means the kernel's behaviour changed, which the wire PR promises
#: not to do.
SIM_DIGESTS = {
    101: "ca615defd9c58c18f077e87a528323883a435bca3677890d42eab64b99f7c0e5",
    202: "3d09ccab15411e1872e9553df8248f71dde3f1334a3ad96e53f9ed10c1bc2550",
    303: "5ec14fe71c1eb9f867168f81b69b1e88373f2784a3e8d5ca3365f453ffd0b9e1",
    404: "09f35c576eedc2a9769eb621550c59b04ee84cbd2c4ab0ba1b402a7bf07d0056",
    505: "133697096acef1614dfe39fdb3f3e0875a35333ece44403ab387305556520f20",
    606: "b385e3fbd6a81a2b8e7448b62b37d70a3b9f3ca2e48ad17258ce6137351ae57f",
    707: "a0ff608f047103dae32e9f165d28f3f00263607951325e01cda0fc8558752ae6",
}


#: the layered stacks, pinned the same way: (lane, scenario seed, protocol)
#: -> sha256 over *every* field of the outcome (crash write-offs, repair
#: rounds, retransmits, WAL handovers and checkpoints included). The
#: fuzzer's identity re-run drives one kernel on two clocks, so only a
#: recorded digest can see a kernel change under a crash plan, the
#: ACK/retransmit layer or the WAL. Recorded at c966ea4 (PR 21).
LAYERED_DIGESTS = {
    ("crash", 1, "sub-unsub"):
        "aa6e563b99cf34419a0c49502e937b6ef30e94de23491f0baf356054b0e42547",
    ("crash", 3, "home-broker"):
        "26d4973abb2c10597fb0573b793c49ea46edd9b07b717f455d9dc0e8e59e6475",
    ("crash", 5, "mhh"):
        "07bcf0827cd6692cde816da029c5ece5043e3201d554b5313844c6d618d10460",
    ("crash", 8, "two-phase"):
        "070e156e78e3051b7d95f855e739d98b6a3206c96cdbb15b9ffa2159db06808b",
    ("rel", 3, "mhh"):
        "5d6ef74e32f245034973053c8918cd156a028019ab7ed8bf74025b91bea51348",
    ("rel", 4, "sub-unsub"):
        "4a0a29e5df18c32d95a769b6cac75226f37f0d6e773522e12039377fadc43445",
    ("rel", 5, "two-phase"):
        "6b0d9bc5ab1783e3faa75576ee26c6ecdae3801af21f9a5e6cf69b7184486fd0",
    ("rel", 14, "mhh"):
        "3ae1193289cf80410dcd68b8b70a7ed32652f026199a9ff68543c145acd6c5f5",
    ("rel-crash", 3, "mhh"):
        "64e93e82d9b1816c4e2fa6b248e356274f2c71dc2edc458012e2bc0881fe430d",
    ("rel-crash", 5, "sub-unsub"):
        "3e08b10bd1b8194bd8f3e084f9fe8328797155e3b500685e3cb70655aebc4a89",
    ("rel-crash", 6, "two-phase"):
        "fed676430bbf3f0d24e4f088654f75d1129f740b5d6717b7f2da119b3de3c6b4",
    ("durable", 1, "sub-unsub"):
        "e215cd718925b47ab73b9f31ff1b0735f245b2804491ca27ad47ed0a1013977c",
    ("durable", 3, "two-phase"):
        "f7bfac281574dc632342e7ac9f7c440e28a611823ed46271b95c7d7650879b48",
    ("durable", 5, "mhh"):
        "5db0e607efa5a0604eee83b13194f6f99d07ba3f4783d8f999857a2dcc513af2",
}

_LANES = {
    "crash": Scenario.crash_from_seed,
    "rel": Scenario.reliability_from_seed,
    "rel-crash": functools.partial(Scenario.reliability_from_seed, crash=True),
    "durable": Scenario.durable_from_seed,
}


def _digest(o: ScenarioOutcome, whole: bool = False) -> str:
    if whole:
        fields = dataclasses.asdict(o)
        fields["wired_by_category"] = sorted(o.wired_by_category.items())
        blob = repr(sorted(fields.items()))
    else:
        blob = repr((
            o.published, o.expected, o.delivered, o.duplicates,
            o.order_violations, o.lost, o.missing, o.handoffs,
            o.injected_drops, o.injected_dups, o.sim_events,
            sorted(o.wired_by_category.items()), o.delivery_log,
        ))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed", sorted(SIM_DIGESTS) + sorted(LAYERED_DIGESTS),
    ids=lambda key: "-".join(map(str, key)) if isinstance(key, tuple) else None,
)
def test_simulated_driver_outcomes_are_unchanged(seed):
    if isinstance(seed, int):
        assert _digest(run_scenario(Scenario.from_seed(seed))) == SIM_DIGESTS[seed]
        return
    lane, scenario_seed, protocol = seed
    outcome = run_scenario(_LANES[lane](scenario_seed, protocol))
    assert _digest(outcome, whole=True) == LAYERED_DIGESTS[seed]

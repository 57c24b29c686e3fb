"""Pinned outcomes of the simulated driver: seven plain-lane fuzzer seeds,
ten layered draws (crash plan, ACK/retransmit, both, and the WAL on top)
and three stored-queue streaming runs keep their exact outcome hashes.
Simulator only: no sockets, no processes."""

from __future__ import annotations

import hashlib

import pytest

from repro.conformance.fuzzer import run_scenario
from repro.conformance.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_to_quiescence
from repro.metrics.summary import ResultRow, build_row
from repro.pubsub import messages as m
from repro.workload.spec import WorkloadSpec

#: sha256 over the full outcome tuple of Scenario.from_seed(seed). These
#: digests predate the wire subsystem; any drift means the kernel's
#: behaviour changed. 202 drew the two-phase protocol until it was
#: removed; its slot now names mhh, the protocol it extended, and the
#: digest was re-recorded then.
SIM_DIGESTS = {
    101: "ca615defd9c58c18f077e87a528323883a435bca3677890d42eab64b99f7c0e5",
    202: "52564ce7f2614ca0eaa8f634b2f19f7060a16cde1b7951b7e4e1952074db1db1",
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
#: ACK/retransmit layer or the WAL. Recorded at c966ea4 (PR 21); the
#: crash, rel-crash and durable rows re-recorded when the repair round
#: began to reattach the clients a crash detached, a publish uplink
#: stopped being generation-stale and every subscriber got a logged
#: session (more publishes, deliveries and WAL handovers).
LAYERED_DIGESTS = {
    ("crash", 1, "sub-unsub"):
        "36f4998c7c2e3a687c306ea8f943c0b7e9bf1378c96daf55150075a93dd360ff",
    ("crash", 3, "home-broker"):
        "0cbb52d854f6467f96f923bc687638aa17728327c413d8cc2d88cda5a7cf8128",
    ("crash", 5, "mhh"):
        "06fb09d2811c15c4edbe4dbbc816446cba1b22db68ddffc4f2a68ed30bf86c9b",
    ("rel", 3, "mhh"):
        "5d6ef74e32f245034973053c8918cd156a028019ab7ed8bf74025b91bea51348",
    ("rel", 4, "sub-unsub"):
        "4a0a29e5df18c32d95a769b6cac75226f37f0d6e773522e12039377fadc43445",
    ("rel", 14, "mhh"):
        "3ae1193289cf80410dcd68b8b70a7ed32652f026199a9ff68543c145acd6c5f5",
    ("rel-crash", 3, "mhh"):
        "e64f7776f16ad30dbd5c207edaadcc032473b66fcca1881af4e33abff85ed79e",
    ("rel-crash", 5, "sub-unsub"):
        "d7121edc2758822398dd23a29cd204bff5d183ffdb5cbe8dddfd0408a9cc26d2",
    ("durable", 1, "sub-unsub"):
        "78ad1b696027725953312a6631b71ca08c4286a689de197fd66ba42eefc09c66",
    ("durable", 5, "mhh"):
        "1b6cc4dc13e10cf03c7498e28c153c6d6ca4eea3f89ff42aed63359ebcc4edbf",
}


#: the outcome fields every digest above was recorded over, by the name
#: each had then (``expected`` is the record's ``expected_deliveries``;
#: ``meter_drops`` / ``meter_dups`` were the traffic meter's copies of the
#: injector's counts, equal to them in every pinned run)
_DIGEST_FIELDS = (
    "published", "expected", "delivered", "duplicates", "order_violations",
    "lost", "missing", "handoffs", "injected_drops", "injected_dups",
    "meter_drops", "meter_dups", "sim_events", "crash_lost", "repairs",
    "post_repair_publishes", "recovered", "shed", "retransmits",
    "breaker_trips", "stale_timer_fires", "wal_handovers", "wal_checkpoints",
    "wired_by_category", "delivery_log",
)
_RENAMED = {
    "expected": "expected_deliveries",
    "meter_drops": "injected_drops",
    "meter_dups": "injected_dups",
}


def _digest(o: ResultRow, whole: bool = False) -> str:
    if whole:
        fields = {
            name: getattr(o, _RENAMED.get(name, name))
            for name in _DIGEST_FIELDS
        }
        fields["wired_by_category"] = sorted(o.wired_by_category.items())
        blob = repr(sorted(fields.items()))
    else:
        blob = repr((
            o.published, o.expected_deliveries, o.delivered, o.duplicates,
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
        outcome = run_scenario(Scenario.from_seed(seed).config)
        assert _digest(outcome) == SIM_DIGESTS[seed]
        return
    lane, scenario_seed, protocol = seed
    cfg = Scenario.from_seed(scenario_seed, lane, protocol).config
    outcome = run_scenario(cfg)
    assert _digest(outcome, whole=True) == LAYERED_DIGESTS[seed]


#: the stored-queue streams (PQ, TQ and PQlist moves, sub-unsub's transfer,
#: home-broker's forward drain) at settings no fuzz lane draws — one event
#: per batch, or every batch of a stream in the same instant — under
#: half-second connections between 20 s disconnections, so backlogs span
#: many batches and MHH migrations are stopped mid-stream. Recorded while
#: each protocol still paced its streams with its own code; home-broker's
#: since a foreign connect that finds its client gone registers nothing.
#: protocol -> (options, sha256 over every field of the outcome)
STREAM_DIGESTS = {
    "mhh": (
        {"migration_batch_size": 1},
        "a0922cccab6b0d35a63f9236c5d887d53c10917db16b809fa71071722f26c361",
    ),
    "sub-unsub": (
        {"migration_batch_size": 1},
        "3711e85067c2786817047b44c4837009f58eff66f1b1688d5df5b8e5b42ba7b4",
    ),
    "home-broker": (
        {"stream_pacing_ms": 0.0},
        "411aa372abd50f67f198df53f4ed2e9dea29b6a14141ae252e8565019e55c9c1",
    ),
}


def _run_recording_messages(cfg: ExperimentConfig):
    """``run_to_end`` with every broker-to-broker send recorded as
    ``(sender, message)``."""
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    sent: list = []
    net = system.net
    for name in ("unicast", "send_broker"):
        def recording(frm, to, msg, _send=getattr(net, name)):
            sent.append((frm, msg))
            _send(frm, to, msg)
        setattr(net, name, recording)
    try:
        run_to_quiescence(system, workload, cfg.workload.duration_ms)
    finally:
        system.close()
    return build_row(cfg, system), sent


def _streams_bound(sent) -> int:
    """An upper bound on the streams an MHH run made: one per
    ``FetchQueue``, one per ``deliver_TQ`` hop (a TQ drain), and one per
    coordinator-local queue of each ``sub_migration``'s PQlist (a message
    is first sent by its coordinator, then forwarded unchanged)."""
    bound, seen = 0, set()
    for frm, msg in sent:
        if type(msg) in (m.FetchQueue, m.DeliverTQ):
            bound += 1
        elif type(msg) is m.SubMigration and id(msg) not in seen:
            seen.add(id(msg))
            bound += sum(ref.broker == frm for ref in msg.pqlist)
    return bound


@pytest.mark.parametrize("protocol", sorted(STREAM_DIGESTS))
def test_stored_queue_streams_are_unchanged(protocol):
    options, digest = STREAM_DIGESTS[protocol]
    cfg = ExperimentConfig(
        protocol=protocol, grid_k=3, seed=7,
        workload=WorkloadSpec(
            clients_per_broker=4, mobile_fraction=0.5,
            mean_connected_s=0.5, mean_disconnected_s=20.0,
            publish_interval_s=1.0, duration_s=240.0,
        ),
        **options,
    )
    outcome, sent = _run_recording_messages(cfg)
    assert outcome.missing == 0
    count = {}
    for _frm, msg in sent:
        count[type(msg)] = count.get(type(msg), 0) + 1
    # more batches than streams: some stream shipped several batches
    batches, streams = {
        "mhh": (m.MigrateBatch, _streams_bound(sent)),
        "sub-unsub": (m.TransferBatch, count.get(m.TransferDone, 0)),
        # a forward drain starts only on a registration
        "home-broker": (m.ForwardedBatch, count.get(m.Register, 0)),
    }[protocol]
    assert count.get(batches, 0) > streams
    if protocol == "mhh":
        # §4.3: a stop sends the token with a PQ_tq to append to
        assert any(type(msg) is m.DeliverTQ and msg.append_to is not None
                   for _frm, msg in sent)
    assert _digest(outcome, whole=True) == digest

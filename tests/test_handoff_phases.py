"""Every protocol as one handoff state machine (``repro.mobility.base``,
"Handoff phases").

A broker plays one phase per handoff key; a control message is handled by
``(phase, message type)``; a pair the table does not hold is one
``HandoffPhaseError`` at dispatch, before any handler runs; and with the
``handoff_phase`` trace category on, every phase change is one record; a
handoff's hops are stitched from them by (client, epoch).
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache

import pytest

from repro.errors import HandoffPhaseError, ProtocolError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.mobility import home_broker, sub_unsub
from repro.mobility.base import HandoffState, _traced
from repro.mobility.home_broker import HomeBrokerProtocol
from repro.mobility.mhh import MHHProtocol, Phase
from repro.mobility.sub_unsub import SubUnsubProtocol
from repro.network.recovery import CrashEvent, CrashPlan
from repro.pubsub import messages as m
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec
from mhh_nopqlist import MHHNoPQList

P = Phase
SU = sub_unsub.Phase
HB = home_broker.Phase

#: every phase change a run may make, and what makes it
TRANSITIONS = {
    (P.IDLE, P.SETTLED),                # first attach; install_recovered
    (P.IDLE, P.PRE_ANCHOR),             # an immigrant batch beat the migration
    (P.IDLE, P.IN_MIGRATION),           # sub_migration at its destination
    (P.PRE_ANCHOR, P.IN_MIGRATION),     # ... after immigrant batches
    (P.IDLE, P.TRANSIT),                # sub_migration on the path
    (P.TRANSIT, P.TRANSIT_ACKED),       # the next hop's ack
    (P.TRANSIT_ACKED, P.IDLE),          # the TQ drained, the token passed on
    (P.SETTLED, P.OUT_AWAIT_ACK),       # handoff request or proclaimed move
    (P.OUT_AWAIT_ACK, P.OUT_STREAMING),  # the first ack
    (P.OUT_STREAMING, P.IDLE),          # deliver_TQ launched, or stopped
    (P.IN_MIGRATION, P.SETTLED),        # the token reached the destination
    (P.SETTLED, P.SELF_MIGRATION),      # client back at a distributed PQlist
    (P.SELF_MIGRATION, P.SETTLED),      # drained, or left mid-drain
}
SU_TRANSITIONS = {
    (SU.IDLE, SU.SETTLED),              # first attach; install_recovered
    (SU.IDLE, SU.AWAIT_TRANSFER),       # reconnect at a new broker
    (SU.AWAIT_TRANSFER, SU.MERGING),    # transfer_done
    (SU.MERGING, SU.SETTLED),           # the merge
    (SU.SETTLED, SU.IDLE),              # a transfer request unsubscribes
}
HB_TRANSITIONS = {
    (HB.IDLE, HB.HOME_CONNECTED),       # first attach, present
    (HB.IDLE, HB.HOME_OFFLINE),         # ... gone again; install_recovered
    (HB.HOME_CONNECTED, HB.HOME_OFFLINE),  # disconnect at home
    (HB.HOME_OFFLINE, HB.HOME_CONNECTED),  # reconnect at home
    (HB.HOME_AWAY, HB.HOME_CONNECTED),  # ... while registered elsewhere
    (HB.HOME_OFFLINE, HB.HOME_AWAY),    # register
    (HB.HOME_AWAY, HB.HOME_OFFLINE),    # its deregister
    (HB.IDLE, HB.FOREIGN),              # connect at a foreign broker
    (HB.FOREIGN, HB.IDLE),              # disconnect there
}
#: per protocol: its phases, its transitions, and the phases a churn run
#: must reach
MACHINES = {
    "mhh": (P, TRANSITIONS, {P.TRANSIT, P.TRANSIT_ACKED, P.SETTLED,
                             P.OUT_AWAIT_ACK, P.OUT_STREAMING,
                             P.IN_MIGRATION}),
    "mhh-nopqlist": (P, TRANSITIONS, {P.TRANSIT, P.TRANSIT_ACKED, P.SETTLED,
                                      P.OUT_AWAIT_ACK, P.OUT_STREAMING,
                                      P.IN_MIGRATION}),
    "sub-unsub": (SU, SU_TRANSITIONS, set(SU)),
    "home-broker": (HB, HB_TRANSITIONS, set(HB)),
}

#: the messages that are legal in some phases only
LEGAL_IN = {
    m.SubMigration: {P.IDLE, P.PRE_ANCHOR},
    m.SubMigrationAck: {P.TRANSIT, P.OUT_AWAIT_ACK},
    m.QueueStreamed: {P.OUT_STREAMING, P.SELF_MIGRATION},
    m.DeliverTQ: {P.TRANSIT, P.TRANSIT_ACKED, P.IN_MIGRATION},
}
#: the messages every phase takes (what they do may depend on the phase)
ANY_PHASE = (m.HandoffRequest, m.FetchQueue, m.MigrateBatch,
             m.StopEventMigration)

HOME = {HB.HOME_CONNECTED, HB.HOME_AWAY, HB.HOME_OFFLINE}
#: sub-unsub's and home-broker's tables, message by message: the phases
#: that take it and the handler
TABLES = {
    SubUnsubProtocol: {
        m.TransferRequest: ({SU.IDLE}, "_on_transfer_request"),
        m.TransferBatch: ({SU.AWAIT_TRANSFER}, "_on_transfer_batch"),
        m.TransferDone: ({SU.AWAIT_TRANSFER}, "_on_transfer_done"),
    },
    HomeBrokerProtocol: {
        m.Register: (HOME, "_on_register"),
        m.Deregister: (HOME, "_on_deregister"),
        m.ForwardedEvent: (set(HB), "_on_forwarded"),
        m.ForwardedBatch: (set(HB), "_on_forwarded"),
    },
}


def _transitions(system, client=None, since=0.0):
    return [
        r.as_dict() for r in system.tracer.select("handoff_phase")
        if (client is None or r.get("client") == client) and r.time >= since
    ]


@cache
def _churn(protocol: str, traced: bool = False) -> PubSubSystem:
    """Fig 5's high-mobility edge on a 4x4 grid for 60 model seconds (one
    run per protocol and tracing, shared by the tests that read it)."""
    cfg = ExperimentConfig(
        MHHNoPQList if protocol == "mhh-nopqlist" else protocol,
        grid_k=4, seed=3,
        trace=["handoff_phase"] if traced else None,
        workload=WorkloadSpec(
            clients_per_broker=3, mean_connected_s=1, mean_disconnected_s=1,
            publish_interval_s=5, duration_s=60),
    )
    system, workload = build_system(cfg)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload, cfg.drain_limit_ms)
    return system


def test_the_table_takes_each_message_in_its_phases_only():
    for msg_type, phases in LEGAL_IN.items():
        taken = {p for p in Phase if (p, msg_type) in MHHProtocol._CONTROL}
        assert taken == phases, msg_type.__name__
    for msg_type in ANY_PHASE:
        assert all((p, msg_type) in MHHProtocol._CONTROL for p in Phase)
    assert len(MHHProtocol._CONTROL) == (
        sum(map(len, LEGAL_IN.values())) + len(ANY_PHASE) * len(Phase))


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.name)
def test_each_baseline_table_is_pinned_message_by_message(cls):
    pinned = {
        (phase, msg_type): name
        for msg_type, (phases, name) in TABLES[cls].items()
        for phase in phases
    }
    assert {k: fn.__name__ for k, fn in cls._CONTROL.items()} == pinned


def test_an_illegal_pair_is_one_typed_error_at_dispatch():
    system = PubSubSystem(grid_k=3, protocol="mhh", seed=1)
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    sub.connect(0)
    system.run(until=1000.0)
    protocol, anchor = system.protocol, system.brokers[0]
    assert anchor.pstate[sub.id].phase is P.SETTLED
    with pytest.raises(HandoffPhaseError) as err:
        protocol.on_control(anchor, m.SubMigrationAck(sub.id), 1)
    assert (err.value.broker, err.value.client, err.value.phase,
            err.value.epoch, err.value.what) == (
        0, sub.id, P.SETTLED, sub.connect_epoch, "SubMigrationAck")
    assert isinstance(err.value, ProtocolError)
    assert "SubMigrationAck in phase SETTLED" in str(err.value)
    # a broker with no state for the client is IDLE and has seen no epoch
    with pytest.raises(HandoffPhaseError) as err:
        protocol.on_control(
            system.brokers[4], m.DeliverTQ(sub.id, 4, 4, None), 1)
    assert (err.value.phase, err.value.epoch) == (P.IDLE, -1)
    # nothing was touched on the way to the error
    assert list(system.brokers[4].pstate) == []


def _fields(st: HandoffState) -> dict:
    return {
        name: getattr(st, name, None)
        for klass in type(st).__mro__
        for name in getattr(klass, "__slots__", ())
    }


@pytest.mark.parametrize(
    "protocol", ["mhh", "sub-unsub", "home-broker"])
def test_every_pair_outside_the_table_is_refused_before_any_handler(protocol):
    """Each (phase, message type) the table lacks, for each message type
    the protocol takes: a ``HandoffPhaseError`` naming the phase, and the
    broker's ``pstate`` as it was (the same states, holding the same)."""
    system = PubSubSystem(grid_k=3, protocol=protocol, seed=1)
    proto, broker = system.protocol, system.brokers[4]
    client = system.add_client(RangeFilter(0.0, 0.5), broker=4).id
    table = proto._CONTROL
    refused = 0
    for msg_type in {t for _phase, t in table}:
        msg = object.__new__(msg_type)
        msg.client = client
        if "epoch" in msg_type.__slots__:
            msg.epoch = 3
        key = proto._state_key(msg)
        for phase in proto.Phase:
            if (phase, msg_type) in table:
                continue
            broker.pstate.clear()
            if phase:  # IDLE is the phase of a key without state
                st = proto._state(broker, client, key)
                st.phase, st.epoch = phase, 3
            before = {k: _fields(st) for k, st in broker.pstate.items()}
            with pytest.raises(HandoffPhaseError) as err:
                proto.on_control(broker, msg, 1)
            assert (err.value.phase, err.value.what) == (
                phase, msg_type.__name__)
            assert err.value.epoch == (3 if phase else -1)
            assert {k: _fields(st) for k, st in broker.pstate.items()} == before
            refused += 1
    assert refused == len(proto.Phase) * len({t for _p, t in table}) - len(table)
    assert refused > 0


def test_a_silent_handoff_is_one_phase_path_per_broker():
    system = PubSubSystem(grid_k=4, protocol="mhh", seed=1,
                          trace=["handoff_phase"])
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=5)
    sub.connect(0)
    pub.connect(5)
    system.run(until=2000.0)
    sub.disconnect()
    system.run(until=3000.0)
    for _ in range(4):
        pub.publish(0.2)
    system.run(until=6000.0)
    sub.connect(15)
    system.sim.run()
    assert system.metrics.delivery.stats.delivered == 4

    handoff = _transitions(system, sub.id, since=6000.0)
    assert {r["protocol"] for r in handoff} == {"mhh"}
    # the records of a hop carry the epoch of the connect it serves, but
    # for a PRE_ANCHOR: a migrated batch does not say which connect it is for
    assert {r["epoch"] for r in handoff if r["frm"] != "IDLE"
            or r["to"] != "PRE_ANCHOR"} == {sub.connect_epoch}
    by_broker = defaultdict(list)
    for r in handoff:
        by_broker[r["broker"]].append((r["frm"], r["to"]))
    assert by_broker.pop(0) == [
        ("SETTLED", "OUT_AWAIT_ACK"), ("OUT_AWAIT_ACK", "OUT_STREAMING"),
        ("OUT_STREAMING", "IDLE")]
    dest = by_broker.pop(15)
    assert dest[-1] == ("IN_MIGRATION", "SETTLED")
    assert dest[:-1] in ([("IDLE", "IN_MIGRATION")],
                         [("IDLE", "PRE_ANCHOR"), ("PRE_ANCHOR", "IN_MIGRATION")])
    # every other broker the records name is a hop of the tree path
    assert set(by_broker) == set(system.tree.path(0, 15)[1:-1])
    for hops in by_broker.values():
        assert hops == [("IDLE", "TRANSIT"), ("TRANSIT", "TRANSIT_ACKED"),
                        ("TRANSIT_ACKED", "IDLE")]


@pytest.mark.parametrize("protocol", list(MACHINES))
def test_every_phase_change_of_a_churn_run_is_a_listed_transition(protocol):
    phases, transitions, must_reach = MACHINES[protocol]
    traced = _churn(protocol, traced=True)
    records = _transitions(traced)
    assert {r["protocol"] for r in records} == {protocol}
    seen = {(phases[r["frm"]], phases[r["to"]]) for r in records}
    assert seen <= transitions
    # the run reaches the phases its protocol has
    reached = {to for _, to in seen}
    assert reached >= must_reach
    stats = traced.metrics.delivery.stats
    if protocol != "home-broker":  # unreliable by design
        assert (stats.missing, stats.duplicates) == (0, 0)
    # tracing only watches: the same run untraced makes the same events
    plain = _churn(protocol)
    assert plain.sim.events_processed == traced.sim.events_processed
    assert plain.metrics.delivery.stats == stats


def test_state_is_traced_only_when_the_category_is_on():
    for protocol in ("mhh", "sub-unsub", "home-broker"):
        plain, traced = _churn(protocol), _churn(protocol, traced=True)
        cls = plain.protocol.State
        for system, made in ((plain, cls), (traced, _traced(cls))):
            states = [st for b in system.brokers.values()
                      for st in b.pstate.values()]
            assert states and {type(st) for st in states} == {made}, protocol
        assert plain.tracer.records == []


def test_install_recovered_is_the_transition_idle_to_settled():
    plan = CrashPlan(events=(CrashEvent("crash", 20_000.0, broker=4,
                                        repair_delay_ms=0.0),))
    cfg = ExperimentConfig(
        "mhh", grid_k=3, seed=9, crashes=plan, trace=["handoff_phase"],
        workload=WorkloadSpec(clients_per_broker=2, duration_s=30.0))
    system, workload = build_system(cfg)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    assert system.recovery.repairs == 1
    at_repair = [r for r in _transitions(system) if r["to"] == "SETTLED"
                 and r["frm"] == "IDLE"]
    # every client gets one at the repair, on top of its first attach
    assert len(at_repair) == 2 * len(system.clients)

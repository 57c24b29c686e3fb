"""The handoff path leaves nothing behind.

``churn_mhh`` (the Fig 5 high-mobility edge: a sub-migration hop every few
model milliseconds) at 120 model seconds — 2 790 handoffs, 144 456 events,
about a second of host time — stopped twice: once with the movers halted
where they stand, once after everybody has reconnected. At both stops every
per-handoff structure must be back to one per client: a forgotten
``drop_queue``, ``_gc`` or entry removal in a hop's completion shows here as
a count, where a ``sim_digest`` would not see it at all. The same churn run
by sub-unsub and home-broker must leave each client its resting state(s)
the same way.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.e2e.workloads import build_config
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.mobility import home_broker, sub_unsub
from repro.mobility.mhh import Phase


def _assert_no_residue(system) -> int:
    """One state per client, SETTLED (its anchor), and one table entry;
    no frozen queue and no queue outside an anchor's
    PQlist. Returns the number of
    queues that are left."""
    brokers = system.brokers.values()
    clients = len(system.clients)
    states = [st for b in brokers for st in b.pstate.values()]
    assert len(states) == clients
    assert [st.phase for st in states] == [Phase.SETTLED] * clients
    assert sum(len(b.table.clients) for b in brokers) == clients
    assert sum(len(b.table._by_client) for b in brokers) == clients
    queues = [q for b in brokers for q in b.queues.values()]
    assert not [q for q in queues if q.frozen]
    listed = [ref for st in states for ref in st.pqlist]
    assert sorted((q.ref.broker, q.ref.qid) for q in queues) == sorted(
        (ref.broker, ref.qid) for ref in listed
    )
    assert system.protocol.quiescent()
    system.check_mirror_invariant()
    return len(queues)


def test_churn_mhh_leaves_one_of_everything_per_client():
    cfg = build_config("churn_mhh", 1).with_workload(duration_s=120.0)
    system, workload = build_system(cfg)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    system.run()  # movers halted: some clients stay disconnected
    assert system.metrics.handoffs.handoff_count == 2790  # it did churn
    offline = sum(not c.connected for c in system.clients.values())
    assert offline > 0
    # each of them stores into exactly one tail queue, and that is all
    assert _assert_no_residue(system) == offline

    drain_to_quiescence(system, workload, cfg.drain_limit_ms)
    assert _assert_no_residue(system) == 0
    stats = system.metrics.delivery.stats
    assert stats.missing == 0 and stats.duplicates == 0


def _assert_resting(system) -> None:
    """One resting state per client and what it holds, for the baselines:
    sub-unsub one SETTLED root, its one table entry, and a queue only for
    an offline client; home-broker one home state at the client's home,
    plus one FOREIGN state exactly where a client is connected away."""
    brokers = system.brokers
    clients = system.clients.values()
    assert system.protocol.quiescent()
    states = {(b.id, key): st for b in brokers.values()
              for key, st in b.pstate.items()}
    queues = {(q.ref.broker, q.ref.qid): q
              for b in brokers.values() for q in b.queues.values()}
    assert not [q for q in queues.values() if q.frozen]
    if system.protocol.name == "sub-unsub":
        su = sub_unsub.Phase
        assert sorted(key[0] for _b, key in states) == sorted(
            c.id for c in clients)
        assert {st.phase for st in states.values()} == {su.SETTLED}
        assert sorted((b.id, key) for b in brokers.values()
                      for key in b.table.clients) == sorted(states)
        held = sorted((ref.broker, ref.qid) for st in states.values()
                      if (ref := st.queue) is not None)
    else:
        hb = home_broker.Phase
        home = {(c.home_broker, c.id) for c in clients}
        away = {(c.current_broker, c.id) for c in clients
                if c.connected and c.current_broker != c.home_broker}
        assert set(states) == home | away
        assert {states[k].phase for k in away} <= {hb.FOREIGN}
        assert {states[k].phase for k in home} <= {
            hb.HOME_CONNECTED, hb.HOME_AWAY, hb.HOME_OFFLINE}
        held = sorted((ref.broker, ref.qid) for st in states.values()
                      if (ref := st.queue) is not None)
    assert sorted(queues) == held


@pytest.mark.parametrize("protocol", ["sub-unsub", "home-broker"])
def test_churn_leaves_one_resting_state_per_client(protocol):
    """The same churn, run by the other protocols: at both stops every
    client has its resting state(s) and nothing else."""
    cfg = replace(build_config("churn_mhh", 1), protocol=protocol)
    cfg = cfg.with_workload(duration_s=120.0)
    system, workload = build_system(cfg)
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    system.run()
    assert system.metrics.handoffs.handoff_count > 2000
    _assert_resting(system)
    drain_to_quiescence(system, workload, cfg.drain_limit_ms)
    _assert_resting(system)
    stats = system.metrics.delivery.stats
    assert stats.missing == 0 and stats.duplicates == 0

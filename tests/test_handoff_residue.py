"""The handoff path leaves nothing behind.

``churn_mhh`` (the Fig 5 high-mobility edge: a sub-migration hop every few
model milliseconds) at 120 model seconds — 2 790 handoffs, 144 456 events,
about a second of host time — stopped twice: once with the movers halted
where they stand, once after everybody has reconnected. At both stops every
per-handoff structure must be back to one per client: a forgotten
``drop_queue``, ``_gc`` or entry removal in a hop's completion shows here as
a count, where a ``sim_digest`` would not see it at all.
"""

from __future__ import annotations

from benchmarks.e2e.workloads import build_config
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.mobility.mhh import Phase


def _assert_no_residue(system) -> int:
    """One state per client, SETTLED (its anchor), and one table entry;
    no frozen queue, no queue outside an anchor's PQlist, and no
    filter set holding a member without a topic-range form (the workload
    installs topic ranges only). Returns the number of queues that are
    left."""
    brokers = system.brokers.values()
    clients = len(system.clients)
    states = [st for b in brokers for st in b.pstate.values()]
    assert len(states) == clients
    assert [st.phase for st in states] == [Phase.SETTLED] * clients
    assert sum(len(b.table.clients) for b in brokers) == clients
    assert sum(len(b.table._by_client) for b in brokers) == clients
    filter_sets = [
        peer
        for b in brokers
        for peer in (*b.table._from_nbr.values(), *b.table._advertised.values(),
                     b.table._client_filters)
        if peer is not None
    ]
    assert not [peer for peer in filter_sets if peer.general]
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

"""The audit is an oracle, not an input.

``DeliveryChecker`` is the ledger ``check_invariants`` trusts, so the
product must not decide anything by asking it: crash repair dedups a
replayed event against the subscriber's own seen set
(``Client.has_seen``), the WAL finds a replayed event's subscribers among
the sessions its log knows, and compaction keeps a publish until every
matching session has acked it. Marking (``mark_crash_risk``,
``mark_subscribers_at_risk``, ``mark_shed``, ``on_loss``) is accounting
and stays.

* **AST gate** — no module under ``repro.pubsub`` or ``repro.mobility``
  calls a ledger query.
* **Durable crashes cost zero deliveries** — three fixed-seed simulator
  regressions, one per root cause of the write-offs a durable crash run
  used to book: a publish uplink in flight across a repair round, a
  static client left detached until the drain, and home-broker's replay
  of an event behind a newer delivery. A fourth pins that a mover does
  not reconnect a client the repair round already reattached.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro.mobility
import repro.pubsub
from repro.conformance.fuzzer import run_scenario
from repro.conformance.scenarios import Scenario
from repro.network.recovery import CrashPlan
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem

#: the ledger's questions; only the audit (``repro.metrics``) asks them
QUERIES = {"delivered_pair", "max_delivered_seq", "matching_clients"}

PRODUCT = [
    info.name
    for package in (repro.pubsub, repro.mobility)
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
]


def _ledger_queries(tree: ast.AST) -> list[str]:
    return [
        f"{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else node.func.id) in QUERIES
    ]


@pytest.mark.parametrize("module_name", PRODUCT)
def test_the_product_asks_the_delivery_ledger_nothing(module_name):
    module = importlib.import_module(module_name)
    assert _ledger_queries(ast.parse(inspect.getsource(module))) == []


def test_the_ast_gate_sees_what_it_forbids():
    bad = ast.parse(
        "checker.delivered_pair(c, ev)\n"
        "for cid in self.system.metrics.delivery.matching_clients(t):\n"
        "    pass\n"
        "seq = max_delivered_seq(c, p)\n"
        "checker.mark_subscribers_at_risk(ev)\n"
    )
    assert [q.split()[0] for q in _ledger_queries(bad)] == ["1", "2", "4"]
    assert {"repro.pubsub.recovery", "repro.pubsub.wal",
            "repro.mobility.base"} <= set(PRODUCT)


# ---------------------------------------------------------------------------
# durable crashes: fixed-seed regressions on the simulator
# ---------------------------------------------------------------------------
def _durable(plan: CrashPlan, protocol: str = "mhh") -> PubSubSystem:
    return PubSubSystem(grid_k=3, protocol=protocol, seed=3, crashes=plan,
                        reliable=True, durable=True)


def _received(client) -> list:
    """``(event, model ms it reached the app)`` per distinct event."""
    seen: list = []
    clock = client.system.clock
    client.on_event = lambda ev: seen.append((ev, clock.now))
    return seen


def test_a_publish_in_flight_across_a_repair_round_is_delivered_in_order():
    """Broker 4 crashes at 1 s; the repair round runs at 1.5 s and bumps
    the generation. A publish sent at 1.49 s reaches its live ingress
    broker at 1.51 s: it carries no routing state, so it is routed on the
    repaired tree, not dropped as generation-stale into the outbox (which
    only the restart's round at 5 s re-offered, behind seqs 1 and 2, so
    it was written off)."""
    plan = CrashPlan.parse(crashes=["4@1"], restarts=["4@5"])
    system = _durable(plan)
    pub = system.add_client(RangeFilter(0.9, 1.0), broker=0)
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=2)
    got = _received(sub)
    pub.connect(0)
    sub.connect(2)
    for at in (1490.0, 2000.0, 3000.0):
        system.clock.call_later(at, pub.publish, 0.25)
    system.run()
    assert system.recovery.repairs == 2
    assert [ev.seq for ev, _at in got] == [0, 1, 2]
    assert got[0][0].publish_time == 1490.0
    st = system.metrics.delivery.stats
    assert (st.crash_lost, st.write_offs, st.missing,
            st.order_violations) == (0, 0, 0, 0)


#: a client left detached waits for nothing longer than this (model ms):
#: the 500 ms repair delay, the reattach connect and one handoff
REATTACH_BOUND_MS = 2_000.0


@pytest.mark.parametrize("protocol",
                         ["mhh", "sub-unsub", "home-broker"])
def test_a_static_client_detached_by_a_crash_is_reattached_by_the_repair(
        protocol):
    """Broker 4 dies for good at 10 s with a static subscriber attached.
    Nothing moves a static client, so before the fix it stayed off the
    air (and its backlog queued) until the drain reconnected everyone.
    Now the repair round at 10.5 s re-associates it at its anchor: every
    event of a 60 s publishing window reaches it within
    ``REATTACH_BOUND_MS`` of its publish, before the window closes."""
    system = _durable(CrashPlan.parse(crashes=["4@10"]), protocol)
    pub = system.add_client(RangeFilter(0.9, 1.0), broker=0)
    sub = system.add_client(RangeFilter(0.0, 0.5), broker=4)
    got = _received(sub)
    pub.connect(0)
    sub.connect(4)
    published = []
    for second in range(1, 60):
        system.clock.call_later(
            second * 1000.0 + 250.0,
            lambda: published.append(pub.publish(0.25)))
    system.run(until=60_000.0)
    assert sub.connected and sub.current_broker != 4
    assert sorted(ev.event_id for ev, _at in got) == [
        ev.event_id for ev in published]
    assert max(at - ev.publish_time for ev, at in got) < REATTACH_BOUND_MS
    system.run()
    st = system.metrics.delivery.stats
    assert (st.crash_lost, st.write_offs, st.missing) == (0, 0, 0)


def test_home_broker_delivers_a_replayed_event_behind_a_newer_one():
    """Durable-lane scenario 17 under home-broker: k=3, broker 7 crashes
    at 91.8 s and restarts at 139.1 s. Client 22 never got publisher 14's
    seq 0 (event 20, published at 28.5 s), though it got that publisher's
    later events. The WAL offers it at the repair round at 92.3 s, and
    the client's own seen set says it is new. Home-broker promises no
    order, so it is delivered behind the newer ones: one order violation
    and no write-off (the repair used to write it off, crash_lost=1)."""
    row = run_scenario(Scenario.from_seed(17, "durable", "home-broker").config)
    assert row.violations == []
    assert (row.crash_lost, row.shed, row.missing,
            row.order_violations) == (0, 0, 0, 1)


def test_a_mover_leaves_a_client_the_repair_reattached_where_it_is():
    """Crash-lane scenario 79 under mhh: broker 0 crashes at 102.7 s and
    detaches client 4. Its mover wakes before the repair round, finds it
    off the air and starts its disconnected dwell; the repair round at
    103.2 s reattaches it. When the dwell ends the mover draws its next
    station as always but does not connect a connected client (that
    raised ``ClientStateError``); the client stays where the repair put
    it until its next disconnect."""
    row = run_scenario(Scenario.from_seed(79, "crash", "mhh").config)
    assert row.violations == []

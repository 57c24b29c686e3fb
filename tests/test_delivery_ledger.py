"""The delivery ledger against the set-based checker it replaced.

``DeliveryChecker`` keeps only what is open (outstanding expectations
with their write-off marks, high-water marks); ``tests/delivery_sets.py``
remembers every delivery. One random schedule goes to both, and after
every step they must give the same settled stats and the same answer to
every question the audit asks (``delivered_pair``). The product asks the
ledger nothing (``tests/test_audit_oracle.py`` holds that by an AST walk).

The bounded-growth half runs small steady-publishing ``mhh`` systems, one
lossless and one lossy with ACK/retransmit and the write-ahead log, and
checks that nothing per-delivery is retained once the run has drained.
"""

import dataclasses
import gc
import tracemalloc

from hypothesis import given, settings, strategies as st

from delivery_sets import SetDeliveryChecker
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.metrics.delivery import DeliveryChecker
from repro.network.faults import FaultProfile
from repro.pubsub.events import Notification
from repro.workload.spec import WorkloadSpec

CLIENTS = (0, 1, 2, 3, 9)  # 9 never registers a subscription
PUBLISHERS = (0, 1, 2)
TOPICS = (0.1, 0.3, 0.5, 0.7, 0.95)  # 0.95 is outside every range below
RANGES = ((0.0, 0.4), (0.2, 0.6), (0.5, 0.8), (0.0, 0.8))
N_EVENTS = 12
MARKS = ("on_loss", "on_recoverable_drop", "mark_shed", "mark_crash_risk")


@st.composite
def schedules(draw):
    """(events, told, ops): ``told[i]`` is False for events the
    checker never hears published (``tests/test_wal.py::_drive`` hands
    ``DurabilityManager`` such events)."""
    next_seq = dict.fromkeys(PUBLISHERS, 0)
    events = []
    for eid in range(N_EVENTS):
        pub = draw(st.sampled_from(PUBLISHERS))
        events.append(Notification(
            100 + eid, pub, next_seq[pub], float(eid),
            draw(st.sampled_from(TOPICS)),
        ))
        next_seq[pub] += 1
    told = draw(st.lists(st.booleans(), min_size=N_EVENTS, max_size=N_EVENTS))
    client = st.sampled_from(CLIENTS)
    event = st.integers(0, N_EVENTS - 1)
    op = st.one_of(
        st.tuples(st.just("sub"), st.sampled_from(CLIENTS[:-1]),
                  st.sampled_from(RANGES)),
        st.tuples(st.just("pub"), event),
        st.tuples(st.just("pub"), event),
        st.tuples(st.just("dlv"), client, event),
        # the k-th pair on_publish has counted so far: deliver it (again),
        # or write it off
        st.tuples(st.sampled_from(("dlv",) + MARKS), st.integers(0, 5)),
    )
    # subscriptions are static in the product, so most schedules register
    # them first; late ones ride in the random part
    head = [("sub", c, draw(st.sampled_from(RANGES))) for c in CLIENTS[:-1]
            if draw(st.booleans())]
    return events, told, head + draw(st.lists(op, min_size=30, max_size=60))


def _same_answers(ledger, oracle, events):
    # settling is idempotent, so both settle after every step
    for checker in (ledger, oracle):
        checker.finalize_accounting()
    assert ledger.stats == oracle.stats
    assert ledger.expected_per_client == oracle.expected_per_client
    for cid in CLIENTS:
        for ev in events:
            assert ledger.delivered_pair(cid, ev) == oracle.delivered_pair(
                cid, ev
            ), (cid, ev)


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_ledger_agrees_with_the_set_based_checker(schedule):
    events, told, ops = schedule
    both = (DeliveryChecker(), SetDeliveryChecker())
    subs = []
    published = set()
    expected = []  # (client, event index) pairs on_publish counted
    for step, op in enumerate(ops):
        kind = op[0]
        if len(op) == 2 and kind != "pub":
            if not expected:
                continue
            op = (kind, *expected[op[1] % len(expected)])
        if kind == "sub":
            _, cid, (lo, hi) = op
            subs.append((cid, lo, hi))
            for checker in both:
                checker.register_subscription(cid, lo, hi)
        elif kind == "pub":
            i = op[1]
            if not told[i] or i in published:
                continue
            published.add(i)
            expected.extend(
                (cid, i) for cid, lo, hi in subs
                if lo <= events[i].topic <= hi
            )
            for checker in both:
                checker.on_publish(events[i])
        elif kind == "dlv":
            # any client, any event: fresh, duplicate, out of order, late
            # after a loss, to a client nobody expects, never published —
            # but not ahead of its own on_publish (Client.publish tells
            # the checker before the uplink send)
            if told[op[2]] and op[2] not in published:
                continue
            for checker in both:
                checker.on_delivery(op[1], events[op[2]], float(step))
        else:
            _, cid, i = op  # callers only write off expected deliveries
            for checker in both:
                getattr(checker, kind)(cid, events[i])
        _same_answers(*both, events)


def test_unpublished_event_is_never_delivered_until_it_is():
    dc = DeliveryChecker()
    dc.register_subscription(1, 0.0, 1.0)
    ghost = Notification(7, 0, 0, 0.0, 0.5)
    assert not dc.delivered_pair(1, ghost)
    dc.on_delivery(1, ghost, 1.0)
    assert dc.delivered_pair(1, ghost)
    dc.on_delivery(1, ghost, 2.0)
    assert (dc.stats.delivered, dc.stats.duplicates) == (2, 1)


def test_an_event_published_before_a_subscription_is_never_owed():
    """A range registered after a publish does not expect it: its first
    copy counts as ``early`` (delivered, not against ``expected``), a lost
    copy as ``early_lost``, and neither moves ``missing``."""
    both = (DeliveryChecker(), SetDeliveryChecker())
    old, lost = Notification(7, 0, 0, 0.0, 0.5), Notification(8, 0, 1, 0.0, 0.5)
    for dc in both:
        dc.register_subscription(1, 0.0, 1.0)
        dc.on_publish(old)
        dc.on_publish(lost)
        dc.register_subscription(2, 0.0, 1.0)
        for cid in (1, 2):
            dc.on_delivery(cid, old, 1.0)
        dc.on_delivery(2, old, 2.0)
        dc.on_loss(2, lost)
        dc.finalize_accounting()
    ledger, oracle = both
    assert ledger.stats == oracle.stats
    st = ledger.stats
    assert (st.expected, st.delivered, st.duplicates) == (2, 3, 1)
    assert (st.early, st.early_lost) == (1, 1)
    assert st.missing == 1  # client 1's seq 1, which it is owed


def test_marking_a_publish_at_risk_marks_each_matching_subscriber():
    """The checker matches the subscribers itself (crash repair names the
    event only): every registered range holding the topic is marked, and
    a marked pair that is delivered anyway reconciles to zero."""
    dc = DeliveryChecker()
    for cid, (lo, hi) in enumerate(RANGES):
        dc.register_subscription(cid, lo, hi)
    ev = Notification(7, 0, 0, 0.0, 0.3)  # ranges 0, 1 and 3 hold 0.3
    dc.on_publish(ev)
    dc.mark_subscribers_at_risk(ev)
    dc.on_delivery(1, ev, 1.0)
    dc.finalize_accounting()
    assert (dc.stats.crash_lost, dc.stats.missing) == (2, 0)


def _settled(*marks: str, delivered_first: bool = False) -> DeliveryChecker:
    """One expected pair, marked by ``marks`` in that order (each the name
    of a checker method taking ``(client, event)``) and, if
    ``delivered_first``, delivered before them; the books settled. The
    settlement precedence is shed > explicit loss > crash > a covered drop
    never redelivered."""
    dc = DeliveryChecker()
    dc.register_subscription(1, 0.0, 1.0)
    ev = Notification(7, 0, 0, 0.0, 0.5)
    dc.on_publish(ev)
    if delivered_first:
        dc.on_delivery(1, ev, 1.0)
    for mark in marks:
        getattr(dc, mark)(1, ev)
    dc.finalize_accounting()
    return dc


def test_explicit_loss_beats_a_crash_mark():
    # on_loss says this copy is gone, whatever the crash did
    stats = _settled("on_loss", "mark_crash_risk").stats
    assert (stats.lost_explicit, stats.crash_lost) == (1, 0)
    assert stats.missing == 0


def test_a_crash_marked_covered_drop_settles_as_crash_lost():
    # a reliable run reports its drops as covered: the retry died with
    # the broker, so the pair is the crash's
    stats = _settled("on_recoverable_drop", "mark_crash_risk").stats
    assert (stats.lost_explicit, stats.crash_lost, stats.recovered) == (0, 1, 0)
    assert stats.missing == 0


def test_shed_beats_explicit_loss():
    stats = _settled("on_loss", "mark_shed").stats
    assert (stats.shed, stats.lost_explicit) == (1, 0)
    assert stats.missing == 0


def test_a_covered_drop_after_the_first_delivery_is_not_recovered():
    # a mark lands only on a pair still outstanding: this drop was a
    # spurious retransmit, and nothing was recovered
    stats = _settled("on_recoverable_drop", delivered_first=True).stats
    assert (stats.recovered, stats.lost_explicit, stats.missing) == (0, 0, 0)


# ---------------------------------------------------------------------------
# bounded growth: the fanout_steady shape at tier-1 size, lossless and lossy
# ---------------------------------------------------------------------------
STEADY = ExperimentConfig(
    protocol="mhh",
    grid_k=3,
    seed=5,
    workload=WorkloadSpec(
        clients_per_broker=4,
        mobile_fraction=0.2,
        mean_connected_s=10.0,
        mean_disconnected_s=5.0,
        publish_interval_s=1.0,
        duration_s=60.0,
    ),
)
LEDGER_FILES = ("metrics/delivery.py", "pubsub/client.py")


def _ledger_bytes() -> int:
    gc.collect()
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/" + f) for f in LEDGER_FILES]
    )
    return sum(s.size for s in snap.statistics("filename"))


def _drained_ledger(cfg: ExperimentConfig):
    """Run ``cfg`` and drain it; the checker, the deliveries of the second
    half and the bytes the ledger files grew by over it."""
    system, workload = build_system(cfg)
    end = cfg.workload.duration_ms
    tracemalloc.start()
    try:
        system.run(until=end / 2)
        mid = _ledger_bytes()
        delivered_mid = system.metrics.delivery.stats.delivered
        system.run(until=end)
        workload.stop()
        drain_to_quiescence(system, workload)
        grown = _ledger_bytes() - mid
    finally:
        tracemalloc.stop()
    checker = system.metrics.delivery
    second_half = checker.stats.delivered - delivered_mid
    assert second_half > 1500 and checker.stats.missing == 0
    assert not any(checker._outstanding.values())
    assert not checker._unexpected
    # and no store keyed by (client, event) pair survives the drain
    assert not [name for name, store in vars(checker).items()
                if isinstance(store, (set, dict))
                and any(isinstance(key, tuple) for key in store)]
    return checker, second_half, grown


def test_ledgers_hold_nothing_per_delivery_after_a_steady_run():
    _checker, second_half, grown = _drained_ledger(STEADY)
    # what may still grow is one bit per published event in each client's
    # seen bitmap and a high-water mark per (client, publisher) pair seen
    # for the first time: ~18 KB here. One retained container
    # entry per delivery is >= 60 B each, i.e. >= 120 KB (the set-based
    # stores grew 377 KB on this run)
    assert grown < 64 * 1024, (grown, second_half)


#: the CI flat-RSS ``durable`` shape, one model minute long: 3 % downlink
#: loss, ACK/retransmit and the write-ahead log
LOSSY = dataclasses.replace(
    STEADY, faults=FaultProfile(deliver_loss=0.03), reliable=True,
    durable=True,
)


def test_ledgers_hold_nothing_per_delivery_after_a_lossy_reliable_run():
    """Every covered drop's mark leaves with its pair's first delivery, so
    the drained ledger keeps none (a set of one pair per covered drop,
    kept to count ``recovered`` at the end, grew with the run)."""
    checker, second_half, grown = _drained_ledger(LOSSY)
    assert checker.stats.recovered > 50 and checker.stats.lost_explicit == 0
    assert grown < 64 * 1024, (grown, second_half)

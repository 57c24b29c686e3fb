"""``FilterTable.match_batch`` parity.

A hypothesis battery asserts :meth:`FilterTable.match_batch` equals a loop
of :meth:`FilterTable.match` element-for-element (neighbour order, entry
order, MHH label handling) on the product table and with the tests-only
covering scan substituted for its index (``tests/covering_scan.py``), over
adversarial topic-range sets (groups, labels, point ranges, equal ``lo``,
infinite bounds, NaN and infinite topics). The method has no caller in ``src/`` (the lane-drain batching
that fed it is gone) and stays only because ``benchmarks/e2e/trace.py``
wraps it by name.
"""

from __future__ import annotations

from contextlib import nullcontext

from covering_scan import scan_covering
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import RangeFilter

NEIGHBORS = (1, 2, 3)


# ---------------------------------------------------------------------------
# match parity: match_batch == [match(e, f) for ...]
# ---------------------------------------------------------------------------
_bound = st.one_of(
    st.floats(-1.0, 2.0, allow_nan=False),
    st.integers(-2, 4).map(lambda i: i / 2),  # equal lo, points, shared ends
    st.sampled_from((float("-inf"), float("inf"))),
)
_filters = st.tuples(_bound, _bound).map(lambda b: RangeFilter(*sorted(b)))


_events = st.builds(
    Notification,
    event_id=st.integers(0, 10_000),
    publisher=st.integers(0, 3),
    seq=st.integers(0, 5),
    publish_time=st.just(0.0),
    topic=st.one_of(_bound, st.just(float("nan"))),
)


@settings(max_examples=60, deadline=None)
@given(
    client_filters=st.lists(
        st.tuples(_filters, st.sampled_from((None, 1, 2, 9))), max_size=10
    ),
    broker_filters=st.lists(
        st.tuples(st.sampled_from(NEIGHBORS), _filters), max_size=8
    ),
    items=st.lists(
        st.tuples(_events, st.sampled_from((None, 1, 2))), max_size=12
    ),
)
def test_match_batch_equals_match_loop(client_filters, broker_filters, items):
    for covering in (scan_covering, nullcontext):
        with covering():
            table = FilterTable(0, NEIGHBORS)
            for nbr, f in broker_filters:
                table.add_broker_filter(nbr, ("k", nbr, id(f)), f)
            for i, (f, label) in enumerate(client_filters):
                table.set_client_entry(
                    ClientEntry(i, ("c", i), f, label=label))
            expected = [table.match(ev, frm) for ev, frm in items]
            assert table.match_batch(items) == expected


def test_match_batch_after_churn_matches_loop():
    """The batch answer tracks the table through discard/re-add churn."""
    table = FilterTable(0, NEIGHBORS)
    for i in range(40):
        lo = (i % 10) / 10.0
        table.set_client_entry(
            ClientEntry(i, ("c", i), RangeFilter(lo, lo + 0.15))
        )
    for nbr in NEIGHBORS:
        table.add_broker_filter(nbr, ("n", nbr), RangeFilter(0.2, 0.4 + nbr / 10))
    events = [
        Notification(i, 0, i, 0.0, (i % 23) / 22.0) for i in range(23)
    ]
    items = [(ev, None if ev.event_id % 3 else 1) for ev in events]
    baseline = [table.match(ev, frm) for ev, frm in items]
    assert table.match_batch(items) == baseline
    for i in range(0, 40, 3):  # churn: discard a third, re-add shifted
        table.remove_entry_by_key(("c", i))
    for i in range(0, 40, 3):
        lo = ((i + 5) % 10) / 10.0
        table.set_client_entry(
            ClientEntry(i, ("c", i), RangeFilter(lo, lo + 0.05))
        )
    table.remove_broker_filter(1, ("n", 1))
    assert table.match_batch(items) == [table.match(ev, frm) for ev, frm in items]

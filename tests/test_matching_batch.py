"""Batched hot path: match_batch parity, lane-drain batching, trace identity.

Three layers of evidence that batching is a pure optimisation:

* **match parity** — a hypothesis battery asserts
  :meth:`FilterTable.match_batch` equals a loop of :meth:`FilterTable.match`
  element-for-element (neighbour order, entry order, MHH label handling)
  on the product table and with the tests-only covering scan substituted
  for its index (``tests/covering_scan.py``), over adversarial filter sets
  (groups, labels, NaN topics, string/bool attribute values);
* **scheduler batching** — unit tests pin the lane-drain semantics of
  :meth:`Simulator.register_fifo_batch`: same-instant same-callback runs
  coalesce, any interleaved event in global ``(time, seq)`` order is a
  batch boundary, and the heap engine degrades to per-event delivery with
  the same effective sequence;
* **trace identity** — fixed-seed conformance scenarios must produce
  byte-identical outcomes with the batched data plane on vs off
  (``ENGINE_BUNDLES[2]`` vs ``ENGINE_BUNDLES[0]``).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from covering_scan import scan_covering
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.fuzzer import compare_outcomes, run_scenario
from repro.conformance.scenarios import ENGINE_BUNDLES, Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)
from repro.sim.core import Simulator
from repro.workload.spec import WorkloadSpec

NEIGHBORS = (1, 2, 3)


# ---------------------------------------------------------------------------
# match parity: match_batch == [match(e, f) for ...]
# ---------------------------------------------------------------------------
_attrs = st.sampled_from(("topic", "x", "kind"))
_bounds = st.tuples(
    st.floats(-1.0, 2.0, allow_nan=False), st.floats(-1.0, 2.0, allow_nan=False)
).map(sorted)


@st.composite
def _constraints(draw):
    attr = draw(_attrs)
    op = draw(st.sampled_from(
        (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.RANGE, Op.EXISTS,
         Op.PREFIX)
    ))
    if op is Op.RANGE:
        value = tuple(draw(_bounds))
    elif op is Op.PREFIX:
        value = draw(st.sampled_from(("", "a", "ab", "b")))
    elif op in (Op.EQ, Op.NE):
        value = draw(st.one_of(
            st.floats(-1.0, 2.0, allow_nan=False), st.integers(-2, 2),
            st.booleans(), st.sampled_from(("a", "ab", "b")),
        ))
    else:
        value = draw(st.floats(-1.0, 2.0, allow_nan=False))
    return AttributeConstraint(attr, op, value)


@st.composite
def _filters(draw):
    if draw(st.booleans()):
        lo, hi = draw(_bounds)
        return RangeFilter(lo, hi, attr=draw(st.sampled_from(("topic", "x"))))
    return ConjunctionFilter(draw(st.lists(_constraints(), max_size=3)))


_events = st.builds(
    Notification,
    event_id=st.integers(0, 10_000),
    publisher=st.integers(0, 3),
    seq=st.integers(0, 5),
    publish_time=st.just(0.0),
    topic=st.one_of(
        st.floats(-1.0, 2.0, allow_nan=False), st.just(float("nan"))
    ),
    attrs=st.one_of(
        st.none(),
        st.dictionaries(
            st.sampled_from(("x", "kind")),
            st.one_of(
                st.floats(-1.0, 2.0, allow_nan=False), st.just(float("nan")),
                st.integers(-2, 2), st.booleans(),
                st.sampled_from(("a", "ab", "b")), st.none(),
            ),
            max_size=2,
        ),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    client_filters=st.lists(
        st.tuples(_filters(), st.sampled_from((None, 1, 2, 9))), max_size=10
    ),
    broker_filters=st.lists(
        st.tuples(st.sampled_from(NEIGHBORS), _filters()), max_size=8
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


# ---------------------------------------------------------------------------
# scheduler: register_fifo_batch lane-drain semantics
# ---------------------------------------------------------------------------
def _flatten(log):
    """Expand batch records to per-item records (the semantic sequence)."""
    out = []
    for kind, t, payload in log:
        if kind == "batch":
            out.extend(("one", t, item) for item in payload)
        else:
            out.append((kind, t, payload))
    return out


def _drive(engine):
    sim = Simulator(engine=engine)
    log = []

    def rx(tag):
        log.append(("one", sim.now, tag))

    def rx_batch(items):
        log.append(("batch", sim.now, [args[0] for args in items]))

    def other():
        log.append(("other", sim.now, None))

    sim.register_fifo_batch(rx, rx_batch)
    sim.schedule_fifo(1.0, rx, "a")
    sim.schedule_fifo(1.0, rx, "b")
    sim.schedule(1.0, other)  # global-order boundary inside the instant
    sim.schedule_fifo(1.0, rx, "c")
    sim.schedule_fifo(2.0, rx, "d")  # later instant: separate batch
    sim.run()
    return log


def test_lane_batching_coalesces_and_respects_boundaries():
    log = _drive("lanes")
    batches = [payload for kind, _t, payload in log if kind == "batch"]
    # a+b coalesce; the interleaved heap event fences c off; d is alone
    assert batches == [["a", "b"], ["c"], ["d"]]
    assert _flatten(log) == [
        ("one", 1.0, "a"), ("one", 1.0, "b"), ("other", 1.0, None),
        ("one", 1.0, "c"), ("one", 2.0, "d"),
    ]


def test_heap_engine_ignores_batch_registration_with_same_sequence():
    lanes, heap = _drive("lanes"), _drive("heap")
    assert all(kind != "batch" for kind, _t, _p in heap)
    assert _flatten(heap) == _flatten(lanes)


def test_lane_batching_counts_each_event():
    sim = Simulator(engine="lanes")
    seen = []
    rx = seen.append
    # the batch handler receives the argument *tuples* in firing order
    sim.register_fifo_batch(rx, lambda items: seen.extend(a[0] for a in items))
    for tag in range(5):
        sim.schedule_fifo(1.0, rx, tag)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5  # batching must not hide events


# ---------------------------------------------------------------------------
# system wiring
# ---------------------------------------------------------------------------
def _tiny_config(**kw):
    return ExperimentConfig(
        protocol="mhh", grid_k=2, seed=3,
        workload=WorkloadSpec(
            clients_per_broker=2, mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=15.0, duration_s=60.0,
        ),
        **kw,
    )


def test_event_batching_toggle_wires_the_batch_path():
    system, _wl = build_system(_tiny_config(event_batching=True))
    assert system.options.event_batching
    # every broker's batch receiver is registered with the link layer and
    # the pinned delivery callback is registered with the lane scheduler
    assert set(system.net._broker_rx_batch) == set(system.brokers)
    clock = system.net.clock
    assert system.net._deliver_broker in clock._fifo_batch
    off, _wl = build_system(_tiny_config())
    assert not off.options.event_batching
    assert not off.net._broker_rx_batch


# ---------------------------------------------------------------------------
# trace identity: batched data plane on vs off, fixed seeds
# ---------------------------------------------------------------------------
def _small_seed(predicate=lambda s: True, start=0):
    for seed in range(start, start + 5000):
        s = Scenario.from_seed(seed)
        if (s.grid_k == 2 and s.clients_per_broker == 3
                and s.duration_s == 180.0 and predicate(s)):
            return seed
    raise AssertionError("no matching scenario seed found")


@pytest.mark.parametrize("seed_pick", [
    ("mhh-faulty", lambda s: s.protocol == "mhh" and s.faults.active),
    ("sub-unsub", lambda s: s.protocol == "sub-unsub"),
], ids=lambda p: p[0])
def test_event_batching_traces_byte_identical(seed_pick):
    _name, predicate = seed_pick
    scenario = Scenario.from_seed(_small_seed(predicate))
    base = run_scenario(scenario, **ENGINE_BUNDLES[0])
    batched = run_scenario(scenario, **ENGINE_BUNDLES[2])
    assert ENGINE_BUNDLES[2] == {"event_batching": True}
    assert batched.engine_bundle == ("lanes", True)  # it did batch
    assert compare_outcomes(base, batched) == []
    assert base.delivery_log  # the scenario actually delivered traffic

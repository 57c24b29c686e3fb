"""Unit + property tests for the one filter kind, a closed topic range."""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FilterError
from repro.pubsub.events import Notification
from repro.pubsub.filters import RangeFilter

INF = math.inf
NAN = math.nan


def ev(topic=0.0):
    return Notification(0, 0, 0, 0.0, topic)


# ---------------------------------------------------------------------------
# RangeFilter
# ---------------------------------------------------------------------------
class TestRangeFilter:
    def test_matches_inside_and_boundaries(self):
        f = RangeFilter(0.2, 0.4)
        assert f.matches(ev(0.3))
        assert f.matches(ev(0.2))
        assert f.matches(ev(0.4))
        assert not f.matches(ev(0.1999))
        assert not f.matches(ev(0.4001))

    def test_point_range(self):
        f = RangeFilter(0.5, 0.5)
        assert f.matches(ev(0.5))
        assert not f.matches(ev(0.50001))

    def test_invalid_range_rejected(self):
        with pytest.raises(FilterError):
            RangeFilter(0.6, 0.4)
        with pytest.raises(FilterError):
            RangeFilter(INF, -INF)

    def test_nan_bounds_rejected(self):
        for lo, hi in ((NAN, 0.5), (0.5, NAN), (NAN, NAN), (-INF, NAN)):
            with pytest.raises(FilterError):
                RangeFilter(lo, hi)

    def test_infinite_bounds(self):
        f = RangeFilter(-INF, INF)
        assert f.matches(ev(-INF)) and f.matches(ev(INF)) and f.matches(ev(0.0))
        assert not f.matches(ev(NAN))
        assert f.covers(RangeFilter(-INF, 0.5)) and f.covers(f)
        assert not RangeFilter(0.0, INF).covers(f)
        assert RangeFilter(0.0, INF).matches(ev(1e308))

    def test_takes_exactly_lo_and_hi(self):
        assert list(inspect.signature(RangeFilter).parameters) == ["lo", "hi"]
        with pytest.raises(TypeError):
            RangeFilter(0.1, 0.2, "topic")

    def test_covers_nested(self):
        assert RangeFilter(0.1, 0.9).covers(RangeFilter(0.2, 0.8))
        assert RangeFilter(0.1, 0.9).covers(RangeFilter(0.1, 0.9))
        assert not RangeFilter(0.2, 0.8).covers(RangeFilter(0.1, 0.9))
        assert not RangeFilter(0.1, 0.5).covers(RangeFilter(0.4, 0.6))

    def test_identity_equality_and_hash(self):
        assert RangeFilter(0.1, 0.2) == RangeFilter(0.1, 0.2)
        assert hash(RangeFilter(0.1, 0.2)) == hash(RangeFilter(0.1, 0.2))
        assert RangeFilter(0.1, 0.2) != RangeFilter(0.1, 0.3)
        assert RangeFilter(1, 3) == RangeFilter(1.0, 3.0)
        assert RangeFilter(0.1, 0.2) != (0.1, 0.2)

    def test_width(self):
        assert RangeFilter(0.25, 0.75).width == 0.5


# ---------------------------------------------------------------------------
# property tests: covering soundness (the routing-correctness requirement)
# ---------------------------------------------------------------------------
ranges = st.tuples(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
).map(lambda ab: RangeFilter(min(ab), max(ab)))


@settings(max_examples=200, deadline=None)
@given(f=ranges, g=ranges, x=st.floats(0, 1, allow_nan=False))
def test_property_covering_sound_for_ranges(f, g, x):
    """covers(f, g) and g matches x => f matches x."""
    if f.covers(g) and g.matches(ev(x)):
        assert f.matches(ev(x))


@settings(max_examples=200, deadline=None)
@given(f=ranges, g=ranges)
def test_property_covering_antisymmetry_up_to_equality(f, g):
    if f.covers(g) and g.covers(f):
        assert (f.lo, f.hi) == (g.lo, g.hi)


# ---------------------------------------------------------------------------
# RangeFilter.topic_range: the interval fixed at construction
# ---------------------------------------------------------------------------
def assert_topic_range_contract(f):
    """``topic_range`` is ``(lo, hi)``, as floats, in a tuple."""
    assert f.topic_range == (f.lo, f.hi)
    assert type(f.topic_range) is tuple
    assert all(type(b) is float for b in f.topic_range)


def wire_round_trip(f):
    from repro.pubsub import messages as m
    from repro.wire.codec import decode_message, encode_message

    return decode_message(encode_message(m.SubscribeMessage("k", f))).filter


def test_topic_range_of_a_range_filter():
    assert RangeFilter(0.2, 0.4).topic_range == (0.2, 0.4)
    assert RangeFilter(1, 3).topic_range == (1.0, 3.0)
    for f in (RangeFilter(0.2, 0.4), RangeFilter(0.3, 0.3),
              RangeFilter(-INF, INF)):
        assert_topic_range_contract(f)
        assert_topic_range_contract(wire_round_trip(f))
        assert wire_round_trip(f).topic_range == f.topic_range


def test_topic_range_of_every_drawn_filter_shape():
    """Every shape ``test_control_plane.random_filter`` draws (grid runs,
    points, infinite bounds, continuous draws), before and after the wire
    codec."""
    import random

    from test_control_plane import random_filter
    from test_filter_sets import ADVERSARIAL

    rnd = random.Random(3)
    drawn = list(ADVERSARIAL) + [random_filter(rnd) for _ in range(400)]
    for f in drawn:
        assert_topic_range_contract(f)
        back = wire_round_trip(f)
        assert_topic_range_contract(back)
        assert back == f
    assert any(f.lo == -INF for f in drawn) and any(f.hi == INF for f in drawn)
    assert any(f.lo == f.hi for f in drawn)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(0, 1e6))
def test_property_topic_range_survives_the_wire(lo, width):
    f = RangeFilter(lo, lo + width)
    assert_topic_range_contract(f)
    assert_topic_range_contract(wire_round_trip(f))
    assert wire_round_trip(f) == f

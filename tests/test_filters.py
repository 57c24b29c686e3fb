"""Unit + property tests for the filter language."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FilterError
from repro.pubsub.events import Notification
from repro.pubsub.filters import (
    AttributeConstraint,
    ConjunctionFilter,
    Op,
    RangeFilter,
)


def ev(topic=0.0, **attrs):
    return Notification(0, 0, 0, 0.0, topic, attrs or None)


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

    def test_covers_nested(self):
        assert RangeFilter(0.1, 0.9).covers(RangeFilter(0.2, 0.8))
        assert RangeFilter(0.1, 0.9).covers(RangeFilter(0.1, 0.9))
        assert not RangeFilter(0.2, 0.8).covers(RangeFilter(0.1, 0.9))
        assert not RangeFilter(0.1, 0.5).covers(RangeFilter(0.4, 0.6))

    def test_covers_respects_attribute(self):
        assert not RangeFilter(0.0, 1.0).covers(
            RangeFilter(0.2, 0.3, attr="price")
        )

    def test_non_topic_attribute(self):
        f = RangeFilter(1.0, 5.0, attr="price")
        assert f.matches(ev(0.0, price=3))
        assert not f.matches(ev(0.0, price=9))
        assert not f.matches(ev(0.0))  # attribute absent

    def test_non_numeric_value_never_matches(self):
        f = RangeFilter(1.0, 5.0, attr="price")
        assert not f.matches(ev(0.0, price="three"))

    def test_identity_equality_and_hash(self):
        assert RangeFilter(0.1, 0.2) == RangeFilter(0.1, 0.2)
        assert hash(RangeFilter(0.1, 0.2)) == hash(RangeFilter(0.1, 0.2))
        assert RangeFilter(0.1, 0.2) != RangeFilter(0.1, 0.3)

    def test_as_range(self):
        assert RangeFilter(0.1, 0.2).as_range() == ("topic", 0.1, 0.2)

    def test_width(self):
        assert RangeFilter(0.25, 0.75).width == 0.5


# ---------------------------------------------------------------------------
# AttributeConstraint
# ---------------------------------------------------------------------------
class TestConstraints:
    @pytest.mark.parametrize(
        "op,value,good,bad",
        [
            (Op.EQ, 5, 5, 6),
            (Op.NE, 5, 6, 5),
            (Op.LT, 5, 4, 5),
            (Op.LE, 5, 5, 6),
            (Op.GT, 5, 6, 5),
            (Op.GE, 5, 5, 4),
            (Op.RANGE, (2, 4), 3, 5),
            (Op.PREFIX, "foo", "foobar", "barfoo"),
        ],
    )
    def test_ops(self, op, value, good, bad):
        c = AttributeConstraint("a", op, value)
        assert c.matches_value(good)
        assert not c.matches_value(bad)

    def test_exists(self):
        c = AttributeConstraint("a", Op.EXISTS)
        assert c.matches_value(0)
        assert c.matches_value("x")
        assert not c.matches_value(None)

    def test_missing_value_fails_non_exists(self):
        assert not AttributeConstraint("a", Op.EQ, 1).matches_value(None)

    def test_incomparable_types_do_not_match(self):
        assert not AttributeConstraint("a", Op.LT, 5).matches_value("abc")

    def test_range_requires_pair(self):
        with pytest.raises(FilterError):
            AttributeConstraint("a", Op.RANGE, 5)
        with pytest.raises(FilterError):
            AttributeConstraint("a", Op.RANGE, (5, 2))

    def test_prefix_requires_string(self):
        with pytest.raises(FilterError):
            AttributeConstraint("a", Op.PREFIX, 7)

    def test_empty_attr_rejected(self):
        with pytest.raises(FilterError):
            AttributeConstraint("", Op.EQ, 1)

    # implication --------------------------------------------------------
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((Op.RANGE, (2, 4)), (Op.RANGE, (1, 5)), True),
            ((Op.RANGE, (1, 5)), (Op.RANGE, (2, 4)), False),
            ((Op.EQ, 3), (Op.RANGE, (1, 5)), True),
            ((Op.EQ, 7), (Op.RANGE, (1, 5)), False),
            ((Op.LT, 3), (Op.LT, 5), True),
            ((Op.LT, 5), (Op.LT, 3), False),
            ((Op.LT, 5), (Op.LE, 5), True),
            ((Op.LE, 5), (Op.LT, 5), False),
            ((Op.GT, 5), (Op.GE, 5), True),
            ((Op.GE, 5), (Op.GT, 5), False),
            ((Op.GT, 5), (Op.GT, 3), True),
            ((Op.EQ, 5), (Op.EXISTS, None), True),
            ((Op.PREFIX, "foobar"), (Op.PREFIX, "foo"), True),
            ((Op.PREFIX, "foo"), (Op.PREFIX, "foobar"), False),
            ((Op.NE, 3), (Op.NE, 3), True),
            ((Op.NE, 3), (Op.NE, 4), False),
        ],
    )
    def test_implies(self, a, b, expected):
        ca = AttributeConstraint("x", a[0], a[1])
        cb = AttributeConstraint("x", b[0], b[1])
        assert ca.implies(cb) is expected

    def test_implies_needs_same_attribute(self):
        a = AttributeConstraint("x", Op.EQ, 1)
        b = AttributeConstraint("y", Op.EXISTS)
        assert not a.implies(b)


# ---------------------------------------------------------------------------
# ConjunctionFilter
# ---------------------------------------------------------------------------
class TestConjunction:
    def test_all_constraints_must_hold(self):
        f = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.0, 0.5)),
            AttributeConstraint("prio", Op.GE, 3),
        ])
        assert f.matches(ev(0.2, prio=5))
        assert not f.matches(ev(0.2, prio=1))
        assert not f.matches(ev(0.9, prio=5))

    def test_empty_conjunction_matches_everything(self):
        f = ConjunctionFilter([])
        assert f.matches(ev(0.123, anything=1))
        assert f.covers(RangeFilter(0.1, 0.2))

    def test_covers_conjunction(self):
        broad = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.0, 0.8)),
        ])
        narrow = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.2, 0.5)),
            AttributeConstraint("prio", Op.EQ, 1),
        ])
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_covers_range_filter(self):
        conj = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.0, 0.9)),
        ])
        assert conj.covers(RangeFilter(0.1, 0.5))
        assert not conj.covers(RangeFilter(0.1, 0.95))

    def test_range_filter_covers_conjunction(self):
        conj = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.2, 0.3)),
            AttributeConstraint("prio", Op.EQ, 1),
        ])
        assert RangeFilter(0.1, 0.5).covers(conj)

    def test_as_range_single_closed_constraint(self):
        conj = ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.2, 0.3)),
        ])
        assert conj.as_range() == ("topic", 0.2, 0.3)

    def test_as_range_none_for_open_or_multi(self):
        assert ConjunctionFilter([
            AttributeConstraint("topic", Op.LT, 0.5),
        ]).as_range() is None
        assert ConjunctionFilter([
            AttributeConstraint("topic", Op.RANGE, (0.2, 0.3)),
            AttributeConstraint("prio", Op.EQ, 1),
        ]).as_range() is None

    def test_identity_is_order_insensitive(self):
        a = ConjunctionFilter([
            AttributeConstraint("x", Op.EQ, 1),
            AttributeConstraint("y", Op.EQ, 2),
        ])
        b = ConjunctionFilter([
            AttributeConstraint("y", Op.EQ, 2),
            AttributeConstraint("x", Op.EQ, 1),
        ])
        assert a == b
        assert hash(a) == hash(b)


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


constraint_ops = st.sampled_from([Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE])


@settings(max_examples=300, deadline=None)
@given(
    op1=constraint_ops,
    v1=st.integers(-5, 5),
    op2=constraint_ops,
    v2=st.integers(-5, 5),
    x=st.integers(-10, 10),
)
def test_property_implication_sound(op1, v1, op2, v2, x):
    """c1 implies c2 and x satisfies c1 => x satisfies c2."""
    c1 = AttributeConstraint("a", op1, v1)
    c2 = AttributeConstraint("a", op2, v2)
    if c1.implies(c2) and c1.matches_value(x):
        assert c2.matches_value(x)


# ---------------------------------------------------------------------------
# Filter.topic_range: the topic interval fixed at construction
# ---------------------------------------------------------------------------
def assert_topic_range_contract(f):
    """``topic_range`` is ``as_range()`` less the attribute exactly when that
    is a topic range, and None otherwise."""
    rng = f.as_range()
    if rng is not None and rng[0] == "topic":
        assert f.topic_range == rng[1:]
        assert type(f.topic_range) is tuple
    else:
        assert f.topic_range is None


def wire_round_trip(f):
    from repro.pubsub import messages as m
    from repro.wire.codec import decode_message, encode_message

    return decode_message(encode_message(m.SubscribeMessage("k", f))).filter


def test_topic_range_of_a_range_filter():
    assert RangeFilter(0.2, 0.4).topic_range == (0.2, 0.4)
    assert RangeFilter(1, 3).topic_range == (1.0, 3.0)
    assert RangeFilter(5.0, 20.0, attr="size").topic_range is None
    assert RangeFilter(5.0, 20.0, attr="size").as_range() == ("size", 5.0, 20.0)
    for f in (RangeFilter(0.2, 0.4), RangeFilter(0.3, 0.3),
              RangeFilter(5.0, 20.0, attr="size")):
        assert_topic_range_contract(f)
        assert_topic_range_contract(wire_round_trip(f))
        assert wire_round_trip(f).topic_range == f.topic_range


def test_topic_range_of_every_drawn_filter_shape():
    """Every shape ``test_control_plane.random_filter`` draws, NaN-valued
    constraints included, before and after the wire codec."""
    import random

    from test_control_plane import random_filter
    from test_filter_sets import ADVERSARIAL, random_filter_with_nan

    rnd = random.Random(3)
    drawn = list(ADVERSARIAL) + [
        ConjunctionFilter([AttributeConstraint("topic", op, v)])
        for op, v in ((Op.RANGE, (0.2, 0.3)), (Op.EQ, 0.5), (Op.EQ, 2),
                      (Op.LE, 0.5), (Op.GT, 0.5), (Op.NE, 0.5),
                      (Op.EQ, math.nan), (Op.EQ, True), (Op.RANGE, ("a", "b")))
    ]
    drawn += [random_filter_with_nan(rnd) for _ in range(400)]
    with_range = 0
    for f in drawn:
        assert_topic_range_contract(f)
        back = wire_round_trip(f)
        assert_topic_range_contract(back)
        assert back.topic_range == f.topic_range
        with_range += f.topic_range is not None
    assert 50 < with_range < len(drawn) - 50
    assert ConjunctionFilter(
        [AttributeConstraint("topic", Op.EQ, 2)]).topic_range == (2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(0, 1e6),
       attr=st.sampled_from(["topic", "size"]),
       as_conjunction=st.booleans())
def test_property_topic_range_is_as_range_less_the_attribute(
        lo, width, attr, as_conjunction):
    f = RangeFilter(lo, lo + width, attr=attr)
    if as_conjunction:
        f = ConjunctionFilter([AttributeConstraint(attr, Op.RANGE, (f.lo, f.hi))])
    assert_topic_range_contract(f)
    assert_topic_range_contract(wire_round_trip(f))

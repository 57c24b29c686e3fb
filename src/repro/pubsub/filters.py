"""Content-based subscription filters.

A filter selects the subset of events a subscriber wants. The library
implements a SIENA-style language: a filter is a **conjunction of attribute
constraints**, where each constraint compares one event attribute against a
value with one of the operators in :class:`Op`.

Two filter classes exist:

* :class:`RangeFilter` — a single closed range ``lo <= attr <= hi`` on one
  numeric attribute. This is the workhorse of the paper's workload (interest
  in a contiguous slice of the topic space) and has a fast matching path and
  an exact covering test.
* :class:`ConjunctionFilter` — general conjunction of
  :class:`AttributeConstraint`; matching is exact, covering is *conservative*
  (syntactic implication per attribute — it may answer "not covered" for
  semantically covered filters, which is safe for routing: covering is only
  ever used to prune redundant subscription propagation).
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterable, Optional

from repro.errors import FilterError
from repro.pubsub.events import Notification

__all__ = ["Op", "AttributeConstraint", "Filter", "RangeFilter", "ConjunctionFilter"]


class Op(enum.Enum):
    """Comparison operators available in attribute constraints."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    RANGE = "in"        # closed interval [value[0], value[1]]
    EXISTS = "exists"   # attribute present (value ignored)
    PREFIX = "prefix"   # string attribute starts with value


class AttributeConstraint:
    """One constraint ``attr <op> value``.

    For :attr:`Op.RANGE`, ``value`` must be a 2-tuple ``(lo, hi)`` with
    ``lo <= hi``.
    """

    __slots__ = ("attr", "op", "value")

    def __init__(self, attr: str, op: Op, value: Any = None) -> None:
        if not attr:
            raise FilterError("constraint attribute name must be non-empty")
        if op is Op.RANGE:
            try:
                lo, hi = value
            except (TypeError, ValueError):
                raise FilterError(
                    f"RANGE constraint needs a (lo, hi) pair, got {value!r}"
                ) from None
            if not (lo <= hi):
                raise FilterError(f"RANGE constraint with lo > hi: {value!r}")
        if op is Op.PREFIX and not isinstance(value, str):
            raise FilterError(f"PREFIX constraint needs a string, got {value!r}")
        self.attr = attr
        self.op = op
        self.value = value

    # ------------------------------------------------------------------
    def matches_value(self, v: Any) -> bool:
        """Does an attribute value satisfy this constraint?"""
        op = self.op
        if op is Op.EXISTS:
            return v is not None
        if v is None:
            return False
        try:
            if op is Op.EQ:
                return bool(v == self.value)
            if op is Op.NE:
                return bool(v != self.value)
            if op is Op.LT:
                return bool(v < self.value)
            if op is Op.LE:
                return bool(v <= self.value)
            if op is Op.GT:
                return bool(v > self.value)
            if op is Op.GE:
                return bool(v >= self.value)
            if op is Op.RANGE:
                lo, hi = self.value
                return bool(lo <= v <= hi)
            if op is Op.PREFIX:
                return isinstance(v, str) and v.startswith(self.value)
        except TypeError:
            # incomparable types never match (e.g. string event attr vs
            # numeric constraint)
            return False
        raise FilterError(f"unknown operator {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    def implies(self, other: "AttributeConstraint") -> bool:
        """Conservative syntactic implication: self ⇒ other.

        True means every value satisfying ``self`` satisfies ``other``.
        False means "unknown or not implied". Only constraints on the same
        attribute can imply each other.
        """
        if self.attr != other.attr:
            return False
        so, oo = self.op, other.op
        sv, ov = self.value, other.value
        if oo is Op.EXISTS:
            # every operator except EXISTS requires the attribute present
            return True
        # Normalise numeric-comparable ops to interval form where possible.
        s_iv = self._as_interval()
        o_iv = other._as_interval()
        if s_iv is not None and o_iv is not None:
            (slo, shi, slo_open, shi_open) = s_iv
            (olo, ohi, olo_open, ohi_open) = o_iv
            lo_ok = olo < slo or (
                olo == slo and (not olo_open or slo_open)
            )
            hi_ok = ohi > shi or (
                ohi == shi and (not ohi_open or shi_open)
            )
            return lo_ok and hi_ok
        if so is Op.EQ:
            # a point value implies any constraint it satisfies
            return other.matches_value(sv)
        if so is Op.PREFIX and oo is Op.PREFIX:
            return isinstance(sv, str) and sv.startswith(ov)
        if so is Op.NE and oo is Op.NE:
            return sv == ov
        return False

    def _as_interval(self) -> Optional[tuple[float, float, bool, bool]]:
        """(lo, hi, lo_open, hi_open) for numeric interval-like ops, else None.

        A NaN bound is no interval (it satisfies no comparison, and would
        poison any sorted index of bounds): such a constraint has no
        interval form, so its filter has no :meth:`Filter.as_range` form
        either. ``RANGE`` refuses NaN at construction.
        """
        op, v = self.op, self.value
        if op is Op.RANGE:
            lo, hi = v
            if _is_number(lo) and _is_number(hi):
                return (float(lo), float(hi), False, False)
            return None
        if not _is_number(v) or v != v:
            return None
        x = float(v)
        if op is Op.EQ:
            return (x, x, False, False)
        if op is Op.LT:
            return (-math.inf, x, False, True)
        if op is Op.LE:
            return (-math.inf, x, False, False)
        if op is Op.GT:
            return (x, math.inf, True, False)
        if op is Op.GE:
            return (x, math.inf, False, False)
        return None

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Hashable identity used for equality and deduplication."""
        v = self.value
        if isinstance(v, (list, tuple)):
            v = tuple(v)
        return (self.attr, self.op, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttributeConstraint) and other.key() == self.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.attr} {self.op.value} {self.value!r}"


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Filter:
    """Abstract subscription filter."""

    __slots__ = ()

    #: ``(lo, hi)`` if :meth:`as_range` is a range on ``topic``, else None.
    #: Set once at construction (a filter is an immutable value); the broker
    #: reads it in place of an ``as_range()`` call.
    topic_range: Optional[tuple[float, float]] = None

    def matches(self, event: Notification) -> bool:
        raise NotImplementedError

    def covers(self, other: "Filter") -> bool:
        """Conservative covering test: True ⇒ self matches ⊇ other matches."""
        raise NotImplementedError

    def identity(self) -> tuple:
        """Hashable structural identity (used for dedup/equality)."""
        raise NotImplementedError

    # Range fast-path introspection: (attr, lo, hi) if this filter is exactly
    # one closed numeric range, else None. Lets the broker index it.
    def as_range(self) -> Optional[tuple[str, float, float]]:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Filter) and other.identity() == self.identity()

    def __hash__(self) -> int:
        return hash(self.identity())


class RangeFilter(Filter):
    """Closed range ``lo <= attr <= hi`` on one numeric attribute.

    Examples
    --------
    >>> f = RangeFilter(0.2, 0.4)
    >>> f.matches(Notification(0, 0, 0, 0.0, 0.3))
    True
    >>> RangeFilter(0.1, 0.5).covers(f)
    True
    """

    __slots__ = ("attr", "lo", "hi", "topic_range")

    def __init__(self, lo: float, hi: float, attr: str = "topic") -> None:
        if not lo <= hi:
            raise FilterError(f"range filter with lo > hi: [{lo}, {hi}]")
        self.attr = attr
        self.lo = float(lo)
        self.hi = float(hi)
        self.topic_range = (self.lo, self.hi) if attr == "topic" else None

    def matches(self, event: Notification) -> bool:
        if self.attr == "topic":
            return self.lo <= event.topic <= self.hi
        v = event.get(self.attr)
        if not _is_number(v):
            return False
        return self.lo <= v <= self.hi

    def covers(self, other: Filter) -> bool:
        if isinstance(other, RangeFilter):
            return (
                other.attr == self.attr
                and self.lo <= other.lo
                and other.hi <= self.hi
            )
        rng = other.as_range()
        if rng is not None:
            attr, lo, hi = rng
            return attr == self.attr and self.lo <= lo and hi <= self.hi
        if isinstance(other, ConjunctionFilter):
            mine = AttributeConstraint(self.attr, Op.RANGE, (self.lo, self.hi))
            return any(c.implies(mine) for c in other.constraints)
        return False

    def identity(self) -> tuple:
        return ("range", self.attr, self.lo, self.hi)

    def as_range(self) -> Optional[tuple[str, float, float]]:
        return (self.attr, self.lo, self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeFilter({self.attr} in [{self.lo:.4f}, {self.hi:.4f}])"


class ConjunctionFilter(Filter):
    """Conjunction of attribute constraints (all must hold).

    An empty conjunction matches everything (and covers everything).
    """

    __slots__ = ("constraints", "topic_range")

    def __init__(self, constraints: Iterable[AttributeConstraint]) -> None:
        self.constraints = tuple(constraints)
        rng = self.as_range()
        self.topic_range = (
            rng[1:] if rng is not None and rng[0] == "topic" else None)

    def matches(self, event: Notification) -> bool:
        for c in self.constraints:
            if not c.matches_value(event.get(c.attr)):
                return False
        return True

    def covers(self, other: Filter) -> bool:
        # self covers other iff every constraint of self is implied by some
        # constraint of other (conservative: constraints combine per
        # attribute independently).
        if isinstance(other, ConjunctionFilter):
            others = other.constraints
        else:
            rng = other.as_range()
            if rng is None:
                return False
            attr, lo, hi = rng
            others = (AttributeConstraint(attr, Op.RANGE, (lo, hi)),)
        for mine in self.constraints:
            if not any(theirs.implies(mine) for theirs in others):
                return False
        return True

    def identity(self) -> tuple:
        # sort key flattens Op to its string value: two constraints on the
        # same attribute would otherwise compare unorderable enum members
        keys = sorted(
            (c.key() for c in self.constraints),
            key=lambda k: (k[0], k[1].value, repr(k[2])),
        )
        return ("conj", tuple(keys))

    def as_range(self) -> Optional[tuple[str, float, float]]:
        if len(self.constraints) != 1:
            return None
        c = self.constraints[0]
        iv = c._as_interval()
        if iv is None:
            return None
        lo, hi, lo_open, hi_open = iv
        if lo_open or hi_open or lo == -math.inf or hi == math.inf:
            return None
        return (c.attr, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ConjunctionFilter(" + " AND ".join(map(repr, self.constraints)) + ")"

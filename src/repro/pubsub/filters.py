"""Subscription filters: a closed range on the topic space.

In the paper every subscription is interest in a contiguous slice of the
topic space, so a filter is one closed interval ``lo <= topic <= hi``
(:class:`RangeFilter`). Matching is a pair of float comparisons and
covering is interval containment, which the broker's per-neighbour
interval index answers without calling either method; :meth:`matches` and
:meth:`covers` are the semantics the doctests and the test oracles call.
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.pubsub.events import Notification

__all__ = ["RangeFilter"]


class RangeFilter:
    """Closed range ``lo <= topic <= hi``; NaN bounds and ``lo > hi`` are
    refused.

    Examples
    --------
    >>> f = RangeFilter(0.2, 0.4)
    >>> f.matches(Notification(0, 0, 0, 0.0, 0.3))
    True
    >>> RangeFilter(0.1, 0.5).covers(f)
    True
    """

    __slots__ = ("lo", "hi", "topic_range")

    def __init__(self, lo: float, hi: float) -> None:
        if not lo <= hi:
            raise FilterError(f"range filter with lo > hi: [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        #: ``(lo, hi)``, the interval the broker's index stores
        self.topic_range = (self.lo, self.hi)

    def matches(self, event: Notification) -> bool:
        return self.lo <= event.topic <= self.hi

    def covers(self, other: "RangeFilter") -> bool:
        """True iff every event ``other`` matches, this matches too."""
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RangeFilter)
                and other.topic_range == self.topic_range)

    def __hash__(self) -> int:
        return hash(self.topic_range)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeFilter([{self.lo:.4f}, {self.hi:.4f}])"

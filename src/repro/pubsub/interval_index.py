"""Fast stabbing/containment queries over a dynamic set of closed intervals.

The broker hot path asks, for every event at every hop, "does any filter
advertised by neighbour *n* match this event?" — with range filters this is
an interval *stabbing* query. The subscription-propagation path asks "is this
new interval contained in an existing one?" — a *containment* query. The
covering-based withdrawal path asks the reverse: "which installed intervals
does this withdrawn one contain?" — a containment *enumeration*
(:meth:`~IntervalIndex.contained_keys`).

All three are answered from one structure: the intervals as flat float
arrays ``_los`` and ``_his`` sorted by ``lo`` alone, beside the keys and
one array of prefix maxima over ``hi``, so every bisect compares floats and
builds no probe tuple. The order of intervals with equal ``lo`` is never
observed: stab and containment read only the prefix maxima, the
contained-keys walk is re-sorted by installation stamp, and a removal
scans the run of equal ``lo`` for its key. Mobility churn mutates these
indexes on **every handoff**, so mutation cost is what shapes the paper's
Figure 5(a)/6(a) curves; the arrays are therefore maintained
*incrementally* — a bisect insert/delete plus a repair of the prefix
maxima that stops at the first position the mutated ``hi`` does not reach
— so a mutation costs O(log n) comparisons plus one C-level ``memmove``
per array. They are first built by the first query
(``_rebuild``): an index that is written but never asked, like the
advertisement mirror of a run without covering, never has arrays to
maintain.

The index keeps no key map of its own. It reads the map of its owner,
``key -> member``, and a member's interval is its ``topic_range`` (a
member whose ``topic_range`` is ``None`` is not indexed), so the keyed
filter set of :mod:`repro.pubsub.filter_table` hands over its own
``key -> Filter`` map and every member is stored once: the interval is
the one :attr:`~repro.pubsub.filters.Filter.topic_range` fixed when the
filter was built. That set writes the arrays itself on a table edit and
carries all three queries inline, each in the one ``FilterTable`` frame
that asks it: the stab in ``match``, the containment in
``advertised_covers`` and the contained-keys walk in
``covered_candidates``. :meth:`add`, :meth:`stab`,
:meth:`contains_interval` and :meth:`contained_keys` stay as the
references those inlined bodies are tested against; an index made
without a map owns one, whose members :meth:`add` makes. The
differential oracle is a brute-force scan of ``items()`` in
``tests/test_interval_index.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Any, Hashable, Optional

__all__ = ["IntervalIndex"]

_NEG_INF = float("-inf")


class _Interval:
    """A member :meth:`IntervalIndex.add` makes: an interval and no more."""

    __slots__ = ("topic_range",)

    def __init__(self, lo: float, hi: float) -> None:
        self.topic_range = (lo, hi)


class IntervalIndex:
    """Dynamic set of keyed closed intervals with fast queries.

    Examples
    --------
    >>> idx = IntervalIndex()
    >>> idx.add("a", 0.1, 0.4)
    >>> idx.add("b", 0.3, 0.9)
    >>> idx.stab(0.35)
    True
    >>> idx.stab(0.95)
    False
    >>> idx.contains_interval(0.2, 0.4)  # covered by "a"? lo 0.1<=0.2, hi 0.4>=0.4 -> yes
    True
    """

    __slots__ = ("_items", "_dirty", "_los", "_his", "_keys", "_max_hi")

    def __init__(self, members: Optional[dict[Hashable, Any]] = None) -> None:
        #: key -> member, each indexed under its ``topic_range``: the
        #: owner's map, read and never written by a filter set's index
        self._items: dict[Hashable, Any] = {} if members is None else members
        #: True until the first query builds the arrays from ``_items``
        self._dirty = True
        # parallel arrays in lo order; _max_hi[i] = max hi of [0..i]
        self._los: list[float] = []
        self._his: list[float] = []
        self._keys: list[Hashable] = []
        self._max_hi: list[float] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: Hashable, lo: float, hi: float) -> None:
        """Insert or replace interval ``key``."""
        if not self._dirty:
            old = self.get(key)
            if old is not None:
                self._remove_sorted(key, old)
            self._insert_sorted(key, lo, hi)
        self._items[key] = _Interval(lo, hi)

    def remove(self, key: Hashable) -> None:
        """Remove interval ``key`` (KeyError if absent)."""
        iv = self._items.pop(key).topic_range
        if not self._dirty:
            self._remove_sorted(key, iv)

    def discard(self, key: Hashable) -> None:
        """Remove interval ``key`` if present."""
        if key in self:
            self.remove(key)

    def __len__(self) -> int:
        return len(self.items())

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    def get(self, key: Hashable) -> Optional[tuple[float, float]]:
        member = self._items.get(key)
        return None if member is None else member.topic_range

    def items(self) -> list[tuple[Hashable, tuple[float, float]]]:
        """``(key, interval)`` of every indexed member, in map order."""
        return [(key, m.topic_range) for key, m in self._items.items()
                if m.topic_range is not None]

    # ------------------------------------------------------------------
    # incremental maintenance of the sorted arrays
    # ------------------------------------------------------------------
    def _insert_sorted(self, key: Hashable, lo: float, hi: float) -> None:
        i = bisect_right(self._los, lo)
        self._los.insert(i, lo)
        self._his.insert(i, hi)
        self._keys.insert(i, key)
        mx = self._max_hi
        mx.insert(i, hi if i == 0 or hi > mx[i - 1] else mx[i - 1])
        # raise the (shifted) suffix maxima hi exceeds; they are
        # non-decreasing, so the first one hi does not exceed ends it
        for j in range(i + 1, len(mx)):
            if hi <= mx[j]:
                break
            mx[j] = hi

    def _remove_sorted(self, key: Hashable, iv: tuple[float, float]) -> None:
        his = self._his
        keys = self._keys
        i = bisect_left(self._los, iv[0])
        while keys[i] != key:  # equal lo: scan the run for the key
            i += 1
        self._los.pop(i)
        his.pop(i)
        keys.pop(i)
        mx = self._max_hi
        mx.pop(i)
        # re-run the prefix recurrence from the removal point; once the
        # running maximum matches what is stored, the rest is unchanged too
        best = mx[i - 1] if i else _NEG_INF
        for j in range(i, len(mx)):
            hj = his[j]
            if hj > best:
                best = hj
            if mx[j] == best:
                break
            mx[j] = best

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # runs once, on the first query; mutations maintain the arrays
        # in place from then on
        order = sorted(self.items(), key=itemgetter(1))
        self._keys = [k for k, _iv in order]
        self._los = [lo for _k, (lo, _hi) in order]
        self._his = [hi for _k, (_lo, hi) in order]
        self._max_hi = list(accumulate(self._his, max))
        self._dirty = False

    def stab(self, x: float) -> bool:
        """True if any interval contains point ``x``. ``FilterTable.match``
        carries this body inline, once per neighbour per event
        (``tests/test_matching_engine.py`` holds the two together)."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._los, x) - 1
        return idx >= 0 and self._max_hi[idx] >= x

    def contains_interval(self, lo: float, hi: float) -> bool:
        """True if some interval contains [lo, hi]. Carried inline by
        ``FilterTable.advertised_covers`` (``tests/test_filter_sets.py``)."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._los, lo) - 1
        return idx >= 0 and self._max_hi[idx] >= hi

    def contained_keys(self, lo: float, hi: float) -> list[Hashable]:
        """Keys whose interval [l, h] satisfies ``lo <= l`` and ``h <= hi``.

        The covering enumeration: every installed interval the (withdrawn)
        interval [lo, hi] covers. Cost is O(log n + w) where w is the number
        of intervals whose ``l`` falls inside [lo, hi] — output-shaped for
        the narrow filters mobility workloads install.
        ``FilterTable.covered_candidates`` carries this walk inline
        (``tests/test_filter_sets.py`` holds the two together).
        """
        if self._dirty:
            self._rebuild()
        los = self._los
        his = self._his
        keys = self._keys
        out: list[Hashable] = []
        for i in range(bisect_left(los, lo), len(los)):
            if los[i] > hi:
                break
            if his[i] <= hi:
                out.append(keys[i])
        return out

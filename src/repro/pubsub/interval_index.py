"""Sorted arrays for stabbing/containment queries over closed intervals.

The broker hot path asks, for every event at every hop, "does any filter
advertised by neighbour *n* match this event?" — every filter being a
topic range, this is an interval *stabbing* query. The subscription-propagation path asks "is this
new interval contained in an existing one?" — a *containment* query. The
covering-based withdrawal path asks the reverse: "which installed intervals
does this withdrawn one contain?" — a containment *enumeration*.

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
``key -> RangeFilter``, and a member's interval is its ``topic_range``:
the keyed filter set of :mod:`repro.pubsub.filter_table` hands over its
own map, so every member is stored once. That set writes the arrays
itself on a table edit and carries all three queries inline, each in the
one ``FilterTable`` frame that asks it: the stab in ``match``, the
containment in ``advertised_covers`` and the contained-keys walk in
``covered_candidates``. The written-out reference of each query, and a
brute-force scan to diff them against, live under ``tests/``
(``tests/interval_reference.py``).

:class:`IntervalStab` is the static form of the stab, for owners that add
ranges and never remove one and that want every holder, not a yes/no:
the delivery ledger's "which subscribers hold topic *t*" and the log's
"which sessions match this event". Its owner builds it on the first query
after an add. It cuts the sorted endpoints into blocks of about √n and
lists, per block, the ranges that overlap it in the order they were
added; a query bisects to its block and keeps the ranges of that list
that hold the point. Every range appears once per block it overlaps, so
the lists are exact and small (0.09 MB for the 1 960 subscriptions of the
paper's density), where a table with one answer per gap between endpoints
grows with the square of the count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import isqrt
from operator import itemgetter
from typing import Any, Hashable, Iterable

__all__ = ["IntervalIndex", "IntervalStab"]

_NEG_INF = float("-inf")


class IntervalIndex:
    """Sorted arrays over a dynamic set of keyed closed intervals.

    Examples
    --------
    >>> from repro.pubsub.filters import RangeFilter
    >>> idx = IntervalIndex({"a": RangeFilter(0.3, 0.9),
    ...                      "b": RangeFilter(0.1, 0.4)})
    >>> idx._rebuild()  # the first query builds the arrays
    >>> idx._keys, idx._los, idx._max_hi
    (['b', 'a'], [0.1, 0.3], [0.4, 0.9])
    >>> idx._insert_sorted("c", 0.2, 0.95)
    >>> idx._keys, idx._max_hi
    (['b', 'c', 'a'], [0.4, 0.95, 0.95])
    """

    __slots__ = ("_items", "_dirty", "_los", "_his", "_keys", "_max_hi")

    def __init__(self, members: dict[Hashable, Any]) -> None:
        #: key -> member, each indexed under its ``topic_range``: the
        #: owner's map, read and never written here
        self._items = members
        #: True until the first query builds the arrays from ``_items``
        self._dirty = True
        # parallel arrays in lo order; _max_hi[i] = max hi of [0..i]
        self._los: list[float] = []
        self._his: list[float] = []
        self._keys: list[Hashable] = []
        self._max_hi: list[float] = []

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

    def _rebuild(self) -> None:
        # runs once, on the first query; mutations maintain the arrays
        # in place from then on
        order = sorted([(key, m.topic_range) for key, m in self._items.items()],
                       key=itemgetter(1))
        self._keys = [k for k, _iv in order]
        self._los = [lo for _k, (lo, _hi) in order]
        self._his = [hi for _k, (_lo, hi) in order]
        self._max_hi = list(accumulate(self._his, max))
        self._dirty = False


class IntervalStab:
    """Which of a fixed list of keyed closed ranges hold a point.

    ``ranges`` is an iterable of ``(key, lo, hi)``; :meth:`holders` answers
    with the keys of the ranges ``lo <= t <= hi``, in the order given
    (a key given twice is answered twice). Block ``j`` of ``_blocks``
    covers ``[_bounds[j - 1], _bounds[j])``; block 0, below every
    endpoint, stays empty.

    Examples
    --------
    >>> stab = IntervalStab([("a", 0.0, 0.5), ("b", 0.4, 0.9),
    ...                      ("c", 0.5, 0.5)])
    >>> stab.holders(0.5), stab.holders(0.45), stab.holders(0.95)
    (['a', 'b', 'c'], ['a', 'b'], [])
    """

    __slots__ = ("_bounds", "_blocks")

    def __init__(self, ranges: Iterable[tuple[Any, float, float]]) -> None:
        ranges = list(ranges)
        ends = sorted({x for _key, lo, hi in ranges for x in (lo, hi)})
        self._bounds = bounds = ends[::isqrt(len(ends)) or 1]
        self._blocks: list[list[tuple[Any, float, float]]] = [
            [] for _ in range(len(bounds) + 1)]
        for r in ranges:  # in order, so every block lists them in order
            for block in self._blocks[bisect_right(bounds, r[1]):
                                      bisect_right(bounds, r[2]) + 1]:
                block.append(r)

    def holders(self, t: float) -> list:
        """The key of each range that holds ``t``, in the order given."""
        out = []  # a loop, not a comprehension: one frame a query
        for key, lo, hi in self._blocks[bisect_right(self._bounds, t)]:
            if lo <= t <= hi:
                out.append(key)
        return out

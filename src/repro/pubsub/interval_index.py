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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Any, Hashable

__all__ = ["IntervalIndex"]

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

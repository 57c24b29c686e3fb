"""Fast stabbing/containment queries over a dynamic set of closed intervals.

The broker hot path asks, for every event at every hop, "does any filter
advertised by neighbour *n* match this event?" — with range filters this is
an interval *stabbing* query. The subscription-propagation path asks "is this
new interval contained in an existing one?" — a *containment* query. The
covering-based withdrawal path asks the reverse: "which installed intervals
does this withdrawn one contain?" — a containment *enumeration*
(:meth:`~IntervalIndex.contained_keys`).

Stab and containment are answered in O(log n) from one structure:
intervals sorted by ``(lo, hi)`` with prefix maxima over ``hi`` (top-2
maxima, so containment can exclude one key). Mobility churn mutates these
indexes on **every handoff**, so mutation cost is what shapes the paper's
Figure 5(a)/6(a) curves; the index therefore maintains the sorted arrays
*incrementally* — a bisect insert/delete plus a local repair of the prefix
maxima (the repair stops at the first position whose top-2 is unaffected),
so a mutation costs O(log n) comparisons plus one C-level ``memmove``
instead of a full O(n log n) re-sort. Only the first query after a bulk
load sorts from scratch (``_rebuild``). The differential oracle is a
brute-force scan of ``items()`` in ``tests/test_interval_index.py`` and
``tests/test_control_plane.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Hashable, Iterator, Optional

__all__ = ["IntervalIndex"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


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

    __slots__ = (
        "_items", "_dirty", "_pairs", "_keys",
        "_max1_hi", "_max1_key", "_max2_hi",
    )

    def __init__(self) -> None:
        self._items: dict[Hashable, tuple[float, float]] = {}
        #: True until the first query sorts the bulk-loaded items
        self._dirty = True
        self._pairs: list[tuple[float, float]] = []
        self._keys: list[Hashable] = []
        self._max1_hi: list[float] = []
        self._max1_key: list[Hashable] = []
        self._max2_hi: list[float] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: Hashable, lo: float, hi: float) -> None:
        """Insert or replace interval ``key``."""
        if not self._dirty:
            old = self._items.get(key)
            if old is not None:
                self._remove_sorted(key, old)
            self._insert_sorted(key, lo, hi)
        self._items[key] = (lo, hi)

    def remove(self, key: Hashable) -> None:
        """Remove interval ``key`` (KeyError if absent)."""
        iv = self._items.pop(key)
        if not self._dirty:
            self._remove_sorted(key, iv)

    def discard(self, key: Hashable) -> None:
        """Remove interval ``key`` if present."""
        iv = self._items.pop(key, None)
        if iv is not None and not self._dirty:
            self._remove_sorted(key, iv)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable) -> Optional[tuple[float, float]]:
        return self._items.get(key)

    def items(self) -> Iterator[tuple[Hashable, tuple[float, float]]]:
        return iter(self._items.items())

    # ------------------------------------------------------------------
    # incremental maintenance of the sorted arrays
    # ------------------------------------------------------------------
    def _insert_sorted(self, key: Hashable, lo: float, hi: float) -> None:
        pairs = self._pairs
        i = bisect_right(pairs, (lo, hi))
        pairs.insert(i, (lo, hi))
        self._keys.insert(i, key)
        m1, mk, m2 = self._max1_hi, self._max1_key, self._max2_hi
        if i == 0:
            best, bkey, second = _NEG_INF, None, _NEG_INF
        else:
            best, bkey, second = m1[i - 1], mk[i - 1], m2[i - 1]
        if hi > best:
            second = best
            best, bkey = hi, key
        elif hi > second:
            second = hi
        m1.insert(i, best)
        mk.insert(i, bkey)
        m2.insert(i, second)
        # ripple the new hi into the (shifted) suffix triples. Prefix top-2
        # values are non-decreasing, so once hi falls out of some prefix's
        # top-2 it can never re-enter: stop at the first unaffected slot.
        for j in range(i + 1, len(pairs)):
            if hi <= m2[j]:
                break
            if hi > m1[j]:
                m2[j] = m1[j]
                m1[j] = hi
                mk[j] = key
            else:
                m2[j] = hi

    def _remove_sorted(self, key: Hashable, iv: tuple[float, float]) -> None:
        pairs = self._pairs
        keys = self._keys
        i = bisect_left(pairs, iv)
        while keys[i] != key:  # equal (lo, hi) pairs: scan for the key
            i += 1
        pairs.pop(i)
        keys.pop(i)
        m1, mk, m2 = self._max1_hi, self._max1_key, self._max2_hi
        m1.pop(i)
        mk.pop(i)
        m2.pop(i)
        if i == 0:
            best, bkey, second = _NEG_INF, None, _NEG_INF
        else:
            best, bkey, second = m1[i - 1], mk[i - 1], m2[i - 1]
        # re-run the prefix recurrence from the removal point; once the
        # running state matches what is stored, the rest is unchanged too
        # (same deterministic recurrence over identical remaining elements)
        for j in range(i, len(pairs)):
            hj = pairs[j][1]
            if hj > best:
                second = best
                best, bkey = hj, keys[j]
            elif hj > second:
                second = hj
            if m1[j] == best and mk[j] == bkey and m2[j] == second:
                break
            m1[j], mk[j], m2[j] = best, bkey, second

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # key is the (lo, hi) pair itself; a C-level itemgetter avoids a
        # python-level lambda per item. Runs once (first query after bulk
        # load); afterwards mutations maintain the arrays in place.
        order = sorted(self._items.items(), key=itemgetter(1))
        n = len(order)
        self._keys = [k for k, _iv in order]
        self._pairs = [iv for _k, iv in order]
        self._max1_hi = [0.0] * n
        self._max1_key = [None] * n
        self._max2_hi = [0.0] * n
        best_hi, best_key, second_hi = _NEG_INF, None, _NEG_INF
        for i, (k, (_lo, hi)) in enumerate(order):
            if hi > best_hi:
                second_hi = best_hi
                best_hi, best_key = hi, k
            elif hi > second_hi:
                second_hi = hi
            self._max1_hi[i] = best_hi
            self._max1_key[i] = best_key
            self._max2_hi[i] = second_hi
        self._dirty = False

    def stab(self, x: float) -> bool:
        """True if any interval contains point ``x``."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._pairs, (x, _POS_INF)) - 1
        return idx >= 0 and self._max1_hi[idx] >= x

    def contains_interval(
        self, lo: float, hi: float, exclude: Hashable = None
    ) -> bool:
        """True if some interval (other than ``exclude``) contains [lo, hi]."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._pairs, (lo, _POS_INF)) - 1
        if idx < 0:
            return False
        if self._max1_key[idx] != exclude:
            return self._max1_hi[idx] >= hi
        return self._max2_hi[idx] >= hi

    def contained_keys(self, lo: float, hi: float) -> list[Hashable]:
        """Keys whose interval [l, h] satisfies ``lo <= l`` and ``h <= hi``.

        The covering enumeration: every installed interval the (withdrawn)
        interval [lo, hi] covers. Cost is O(log n + w) where w is the number
        of intervals whose ``l`` falls inside [lo, hi] — output-shaped for
        the narrow filters mobility workloads install.
        """
        if self._dirty:
            self._rebuild()
        pairs = self._pairs
        keys = self._keys
        out: list[Hashable] = []
        for i in range(bisect_left(pairs, (lo, _NEG_INF)), len(pairs)):
            l, h = pairs[i]
            if l > hi:
                break
            if h <= hi:
                out.append(keys[i])
        return out

    def stabbing_keys(self, x: float) -> list[Hashable]:
        """All keys whose interval contains ``x`` (linear scan; cold path)."""
        return [k for k, (lo, hi) in self._items.items() if lo <= x <= hi]

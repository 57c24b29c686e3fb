"""The interval queries written out: the oracle the inlined bodies are
diffed against.

:class:`~repro.pubsub.interval_index.IntervalIndex` keeps only its sorted
arrays and their maintenance; :class:`~repro.pubsub.filter_table.FilterTable`
asks all three questions on those arrays in its own frame (the stab in
``match``, the containment in ``advertised_covers``, the contained-keys
walk in ``covered_candidates``). :class:`ReferenceIndex` is the same
index with each question as a method of its own, plus the keyed
``add``/``remove``/``discard`` that build a standalone index.
``tests/test_interval_index.py`` checks these methods against a
brute-force scan of ``items()``, and ``tests/test_filter_sets.py`` checks
the table's inlined bodies against these methods.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Hashable, Optional

from repro.pubsub.interval_index import IntervalIndex


class _Interval:
    """A member :meth:`ReferenceIndex.add` makes: an interval and no more."""

    __slots__ = ("topic_range",)

    def __init__(self, lo: float, hi: float) -> None:
        self.topic_range = (lo, hi)


class ReferenceIndex(IntervalIndex):
    """An :class:`IntervalIndex` asked by method.

    Examples
    --------
    >>> idx = ReferenceIndex()
    >>> idx.add("a", 0.1, 0.4)
    >>> idx.add("b", 0.3, 0.9)
    >>> idx.stab(0.35)
    True
    >>> idx.stab(0.95)
    False
    >>> idx.contains_interval(0.2, 0.4)  # covered by "a"
    True
    """

    __slots__ = ()

    def __init__(self, members: Optional[dict[Hashable, Any]] = None) -> None:
        # a filter set's map, read in place; or a map of its own, whose
        # members add() makes
        super().__init__({} if members is None else members)

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
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable) -> Optional[tuple[float, float]]:
        member = self._items.get(key)
        return None if member is None else member.topic_range

    def items(self) -> list[tuple[Hashable, tuple[float, float]]]:
        """``(key, interval)`` of every member, in map order."""
        return [(key, m.topic_range) for key, m in self._items.items()]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stab(self, x: float) -> bool:
        """True if any interval contains point ``x`` (``match``)."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._los, x) - 1
        return idx >= 0 and self._max_hi[idx] >= x

    def contains_interval(self, lo: float, hi: float) -> bool:
        """True if some interval contains [lo, hi] (``advertised_covers``)."""
        if self._dirty:
            self._rebuild()
        idx = bisect_right(self._los, lo) - 1
        return idx >= 0 and self._max_hi[idx] >= hi

    def contained_keys(self, lo: float, hi: float) -> list[Hashable]:
        """Keys whose interval [l, h] satisfies ``lo <= l`` and ``h <= hi``
        (``covered_candidates``): O(log n + w), where w is the number of
        intervals whose ``l`` falls inside [lo, hi]."""
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

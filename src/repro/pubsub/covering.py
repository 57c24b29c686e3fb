"""The covering relation, covering indexes, and filter-set reduction.

``covers(f, g)`` holds when every event matching ``g`` also matches ``f``
(``f``'s event set is a superset). Content-based routers use it to prune
subscription propagation: a broker need not forward a subscription to a
neighbour that already received a covering one (SIENA [16]); the paper's
Figure 6(a) discussion relies on this effect for the sub-unsub baseline.

Covering here is *conservative*: a True answer is always sound; a False
answer may be a "don't know" for complex conjunctions. Soundness is all
routing correctness requires.

Covering prunes the *propagation* path (fewer subscriptions flooded); the
matching hot path is the complement: whatever survives pruning lands in
the per-neighbour filter sets of :mod:`repro.pubsub.filter_table`, which
resolve events against the installed filters. MHH disables covering by
default because its hop-by-hop migration surgery needs exact per-key table
state (see :mod:`repro.pubsub.system`).

:class:`CoveringIndex` is the *indexed* form of both covering directions
the control plane needs, for the members a topic interval cannot describe
(a filter set keeps its topic-range members in its own
:class:`~repro.pubsub.interval_index.IntervalIndex` and asks that instead —
see ``_PeerFilters`` in :mod:`repro.pubsub.filter_table`):

* :meth:`CoveringIndex.covers` — "is this incoming filter covered by some
  member?" (the per-neighbour advertisement-suppression check, run on every
  covering-pruned ``_advertise``);
* :meth:`CoveringIndex.covered_by` — "which members does this withdrawn
  filter cover?" (the ``Broker._withdraw`` re-advertisement candidate
  search).

Range-shaped members (anything with an :meth:`~Filter.as_range` form) live
in per-attribute containment interval indexes; general conjunctions are
bucketed by their anchor (first-constraint) attribute — sound *and*
complete, because a conjunction can only cover a filter whose constraint
attributes include every one of its own — and their numeric-interval
constraint closures feed per-attribute containment indexes for the reverse
direction. Both answers are **exactly** what a brute-force scan of the
members gives: that scan is ``tests/covering_scan.py``, and
``tests/test_control_plane.py`` asserts equality under randomized churn and
substitutes it for both indexes in whole-system differentials.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.pubsub.filters import ConjunctionFilter, Filter, Op, RangeFilter
from repro.pubsub.interval_index import IntervalIndex

__all__ = ["CoveringIndex", "covers", "is_covered_by_set", "reduce_by_covering"]


def covers(f: Filter, g: Filter) -> bool:
    """True if ``f`` (conservatively) covers ``g``."""
    return f.covers(g)


def is_covered_by_set(candidate: Filter, existing: Sequence[Filter]) -> bool:
    """True if some filter in ``existing`` covers ``candidate``."""
    return any(f.covers(candidate) for f in existing)


def reduce_by_covering(
    filters: Mapping[Hashable, Filter],
) -> dict[Hashable, Filter]:
    """Minimal sub-map whose filters cover every filter of the input.

    Keys give a deterministic tie-break for equal filters (the smallest key
    survives), so reduction is stable across runs.

    Examples
    --------
    >>> from repro.pubsub.filters import RangeFilter
    >>> kept = reduce_by_covering({1: RangeFilter(0.0, 0.5),
    ...                            2: RangeFilter(0.1, 0.2)})
    >>> sorted(kept)
    [1]
    """
    # repr(key) is the tie-break ordering; compute it once per item instead
    # of once per O(n^2) comparison
    items = sorted(
        ((repr(key), key, f) for key, f in filters.items()),
        key=lambda item: item[0],
    )
    kept: dict[Hashable, Filter] = {}
    for rk, key, f in items:
        covered = False
        for other_rk, other_key, other in items:
            if other_key == key:
                continue
            if not other.covers(f):
                continue
            # mutual covering (equal extents): smaller repr-key survives.
            # When the coverer sorts earlier it wins either way (strictly
            # covering, or mutual with the smaller key), so the reverse
            # f.covers(other) check is only needed for later-sorting items.
            if other_rk < rk or not f.covers(other):
                covered = True
                break
        if not covered:
            kept[key] = f
    return kept


def _constraint_closure(c) -> "tuple[float, float] | None":
    """The closed closure [lo, hi] of a constraint's numeric extent.

    Implication between numeric constraints is governed by closures with
    closed endpoints dominating open ones, so closure containment is the
    index-friendly form of ``implies``. Bool-valued EQ constraints are
    normalised to a point closure — ``True == 1`` in Python, so ``x == True``
    implies (and is implied through) numeric intervals containing 1 even
    though :meth:`AttributeConstraint._as_interval` excludes bools.
    """
    iv = c._as_interval()
    if iv is not None:
        return iv[:2]
    if c.op is Op.EQ and isinstance(c.value, bool):
        x = float(c.value)
        return (x, x)
    return None


class CoveringIndex:
    """Keyed filter set answering both covering directions sub-linearly.

    Members are added with :meth:`add` under an opaque hashable key and
    routed into one of four structures:

    * **interval members** — filters exposing an :meth:`~Filter.as_range`
      form: one containment :class:`IntervalIndex` per attribute. In the
      product these are ranges on attributes other than ``topic``: a filter
      set never hands its topic-range members to this index;
    * **conjunction members** — general :class:`ConjunctionFilter`\\ s,
      bucketed by the attribute of their first constraint (their *anchor*).
      A conjunction only covers filters constraining **all** of its own
      attributes, so probing the buckets of the query's attributes is
      complete. Each member's numeric-interval constraint *closures*
      additionally feed per-attribute containment indexes, which drive the
      reverse (:meth:`covered_by`) direction;
    * **universal members** — empty conjunctions (they cover everything);
    * **other members** — unknown :class:`Filter` subclasses, always
      checked exactly.

    :meth:`covers` is ``any(m.covers(f) for m in members)`` and
    :meth:`covered_by` is exactly ``{k : f.covers(member_k)}``; every fixed
    digest rests on both equivalences and the tests-only scan pins them.
    Used on its own with topic-range members, :meth:`covers` asks those of
    topic-range queries only — the peer-set semantics of the scan, which a
    filter set gets from where its members live, not from this class.
    """

    __slots__ = (
        "_members", "_ranges", "_conj_anchor", "_conj_closures",
        "_universal", "_other",
    )

    def __init__(self) -> None:
        self._members: dict[Hashable, Filter] = {}
        self._ranges: dict[str, IntervalIndex] = {}
        self._conj_anchor: dict[str, dict[Hashable, ConjunctionFilter]] = {}
        # closure intervals of conjunction constraints, keyed (member, slot)
        self._conj_closures: dict[str, IntervalIndex] = {}
        self._universal: dict[Hashable, Filter] = {}
        self._other: dict[Hashable, Filter] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._members

    def get(self, key: Hashable) -> "Filter | None":
        return self._members.get(key)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: Hashable, f: Filter) -> None:
        """Register (or replace) member ``key``."""
        self.discard(key)
        self._members[key] = f
        rng = f.as_range()
        if rng is not None:
            attr, lo, hi = rng
            idx = self._ranges.get(attr)
            if idx is None:
                idx = self._ranges[attr] = IntervalIndex()
            idx.add(key, lo, hi)
            return
        if isinstance(f, ConjunctionFilter):
            if not f.constraints:
                self._universal[key] = f
                return
            anchor = f.constraints[0].attr
            self._conj_anchor.setdefault(anchor, {})[key] = f
            for i, c in enumerate(f.constraints):
                closure = _constraint_closure(c)
                if closure is None:
                    continue
                cidx = self._conj_closures.get(c.attr)
                if cidx is None:
                    cidx = self._conj_closures[c.attr] = IntervalIndex()
                cidx.add((key, i), closure[0], closure[1])
            return
        self._other[key] = f

    def discard(self, key: Hashable) -> None:
        """Unregister member ``key`` if present."""
        f = self._members.pop(key, None)
        if f is None:
            return
        rng = f.as_range()
        if rng is not None:
            idx = self._ranges[rng[0]]
            idx.discard(key)
            if not len(idx):
                del self._ranges[rng[0]]
            return
        if isinstance(f, ConjunctionFilter):
            if not f.constraints:
                del self._universal[key]
                return
            anchor = f.constraints[0].attr
            bucket = self._conj_anchor[anchor]
            del bucket[key]
            if not bucket:
                del self._conj_anchor[anchor]
            for i, c in enumerate(f.constraints):
                cidx = self._conj_closures.get(c.attr)
                if cidx is not None:
                    cidx.discard((key, i))
                    if not len(cidx):
                        del self._conj_closures[c.attr]
            return
        del self._other[key]

    # ------------------------------------------------------------------
    # forward direction: is an incoming filter covered by some member?
    # ------------------------------------------------------------------
    def covers(self, f: Filter) -> bool:
        """True iff some member covers ``f`` (peer-set scan semantics)."""
        if self._universal:
            return True  # an empty conjunction covers everything
        rng = f.as_range()
        if rng is not None:
            attr, lo, hi = rng
            idx = self._ranges.get(attr)
            if idx is not None and idx.contains_interval(lo, hi):
                return True
            bucket = self._conj_anchor.get(attr)
            if bucket:
                for g in bucket.values():
                    if g.covers(f):
                        return True
            return self._other_covers(f)
        if isinstance(f, ConjunctionFilter):
            probed: set[str] = set()
            for c in f.constraints:
                attr = c.attr
                if attr != "topic":
                    # topic intervals answer topic-range queries only
                    # (class docstring); no product member is one
                    closure = _constraint_closure(c)
                    if closure is not None:
                        idx = self._ranges.get(attr)
                        if idx is not None and idx.contains_interval(*closure):
                            return True
                if attr not in probed:
                    probed.add(attr)
                    bucket = self._conj_anchor.get(attr)
                    if bucket:
                        for g in bucket.values():
                            if g.covers(f):
                                return True
            return self._other_covers(f)
        return self._other_covers(f)

    def _other_covers(self, f: Filter) -> bool:
        return any(g.covers(f) for g in self._other.values())

    # ------------------------------------------------------------------
    # reverse direction: which members does a (withdrawn) filter cover?
    # ------------------------------------------------------------------
    def covered_by(self, f: Filter) -> list[Hashable]:
        """Keys of every member ``m`` with ``f.covers(m)``, unordered."""
        rng = (
            f.as_range()
            if isinstance(f, (RangeFilter, ConjunctionFilter))
            else None
        )
        if rng is not None:
            # a single closed range covers exactly: interval members it
            # contains, and conjunctions with a constraint whose closure it
            # contains (closed endpoints dominate open ones, so closure
            # containment is equivalent to constraint implication here)
            attr, lo, hi = rng
            out: list[Hashable] = []
            idx = self._ranges.get(attr)
            if idx is not None:
                out.extend(idx.contained_keys(lo, hi))
            cidx = self._conj_closures.get(attr)
            if cidx is not None:
                seen: set = set()
                for mkey, _slot in cidx.contained_keys(lo, hi):
                    if mkey not in seen:
                        seen.add(mkey)
                        out.append(mkey)
            return out
        members = self._members
        if isinstance(f, ConjunctionFilter):
            if not f.constraints:
                return list(members)  # empty conjunction covers everything
            # anchor on one numeric-interval constraint: any covered member
            # must contain a constraint (or range) implying it, whose
            # closure nests inside the anchor's closure — a candidate
            # superset, verified exactly below
            anchor = None
            for c in f.constraints:
                closure = _constraint_closure(c)
                if closure is not None:
                    anchor = (c.attr, closure[0], closure[1])
                    break
            if anchor is None:
                candidates: Iterable[Hashable] = members
            else:
                attr, lo, hi = anchor
                cand: list[Hashable] = []
                idx = self._ranges.get(attr)
                if idx is not None:
                    cand.extend(idx.contained_keys(lo, hi))
                cidx = self._conj_closures.get(attr)
                if cidx is not None:
                    cand.extend(
                        mkey for mkey, _slot in cidx.contained_keys(lo, hi)
                    )
                candidates = cand
            out, seen = [], set()
            for mkey in candidates:
                if mkey in seen:
                    continue
                seen.add(mkey)
                if f.covers(members[mkey]):
                    out.append(mkey)
            return out
        # unknown Filter subclass: its covers() may hold for anything
        return [k for k, g in members.items() if f.covers(g)]

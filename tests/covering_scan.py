"""The brute-force covering scan: the tests-only reference for covering.

The product answers both covering questions of the control plane from
each keyed filter set of :mod:`repro.pubsub.filter_table`: its topic-range
members through the set's :class:`~repro.pubsub.interval_index.IntervalIndex`,
its general members (those with no topic-range form) by a scan of them.
This module is the scan of *every* member, kept as the differential oracle
(the way ``Mirror`` in ``tests/test_matching_engine.py`` is for matching):
the same four-method surface over a plain dict, every answer computed by
walking all members.

:func:`scan_covering` makes every keyed filter set answer ``covers`` and
``covered_by`` — topic ranges included — with that scan over all of its
members while the context is open, so no interval index is consulted. A
product run and a reference run of the same script must then agree on
every message, table and counter.
"""

from contextlib import contextmanager

import pytest

from repro.pubsub import filter_table


def _is_topic_range(f) -> bool:
    rng = f.as_range()
    return rng is not None and rng[0] == "topic"


class ScanCovering:
    """A keyed filter set by brute force (``add``/``discard``/``covers``/
    ``covered_by``/``len``)."""

    def __init__(self) -> None:
        self.members: dict = {}

    def add(self, key, f) -> None:
        self.members[key] = f

    def discard(self, key) -> None:
        self.members.pop(key, None)

    def __len__(self) -> int:
        return len(self.members)

    def covers(self, f) -> bool:
        """The unindexed peer-set semantics: topic-range members live in a
        topic-only interval index consulted for topic-range queries alone
        (the one conservative quirk); everything else is asked ``covers``."""
        rng = f.as_range()
        if rng is not None and rng[0] == "topic":
            for m in self.members.values():
                if _is_topic_range(m):
                    _attr, lo, hi = m.as_range()
                    if lo <= rng[1] and rng[2] <= hi:
                        return True
        return any(
            m.covers(f) for m in self.members.values()
            if not _is_topic_range(m)
        )

    def covered_by(self, f) -> list:
        return [k for k, m in self.members.items() if f.covers(m)]


def _scan_of(peer) -> ScanCovering:
    scan = ScanCovering()
    scan.members = peer.filters
    return scan


@contextmanager
def scan_covering():
    """Keyed filter sets answer both covering questions by scanning."""
    peer_set = filter_table._PeerFilters
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(peer_set, "covers", lambda self, f: _scan_of(self).covers(f))
        mp.setattr(
            peer_set, "covered_by", lambda self, f: _scan_of(self).covered_by(f)
        )
        yield

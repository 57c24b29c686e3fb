"""The brute-force covering scan: the tests-only reference for covering.

The product answers both covering questions of the control plane in
:class:`~repro.pubsub.filter_table.FilterTable`'s own frame:
``advertised_covers`` runs the containment stab on the advertisement
mirror's sorted arrays and ``covered_candidates`` walks each asked set's
sorted arrays. This module is the scan of *every* member, kept as the
differential oracle (the way ``Mirror`` in ``tests/test_matching_engine.py``
is for matching): :class:`ScanCovering` is one keyed set over a plain dict,
every answer computed by walking all members.

:func:`scan_covering` makes every table answer ``advertised_covers`` and
``covered_candidates`` — topic ranges included — with that scan while the
context is open, in the same table order and less the same mirror keys,
so no sorted array is read for a covering answer (and a set only covering
reads, an advertisement mirror or the client entries' set, never builds
its arrays). A product run and a reference run of the same script must
then agree on every message, table and counter.
"""

from contextlib import contextmanager

import pytest

from repro.pubsub.filter_table import FilterTable


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
        """Does some member's topic range contain ``f``'s?"""
        lo, hi = f.topic_range
        return any(m.topic_range[0] <= lo and hi <= m.topic_range[1]
                   for m in self.members.values())

    def covered_by(self, f) -> list:
        return [k for k, m in self.members.items() if f.covers(m)]


def scan_advertised_covers(table, nbr, f) -> bool:
    """``FilterTable.advertised_covers`` by a scan of the mirror."""
    scan = ScanCovering()
    scan.members = table._advertised[nbr].filters
    return scan.covers(f)


def scan_covered_candidates(table, nbr, f) -> list:
    """``FilterTable.covered_candidates`` by the table walk: every client
    entry, then each other neighbour's members in ``keys()`` order, that
    ``f`` covers, less the keys advertised to ``nbr``."""
    advertised = table._advertised[nbr].filters
    out = [(entry.key, entry.filter) for entry in table.clients.values()
           if entry.key not in advertised and f.covers(entry.filter)]
    for other, peer in table._from_nbr.items():
        if other != nbr:
            out += [(key, peer.filters[key]) for key in peer.keys()
                    if key not in advertised and f.covers(peer.filters[key])]
    return out


@contextmanager
def scan_covering():
    """Filter tables answer both covering questions by scanning."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FilterTable, "advertised_covers", scan_advertised_covers)
        mp.setattr(FilterTable, "covered_candidates", scan_covered_candidates)
        yield

"""The brute-force covering scan: the tests-only reference for CoveringIndex.

The product answers both covering questions of the control plane from
:class:`repro.pubsub.covering.CoveringIndex`. This module is the scan that
index replaced, kept as the differential oracle (the way ``Mirror`` in
``tests/test_matching_engine.py`` is for matching): the same four-method
surface over a plain dict, every answer computed by walking all members.

:func:`scan_covering` substitutes it for the index in every
:class:`~repro.pubsub.filter_table.FilterTable` that builds its covering
state while the context is open — tables build it on first use, so a
reference run must be *built and run* inside the context. A product run
and a reference run of the same script must then agree on every message,
table and counter.
"""

from contextlib import contextmanager

import pytest

from repro.pubsub import filter_table


def _is_topic_range(f) -> bool:
    rng = f.as_range()
    return rng is not None and rng[0] == "topic"


class ScanCovering:
    """``CoveringIndex`` by brute force (``add``/``discard``/``covers``/
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


@contextmanager
def scan_covering():
    """Tables that build covering state inside use :class:`ScanCovering`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filter_table, "CoveringIndex", ScanCovering)
        yield

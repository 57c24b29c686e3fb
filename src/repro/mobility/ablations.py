"""Ablation variants of the protocols (benchmark support).

These are not reproduction targets; they isolate individual design choices
of the paper so ``tests/test_paper_shapes.py`` can quantify them.
"""

from __future__ import annotations

from repro.mobility.mhh import MHHProtocol

__all__ = ["MHHNoPQListProtocol"]


class MHHNoPQListProtocol(MHHProtocol):
    """MHH without the §4.3 frequent-moving extension.

    ``stop_event_migration`` is never issued: when a client moves on before
    its event migration finishes, the migration simply completes at the
    abandoned destination and the whole (ever-growing) backlog is re-shipped
    by the next handoff. ``tests/test_paper_shapes.py`` shows the overhead
    this adds at short connection periods — the problem the distributed
    PQlist exists to solve.
    """

    name = "mhh-nopqlist"
    enable_stop = False

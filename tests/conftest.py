"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem

# Tier-1 is deterministic: every property test draws the same examples on
# every run (seeded from the test function, no example database), so a red
# run is a red commit and never a lucky draw. Searching for new falsifying
# examples is the job of `pytest --hypothesis-profile=explore` (CI step
# `hypothesis-explore`, non-blocking): random draws, failures kept in
# `.hypothesis/` and printed as a `@reproduce_failure` blob, to be pinned as
# an `@example`. Every property test pins its own `max_examples`, so the
# figure below only reaches a test that does not; the CI step gets its
# larger sample by running several randomly seeded rounds.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def sim():
    from repro.sim.core import Simulator

    return Simulator()


def make_system(protocol: str = "mhh", k: int = 3, seed: int = 1, **kw):
    """A small system for protocol tests."""
    return PubSubSystem(grid_k=k, protocol=protocol, seed=seed, **kw)


def attach_pair(system: PubSubSystem, sub_broker: int, pub_broker: int,
                lo: float = 0.0, hi: float = 0.5):
    """One mobile subscriber + one static publisher, both connected."""
    sub = system.add_client(RangeFilter(lo, hi), broker=sub_broker, mobile=True)
    pub = system.add_client(RangeFilter(0.0, 0.0), broker=pub_broker)
    sub.connect(sub_broker)
    pub.connect(pub_broker)
    system.run(until=500.0)
    return sub, pub


def drain(system: PubSubSystem, limit_rounds: int = 1000) -> None:
    """Run the sim until the heap is empty."""
    system.sim.run()
    assert system.sim.peek() is None

"""Named, independently seeded random streams.

Every stochastic component of an experiment (topology tie-breaks, workload
subscriptions, each client's mobility process, publication jitter, ...) draws
from its own named stream derived from the experiment seed via
``numpy.random.SeedSequence.spawn``-style key hashing. Consequences:

* Runs are exactly reproducible given the experiment seed.
* Changing how many draws one component makes does not perturb any other
  component (no accidental coupling through a shared global generator) —
  essential when comparing protocols under *identical* workloads: the three
  protocol runs of a figure point share the same workload streams.

The hottest scalar streams are read through :func:`uniforms`, which serves
the same values from blocks. A stream read that way has **exactly one
consumer**: the block runs ahead of what has been handed out, so a second
reader of the same generator would see draws from past the buffer, not the
next value of the sequence, and would shift every block drawn after it.
"""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from typing import Iterator

import numpy as np

__all__ = ["RandomStreams", "uniforms", "UNIFORM_BLOCK"]

#: uniforms drawn per refill of a :func:`uniforms` iterator
UNIFORM_BLOCK = 1024


def _key_to_entropy(key: str) -> int:
    """Stable 128-bit entropy from a stream name (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class RandomStreams:
    """Factory of named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> a = RandomStreams(7).stream("mobility/client/3")
    >>> b = RandomStreams(7).stream("mobility/client/3")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, _key_to_entropy(name)])
            gen = np.random.default_rng(ss)
            self._cache[name] = gen
        return gen

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """One uniform integer draw in ``[low, high)`` from stream ``name``."""
        return int(self.stream(name).integers(low, high))

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform float draw in ``[low, high)`` from stream ``name``."""
        return float(self.stream(name).uniform(low, high))


def uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Endless scalar uniforms on ``[0, 1)`` from ``rng``, drawn in blocks.

    ``next(it)`` returns exactly the Python float that ``float(rng.random())``
    would have returned at that point of the sequence: ``Generator.random(n)``
    fills its array with the same doubles, in the same order, as ``n``
    successive scalar calls. ``j * next(it)`` likewise equals
    ``float(rng.uniform(0.0, j))`` (numpy computes ``0.0 + j * u``). A block
    of :data:`UNIFORM_BLOCK` values is drawn only when the previous one is
    spent, so a stream nobody reads is never advanced. Every step is a C
    call: no Python frame per value and none per block.

    The iterator must be the generator's only consumer (module docs).
    """
    blocks = map(rng.random, repeat(UNIFORM_BLOCK))
    return chain.from_iterable(map(np.ndarray.tolist, blocks))

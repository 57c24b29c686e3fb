"""``Stream`` against numpy itself: every draw the program makes, exactly.

``repro.sim.rng.Stream(entropy)`` is numpy's default generator written out
in Python; it must return what
``np.random.default_rng(np.random.SeedSequence(entropy))`` returns, value
for value, so that every fixed-seed result of the numpy-backed streams
stands. numpy is the oracle here and nowhere in the program, so these
tests skip where it is not installed.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.rng import RandomStreams, Stream, _key_to_entropy, uniforms
from repro.workload.models import zipf_weights

np = pytest.importorskip("numpy")

#: the entropy shapes the program seeds with: (seed, 128-bit name key) for a
#: named stream, with seeds past 32 bits; a key whose upper words are zero;
#: the spanning tree's three- and four-word seeds
ENTROPIES = [
    (1, _key_to_entropy("workload/mobility/17")),
    (0, _key_to_entropy("faults/wireless")),
    (2**32, _key_to_entropy("workload/publish/3")),
    (2**40 + 5, _key_to_entropy("reliability/backoff")),
    (7, 5),
    (0,),
    (1, 49, 0x5175),
    (3, 196, 2, 0x5176),
    (2**33, 16, 1, 0x5176),
]


def numpy_stream(entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_seeding_and_uniforms(entropy):
    ours, ref = Stream(entropy), numpy_stream(entropy)
    for _ in range(100):
        assert ours.random() == ref.random()
        assert ours.uniform() == ref.uniform()
        assert ours.uniform(0.2, 0.55) == ref.uniform(0.2, 0.55)
    assert ours.random(1000) == ref.random(1000).tolist()


def test_named_streams_are_numpy_seed_sequences():
    streams = RandomStreams(42)
    for name in ("a", "workload/subscription/0", "workload/mobile-selection"):
        ref = numpy_stream((42, _key_to_entropy(name)))
        assert streams.stream(name).random(10) == ref.random(10).tolist()


def test_exponential_draws_and_both_slow_paths(monkeypatch):
    """Over a million draws, enough that the ziggurat's base-layer tail and
    its wedges are both taken hundreds of times."""
    tails = {"base": 0, "wedge": 0}
    tail = Stream._exponential_tail

    def counted(self, idx, x):
        tails["base" if idx == 0 else "wedge"] += 1
        return tail(self, idx, x)

    monkeypatch.setattr(Stream, "_exponential_tail", counted)
    ours, ref = Stream(ENTROPIES[0]), numpy_stream(ENTROPIES[0])
    n = 1_000_000
    want = ref.exponential(250.0, size=n).tolist()
    draw = ours.exponential
    assert [draw(250.0) for _ in range(n)] == want
    assert tails["base"] > 100 and tails["wedge"] > 1000, tails


@pytest.mark.parametrize("entropy", ENTROPIES[:4])
def test_integers_interleaved_with_whole_word_draws(entropy):
    """32-bit draws split a word and keep its upper half; whole-word draws
    (uniforms, exponentials, integers past 32 bits) leave that half alone."""
    ours, ref = Stream(entropy), numpy_stream(entropy)
    bounds = (1, 2, 3, 7, 49, 1000, 2**31 + 1, 2**32, 2**32 + 1, 2**40,
              2**63)
    for i in range(3000):
        n = bounds[i % len(bounds)]
        assert ours.integers(n) == ref.integers(n)
        if i % 3 == 0:
            assert ours.random() == ref.random()
        if i % 5 == 0:
            assert ours.exponential(2.0) == ref.exponential(2.0)


def test_weighted_choice():
    ours, ref = Stream(ENTROPIES[2]), numpy_stream(ENTROPIES[2])
    for n in (1, 4, 9, 16, 50):
        w = np.random.default_rng(n).random(n)
        p = (w / w.sum()).tolist()
        for _ in range(300):
            assert ours.choice(n, p=p) == ref.choice(n, p=p)


@pytest.mark.parametrize("n,size", [
    (5, 0), (5, 5), (12, 2), (245, 49), (1960, 392), (10000, 9000),
    (10001, 200), (20000, 400), (20000, 1000),
])
def test_choice_without_replacement(n, size):
    """Floyd's sample then a shuffle, or numpy's tail shuffle for a large
    sample of a large population (``n > 10000``, ``size > n // 50``)."""
    ours, ref = Stream(ENTROPIES[0]), numpy_stream(ENTROPIES[0])
    for _ in range(3):
        got = ours.choice(n, size=size, replace=False)
        assert got == ref.choice(n, size=size, replace=False).tolist()
        assert ours.integers(1000) == ref.integers(1000)


def test_block_uniforms_are_numpy_draws():
    it = uniforms(Stream(ENTROPIES[1]))
    ref = numpy_stream(ENTROPIES[1])
    assert [next(it) for _ in range(3000)] == ref.random(3000).tolist()


@pytest.mark.parametrize("n,exponent", [
    (4, 0.8), (9, 1.2), (16, 1.6), (16, 0.8), (50, 0.9), (50, 1.3),
    (300, 1.1), (1000, 0.5),
])
def test_zipf_weights_normalise_as_numpy_does(n, exponent):
    """The weights the fuzzer's hotspot (4, 9 or 16 brokers) and topic skew
    (50 bins) draw from. The normalisation is numpy's pairwise sum exactly.
    The powers are ``float.__pow__``: numpy's vectorised ``**`` rounds some
    of them the other way, 1 ulp off, so they are compared to that bound."""
    powers = [k ** -exponent for k in range(1, n + 1)]
    w = np.asarray(powers)
    assert zipf_weights(n, exponent) == (w / w.sum()).tolist()
    numpy_powers = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    for ours, theirs in zip(powers, numpy_powers.tolist()):
        assert abs(ours - theirs) <= math.ulp(theirs)

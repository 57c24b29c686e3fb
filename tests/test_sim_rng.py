"""Unit tests for named random streams."""

from repro.sim.rng import UNIFORM_BLOCK, RandomStreams, uniforms


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(42).stream("x")
    b = RandomStreams(42).stream("x")
    assert [float(a.random()) for _ in range(5)] == [
        float(b.random()) for _ in range(5)
    ]


def test_different_names_are_independent():
    rs = RandomStreams(42)
    a = [float(rs.stream("a").random()) for _ in range(5)]
    b = [float(rs.stream("b").random()) for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(2).stream("x")
    assert float(a.random()) != float(b.random())


def test_stream_is_cached():
    rs = RandomStreams(7)
    assert rs.stream("s") is rs.stream("s")


def test_draw_order_in_one_stream_does_not_affect_other():
    # consume lots of stream "a", then check "b" matches a fresh instance
    rs1 = RandomStreams(5)
    for _ in range(1000):
        rs1.stream("a").random()
    b1 = float(rs1.stream("b").random())
    rs2 = RandomStreams(5)
    b2 = float(rs2.stream("b").random())
    assert b1 == b2


def test_exponential_mean_roughly_correct():
    rs = RandomStreams(3)
    n = 4000
    total = sum(rs.stream("e").exponential(250.0) for _ in range(n))
    assert 220.0 < total / n < 280.0


def test_integers_in_range():
    rs = RandomStreams(3)
    draws = {rs.stream("i").integers(4) for _ in range(200)}
    assert draws == {0, 1, 2, 3}


def test_uniform_in_range():
    rs = RandomStreams(3)
    for _ in range(100):
        x = rs.stream("u").uniform(2.0, 3.0)
        assert 2.0 <= x < 3.0


def test_block_uniforms_equal_scalar_draws_on_the_backoff_stream():
    """The reliability layer's backoff factor, drawn through the block
    helper, equals the scalar draw on a fresh stream of the same seed, past
    two block refills; and a block is drawn only when a value is asked."""
    rng = RandomStreams(9).stream("reliability/backoff")
    ref = RandomStreams(9).stream("reliability/backoff")
    position = rng.position
    draws = uniforms(rng)
    assert rng.position == position
    for _ in range(2 * UNIFORM_BLOCK + 3):
        u, want = next(draws), float(ref.random())
        assert type(u) is float and u == want
        assert 0.8 + 0.4 * u == 0.8 + 0.4 * want


def test_block_uniforms_scale_to_numpy_uniform():
    """``j * u`` is bit-identical to ``uniform(0, j)`` (the jitter draw)."""
    draws = uniforms(RandomStreams(4).stream("faults/wireless"))
    ref = RandomStreams(4).stream("faults/wireless")
    for i in range(UNIFORM_BLOCK + 7):
        j = (0.5, 3.0, 7.5, 25.0, 1e-3)[i % 5]
        assert j * next(draws) == float(ref.uniform(0.0, j))

"""The mobility-model registry, the models, and topic-popularity skew."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem
from repro.sim.rng import RandomStreams
from repro.workload.models import (
    MOBILITY_MODELS,
    HotspotMobility,
    MobilityModel,
    PingPongMobility,
    TopicSampler,
    TraceReplayMobility,
    UniformMobility,
    make_mobility_model,
    register_mobility_model,
    zipf_weights,
)
from repro.workload.mobility_model import Workload
from repro.workload.spec import WorkloadSpec


def small_system(k=3, protocol="mhh", seed=5):
    return PubSubSystem(grid_k=k, protocol=protocol, seed=seed)


class FakeClient:
    def __init__(self, cid=0, home=0, last=None):
        self.id = cid
        self.home_broker = home
        self.last_broker = last


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_holds_all_builtin_models():
    assert {"uniform", "hotspot", "ping-pong", "trace"} <= set(MOBILITY_MODELS)


def test_make_unknown_model_raises():
    with pytest.raises(ConfigurationError, match="unknown mobility model"):
        make_mobility_model("teleport")


def test_register_rejects_duplicates_and_anonymous():
    with pytest.raises(ConfigurationError, match="already registered"):

        @register_mobility_model
        class Clash(MobilityModel):
            name = "uniform"

    with pytest.raises(ConfigurationError, match="non-empty name"):

        @register_mobility_model
        class NoName(MobilityModel):
            pass


def test_spec_validates_model_name():
    with pytest.raises(ConfigurationError, match="unknown mobility model"):
        WorkloadSpec(mobility_model="teleport")
    with pytest.raises(ConfigurationError):
        WorkloadSpec(topic_skew=-0.5)


# ---------------------------------------------------------------------------
# the models
# ---------------------------------------------------------------------------
def test_uniform_matches_seed_draw_sequence():
    """The default model must make exactly the paper code path's draws
    (``rng.integers(n)``) so default runs stay bit-identical."""
    system = small_system()
    model = make_mobility_model("uniform")
    assert isinstance(model, UniformMobility)
    model.bind(system)
    rng = RandomStreams(9).stream("workload/mobility/0")
    got = [model.next_broker(rng, FakeClient()) for _ in range(8)]
    ref_rng = RandomStreams(9).stream("workload/mobility/0")
    want = [int(ref_rng.integers(system.broker_count)) for _ in range(8)]
    assert got == want


def test_hotspot_concentrates_on_low_ids():
    system = small_system()
    model = HotspotMobility(exponent=1.4)
    model.bind(system)
    rng = np.random.default_rng(0)
    draws = [model.next_broker(rng, FakeClient()) for _ in range(3000)]
    counts = np.bincount(draws, minlength=system.broker_count)
    assert counts[0] > counts[-1]
    assert counts[0] > len(draws) / system.broker_count  # beats uniform share
    assert sum(model.weights) == pytest.approx(1.0)


def test_ping_pong_oscillates_between_adjacent_brokers():
    system = small_system()
    model = PingPongMobility()
    model.bind(system)
    rng = np.random.default_rng(0)
    client = FakeClient(home=4, last=4)
    partner = model.next_broker(rng, client)
    assert system.topology.has_edge(4, partner)
    client.last_broker = partner
    assert model.next_broker(rng, client) == 4


def test_ping_pong_handoffs_stay_on_grid_edges():
    system = small_system(protocol="sub-unsub")
    spec = WorkloadSpec(
        clients_per_broker=3,
        mobile_fraction=0.5,
        mean_connected_s=10.0,
        mean_disconnected_s=5.0,
        publish_interval_s=30.0,
        duration_s=200.0,
        mobility_model="ping-pong",
    )
    workload = Workload(system, spec)
    moves = []  # (last broker, destination) of every handoff the model made
    draw = workload.mobility.next_broker

    def recorded(rng, client):
        target = draw(rng, client)
        if client.last_broker not in (None, target):
            moves.append((client.last_broker, target))
        return target

    workload.mobility.next_broker = recorded
    system.run(until=spec.duration_ms)
    workload.stop()
    assert moves, "ping-pong produced no handoffs"
    assert len(moves) == system.metrics.handoffs.handoff_count
    for old_broker, new_broker in moves:
        assert system.topology.has_edge(old_broker, new_broker)


def test_trace_replay_cycles_and_falls_back():
    system = small_system()
    model = TraceReplayMobility(trace={3: (7, 2)})
    model.bind(system)
    rng = np.random.default_rng(0)
    traced = FakeClient(cid=3, home=0)
    assert [model.next_broker(rng, traced) for _ in range(5)] == [7, 2, 7, 2, 7]
    untraced = FakeClient(cid=4, home=5)
    n = system.broker_count
    assert [model.next_broker(rng, untraced) for _ in range(3)] == [
        6 % n, 7 % n, 8 % n
    ]


def test_trace_replay_validates_broker_range():
    model = TraceReplayMobility(trace={0: (99,)})
    with pytest.raises(ConfigurationError, match="names broker 99"):
        model.bind(small_system())


def test_trace_replay_names_the_client_and_the_first_bad_broker():
    model = TraceReplayMobility(trace={0: (1, 2), 5: [3, -1, 42]})
    with pytest.raises(ConfigurationError,
                       match=r"client 5 names broker -1,.*brokers 0\.\.8"):
        model.bind(small_system())


def test_trace_replay_keeps_int_tuples_and_normalises_the_rest():
    kept = (4, 1, 4)
    model = TraceReplayMobility(trace={
        0: kept,
        np.int64(1): [2, 3],
        2: np.array([5, 6], dtype=np.int32),
        3: (np.int16(7), 8),
        4: (True, 0),
    })
    assert model.trace[0] is kept
    assert model.trace == {0: (4, 1, 4), 1: (2, 3), 2: (5, 6), 3: (7, 8),
                           4: (1, 0)}
    for seq in model.trace.values():
        assert type(seq) is tuple and all(type(b) is int for b in seq)
    model.bind(small_system())  # every id is in 0..8


# ---------------------------------------------------------------------------
# topic popularity
# ---------------------------------------------------------------------------
def test_topic_sampler_uniform_is_draw_identical():
    sampler = TopicSampler(skew=0.0)
    a = RandomStreams(4).stream("workload/publish/0")
    b = RandomStreams(4).stream("workload/publish/0")
    assert [sampler.draw(a) for _ in range(16)] == [
        float(b.uniform()) for _ in range(16)
    ]


def test_topic_sampler_skew_prefers_low_topics():
    sampler = TopicSampler(skew=1.3, bins=10)
    rng = np.random.default_rng(1)
    draws = [sampler.draw(rng) for _ in range(4000)]
    assert all(0.0 <= t < 1.0 for t in draws)
    hottest = sum(1 for t in draws if t < 0.1)
    coldest = sum(1 for t in draws if t >= 0.9)
    assert hottest > 3 * max(coldest, 1)


def test_zipf_weights_shape():
    w = zipf_weights(5, 1.0)
    assert type(w) is list
    assert sum(w) == pytest.approx(1.0)
    assert list(w) == sorted(w, reverse=True)
    flat = zipf_weights(5, 0.0)
    assert flat[0] == pytest.approx(flat[-1])


# ---------------------------------------------------------------------------
# end-to-end: adversarial models keep reliable protocols reliable
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model,params", [
    ("hotspot", {"exponent": 1.5}),
    ("ping-pong", {}),
])
def test_mhh_stays_reliable_under_adversarial_movement(model, params):
    system = small_system()
    spec = WorkloadSpec(
        clients_per_broker=3,
        mobile_fraction=0.5,
        mean_connected_s=8.0,
        mean_disconnected_s=6.0,
        publish_interval_s=25.0,
        duration_s=200.0,
        mobility_model=model,
        mobility_params=params,
        topic_skew=1.1,
    )
    workload = Workload(system, spec)
    system.run(until=spec.duration_ms)
    workload.stop()
    for client in workload.all_clients:
        if not client.connected:
            client.connect(
                client.last_broker
                if client.last_broker is not None
                else client.home_broker
            )
    system.run()
    stats = system.metrics.delivery.stats
    assert stats.missing == 0
    assert stats.duplicates == 0
    assert stats.order_violations == 0

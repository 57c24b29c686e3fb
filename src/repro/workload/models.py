"""Pluggable mobility models and topic-popularity sampling.

The paper's workload (§5.1) moves every mobile client to a *uniformly*
random base station and publishes on *uniformly* random topics. Both are
the friendliest possible case for a mobility protocol: no broker is ever a
hotspot, no pair of brokers sees sustained oscillation, and matching load
spreads evenly. The mobility literature (PSVR, the M&M micro-mobility
work) breaks protocols precisely where those assumptions fail, so the
workload layer exposes both choices as pluggable models:

* **where a mobile client reconnects** — a :class:`MobilityModel` from the
  registry below (``uniform`` — the paper's model and the default —
  ``hotspot``, ``ping-pong``, ``trace``);
* **which topics publishers emit** — :class:`TopicSampler`, uniform by
  default, Zipf-skewed when ``topic_skew > 0``.

Adding a model
--------------
Subclass :class:`MobilityModel`, set a unique ``name``, implement
``next_broker``, and decorate with :func:`register_mobility_model`::

    @register_mobility_model
    class CommuterModel(MobilityModel):
        name = "commuter"
        def next_broker(self, rng, client):
            ...

Select it via ``WorkloadSpec(mobility_model="commuter",
mobility_params={...})`` — the params dict is passed to the constructor.
Models draw all randomness from the per-client stream handed to
``next_broker``, so two models differ only in the draws they make: the
default ``uniform`` model makes exactly the seed code path's draws, which
keeps the paper figures bit-identical.

Determinism contract: a model must derive every decision from its
constructor params, :meth:`MobilityModel.bind`-time system state, and the
RNG it is handed — never from wall clock, global state, or dict iteration
over non-deterministic orders. The conformance fuzzer replays scenarios
from seeds and will catch violations as cross-run divergence.
"""

from __future__ import annotations

from operator import add
from typing import Any, ClassVar, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.client import Client
    from repro.pubsub.system import PubSubSystem
    from repro.sim.rng import Stream

__all__ = [
    "MobilityModel",
    "MOBILITY_MODELS",
    "register_mobility_model",
    "make_mobility_model",
    "UniformMobility",
    "HotspotMobility",
    "PingPongMobility",
    "TraceReplayMobility",
    "TopicSampler",
    "zipf_weights",
]


def zipf_weights(n: int, exponent: float) -> list[float]:
    """Normalised Zipf weights ``(rank+1)^-exponent`` over ``n`` ranks:
    numpy's ``w / w.sum()`` over the same powers (numpy's vectorised ``**``
    may round a power 1 ulp the other way)."""
    check_positive("n", n)
    check_non_negative("exponent", exponent)
    w = [k ** -float(exponent) for k in range(1, n + 1)]
    total = _pairwise_sum(w)
    return [x / total for x in w]


def _pairwise_sum(a: list[float]) -> float:
    """numpy's float64 sum: 8 running sums a block of <= 128, halved above."""
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    total, rest = -0.0, a
    if n >= 8:
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            r = list(map(add, r, a[i:i + 8]))
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        rest = a[n - n % 8:]
    for x in rest:
        total += x
    return total


# ---------------------------------------------------------------------------
# mobility models
# ---------------------------------------------------------------------------
class MobilityModel:
    """Chooses *where* a mobile client reconnects.

    The workload keeps the paper's *timing* (exponential connect /
    disconnect periods) for every model; a model only decides the
    destination base station. One model instance serves the whole
    population — per-client state must be keyed by ``client.id``.
    """

    #: registry key; subclasses must override
    name: ClassVar[str] = ""

    def bind(self, system: "PubSubSystem") -> None:
        """Late-bind to the system (topology, broker count). Called once
        by the workload before any ``next_broker``; override to precompute
        (always call ``super().bind``)."""
        self.system = system
        self.n = system.broker_count

    def next_broker(self, rng: "Stream", client: "Client") -> int:
        """The base station ``client`` reconnects at after this
        disconnection period. ``rng`` is the client's own mobility stream —
        draw all randomness from it."""
        raise NotImplementedError


#: name -> model class (see module docstring for how to add one)
MOBILITY_MODELS: dict[str, type[MobilityModel]] = {}


def register_mobility_model(cls: type[MobilityModel]) -> type[MobilityModel]:
    """Class decorator: add ``cls`` to the model registry under its name."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} must set a non-empty name")
    if cls.name in MOBILITY_MODELS:
        raise ConfigurationError(
            f"mobility model {cls.name!r} is already registered"
        )
    MOBILITY_MODELS[cls.name] = cls
    return cls


def make_mobility_model(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> MobilityModel:
    """Instantiate a registered model (unbound; the workload binds it)."""
    cls = MOBILITY_MODELS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown mobility model {name!r}; "
            f"registered: {sorted(MOBILITY_MODELS)}"
        )
    return cls(**dict(params or {}))


@register_mobility_model
class UniformMobility(MobilityModel):
    """The paper's model: every base station equally likely (§5.1).

    Draw-for-draw identical to the pre-registry workload code, so default
    runs reproduce the seed figures bit-for-bit.
    """

    name = "uniform"

    def next_broker(self, rng: "Stream", client: "Client") -> int:
        return int(rng.integers(self.n))


@register_mobility_model
class HotspotMobility(MobilityModel):
    """Zipf-skewed base-station preference: a few stations draw most
    reconnects (city-center cells, stadium events). Station rank equals
    station id — broker 0 is the hottest — which concentrates handoff
    traffic and matching load on one grid corner.
    """

    name = "hotspot"

    def __init__(self, exponent: float = 1.1) -> None:
        check_non_negative("exponent", exponent)
        self.exponent = exponent

    def bind(self, system: "PubSubSystem") -> None:
        super().bind(system)
        self.weights = zipf_weights(self.n, self.exponent)

    def next_broker(self, rng: "Stream", client: "Client") -> int:
        return int(rng.choice(self.n, p=self.weights))


@register_mobility_model
class PingPongMobility(MobilityModel):
    """Adjacent-broker oscillation: each client bounces between its home
    station and its home's smallest-id grid neighbour — the cell-boundary
    flapping case that stresses handoff pipelining (rapid moves between
    the same two brokers, each reconnect racing the previous handoff's
    control messages).
    """

    name = "ping-pong"

    def bind(self, system: "PubSubSystem") -> None:
        super().bind(system)
        self._partner = {
            b: min(system.topology.neighbors(b), default=b)
            for b in range(self.n)
        }

    def next_broker(self, rng: "Stream", client: "Client") -> int:
        home = client.home_broker
        partner = self._partner[home]
        # oscillate: if last seen at home, go to the partner, else home
        return partner if client.last_broker == home else home


@register_mobility_model
class TraceReplayMobility(MobilityModel):
    """Replay recorded movement: each client walks its trace (a sequence
    of broker ids), cycling when it runs out. Clients without a trace walk
    the grid deterministically (``home+1, home+2, ...`` modulo n), so a
    partial trace still yields a fully specified scenario.

    ``trace`` maps client id -> sequence of broker ids.
    """

    name = "trace"

    def __init__(self, trace: Optional[Mapping[int, Sequence[int]]] = None) -> None:
        # a sequence that is already a tuple of ints (what a WorkloadSpec
        # built in code holds) is kept, not copied; anything else
        # (lists, numpy ints) is normalised
        self.trace = {
            int(c): seq if type(seq) is tuple and all(type(b) is int for b in seq)
            else tuple(int(b) for b in seq)
            for c, seq in dict(trace or {}).items()
        }
        self._pos: dict[int, int] = {}

    def bind(self, system: "PubSubSystem") -> None:
        super().bind(system)
        for cid, seq in self.trace.items():
            if seq and (min(seq) < 0 or max(seq) >= self.n):
                b = next(b for b in seq if not 0 <= b < self.n)
                raise ConfigurationError(
                    f"trace for client {cid} names broker {b}, but the "
                    f"topology has brokers 0..{self.n - 1}"
                )

    def next_broker(self, rng: "Stream", client: "Client") -> int:
        step = self._pos.get(client.id, 0)
        self._pos[client.id] = step + 1
        seq = self.trace.get(client.id)
        if seq:
            return seq[step % len(seq)]
        return (client.home_broker + 1 + step) % self.n


# ---------------------------------------------------------------------------
# topic popularity
# ---------------------------------------------------------------------------
class TopicSampler:
    """Draws publication topics in ``[0, 1)``.

    ``skew == 0`` (default) is the paper's uniform draw — one ``uniform()``
    call, bit-identical to the seed code path. ``skew > 0`` partitions the
    topic space into ``bins`` equal slices whose popularity follows Zipf
    with the given exponent (slice 0 — topics near 0.0 — hottest); within a
    slice, topics stay uniform. Skewed popularity concentrates matching and
    delivery load on the subscribers of the hot slices, the classic
    workload of real pub/sub feeds.
    """

    def __init__(self, skew: float = 0.0, bins: int = 50) -> None:
        check_non_negative("skew", skew)
        check_positive("bins", bins)
        self.skew = skew
        self.bins = int(bins)
        self._weights = zipf_weights(self.bins, skew) if skew > 0 else None

    def draw(self, rng: "Stream") -> float:
        if self._weights is None:
            return rng.uniform()
        b = rng.choice(self.bins, p=self._weights)
        return (b + rng.uniform()) / self.bins

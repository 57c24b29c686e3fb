"""Scenario space for conformance runs.

A :class:`Scenario` is one adversarial end-to-end run: a scenario seed, a
lane and the :class:`ExperimentConfig` the two expand to (protocol, grid
size, population, mobility model, topic skew, wireless fault profile and
the lane's layers). :meth:`Scenario.from_seed` is the only generator — a
scenario is named by its seed and lane alone, and replaying them with
``--scenario-seed N --lane X [--protocol P]`` reconstructs the identical
config (and, because every random stream in the simulator is
seed-derived, the identical run, event for event).

The sampling ranges are deliberately small and hostile: tiny grids with a
handful of clients maximize the rate of handoff collisions, rapid-fire
reconnects, queue reclaims and epoch races per simulated second, which is
where mobility protocols historically break (PSVR's loss-prone channels,
M&M's micro-mobility flapping). Fault-free and uniform choices stay in the
mix so the conformance gate keeps covering the paper's original regime
too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.mobility import registry
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashEvent, CrashPlan
from repro.network.topology import grid_topology
from repro.workload.spec import WorkloadSpec

__all__ = ["Scenario", "PROTOCOLS", "LANES"]

#: every protocol the repo implements (the registry's names, in its order)
PROTOCOLS: tuple[str, ...] = tuple(registry.PROTOCOLS)

# four slots keep each seed's draws: choice() over three reads other bits
_SAMPLED = (*PROTOCOLS, "mhh")

#: the lanes: the base draw, then a seeded crash plan on perfect
#: links, ACK/retransmit on forced-lossy links, both, and both plus the WAL
LANES: tuple[str, ...] = ("plain", "crash", "rel", "rel-crash", "durable")

_MOBILITY_CHOICES = ("uniform", "hotspot", "ping-pong", "trace")
_LOSS_CHOICES = (0.0, 0.0, 0.05, 0.2)
_DUP_CHOICES = (0.0, 0.0, 0.05, 0.15)
_JITTER_CHOICES = (0.0, 0.0, 5.0, 25.0)
_TOPIC_SKEW_CHOICES = (0.0, 0.0, 0.9, 1.3)
_HOTSPOT_EXPONENTS = (0.8, 1.2, 1.6)
_CONN_CHOICES = (5.0, 15.0, 45.0)
_DISC_CHOICES = (5.0, 20.0)
_PUBLISH_CHOICES = (20.0, 45.0)


@dataclass(frozen=True)
class Scenario:
    """One fuzzed run; fully determined by ``seed`` and ``lane`` (plus
    the protocol, when one is forced)."""

    seed: int
    lane: str
    config: ExperimentConfig

    @classmethod
    def from_seed(
        cls, seed: int, lane: str = "plain", protocol: Optional[str] = None
    ) -> "Scenario":
        """Deterministically sample the scenario named by ``seed`` on
        ``lane``.

        Every lane starts from the same base draw; a lane's layers come
        from their own independent streams, so the base draw order is
        untouched and a seed names the same workload on every lane.
        ``protocol`` overrides the sampled protocol; it is drawn all the
        same, so every later draw is the one of the unforced scenario.
        """
        if lane not in LANES:
            raise ConfigurationError(f"unknown lane {lane!r}; one of {LANES}")
        cfg = _base_config(seed, protocol)
        if lane in ("crash", "rel-crash", "durable"):
            # perfect links: every loss is attributable to the crash model
            cfg = replace(cfg, faults=None, crashes=_crash_plan(seed, cfg))
        if lane in ("rel", "rel-crash", "durable"):
            cfg = _reliable(seed, cfg)
        if lane == "durable":
            # the zero-write-off contract is about machine failures;
            # bounded-queue shedding is a deliberate overload policy
            cfg = replace(cfg, durable=True, queue_cap=None)
        return cls(seed, lane, cfg)

    def label(self) -> str:
        return f"seed={self.seed} lane={self.lane} " + self.config.label()


def _base_config(seed: int, protocol: Optional[str]) -> ExperimentConfig:
    """The plain lane. :class:`random.Random` sequences are stable across
    Python versions for the draws used here, so a printed seed
    reconstructs the same config on any machine."""
    rnd = random.Random(seed)
    sampled = rnd.choice(_SAMPLED)  # drawn even when forced
    grid_k = rnd.randrange(2, 5)
    clients_per_broker = rnd.randrange(3, 6)
    n_clients = grid_k * grid_k * clients_per_broker
    mobility_model = rnd.choice(_MOBILITY_CHOICES)
    mobility_params: dict[str, Any] = {}
    if mobility_model == "hotspot":
        mobility_params["exponent"] = rnd.choice(_HOTSPOT_EXPONENTS)
    elif mobility_model == "trace":
        # random walks for a random half of the population; the rest
        # take the model's deterministic fallback walk
        traced = rnd.sample(range(n_clients), k=n_clients // 2)
        mobility_params["trace"] = {
            cid: tuple(
                rnd.randrange(grid_k * grid_k)
                for _ in range(rnd.randrange(3, 7))
            )
            for cid in sorted(traced)
        }
    faults = FaultProfile(
        deliver_loss=rnd.choice(_LOSS_CHOICES),
        deliver_duplicate=rnd.choice(_DUP_CHOICES),
        wireless_jitter_ms=rnd.choice(_JITTER_CHOICES),
    )
    experiment_seed = rnd.randrange(2**31)
    workload = WorkloadSpec(
        clients_per_broker=clients_per_broker,
        mobile_fraction=rnd.choice((0.3, 0.5)),
        mean_connected_s=rnd.choice(_CONN_CHOICES),
        mean_disconnected_s=rnd.choice(_DISC_CHOICES),
        publish_interval_s=rnd.choice(_PUBLISH_CHOICES),
        duration_s=rnd.choice((180.0, 300.0)),
        mobility_model=mobility_model,
        mobility_params=mobility_params,
        topic_skew=rnd.choice(_TOPIC_SKEW_CHOICES),
    )
    return ExperimentConfig(
        protocol=protocol or sampled,
        grid_k=grid_k,
        seed=experiment_seed,
        workload=workload,
        faults=faults if faults.active else None,
    )


def _crash_plan(seed: int, cfg: ExperimentConfig) -> CrashPlan:
    """A validated broker-failure schedule from the ``crash-lane:{seed}``
    stream (str seeding hashes with SHA-512, so the sequence is identical
    across platforms and Python builds)."""
    from repro.pubsub.recovery import validate_plan

    rnd = random.Random(f"crash-lane:{seed}")
    topo = grid_topology(cfg.grid_k)
    duration_ms = cfg.workload.duration_ms
    edges = list(topo.edges())
    shapes = ("crash", "crash", "crash+restart", "partition",
              "crash+partition")
    for _attempt in range(100):
        shape = rnd.choice(shapes)
        # All failures land in the first ~60% of the measurement window
        # and every repair completes by ~80%, so the surviving overlay
        # carries live post-repair traffic before the drain.
        t1 = rnd.uniform(0.2, 0.55) * duration_ms
        events: list[CrashEvent] = []
        if shape in ("crash", "crash+restart", "crash+partition"):
            events.append(
                CrashEvent("crash", time_ms=t1, broker=rnd.randrange(topo.n))
            )
            if shape == "crash+restart":
                t2 = min(
                    t1 + rnd.uniform(10.0, 60.0) * 1000.0, 0.8 * duration_ms
                )
                events.append(
                    CrashEvent("restart", time_ms=t2, broker=events[0].broker)
                )
        if shape in ("partition", "crash+partition"):
            t_cut = t1 if shape == "partition" else (
                rnd.uniform(0.2, 0.55) * duration_ms)
            events.append(
                CrashEvent("partition", time_ms=t_cut, edge=rnd.choice(edges))
            )
        plan = CrashPlan(events=tuple(events))
        try:
            validate_plan(topo, plan)
        except ConfigurationError:
            continue  # e.g. the cut + crash disconnects the survivors
        return plan
    raise ConfigurationError(  # pragma: no cover - 100 draws on a grid
        f"no valid crash plan found for scenario seed {seed}"
    )


def _reliable(seed: int, cfg: ExperimentConfig) -> ExperimentConfig:
    """ACK/retransmit on over a forced *lossy* profile from the
    ``rel-lane:{seed}`` stream: the lane proves that reliability turns
    injected link loss into retransmits rather than write-offs, so
    fault-free draws would be wasted scenarios. A third of the draws also
    bound the downlink queue, keeping the shed accounting under test."""
    rnd = random.Random(f"rel-lane:{seed}")
    faults = FaultProfile(
        deliver_loss=rnd.choice((0.05, 0.1, 0.2)),
        deliver_duplicate=rnd.choice((0.0, 0.0, 0.05)),
        wireless_jitter_ms=rnd.choice((0.0, 0.0, 5.0)),
    )
    return replace(
        cfg,
        faults=faults,
        reliable=True,
        retry_budget=rnd.choice((4, 8)),
        queue_cap=rnd.choice((None, None, 32)),
    )

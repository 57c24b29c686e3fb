"""Scenario space for the conformance fuzzer.

A :class:`Scenario` is one adversarial end-to-end configuration: protocol,
grid size, population, mobility model, topic skew and wireless fault
profile. The whole record derives deterministically from a single integer
via :meth:`Scenario.from_seed` — the fuzzer prints nothing but that seed
on failure, and replaying it reconstructs the identical scenario (and,
because every random stream in the simulator is seed-derived, the
identical run, event for event).

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
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashEvent, CrashPlan
from repro.network.topology import grid_topology
from repro.workload.spec import WorkloadSpec

__all__ = ["Scenario", "PROTOCOLS"]

#: every protocol the repo implements as a reproduction target or baseline
PROTOCOLS: tuple[str, ...] = ("mhh", "sub-unsub", "home-broker", "two-phase")

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
    """One fuzzed configuration; fully determined by ``scenario_seed``."""

    scenario_seed: int
    protocol: str
    grid_k: int
    experiment_seed: int
    clients_per_broker: int
    mobile_fraction: float
    mean_connected_s: float
    mean_disconnected_s: float
    publish_interval_s: float
    duration_s: float
    mobility_model: str
    mobility_params: Mapping[str, Any] = field(default_factory=dict)
    topic_skew: float = 0.0
    faults: FaultProfile = field(default_factory=FaultProfile)
    crashes: CrashPlan = field(default_factory=CrashPlan)
    #: end-to-end ACK/retransmit layer on the downlink (reliability lane)
    reliable: bool = False
    retry_budget: int = 8
    queue_cap: Optional[int] = None
    #: write-ahead log + session handover on (durability lane)
    durable: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_seed(cls, scenario_seed: int) -> "Scenario":
        """Deterministically sample the scenario named by ``scenario_seed``.

        Uses :class:`random.Random` (whose sequence is stable across Python
        versions for the draws used here), so a printed seed reconstructs
        the same scenario on any machine.
        """
        rnd = random.Random(scenario_seed)
        protocol = rnd.choice(PROTOCOLS)
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
        return cls(
            scenario_seed=scenario_seed,
            protocol=protocol,
            grid_k=grid_k,
            experiment_seed=rnd.randrange(2**31),
            clients_per_broker=clients_per_broker,
            mobile_fraction=rnd.choice((0.3, 0.5)),
            mean_connected_s=rnd.choice(_CONN_CHOICES),
            mean_disconnected_s=rnd.choice(_DISC_CHOICES),
            publish_interval_s=rnd.choice(_PUBLISH_CHOICES),
            duration_s=rnd.choice((180.0, 300.0)),
            mobility_model=mobility_model,
            mobility_params=mobility_params,
            topic_skew=rnd.choice(_TOPIC_SKEW_CHOICES),
            faults=faults,
        )

    # ------------------------------------------------------------------
    @classmethod
    def crash_from_seed(
        cls, scenario_seed: int, protocol: Optional[str] = None
    ) -> "Scenario":
        """The crash-lane variant of the scenario named by ``scenario_seed``.

        Builds the base scenario with :meth:`from_seed` (so both lanes share
        one sampling space), then layers a seeded broker-failure schedule on
        top from an *independent* random stream — the base draw order is
        untouched, keeping plain-lane replays byte-identical. Wireless
        faults are disabled in this lane: with perfect links, every loss in
        the run is attributable to the crash model, which is exactly what
        the crash invariants assert.

        ``protocol`` overrides the sampled protocol so the fuzzer can cycle
        all four protocols over any seed range.
        """
        from repro.pubsub.recovery import validate_plan

        base = cls.from_seed(scenario_seed)
        if protocol is not None:
            base = replace(base, protocol=protocol)
        # Independent, stable stream (str seeding hashes with SHA-512, so
        # the sequence is identical across platforms and Python builds).
        rnd = random.Random(f"crash-lane:{scenario_seed}")
        topo = grid_topology(base.grid_k)
        n = topo.n
        duration_ms = base.duration_s * 1000.0
        edges = [(u, v) for u, v, _w in topo.edges()]
        shapes = (
            "crash",
            "crash",
            "crash+restart",
            "partition",
            "crash+partition",
        )
        for _attempt in range(100):
            shape = rnd.choice(shapes)
            # All failures land in the first ~60% of the measurement
            # window and every repair completes by ~80%, so the surviving
            # overlay carries live post-repair traffic before the drain.
            t1 = rnd.uniform(0.2, 0.55) * duration_ms
            events: list[CrashEvent] = []
            if shape in ("crash", "crash+restart", "crash+partition"):
                events.append(
                    CrashEvent("crash", time_ms=t1, broker=rnd.randrange(n))
                )
                if shape == "crash+restart":
                    t2 = min(
                        t1 + rnd.uniform(10.0, 60.0) * 1000.0,
                        0.8 * duration_ms,
                    )
                    events.append(
                        CrashEvent(
                            "restart", time_ms=t2, broker=events[0].broker
                        )
                    )
            if shape in ("partition", "crash+partition"):
                t_cut = t1 if shape == "partition" else rnd.uniform(
                    0.2, 0.55
                ) * duration_ms
                events.append(
                    CrashEvent(
                        "partition", time_ms=t_cut, edge=rnd.choice(edges)
                    )
                )
            plan = CrashPlan(events=tuple(events))
            try:
                validate_plan(topo, plan)
            except ConfigurationError:
                continue  # e.g. the cut + crash disconnects the survivors
            return replace(base, faults=FaultProfile(), crashes=plan)
        raise ConfigurationError(  # pragma: no cover - 100 draws on a grid
            f"no valid crash plan found for scenario seed {scenario_seed}"
        )

    # ------------------------------------------------------------------
    @classmethod
    def reliability_from_seed(
        cls,
        scenario_seed: int,
        protocol: Optional[str] = None,
        crash: bool = False,
    ) -> "Scenario":
        """The reliability-lane variant of the scenario named by the seed.

        Builds the base scenario (crash variant when ``crash`` is set, so
        the lane composes with seeded broker failures), then switches the
        end-to-end ACK/retransmit layer on and forces a *lossy* wireless
        profile from an independent random stream — the lane exists to
        prove that reliability turns injected link loss into retransmits
        rather than write-offs, so fault-free draws would be wasted
        scenarios. As with the crash lane, the base draw order is
        untouched: plain-lane replays of the same seed stay byte-identical.

        A third of the draws additionally bound the downlink queue, so the
        shed-accounting path (bulkhead overflow reconciled as ``shed``,
        never silently missing) stays under randomized test too.
        """
        if crash:
            base = cls.crash_from_seed(scenario_seed, protocol)
        else:
            base = cls.from_seed(scenario_seed)
            if protocol is not None:
                base = replace(base, protocol=protocol)
        rnd = random.Random(f"rel-lane:{scenario_seed}")
        faults = FaultProfile(
            deliver_loss=rnd.choice((0.05, 0.1, 0.2)),
            deliver_duplicate=rnd.choice((0.0, 0.0, 0.05)),
            wireless_jitter_ms=rnd.choice((0.0, 0.0, 5.0)),
        )
        return replace(
            base,
            faults=faults,
            reliable=True,
            retry_budget=rnd.choice((4, 8)),
            queue_cap=rnd.choice((None, None, 32)),
        )

    # ------------------------------------------------------------------
    @classmethod
    def durable_from_seed(
        cls,
        scenario_seed: int,
        protocol: Optional[str] = None,
    ) -> "Scenario":
        """The durability-lane variant: reliable + crashes + WAL.

        Reuses the reliability lane's crash-composed draw (identical fault
        and budget streams, so a durable failure replays against the same
        adversarial shape as its reliable sibling) and switches the
        write-ahead log on. The queue cap is dropped: the zero-write-off
        contract is about machine failures — bounded-queue shedding is a
        deliberate overload *policy*, and the durable retry path never
        creates breakers or sheds in the first place.
        """
        base = cls.reliability_from_seed(scenario_seed, protocol, crash=True)
        return replace(base, durable=True, queue_cap=None)

    # ------------------------------------------------------------------
    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            clients_per_broker=self.clients_per_broker,
            mobile_fraction=self.mobile_fraction,
            mean_connected_s=self.mean_connected_s,
            mean_disconnected_s=self.mean_disconnected_s,
            publish_interval_s=self.publish_interval_s,
            duration_s=self.duration_s,
            mobility_model=self.mobility_model,
            mobility_params=dict(self.mobility_params),
            topic_skew=self.topic_skew,
        )

    def config(self) -> ExperimentConfig:
        """The runnable :class:`ExperimentConfig`."""
        return ExperimentConfig(
            protocol=self.protocol,
            grid_k=self.grid_k,
            seed=self.experiment_seed,
            workload=self.workload(),
            faults=self.faults if self.faults.active else None,
            crashes=self.crashes if self.crashes.active else None,
            reliable=self.reliable,
            retry_budget=self.retry_budget,
            queue_cap=self.queue_cap,
            durable=self.durable,
        )

    def label(self) -> str:
        crash_tag = (
            f" [{self.crashes.label()}]" if self.crashes.active else ""
        )
        rel_tag = ""
        if self.reliable:
            rel_tag = f" rel(budget={self.retry_budget})"
        if self.queue_cap is not None:
            rel_tag += f" cap={self.queue_cap}"
        if self.durable:
            rel_tag += " dur"
        return (
            f"seed={self.scenario_seed} {self.protocol} k={self.grid_k} "
            f"cpb={self.clients_per_broker} mob={self.mobility_model} "
            f"skew={self.topic_skew:g} conn={self.mean_connected_s:g}s "
            f"disc={self.mean_disconnected_s:g}s [{self.faults.label()}]"
            f"{crash_tag}{rel_tag}"
        )

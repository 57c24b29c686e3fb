"""The five workloads, and the diagnostic variants built from them.

Every workload is one ``ExperimentConfig`` made from the seed alone; the
program under test sees only that config. ``why`` is the reason the
workload exists (the layer it loads and the one it leaves idle) — the same
text ``BENCHMARK.json`` records.

What ``--seed`` generates is the **movement trace**: where every client
reconnects, each time it reconnects (``mobility_model="trace"``). The
program's own seed (``ExperimentConfig.seed``: overlay tree, subscriptions,
publish and connect/disconnect timing, fault draws) is part of the
workload's definition and stays at :data:`SYSTEM_SEED`. Feeding ``--seed``
into it instead redraws the tree and the subscriptions, a handful of draws
that do not average out within a run: over ten seeds ``run_wall_s`` then
spreads by 17 % and ``handoff_delay_ms_p95`` by 33 % (interquartile range
over median), which no bound could tell from a regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, Optional

from repro.experiments.config import ExperimentConfig
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.workload.spec import WorkloadSpec

__all__ = ["Workload", "WORKLOADS", "BUNDLES", "LAYERS", "build_config"]

#: the program's own seed, the same in every run (see the module docstring)
SYSTEM_SEED = 1
#: floors below which a percentile is not worth reporting (full-size runs)
MIN_HANDOFF_DELAY_SAMPLES = 200
MIN_DELIVERY_LATENCY_SAMPLES = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sim" = discrete-event driver in-process; "socket" = coordinator plus
    #: two node processes over loopback TCP
    driver: str
    #: the throughput metric an optimisation of this workload's hot layer
    #: should move
    headline: str
    why: str
    make: Callable[[int], ExperimentConfig]
    #: simulated seconds of the ``--quick`` variant (under 1 s of host time)
    quick_duration_s: float


def _spec(seed: int, grid_k: int, clients_per_broker: int, moves: int,
          **kwargs: Any) -> WorkloadSpec:
    """A ``WorkloadSpec`` whose movement trace is drawn from ``seed``:
    ``moves`` reconnect destinations per client, about twice what its
    busiest mover makes in the run (a trace that runs out cycles)."""
    rng = random.Random(seed)
    brokers = grid_k * grid_k
    trace = {
        client: tuple(rng.randrange(brokers) for _ in range(moves))
        for client in range(brokers * clients_per_broker)
    }
    return WorkloadSpec(
        clients_per_broker=clients_per_broker, mobility_model="trace",
        mobility_params={"trace": trace}, **kwargs,
    )


def _churn_spec(seed: int) -> WorkloadSpec:
    # shared by churn_mhh and churn_subunsub so the two protocols are
    # compared on identical inputs (the paper's Fig 5 high-mobility edge)
    return _spec(
        seed, 7, 5, moves=512, mobile_fraction=0.2,
        mean_connected_s=1.0, mean_disconnected_s=1.0,
        publish_interval_s=60.0, duration_s=600.0,
    )


def _fanout_steady(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        "mhh", grid_k=7, seed=SYSTEM_SEED,
        workload=_spec(
            seed, 7, 5, moves=32, mobile_fraction=0.2,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=1.0, duration_s=100.0,
        ),
    )


def _churn_mhh(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        "mhh", grid_k=7, seed=SYSTEM_SEED, workload=_churn_spec(seed))


def _churn_subunsub(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        "sub-unsub", grid_k=7, seed=SYSTEM_SEED, covering_enabled=True,
        workload=_churn_spec(seed),
    )


def _lossy_durable(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        "mhh", grid_k=5, seed=SYSTEM_SEED,
        workload=_spec(
            seed, 5, 4, moves=128, mobile_fraction=0.5,
            mean_connected_s=10.0, mean_disconnected_s=5.0,
            publish_interval_s=2.0, duration_s=560.0,
        ),
        # 3 % and not more: at 10 % the 95th percentile of handoff delay
        # sits in the thin one-retransmission tail and spreads by 16 % over
        # ten seeds. A frame exhausts its 8 retries once in 1e12 sends, so
        # no seed ends with a shed (failed) delivery.
        faults=FaultProfile(deliver_loss=0.03),
        reliable=True, durable=True,
    )


def _wire_socket(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        "mhh", grid_k=4, seed=SYSTEM_SEED,
        workload=_spec(
            seed, 4, 4, moves=64, mobile_fraction=0.5,
            mean_connected_s=3.5, mean_disconnected_s=2.0,
            publish_interval_s=5.0, duration_s=70.0,
            # above the paper's 6.25 %: enough deliveries for a p99 without
            # more dispatches (a delivery is an effect, not a dispatch)
            match_fraction=0.15,
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fanout_steady", "sim", "deliveries_per_s",
            "mhh k=7, 245 clients publishing every 1 s, few handoffs: "
            "matching, scheduler, broker and links do the work; filter "
            "tables are read per event and written almost never",
            _fanout_steady, 5.0,
        ),
        Workload(
            "churn_mhh", "sim", "handoffs_per_s",
            "mhh k=7, conn 1 s / disc 1 s, publish every 60 s (Fig 5 "
            "high-mobility edge): the protocol and filter-table writes do "
            "the work; an index that speeds match by costing add loses here",
            _churn_mhh, 12.0,
        ),
        Workload(
            "churn_subunsub", "sim", "handoffs_per_s",
            "sub-unsub with covering on the inputs of churn_mhh: "
            "subscribe/unsubscribe floods and covering-aware withdrawals; "
            "the only workload where pubsub/covering.py works",
            _churn_subunsub, 10.0,
        ),
        Workload(
            "lossy_durable", "sim", "deliveries_per_s",
            "mhh k=5, 3% downlink loss, reliable + durable (memory WAL): "
            "the opt-in reliability and WAL layers, absent everywhere else",
            _lossy_durable, 12.0,
        ),
        Workload(
            "wire_socket", "socket", "deliveries_per_s",
            "mhh k=4 with brokers in two node processes over loopback TCP: "
            "codec, framing, node server and socket driver; matching and "
            "the scheduler are noise",
            _wire_socket, 4.0,
        ),
    )
}

#: diagnostic engine bundles (never recorded): overrides of existing public
#: ``ExperimentConfig`` fields only
BUNDLES: dict[str, Mapping[str, Any]] = {
    "default": {},
    "legacy": {
        "sim_engine": "heap", "matching_engine": "scan",
        "covering_index": False,
    },
    "batched": {"event_batching": True},
}

#: diagnostic layer stacks for ``lossy_durable`` (never recorded). ``crash``
#: adds two broker crashes with restarts to the full stack: the recovery
#: layer and WAL replay then work, but the run ends with written-off
#: deliveries on most seeds (README, Known failures), which is why the
#: crash plan is not part of the timed workload.
LAYERS: dict[str, Mapping[str, Any]] = {
    "off": {"reliable": False, "durable": False},
    "reliable": {"reliable": True, "durable": False},
    "durable": {"reliable": True, "durable": True},
    "crash": {
        "reliable": True, "durable": True,
        "crashes": CrashPlan.parse(
            crashes=["4@60", "7@200"], restarts=["4@120", "7@260"]),
    },
}


def build_config(
    name: str,
    seed: int,
    quick: bool = False,
    bundle: str = "default",
    layers: Optional[str] = None,
) -> Optional[ExperimentConfig]:
    """The config of one run, or None when a variant names a config field
    that no longer exists (reported as ``unavailable``, not as a failure)."""
    workload = WORKLOADS[name]
    cfg = workload.make(seed)
    overrides = dict(BUNDLES[bundle])
    if layers is not None:
        overrides.update(LAYERS[layers])
    known = {f.name for f in fields(ExperimentConfig)}
    if not set(overrides) <= known:
        return None
    cfg = replace(cfg, **overrides)
    if quick:
        cfg = cfg.with_workload(duration_s=workload.quick_duration_s)
    return cfg

"""The metrics this benchmark declares: names, units, direction, bounds.

``BENCHMARK.json`` at the repo root lists the same names (the harness test
holds the two in step). *host* metrics carry the sandbox's noise and are
compared by medians within ``bound``; their seconds are calibrated seconds
(see hostspeed.py). *simulated* metrics repeat exactly for a given seed and
commit, and ``compare.py`` compares them exactly; their bounds are for the
benchmark driver, which compares runs of *different* seeds, and are set
from the seed-to-seed spread measured over ten seeds (README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "SIMULATED", "HOST",
           "mid_quantile"]


def mid_quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile as a mid-distribution quantile.

    Simulated delays are mostly whole multiples of the 10 ms hop, so a third
    of the samples can share one value. A plain percentile of such data
    jumps a whole hop when a tie group crosses the rank (150 ms or 170 ms,
    nothing between) and otherwise does not move at all. Here every distinct
    value sits at the middle of its own share of the distribution and the
    percentile is interpolated between those points, so it moves a little
    whenever the distribution does. On data without ties it is the usual
    interpolated percentile. Samples are rounded to a nanosecond of
    simulated time first, so float noise cannot split a tie.
    """
    import numpy as np

    if len(samples) == 0:
        return 0.0
    values, counts = np.unique(
        np.round(np.asarray(samples, dtype=float), 6), return_counts=True)
    mid = (np.cumsum(counts) - counts / 2.0) / counts.sum()
    return float(np.interp(q / 100.0, mid, values))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: "host" (noisy) or "simulated" (exact per seed)
    kind: str = "host"
    #: share of the parent's median by which the metric may worsen
    bound: Optional[float] = None
    note: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25,
           "child-process start to workload ready: interpreter, imports, "
           "build_system (+ node spawn and hello on wire_socket)"),
    Metric("run_wall_s", "s", "lower", "host", 0.20,
           "measurement + drain phases"),
    Metric("deliveries_per_s", "1/s", "higher", "host", 0.20,
           "unique deliveries / run_wall_s"),
    Metric("handoffs_per_s", "1/s", "higher", "host", 0.20,
           "handoffs in the measurement window / run_wall_s"),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.10,
           "ru_maxrss of the run's process (+ its node children)"),
    Metric("overhead_hops_per_handoff", "hops", "lower", "simulated", 0.15,
           "paper Fig 5a/6a: overhead hops / handoffs at the snapshot"),
    Metric("handoff_delay_ms_p50", "sim_ms", "lower", "simulated", 0.25,
           "paper Fig 5b/6b: reconnect to first delivery (mid_quantile)"),
    Metric("handoff_delay_ms_p95", "sim_ms", "lower", "simulated", 0.25,
           "same samples"),
    Metric("delivery_latency_ms_p50", "sim_ms", "lower", "simulated", 0.15,
           "publish to first delivery at the application callback"),
    Metric("delivery_latency_ms_p99", "sim_ms", "lower", "simulated", 0.10,
           "same samples"),
    Metric("delivered_share", "ratio", "higher", "simulated", 0.001,
           "1 - failed_deliveries_share"),
)

SIMULATED = tuple(m.name for m in END_TO_END if m.kind == "simulated")
HOST = tuple(m.name for m in END_TO_END if m.kind == "host")


def _layer(prefix: str, *specs: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", u, b) for n, u, b in specs)


PER_LAYER: tuple[Metric, ...] = (
    *_layer("sim",
            ("events", "count", "lower"),
            ("schedule_calls", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_us_per_event", "us", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("links",
            ("sends", "count", "lower"),
            ("reclaims", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("faults",
            ("drops", "count", "lower"),
            ("dups", "count", "lower")),
    *_layer("broker",
            ("receives", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower"),
            ("fanout_mean", "count", "lower")),
    *_layer("matching",
            ("match_calls", "count", "lower"),
            ("match_s", "s", "lower"),
            ("match_us_per_call", "us", "lower"),
            ("self_share", "ratio", "lower"),
            ("hit_share", "ratio", "higher"),
            ("hits_per_call", "count", "higher"),
            ("table_filters_p50", "count", "lower"),
            ("table_filters_max", "count", "lower"),
            ("batch_size_mean", "count", "higher")),
    *_layer("control",
            ("mutations", "count", "lower"),
            ("mutate_s", "s", "lower"),
            ("mutate_us_per_op", "us", "lower"),
            ("self_share", "ratio", "lower"),
            ("covers_checks", "count", "lower"),
            ("covers_hit_share", "ratio", "higher"),
            ("withdraw_candidates_mean", "count", "lower")),
    *_layer("mobility",
            ("calls", "count", "lower"),
            ("control_msgs", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower"),
            ("self_us_per_handoff", "us", "lower"),
            ("handoff_delay_ms_p99", "sim_ms", "lower")),
    *_layer("workload",
            ("publishes", "count", "higher"),
            ("connects", "count", "higher"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("metrics",
            ("calls", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("reliability",
            ("frames", "count", "lower"),
            ("acks", "count", "lower"),
            ("retransmits", "count", "lower"),
            ("retransmit_share", "ratio", "lower"),
            ("shed", "count", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("wal",
            ("appends", "count", "lower"),
            ("append_us", "us", "lower"),
            ("checkpoints", "count", "lower"),
            ("records_per_checkpoint", "count", "higher"),
            ("replays", "count", "lower"),
            ("replay_s", "s", "lower"),
            ("store_bytes", "bytes", "lower"),
            ("self_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("recovery",
            ("repairs", "count", "lower"),
            ("repair_s", "s", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("wire",
            ("dispatches", "count", "lower"),
            ("frames", "count", "lower"),
            ("bytes_per_delivery", "bytes", "lower"),
            ("encode_s", "s", "lower"),
            ("decode_s", "s", "lower"),
            ("codec_us_per_frame", "us", "lower"),
            ("peer_wait_s", "s", "lower"),
            ("peer_wait_share", "ratio", "lower"),
            ("dispatch_rtt_us_p50", "us", "lower"),
            ("dispatch_rtt_us_p99", "us", "lower"),
            ("resumes", "count", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("mem",
            ("run_growth_mb", "MB", "lower"),
            ("bytes_per_client", "bytes", "lower")),
    *_layer("trace",
            ("overhead_ratio", "ratio", "lower"),
            ("span_cost_us", "us", "lower"),
            ("unattributed_share", "ratio", "lower")),
)

"""Sweep drivers regenerating the paper's figures.

* Figure 5 (a: message overhead per handoff, b: mean handoff delay) —
  100 base stations, mean disconnection period 5 min, mean connection
  period swept over {1, 10, 100, 1000, 10000} s.
* Figure 6 (a: overhead, b: delay) — connection = disconnection = 5 min,
  base stations swept over {25, 49, 100, 144, 196} (k in {5, 7, 10, 12, 14}).

All three protocols of the paper run on the *identical* workload (same
seed-derived random streams for subscriptions, publishing and movement), so
curve differences are protocol effects, not sampling noise.

Measurement windows adapt to the sweep point: at least ~1.2 mobility cycles
(so every mobile client hands off at least about once) and at least the
scale preset's base duration.

Sweeps are embarrassingly parallel — every (protocol, sweep-point) run is
an independent deterministic simulation — so both drivers accept
``workers=N`` to fan the runs out over a multiprocessing pool
(``ExperimentConfig`` and ``ResultRow`` both pickle). Results come back in
the same deterministic order as the serial loop, so downstream series
assembly and seeds are unaffected.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.summary import ResultRow
from repro.workload.spec import WorkloadSpec

__all__ = [
    "CONN_PERIOD_SWEEP_S",
    "GRID_SIZE_SWEEP",
    "PROTOCOLS_UNDER_TEST",
    "run_fig5",
    "run_fig6",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
]

#: Figure 5 x-axis: mean connection period (seconds)
CONN_PERIOD_SWEEP_S: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0, 10_000.0)
#: Figure 6 x-axis: grid side (k^2 base stations: 25 ... 196)
GRID_SIZE_SWEEP: tuple[int, ...] = (5, 7, 10, 12, 14)
#: the protocols the paper compares
PROTOCOLS_UNDER_TEST: tuple[str, ...] = ("mhh", "sub-unsub", "home-broker")


def _duration_s(base_s: float, conn_s: float, disc_s: float) -> float:
    """Measurement window: >= base and >= ~1.2 mobility cycles."""
    return max(base_s, 1.2 * (conn_s + disc_s))


def _checked_overrides(
    overrides: Optional[Mapping[str, Any]], reserved: tuple[str, ...]
) -> dict[str, Any]:
    """Reject overrides of the fields the sweep itself owns (the sweep
    variable and the scale preset) — splatting them through would raise an
    opaque duplicate-kwarg TypeError deep inside WorkloadSpec."""
    out = dict(overrides or {})
    clashes = sorted(set(out) & set(reserved))
    if clashes:
        raise ConfigurationError(
            f"workload_overrides may not override sweep-owned fields "
            f"{clashes}; use the sweep parameters instead"
        )
    return out


def _run_configs(
    cfgs: Sequence[ExperimentConfig], workers: Optional[int]
) -> list[ResultRow]:
    """Run every config, serially or over a worker pool.

    ``pool.map`` preserves input order, so the returned rows line up with
    the serial loop exactly regardless of which worker finished first.
    """
    if workers is not None and workers > 1 and len(cfgs) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(workers, len(cfgs))) as pool:
            return pool.map(run_experiment, cfgs)
    return [run_experiment(cfg) for cfg in cfgs]


def _sweep(
    scale: str,
    protocols: Sequence[str],
    points: Sequence[tuple[int, float]],
    seed: int,
    workers: Optional[int],
    workload_overrides: Optional[Mapping[str, Any]],
    options: Mapping[str, Any],
) -> list[ResultRow]:
    """One run per sweep point and protocol; a point is ``(grid_k, mean
    connection period in s)`` and ``options`` are further
    :class:`ExperimentConfig` fields, validated here — before any run or
    worker starts."""
    preset = SCALES[scale]
    overrides = _checked_overrides(
        workload_overrides,
        ("clients_per_broker", "mean_connected_s", "mean_disconnected_s",
         "duration_s"),
    )
    cfgs = [
        ExperimentConfig(
            protocol=protocol,
            grid_k=k,
            seed=seed,
            workload=WorkloadSpec(
                clients_per_broker=preset["clients_per_broker"],
                mean_connected_s=conn_s,
                mean_disconnected_s=300.0,
                duration_s=_duration_s(preset["duration_s"], conn_s, 300.0),
                **overrides,
            ),
            **options,
        )
        for k, conn_s in points
        for protocol in protocols
    ]
    return _run_configs(cfgs, workers)


# ---------------------------------------------------------------------------
# public sweep entry points
# ---------------------------------------------------------------------------
def run_fig5(
    scale: str = "paper",
    protocols: Sequence[str] = PROTOCOLS_UNDER_TEST,
    conn_periods_s: Optional[Sequence[float]] = None,
    seed: int = 1,
    workers: Optional[int] = None,
    workload_overrides: Optional[Mapping[str, Any]] = None,
    **options: Any,
) -> list[ResultRow]:
    """Both panels of Figure 5 share one sweep; run it once.

    ``workers=N`` fans the (protocol, connection-period) runs out over N
    processes; rows come back in the serial loop's order. ``options``
    (further :class:`ExperimentConfig` fields: ``faults``, ``reliable``,
    ``durable``, ...) and ``workload_overrides`` (extra
    :class:`WorkloadSpec` fields — e.g. a mobility model or topic skew)
    turn the paper sweep into an adversarial variant; both default to the
    paper's exact setup.
    """
    if conn_periods_s is None:
        conn_periods_s = CONN_PERIOD_SWEEP_S
    k = SCALES[scale]["grid_k"]
    return _sweep(
        scale, protocols, [(k, conn_s) for conn_s in conn_periods_s], seed,
        workers, workload_overrides, options,
    )


def run_fig6(
    scale: str = "paper",
    protocols: Sequence[str] = PROTOCOLS_UNDER_TEST,
    grid_sizes: Optional[Sequence[int]] = None,
    seed: int = 1,
    workers: Optional[int] = None,
    workload_overrides: Optional[Mapping[str, Any]] = None,
    **options: Any,
) -> list[ResultRow]:
    """Both panels of Figure 6 share one sweep; run it once.

    ``workers=N`` fans the (protocol, grid-size) runs out over N processes;
    rows come back in the serial loop's order. ``options`` /
    ``workload_overrides`` behave as in :func:`run_fig5`.
    """
    if grid_sizes is None:
        grid_sizes = GRID_SIZE_SWEEP
    return _sweep(
        scale, protocols, [(k, 300.0) for k in grid_sizes], seed,
        workers, workload_overrides, options,
    )


def _series(
    rows: list[ResultRow], x_key: str, y_attr: str
) -> dict[str, list[tuple[float, Optional[float]]]]:
    out: dict[str, list[tuple[float, Optional[float]]]] = {}
    for row in rows:
        out.setdefault(row.protocol, []).append(
            (row.params[x_key], getattr(row, y_attr))
        )
    for series in out.values():
        series.sort()
    return out


def fig5a(rows: list[ResultRow]) -> dict[str, list[tuple[float, Optional[float]]]]:
    """Figure 5(a): msg overhead / handoff vs mean connection period."""
    return _series(rows, "conn_s", "overhead_per_handoff")


def fig5b(rows: list[ResultRow]) -> dict[str, list[tuple[float, Optional[float]]]]:
    """Figure 5(b): handoff delay (ms) vs mean connection period."""
    return _series(rows, "conn_s", "mean_handoff_delay_ms")


def fig6a(rows: list[ResultRow]) -> dict[str, list[tuple[float, Optional[float]]]]:
    """Figure 6(a): msg overhead / handoff vs number of base stations."""
    return _series(rows, "brokers", "overhead_per_handoff")


def fig6b(rows: list[ResultRow]) -> dict[str, list[tuple[float, Optional[float]]]]:
    """Figure 6(b): handoff delay (ms) vs number of base stations."""
    return _series(rows, "brokers", "mean_handoff_delay_ms")

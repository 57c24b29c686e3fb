"""Microbenchmark: control-plane churn — the cost of *changing* routing state.

Mobility protocols edit filter tables on every handoff, so at short
connection periods (the left edge of Figure 5a) the simulator's wall time
is dominated by routing-state *mutation*, not event matching. Three
measurements track that cost:

* **interval churn** — subscribe/unsubscribe churn against one
  :class:`~repro.pubsub.interval_index.IntervalIndex` at 2 000 installed
  filters: each op removes a filter, installs a replacement, and runs the
  stab + containment queries a propagation step performs (bisect
  insert/delete + repair of the one prefix-max array).
* **withdraw-with-covering** — a real broker network (sub-unsub baseline,
  covering-pruned propagation) with 2 000 subscriptions rooted at one
  broker, churned by unsubscribe/resubscribe cycles whose floods the
  neighbours process too (``advertised_covers`` is a containment query
  and ``Broker._withdraw``'s covered-candidate enumeration a
  contained-keys query on each filter set's own interval index; the
  2 000 client entries are one such set, so this is also the guard
  against enumerating them by scan). The scan the indexes replaced is a
  tests-only reference now (``tests/covering_scan.py``); whether they pay
  end to end is ``python3 -m benchmarks.e2e``'s ``churn_subunsub``
  workload.
* **fig5a conn=1s** — wall time of the churn-heaviest Figure 5 sweep point,
  the end-to-end number the two micro-measurements serve.
"""

from __future__ import annotations

import random
import time

from repro.experiments.config import bench_scale
from repro.experiments.figures import run_fig5
from repro.pubsub.filters import RangeFilter
from repro.pubsub.interval_index import IntervalIndex
from repro.pubsub.system import PubSubSystem

N_FILTERS = 2_000
N_CHURN_OPS = 2_000
#: withdraw bench: unsubscribe/resubscribe cycles driven through the broker
N_WITHDRAW_OPS = 150


# ---------------------------------------------------------------------------
# interval-index churn (the per-structure cost)
# ---------------------------------------------------------------------------
def build_index(n: int = N_FILTERS) -> IntervalIndex:
    rnd = random.Random(7)
    idx = IntervalIndex()
    for i in range(n):
        lo = rnd.uniform(0.0, 0.999)
        idx.add(i, lo, lo + 2.0 / n)
    idx.stab(0.5)  # build the sorted arrays outside the timed window
    return idx


def churn_index(idx: IntervalIndex, ops: int = N_CHURN_OPS, n: int = N_FILTERS) -> int:
    """One handoff-shaped op: drop a filter, install a replacement, query."""
    rnd = random.Random(13)
    hits = 0
    for j in range(ops):
        key = j % n
        idx.discard(key)
        lo = rnd.uniform(0.0, 0.999)
        idx.add(key, lo, lo + 2.0 / n)
        if idx.stab(rnd.random()):
            hits += 1
        idx.contains_interval(lo, lo + 1.0 / n)
    return hits


# ---------------------------------------------------------------------------
# withdraw-with-covering (the broker-level cost)
# ---------------------------------------------------------------------------
def build_covering_system(n: int = N_FILTERS):
    """A broker network with ``n`` covering-pruned subscriptions rooted at
    the centre broker, flood fully propagated."""
    system = PubSubSystem(
        grid_k=3,
        protocol="sub-unsub",
        seed=5,
        covering_enabled=True,
    )
    broker = system.brokers[4]
    rnd = random.Random(11)
    for i in range(n):
        lo = rnd.uniform(0.0, 0.999)
        broker.local_subscribe(
            10_000 + i, ("s", i), RangeFilter(lo, lo + 2.0 / n),
            "sub", live=True,
        )
    system.sim.run()
    return system, broker


def churn_withdrawals(system, broker, ops: int = N_WITHDRAW_OPS,
                      n: int = N_FILTERS) -> None:
    """Unsubscribe/resubscribe cycles: every op withdraws one subscription
    (covering re-advertisement search at this broker and every broker the
    flood reaches) and installs a replacement."""
    rnd = random.Random(17)
    for j in range(ops):
        i = j % n
        broker.local_unsubscribe_key(("s", i), "unsub")
        lo = rnd.uniform(0.0, 0.999)
        broker.local_subscribe(
            10_000 + i, ("s", i), RangeFilter(lo, lo + 2.0 / n),
            "sub", live=True,
        )
        system.sim.run()


# ---------------------------------------------------------------------------
# end to end: the churn-heaviest figure point
# ---------------------------------------------------------------------------
def measure_fig5a_conn1(scale: str | None = None) -> dict[str, float]:
    """Wall time of the Figure 5 sweep's conn=1s point (max handoff churn)."""
    t0 = time.perf_counter()
    rows = run_fig5(scale=scale or bench_scale(), conn_periods_s=(1.0,), seed=1)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "runs": float(len(rows)),
        "sim_events": float(sum(r.sim_events for r in rows)),
    }


# ---------------------------------------------------------------------------
# tracked benchmarks
# ---------------------------------------------------------------------------
def test_bench_interval_churn_incremental(benchmark):
    idx = build_index()
    hits = benchmark(churn_index, idx)
    benchmark.extra_info["hits"] = hits


def test_bench_withdraw_covering_indexed(benchmark):
    system, broker = build_covering_system()
    benchmark.pedantic(
        churn_withdrawals, args=(system, broker, 50),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_bench_fig5a_conn1(benchmark):
    m = benchmark.pedantic(
        measure_fig5a_conn1, rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["sim_events"] = m["sim_events"]

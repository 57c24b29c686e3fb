"""The end-to-end reliability layer: ACK/retransmit, breakers, shedding.

Property tests for the PR's headline guarantees:

* **Backoff determinism** — the retry schedule (every retransmit's firing
  time, link, sequence number, attempt count and trigger) derives solely
  from the seed, so the same config replays an identical ``retransmit``
  trace run-over-run *and across drivers*
  (discrete-event simulator vs the live driver's VirtualClock).
* **Loss recovery** — under seeded partial loss every injected drop is
  retransmitted away: ``lost == 0``, ``missing == 0``, the recovered
  ledger reconciles the drops.
* **Circuit breaker** — the closed/open/half-open state machine, probe
  accounting and trip counting, exercised exhaustively at the unit level
  and end-to-end under total loss (retry exhaustion -> shed write-offs).
* **Bounded queues** — a capped downlink sheds data explicitly but the
  retransmit window redelivers it, and control traffic never sheds, so
  the run still reconciles exactly.
* **App-level dedup** — the client hands each (publisher, seq) event to
  the application callback at most once even when the link duplicates or
  the broker retransmits, while the metrics layer keeps counting the raw
  duplicate deliveries.
"""

from __future__ import annotations

import pytest

from repro.conformance.fuzzer import run_scenario
from repro.conformance.scenarios import Scenario
from repro.drivers.live import run_virtual_scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, drain_to_quiescence
from repro.network.faults import FaultProfile
from repro.pubsub.filters import RangeFilter
from repro.pubsub.reliability import CircuitBreaker
from repro.pubsub.system import PubSubSystem
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(
    clients_per_broker=3,
    mobile_fraction=0.5,
    mean_connected_s=10.0,
    mean_disconnected_s=5.0,
    publish_interval_s=15.0,
    duration_s=120.0,
)

LOSSY = FaultProfile(deliver_loss=0.2, deliver_duplicate=0.05)


def _rel_cfg(protocol="mhh", seed=7, **kw):
    return ExperimentConfig(
        protocol=protocol, grid_k=3, seed=seed, workload=SPEC,
        faults=LOSSY, reliable=True, trace=["retransmit"], **kw,
    )


def _run_simulated(cfg):
    system, workload = build_system(cfg)
    system.metrics.delivery.record_log = True
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)
    return system


def _outcome(system):
    st = system.metrics.delivery.stats
    return (
        st.published, st.expected, st.delivered, st.duplicates,
        st.order_violations, st.lost_explicit, st.missing, st.recovered,
        st.shed, tuple(system.metrics.delivery.log),
    )


# ---------------------------------------------------------------------------
# backoff determinism (the retry schedule is a pure function of the seed)
# ---------------------------------------------------------------------------
def _retransmits(system):
    return system.tracer.select("retransmit")


def test_retry_schedule_replays_identically():
    a = _run_simulated(_rel_cfg())
    b = _run_simulated(_rel_cfg())
    assert _retransmits(a), "lossy run produced no retransmits"
    assert _retransmits(a) == _retransmits(b)
    assert _outcome(a) == _outcome(b)


@pytest.mark.parametrize("protocol", ["mhh", "sub-unsub"])
def test_retry_schedule_identical_across_drivers(protocol):
    """Same seed => same retransmit schedule (times, links, seqs, attempt
    counts, triggers) under the simulator and the live VirtualClock driver
    — the backoff jitter draws ride a dedicated seeded stream through the
    sans-IO clock facade, so neither driver perturbs the other's order."""
    cfg = _rel_cfg(protocol=protocol)
    sim = _run_simulated(cfg)
    live = run_virtual_scenario(cfg)
    assert _retransmits(sim), "lossy run produced no retransmits"
    assert _retransmits(sim) == _retransmits(live)
    assert _outcome(sim) == _outcome(live)


def test_retry_schedules_diverge_across_seeds():
    a = _run_simulated(_rel_cfg(seed=7))
    b = _run_simulated(_rel_cfg(seed=8))
    assert _retransmits(a) != _retransmits(b)


# ---------------------------------------------------------------------------
# loss recovery end-to-end
# ---------------------------------------------------------------------------
def test_partial_loss_fully_recovered():
    system = _run_simulated(_rel_cfg())
    st = system.metrics.delivery.stats
    assert system.fault_injector.drops > 0
    assert st.lost_explicit == 0
    assert st.missing == 0
    assert st.shed == 0
    assert st.recovered > 0
    assert st.recovered <= system.fault_injector.drops
    assert system.metrics.traffic.total_retransmits() > 0


def rel_system(seed=3, retry_budget=8, queue_cap=None, **fault_kw):
    system = PubSubSystem(
        grid_k=2, protocol="mhh", seed=seed,
        faults=FaultProfile(**fault_kw) if fault_kw else None,
        reliable=True, retry_budget=retry_budget, queue_cap=queue_cap,
    )
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=3)
    sub.connect(0)
    pub.connect(3)
    system.run(until=500.0)
    return system, sub, pub


def test_total_loss_exhausts_budget_and_sheds():
    """Under 100% loss no retry can succeed: the budget runs dry, the
    window is written off as shed (never silently missing, never counted
    as a link loss — the ledger knows the layer gave up)."""
    system, sub, pub = rel_system(retry_budget=2, deliver_loss=1.0)
    pub.publish(topic=0.5)
    system.run()
    system.metrics.delivery.finalize_accounting()
    st = system.metrics.delivery.stats
    assert st.expected == 1
    assert st.delivered == 0
    assert st.lost_explicit == 0
    assert st.shed == 1
    assert st.missing == 0
    assert system.metrics.traffic.total_shed() >= 1
    assert system.metrics.traffic.total_retransmits() == 2


@pytest.mark.parametrize("seed, protocol", [
    (139, "sub-unsub"), (234, "mhh"), (234, "sub-unsub"),
])
def test_retry_exhaustion_on_an_attached_link_is_a_permitted_shed(
    seed, protocol
):
    """At 20 % loss with a retry budget of 4, a head frame can miss all
    five tries (here on a link whose client stayed attached): its window
    is shed by the documented budget policy, which the rel lane permits."""
    cfg = Scenario.from_seed(seed, "rel", protocol).config
    assert (cfg.retry_budget, cfg.queue_cap) == (4, None)
    row = run_scenario(cfg)
    assert row.violations == []
    assert row.shed > 0 and row.lost == 0 and row.missing == 0
    assert set(row.shed_by_cause) == {"retry_exhausted"}


def test_breaker_trips_after_consecutive_exhaustions_end_to_end():
    system, sub, pub = rel_system(retry_budget=1, deliver_loss=1.0)
    # each publish round exhausts its one-retry window before the next
    # starts: three consecutive exhaustions on the (0, sub) link
    for _ in range(3):
        pub.publish(topic=0.5)
        system.run()
    breaker = system.reliability.breaker_for(0, sub.id)
    assert breaker.state == "open"
    # the (0, sub) link is the only one that can exhaust, so the meter's
    # run total is that breaker's trip count
    assert system.metrics.traffic.breaker_trips == 1
    # while open, new sends shed immediately instead of arming timers
    pub.publish(topic=0.5)
    system.run()
    # sub is the only recipient, so every shed is on its link
    assert system.metrics.traffic.shed_by_cause()["breaker"] >= 1
    system.metrics.delivery.finalize_accounting()
    st = system.metrics.delivery.stats
    assert st.expected == 4
    assert st.shed == 4
    assert st.missing == 0
    assert st.lost_explicit == 0


# ---------------------------------------------------------------------------
# circuit breaker unit state machine
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        br = CircuitBreaker(threshold=3, cooloff_ms=100.0)
        # neither exhaust trips it (each returns False)
        assert not br.on_exhaust(now=0.0)
        assert not br.on_exhaust(now=1.0)
        assert br.state == "closed"
        assert br.allows(now=2.0)

    def test_trips_at_threshold_and_blocks_until_cooloff(self):
        br = CircuitBreaker(threshold=2, cooloff_ms=100.0)
        # exactly one trip: the second exhaust returns True
        assert not br.on_exhaust(now=0.0)
        assert br.on_exhaust(now=10.0)
        assert br.state == "open"
        assert not br.allows(now=50.0)
        assert not br.allows(now=109.9)
        # cooloff elapsed: lazily transitions to half-open, one probe only
        assert br.allows(now=110.0)
        assert br.state == "half_open"
        br.on_probe_sent()
        assert not br.allows(now=111.0)

    def test_progress_resets_failures_and_closes(self):
        br = CircuitBreaker(threshold=2, cooloff_ms=100.0)
        br.on_exhaust(now=0.0)
        br.on_progress()
        assert br.failures == 0
        # the consecutive-failure count restarted: one more exhaust is
        # below threshold again
        assert not br.on_exhaust(now=1.0)
        assert br.state == "closed"

    def test_acked_probe_closes_the_breaker(self):
        br = CircuitBreaker(threshold=1, cooloff_ms=100.0)
        assert br.on_exhaust(now=0.0)
        assert br.allows(now=200.0)
        br.on_probe_sent()
        br.on_progress()
        assert br.state == "closed"
        assert not br.probe_inflight
        assert br.allows(now=201.0)

    def test_exhausted_probe_reopens_immediately(self):
        br = CircuitBreaker(threshold=3, cooloff_ms=100.0)
        tripped = [br.on_exhaust(now=t) for t in (0.0, 1.0, 2.0)]
        assert tripped == [False, False, True]
        assert br.state == "open"
        assert br.allows(now=200.0)  # half-open
        br.on_probe_sent()
        # a half-open exhaust reopens regardless of the threshold count
        assert br.on_exhaust(now=201.0)
        assert br.state == "open"
        assert br.open_until == 301.0

    def test_link_retirement_unwedges_a_lost_probe(self):
        br = CircuitBreaker(threshold=1, cooloff_ms=100.0)
        br.on_exhaust(now=0.0)
        assert br.allows(now=200.0)
        br.on_probe_sent()
        assert not br.allows(now=201.0)
        # the probe's link was reclaimed (client detached): without this
        # hook no ack can ever arrive and the breaker would wedge
        br.on_link_retired()
        assert br.allows(now=202.0)


# ---------------------------------------------------------------------------
# bounded queues (bulkhead) under reliability
# ---------------------------------------------------------------------------
def test_capped_queue_sheds_but_retransmission_redelivers():
    system, sub, pub = rel_system(queue_cap=1)
    # build a backlog while away: the reconnect flushes it downlink
    # back-to-back, far past the cap within one service window
    sub.disconnect()
    for _ in range(8):
        pub.publish(topic=0.5)
        system.run(until=system.sim.now + 100.0)
    sub.connect(0)
    system.run()
    system.metrics.delivery.finalize_accounting()
    st = system.metrics.delivery.stats
    meter = system.metrics.traffic
    # the bulkhead fired on the burst (sub is the only recipient, so
    # every shed is on its link)...
    assert meter.shed_by_cause()["queue_cap"] > 0
    # ...but every shed frame was still covered by the retransmit window,
    # so nothing is written off and the run reconciles exactly
    assert st.expected == 8
    assert st.shed == 0
    assert st.lost_explicit == 0
    assert st.missing == 0
    assert meter.total_retransmits() > 0


def test_queue_cap_without_reliability_writes_sheds_off():
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=3, queue_cap=1)
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0, mobile=True)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=3)
    sub.connect(0)
    pub.connect(3)
    system.run(until=500.0)
    sub.disconnect()
    for _ in range(8):
        pub.publish(topic=0.5)
        system.run(until=system.sim.now + 100.0)
    sub.connect(0)  # the reconnect flush overruns the cap
    system.run()
    system.metrics.delivery.finalize_accounting()
    st = system.metrics.delivery.stats
    assert st.expected == 8
    assert st.shed > 0
    assert st.delivered == 8 - st.shed
    assert st.missing == 0
    # control traffic was never shed: the protocol stayed live enough to
    # deliver everything that survived the bulkhead
    assert set(system.metrics.traffic.shed_by_cause()) == {"queue_cap"}


# ---------------------------------------------------------------------------
# client-side app callback dedup
# ---------------------------------------------------------------------------
def _collect(client):
    seen = []
    client.on_event = seen.append
    return seen


@pytest.mark.parametrize("reliable", [False, True])
def test_app_callback_sees_each_event_once_despite_link_duplicates(reliable):
    system = PubSubSystem(
        grid_k=2, protocol="mhh", seed=3,
        faults=FaultProfile(deliver_duplicate=1.0), reliable=reliable,
    )
    sub = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    pub = system.add_client(RangeFilter(0.9, 0.9), broker=3)
    sub.connect(0)
    pub.connect(3)
    system.run(until=500.0)
    seen = _collect(sub)
    for _ in range(4):
        pub.publish(topic=0.5)
        system.run(until=system.sim.now + 500.0)
    system.run()
    st = system.metrics.delivery.stats
    keys = [(e.publisher, e.seq) for e in seen]
    assert len(keys) == len(set(keys)) == 4
    if not reliable:
        # the metrics layer still audits the raw duplicate deliveries the
        # app never saw (under reliability the rx window may absorb some
        # injected copies before they reach the meter, so no exact count)
        assert st.duplicates == 4


# ---------------------------------------------------------------------------
# default-off construction
# ---------------------------------------------------------------------------
def test_default_system_builds_no_reliability_machinery():
    system = PubSubSystem(grid_k=2, protocol="mhh", seed=1)
    assert system.reliability is None
    assert system.queue_cap is None
    assert system.metrics.traffic.total_retransmits() == 0


def test_config_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, protocol="mhh", seed=1, reliable=True,
                     retry_budget=0)
    with pytest.raises(ConfigurationError):
        PubSubSystem(grid_k=2, protocol="mhh", seed=1, queue_cap=0)

"""Per-layer metrics of one traced run.

Times come from the span tracer; counts the system already keeps
(``events_processed``, fault drops, WAL appends, ``WireStats`` ...) are read
from it after the run instead of being counted a second time. A layer the
configuration leaves out reads 0 everywhere.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from benchmarks.e2e.metrics import PER_LAYER, mid_quantile
from benchmarks.e2e.trace import UNATTRIBUTED, SpanCost, Tracer

__all__ = ["layer_metrics", "PARENT_SIDE"]

#: per-layer metrics the parent process fills in (see layer_metrics)
PARENT_SIDE = ("mem.run_growth_mb", "mem.bytes_per_client",
               "trace.overhead_ratio")

#: the WAL entry points that append a record (the rest checkpoint or replay)
_WAL_APPEND_PATHS = (
    "DurabilityManager.on_publish", "DurabilityManager.on_deliver",
    "DurabilityManager.on_settled",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    cost: SpanCost,
    system: Any,
    wall_s: float,
    handoffs: int,
    delays: list,
    deliveries: int,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric the traced child can know. ``mem.*`` and
    ``trace.overhead_ratio`` come from the untraced runs and are added by
    the parent."""
    totals = tracer.layer_self_s(cost)
    counts = tracer.counts
    calls = tracer.invocations
    uncovered_s = max(0.0, wall_s - tracer.root_s)
    # shares are of the traced wall net of the tracer's own cost, so that
    # they add up to one whatever the span count
    wall_s = max(wall_s - tracer.span_count() * cost.total_s, 1e-9)

    def self_s(layer: str) -> float:
        return totals.get(layer, 0.0)

    m: dict[str, float] = {}
    for layer in ("sim", "links", "broker", "matching", "control",
                  "mobility", "workload", "metrics", "reliability", "wal",
                  "recovery"):
        m[f"{layer}.self_share"] = _ratio(self_s(layer), wall_s)

    clock = system.sim if system.sim is not None else system.clock
    events = clock.events_processed
    m["sim.events"] = events
    # every scheduling request funnels into exactly one of these
    m["sim.schedule_calls"] = calls(
        "sim", "Simulator.schedule_at", "Simulator.schedule_fifo",
        "_HeapClock.call_later", "_HeapClock.call_later_fifo")
    m["sim.self_s"] = self_s("sim")
    m["sim.self_us_per_event"] = _ratio(self_s("sim") * 1e6, events)

    m["links.sends"] = calls(
        "links", "LinkLayer.broker_to_broker", "LinkLayer.unicast",
        "LinkLayer.broker_to_client", "LinkLayer.client_to_broker")
    m["links.reclaims"] = calls(
        "links", "LinkLayer.cancel_downlink_pending")
    m["links.self_s"] = self_s("links")
    injector = system.fault_injector
    m["faults.drops"] = injector.drops if injector else 0
    m["faults.dups"] = injector.dups_delivered if injector else 0

    m["broker.receives"] = (
        calls("broker", "Broker.receive")
        + counts["matching.batch_events"])
    m["broker.self_s"] = self_s("broker")
    m["broker.fanout_mean"] = _ratio(
        counts["matching.nbr_hits"], counts["matching.events"])

    match_s = self_s("matching")
    m["matching.match_calls"] = counts["matching.calls"]
    m["matching.match_s"] = match_s
    m["matching.match_us_per_call"] = _ratio(
        match_s * 1e6, counts["matching.calls"])
    m["matching.hit_share"] = _ratio(
        counts["matching.calls_with_hit"], counts["matching.calls"])
    m["matching.hits_per_call"] = _ratio(
        counts["matching.nbr_hits"] + counts["matching.entry_hits"],
        counts["matching.calls"])
    sizes = tracer.samples.get("matching.table_filters") or [0]
    m["matching.table_filters_p50"] = float(np.percentile(sizes, 50))
    m["matching.table_filters_max"] = max(sizes)
    m["matching.batch_size_mean"] = _ratio(
        counts["matching.batch_events"], counts["matching.batch_calls"])

    mutations = calls("control")
    m["control.mutations"] = mutations
    m["control.mutate_s"] = self_s("control")
    m["control.mutate_us_per_op"] = _ratio(self_s("control") * 1e6, mutations)
    m["control.covers_checks"] = counts["control.covers_checks"]
    m["control.covers_hit_share"] = _ratio(
        counts["control.covers_hits"], counts["control.covers_checks"])
    m["control.withdraw_candidates_mean"] = _ratio(
        counts["control.withdraw_candidates"], counts["control.withdrawals"])

    m["mobility.calls"] = calls("mobility")
    m["mobility.control_msgs"] = sum(
        st.invocations for (lay, name), st in tracer.stats.items()
        if lay == "mobility" and name.endswith(".on_control"))
    m["mobility.self_s"] = self_s("mobility")
    m["mobility.self_us_per_handoff"] = _ratio(
        self_s("mobility") * 1e6, handoffs)
    m["mobility.handoff_delay_ms_p99"] = mid_quantile(delays, 99)

    m["workload.publishes"] = calls("workload", "Client.publish")
    m["workload.connects"] = calls("workload", "Client.connect")
    m["workload.self_s"] = self_s("workload")

    m["metrics.calls"] = calls("metrics")
    m["metrics.self_s"] = self_s("metrics")

    traffic = system.metrics.traffic
    frames = calls("reliability", "ReliabilityManager.send")
    m["reliability.frames"] = frames
    m["reliability.acks"] = calls(
        "reliability", "ReliabilityManager.on_ack")
    m["reliability.retransmits"] = traffic.total_retransmits()
    m["reliability.retransmit_share"] = _ratio(
        traffic.total_retransmits(), frames)
    m["reliability.shed"] = traffic.total_shed()
    m["reliability.self_s"] = self_s("reliability")

    dur = system.durability
    appends = dur.records_appended if dur else 0
    checkpoints = dur.checkpoints if dur else 0
    replay = tracer.stats.get(("wal", "DurabilityManager.replay_events"))
    m["wal.appends"] = appends
    m["wal.append_us"] = _ratio(
        tracer.fn_self_s("wal", _WAL_APPEND_PATHS, cost) * 1e6, appends)
    m["wal.checkpoints"] = checkpoints
    m["wal.records_per_checkpoint"] = _ratio(appends, checkpoints)
    m["wal.replays"] = replay.invocations if replay else 0
    m["wal.replay_s"] = replay.incl_s if replay else 0.0
    m["wal.store_bytes"] = (
        sum(len(seg) for b in dur.store.brokers()
            for seg in dur.store.segments(b)) if dur else 0)
    m["wal.self_s"] = self_s("wal")

    repair = tracer.stats.get(("recovery", "RecoveryCoordinator._repair"))
    restart = tracer.stats.get(
        ("recovery", "RecoveryCoordinator._apply_restart"))
    m["recovery.repairs"] = system.recovery.repairs if system.recovery else 0
    m["recovery.repair_s"] = sum(
        st.incl_s for st in (repair, restart) if st is not None)

    wire = getattr(system.net, "stats", None)  # WireStats, socket runs only
    wire_s = self_s("wire")
    wait_s = tracer.fn_self_s("wire/wait", ("socket.recv",), cost)
    encode_s = tracer.fn_self_s(
        "wire/codec", ("repro.drivers.socket.encode_control",
                       "repro.drivers.socket.encode_frame"), cost)
    decode_s = tracer.fn_self_s(
        "wire/codec", ("repro.drivers.socket.decode_control",
                       "FrameDecoder.feed"), cost)
    # per dispatch one frame out and one "done" back, one frame per effect,
    # two per query (question and answer)
    wire_frames = (
        2 * wire.dispatches + wire.effects + 2 * wire.queries if wire else 0)
    rtts = tracer.samples.get("wire.dispatch_rtt_s") or [0.0]
    m["wire.dispatches"] = wire.dispatches if wire else 0
    m["wire.frames"] = wire_frames
    m["wire.bytes_per_delivery"] = _ratio(
        wire.bytes_tx + wire.bytes_rx if wire else 0, deliveries)
    m["wire.encode_s"] = encode_s
    m["wire.decode_s"] = decode_s
    m["wire.codec_us_per_frame"] = _ratio(
        (encode_s + decode_s) * 1e6, wire_frames)
    m["wire.peer_wait_s"] = wait_s
    m["wire.peer_wait_share"] = _ratio(wait_s, wall_s)
    m["wire.dispatch_rtt_us_p50"] = float(np.percentile(rtts, 50)) * 1e6
    m["wire.dispatch_rtt_us_p99"] = float(np.percentile(rtts, 99)) * 1e6
    m["wire.resumes"] = wire.resumes if wire else 0
    m["wire.self_share"] = _ratio(wire_s, wall_s)

    m["trace.span_cost_us"] = cost.total_s * 1e6
    m["trace.unattributed_share"] = _ratio(
        self_s(UNATTRIBUTED) + uncovered_s, wall_s)

    declared = {metric.name for metric in PER_LAYER} - set(PARENT_SIDE)
    if set(m) != declared:
        raise RuntimeError(
            f"layer metrics out of step with metrics.PER_LAYER: "
            f"{sorted(set(m) ^ declared)}")
    return {name: float(value) for name, value in m.items()}

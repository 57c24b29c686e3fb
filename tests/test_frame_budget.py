"""The frame budgets of the data path and the control path
(docs/ARCHITECTURE.md, "Data path" and "Control path").

One workload at its ``--quick`` size, under ``cProfile``: Python frames
entered per simulated event. The run is deterministic, so the count is
exact for a given interpreter; a pass-through wrapper put back on a hop
goes over the budget, and the failure names the most-entered functions.

* ``fanout_steady`` holds the event hop and the delivery hop: a wrapper
  there costs 0.2-0.8 frames per event.
* ``churn_mhh`` holds the MHH sub-migration hop, its ack and its TQ drain.
  At the ``--quick`` size a hop is 0.09 of the events (0.19 at full size;
  the initial subscription flood is most of a 12 s run), so one frame put
  back on the hop costs 0.09, on the drain's completion 0.08 — and one
  under ``_PeerFilters.add``, which the flood shares, 1.23. Protocol
  timers (``MobilityProtocol.later``, nearly all of them the completions
  of hops that built no TQ) are pushed handle-free, two frames fewer each
  than ``call_later``: 0.16 frames per event fewer. A hop builds its TQ
  only when it captures an event (1 of 1 793 hops at the ``--quick``
  size): the queue it no longer builds, freezes, streams and drops was
  ten frames, 0.80 per event.
* ``churn_subunsub`` holds the sub-unsub control path: the subscribe
  flood, and the unsubscribe hop with its covering-aware withdrawal. An
  unsubscribe is 0.18 of the events at the ``--quick`` size, a withdrawal
  0.22, so a wrapper put back on ``_handle_unsubscribe`` or
  ``covered_candidates`` costs 0.18, one on ``_withdraw`` 0.22.
* ``lossy_durable`` holds the reliable delivery hop, the ack hop and the
  WAL append (ACK/retransmit and WAL on, 3 % downlink loss). A reliable
  frame is 0.13 of the events, so a pass-through wrapper on
  ``ReliabilityManager.send``, ``ReliabilityManager.on_ack`` or
  ``DurabilityManager.on_settled`` costs 0.13.

Frames, not all calls: how many C calls the profiler reports differs
between interpreter versions, how many frames a run enters does not
(give or take the comprehensions 3.12 inlines, none of them per event).
For scale, in all calls per event (frames plus builtins, what
``pstats`` prints as "function calls"), on CPython 3.11:

=========================  ===========  =========
fanout_steady              ``--quick``  full size
=========================  ===========  =========
before the flattening             28.6       28.0
after the flattening              20.1       17.8
now                               18.1       17.6
=========================  ===========  =========

=========================  ===========  =========
churn_mhh                  ``--quick``  full size
=========================  ===========  =========
before the flattening             30.6       32.5
after the flattening              27.1       29.3
after ``Filter.topic_range``      24.8       28.7
before lazy TQs                   22.9       27.1
now                               21.8       24.7
=========================  ===========  =========

and in frames per event, 13.29 -> 12.49 at ``--quick``, 14.53 -> 12.84
at full size, with the same events: a transit hop builds its TQ on its
first capture.

=========================  ===========  =========
churn_subunsub             ``--quick``  full size
=========================  ===========  =========
before the flat arrays            41.3       43.0
after the flat arrays             40.3       41.2
now                               34.8       35.7
=========================  ===========  =========

and in frames per event, 22.87 -> 21.14 at ``--quick``, 23.12 -> 20.72 at
full size: the flat arrays build no probe tuple, and the withdrawal's
candidates no longer include what is already advertised. Then 21.14 ->
14.71 at ``--quick``, 20.71 -> 14.38 at full size: a filter's topic
interval is fixed at construction (``Filter.topic_range``, no
``as_range()`` call and no tuple slice per table write), and the
containment check and the withdrawal candidates are answered on the
sorted arrays in their ``FilterTable`` frame. The setup flood shares
``_PeerFilters.add``, so the other three budgets moved with it: at
``--quick``, ``churn_mhh`` 15.58 -> 13.73, ``fanout_steady`` 10.39 ->
9.65, ``lossy_durable`` 10.20 -> 9.81.

=========================  ===========  =========
lossy_durable              ``--quick``  full size
=========================  ===========  =========
before the flattening             21.43      23.69
after the flattening              20.19      20.17
now                               19.80      20.13
=========================  ===========  =========

and in frames per event, 11.71 -> 10.20 at ``--quick``, 12.31 -> 9.72 at
full size: block-drawn uniforms, handle-free retransmission timers, no
fate or jitter hook where it cannot act, checkpoint images framed when
read, and one frame per hook on the reliable hop and the WAL append.
"""

from __future__ import annotations

import cProfile
import pstats

from benchmarks.e2e.workloads import build_config
from repro.experiments.runner import build_system, drain_to_quiescence

#: measured 9.42 (19.50 before the flattening, 10.39 before
#: ``Filter.topic_range``, 9.66 while every wireless send called the
#: traffic meter); the cheapest wrapper to put back, one on the delivery
#: hop, costs 0.23. The budget came down by the 0.25 the uncounted
#: wireless sends saved
FRAMES_PER_EVENT_BUDGET = 9.55
#: measured 12.49 (18.27 before the flattening, 16.30 before the phase
#: dispatch, 15.58 before ``Filter.topic_range``, 13.48 before handle-free
#: protocol timers, 13.29 before lazy TQs; full size 18.51 -> 16.55 ->
#: 15.83 -> 15.21 -> 14.53 -> 12.84); the cheapest wrapper to put back,
#: one on the drain's completion, costs 0.08. The budget is the measure
#: plus the 0.31 margin it kept before lazy TQs
CONTROL_FRAMES_PER_EVENT_BUDGET = 12.8
#: measured 14.71 (22.87 before the flat arrays and the filtered
#: withdrawal candidates, 21.14 before one frame per covering question);
#: the cheapest wrapper to put back, one on ``_handle_unsubscribe`` or
#: ``covered_candidates``, costs 0.18
WITHDRAW_FRAMES_PER_EVENT_BUDGET = 14.85
#: measured 9.47 (11.71 before the flattening, 10.20 before
#: ``Filter.topic_range``, 9.77 while every wireless send called the
#: traffic meter); the cheapest wrapper to put back, one on ``send``,
#: ``on_ack`` or ``on_settled``, costs 0.13. The budget came down by the
#: 0.29 the uncounted wireless sends and fault copies saved
RELIABLE_FRAMES_PER_EVENT_BUDGET = 9.6


def assert_frames_per_event(workload_name: str, events: int, budget: float):
    """Profile ``workload_name --quick`` through its drain; ``events`` pins
    the run the budget was measured on."""
    cfg = build_config(workload_name, 1, quick=True)
    system, workload = build_system(cfg)
    profile = cProfile.Profile()
    profile.enable()
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    system.metrics.handoffs.discard_open()
    drain_to_quiescence(system, workload, cfg.drain_limit_ms)
    profile.disable()

    assert system.sim.events_processed == events
    frames = {
        f"{name} ({path.rsplit('/', 1)[-1]}:{line})": calls
        for (path, line, name), (_, calls, *_rest)
        in pstats.Stats(profile).stats.items()
        if path != "~"  # "~" is how pstats files a builtin
    }
    per_event = sum(frames.values()) / events
    top = sorted(frames.items(), key=lambda kv: -kv[1])[:10]
    assert per_event <= budget, (
        f"{per_event:.2f} frames per event, budget {budget}; most entered:\n"
        + "\n".join(f"  {calls / events:5.2f}/event  {name}"
                    for name, calls in top)
    )
    return system


def test_fanout_steady_stays_within_its_frame_budget():
    assert_frames_per_event("fanout_steady", 48278, FRAMES_PER_EVENT_BUDGET)


def test_churn_mhh_stays_within_its_control_path_frame_budget():
    system = assert_frames_per_event(
        "churn_mhh", 22387, CONTROL_FRAMES_PER_EVENT_BUDGET)
    assert system.metrics.handoffs.handoff_count == 213


def test_churn_subunsub_stays_within_its_withdrawal_frame_budget():
    system = assert_frames_per_event(
        "churn_subunsub", 12640, WITHDRAW_FRAMES_PER_EVENT_BUDGET)
    assert system.metrics.handoffs.handoff_count == 171


def test_lossy_durable_stays_within_its_reliable_path_frame_budget():
    system = assert_frames_per_event(
        "lossy_durable", 19992, RELIABLE_FRAMES_PER_EVENT_BUDGET)
    assert system.metrics.handoffs.handoff_count == 19

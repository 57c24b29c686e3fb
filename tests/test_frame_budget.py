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
  under ``_PeerFilters.add``, which the flood shares, 1.23.
* ``churn_subunsub`` holds the sub-unsub control path: the subscribe
  flood, and the unsubscribe hop with its covering-aware withdrawal. An
  unsubscribe is 0.18 of the events at the ``--quick`` size, a withdrawal
  0.22, so a wrapper put back on ``_handle_unsubscribe`` or
  ``covered_candidates`` costs 0.18, one on ``_withdraw`` 0.22.

Frames, not all calls: how many C calls the profiler reports differs
between interpreter versions, how many frames a run enters does not
(give or take the comprehensions 3.12 inlines, none of them per event).
For scale, in all calls per event (frames plus builtins, what
``pstats`` prints as "function calls"), on CPython 3.11:

=====================  ===========  =========
fanout_steady          ``--quick``  full size
=====================  ===========  =========
before the flattening         28.6       28.0
now                           20.1       17.8
=====================  ===========  =========

=====================  ===========  =========
churn_mhh              ``--quick``  full size
=====================  ===========  =========
before the flattening         30.6       32.5
now                           27.1       29.3
=====================  ===========  =========

=========================  ===========  =========
churn_subunsub             ``--quick``  full size
=========================  ===========  =========
before the flat arrays            41.3       43.0
now                               40.3       41.2
=========================  ===========  =========

and in frames per event, 22.87 -> 21.14 at ``--quick``, 23.12 -> 20.72 at
full size: the flat arrays build no probe tuple, and the withdrawal's
candidates no longer include what is already advertised.
"""

from __future__ import annotations

import cProfile
import pstats

from benchmarks.e2e.workloads import build_config
from repro.experiments.runner import build_system, drain_to_quiescence

#: measured 11.14 (19.50 before the flattening); the cheapest wrapper to put
#: back, one on the delivery hop, costs 0.23
FRAMES_PER_EVENT_BUDGET = 11.3
#: measured 15.95 (18.27 before the flattening, 16.30 before the phase
#: dispatch; full size 18.51 -> 16.55 -> 15.85); the cheapest wrapper to put
#: back, one on the drain's completion, costs 0.08
CONTROL_FRAMES_PER_EVENT_BUDGET = 16.0
#: measured 21.14 (22.87 before the flat arrays and the filtered
#: withdrawal candidates); the cheapest wrapper to put back, one on
#: ``_handle_unsubscribe`` or ``covered_candidates``, costs 0.18
WITHDRAW_FRAMES_PER_EVENT_BUDGET = 21.25


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

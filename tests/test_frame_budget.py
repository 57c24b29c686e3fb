"""The frame budget of the data path (docs/ARCHITECTURE.md, "Data path").

``fanout_steady`` at its ``--quick`` size, under ``cProfile``: Python
frames entered per simulated event. The run is deterministic, so the count
is exact for a given interpreter; a pass-through wrapper put back on the
event hop or the delivery hop costs 0.2-0.8 frames per event here and goes
over the budget, and the failure names the most-entered functions.

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
"""

from __future__ import annotations

import cProfile
import pstats

from benchmarks.e2e.workloads import build_config
from repro.experiments.runner import build_system, drain_to_quiescence

#: measured 11.14 (19.50 before the flattening); the cheapest wrapper to put
#: back, one on the delivery hop, costs 0.23
FRAMES_PER_EVENT_BUDGET = 11.3


def test_fanout_steady_stays_within_its_frame_budget():
    cfg = build_config("fanout_steady", 1, quick=True)
    system, workload = build_system(cfg)
    profile = cProfile.Profile()
    profile.enable()
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    system.metrics.handoffs.discard_open()
    drain_to_quiescence(system, workload, cfg.drain_limit_ms)
    profile.disable()

    events = system.sim.events_processed
    assert events == 48278  # the workload this budget was measured on
    frames = {
        f"{name} ({path.rsplit('/', 1)[-1]}:{line})": calls
        for (path, line, name), (_, calls, *_rest)
        in pstats.Stats(profile).stats.items()
        if path != "~"  # "~" is how pstats files a builtin
    }
    per_event = sum(frames.values()) / events
    top = sorted(frames.items(), key=lambda kv: -kv[1])[:10]
    assert per_event <= FRAMES_PER_EVENT_BUDGET, (
        f"{per_event:.2f} frames per event, budget "
        f"{FRAMES_PER_EVENT_BUDGET}; most entered:\n"
        + "\n".join(f"  {calls / events:5.2f}/event  {name}"
                    for name, calls in top)
    )

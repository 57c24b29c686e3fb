"""The scan-based compaction rule: the tests-only reference for the log.

:class:`~repro.pubsub.wal.DurabilityManager` keeps, per ingress broker,
the ids of the live events it logged, and finds the cursors an event's
retirement touches with one stab over the sessions that have a range plus
the sessions without one. :class:`ScanDurabilityManager` is the rule
written out by brute force: a map of every live event's home, scanned in
full for the broker being compacted, and every session's range tested
against every event; its repair gather tests every replayed session
against every event. A product manager and this one, fed the same calls,
must write the same checkpoint images and offer the same repair backlog.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.pubsub.events import Notification
from repro.pubsub.wal import DurabilityManager


class ScanDurabilityManager(DurabilityManager):
    """A :class:`DurabilityManager` whose compaction and repair gather
    scan every event and every session."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._event_home: dict[int, int] = {}  # event id -> ingress broker

    def on_publish(self, broker: int, event: Notification) -> None:
        self._event_home[event.event_id] = broker
        super().on_publish(broker, event)

    def checkpoint(self, broker: int) -> None:
        out: List[tuple] = []
        lsn = self._lsn
        sessions = self.sessions.values()
        for eid in sorted(e for e, h in self._event_home.items() if h == broker):
            ev = self.events[eid]
            cursors = [s.acked for s in sessions
                       if s.lo is None or s.lo <= ev.topic <= s.hi]
            if all(eid in acked for acked in cursors):
                del self.events[eid]
                del self._event_home[eid]
                for acked in cursors:
                    acked.remove(eid)
            else:
                lsn += 1
                out.append(("pub", lsn, ev))
        for cid in sorted(self.sessions):
            s = self.sessions[cid]
            if s.anchor != broker:
                continue
            lsn += 1
            out.append(("ses", lsn, cid, s.lo, s.hi, tuple(sorted(s.acked))))
            for eid in s.unacked:
                lsn += 1
                out.append(("dlv", lsn, cid, eid))
        self._lsn = lsn
        self.store.replace_records(broker, out)
        self._since_ckpt[broker] = 0
        self.checkpoints += 1

    def replay_events(self) -> List[Tuple[int, Notification]]:
        state = self.replay()
        events = [state.events[eid] for eid in sorted(state.events)]
        sessions = sorted(state.sessions.items())
        return [(cid, ev) for ev in events + self.dead_letter_events()
                for cid, s in sessions
                if s.lo is not None and s.lo <= ev.topic <= s.hi]

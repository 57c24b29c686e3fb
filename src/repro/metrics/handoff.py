"""Handoff bookkeeping: counts and delays.

"We call the period from a client's reconnection time to the time it
receives the first event as the handoff delay" (paper §5.1). A *handoff* is
a reconnection at a broker different from the last-visited one; same-broker
reconnects are not handoffs (no subscription or queue needs to move).

Reconnection time is the instant the client re-attaches (the wireless
uplink latency to inform the broker is part of the measured delay).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["HandoffLog"]


class HandoffLog:
    """Tracks handoffs and their first-delivery delays.

    One slot per handoff, in reconnect order: its delay, ``None`` until the
    first delivery (and for good, if the client leaves first or the
    measurement window closes). ``_open`` maps a client whose handoff
    still awaits its first delivery to that slot and the reconnect time.
    """

    def __init__(self) -> None:
        self._delays: list[Optional[float]] = []
        # client -> (slot, reconnect time) of its open handoff
        self._open: dict[int, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def on_connect(
        self,
        client: int,
        time: float,
        last_broker: Optional[int],
        new_broker: int,
    ) -> None:
        if last_broker is None:
            return  # first attach, not a handoff
        if last_broker == new_broker:
            self._open.pop(client, None)
            return
        self._open[client] = (len(self._delays), time)
        self._delays.append(None)

    def on_disconnect(self, client: int, time: float) -> None:
        # A handoff whose client leaves before receiving anything never gets
        # a delay sample (there is no "first event" for it).
        self._open.pop(client, None)

    def on_delivery(self, client: int, time: float) -> None:
        opened = self._open.pop(client, None)
        if opened is not None:
            slot, reconnect_time = opened
            self._delays[slot] = time - reconnect_time

    def discard_open(self) -> int:
        """Close the measurement window: forget handoffs still awaiting
        their first delivery, so later (e.g. drain-phase) deliveries cannot
        retroactively fill in delay samples. Returns how many were dropped
        (they stay counted in :attr:`handoff_count`, with no delay).
        """
        n = len(self._open)
        self._open.clear()
        return n

    # ------------------------------------------------------------------
    @property
    def handoff_count(self) -> int:
        return len(self._delays)

    def delays(self) -> list[float]:
        return [d for d in self._delays if d is not None]

    def mean_delay(self) -> Optional[float]:
        """The paper's metric: average over handoffs with a first delivery.

        At reduced scales the mean carries a heavy tail from handoffs whose
        backlog happened to be empty (the client then waits for the next
        matching publication — a workload property, identical across
        protocols under the shared seeds); :meth:`median_delay` isolates
        the protocol component.
        """
        d = self.delays()
        return sum(d) / len(d) if d else None

    def median_delay(self) -> Optional[float]:
        d = sorted(self.delays())
        if not d:
            return None
        mid = len(d) // 2
        if len(d) % 2:
            return d[mid]
        return (d[mid - 1] + d[mid]) / 2.0

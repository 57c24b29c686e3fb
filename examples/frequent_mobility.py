#!/usr/bin/env python
"""Frequent moving and the distributed PQlist (paper §4.3).

A commuter's phone flaps between cells faster than its stored backlog can
be shipped. Under basic handoff thinking the backlog would chase the phone
from broker to broker; MHH instead *stops* interrupted event migrations
(``stop_event_migration``) and leaves the queues where they are, linked
into the distributed PQlist. Only the final, stable reconnection drains
the list — once.

The script traces the stop/relink decisions and compares the event-
migration traffic with MHH minus ``stop_event_migration``, which always
lets migrations run to completion.

Run:  python examples/frequent_mobility.py
"""

from repro import PubSubSystem, RangeFilter
from repro.mobility.mhh import MHHProtocol

CELL_ROUTE = [24, 4, 20, 2, 14]   # cells the phone flaps through
BACKLOG = 50                      # events stored while the phone was off


class MHHWithoutStop(MHHProtocol):
    """MHH that never asks the old anchor to stop: every interrupted
    migration runs to completion, so the backlog chases the phone."""

    def _request_stop(self, broker, client, im) -> None:
        pass


def run(protocol, trace=None):
    system = PubSubSystem(
        grid_k=5, protocol=protocol, seed=3,
        migration_batch_size=1, trace=trace,
    )
    phone = system.add_client(RangeFilter(0.0, 0.6), broker=0, mobile=True)
    feed = system.add_client(RangeFilter(2.0, 2.0), broker=12)
    phone.connect(0)
    feed.connect(12)
    system.run(until=2_000.0)

    # overnight: the phone is off while the feed keeps publishing
    phone.disconnect()
    system.run(until=4_000.0)
    for i in range(BACKLOG):
        feed.publish(topic=0.3)
    system.run(until=10_000.0)

    # morning commute: rapid cell flapping, 80 ms of coverage per cell
    for cell in CELL_ROUTE:
        phone.connect(cell)
        system.run(until=system.sim.now + 80.0)
        phone.disconnect()
        system.run(until=system.sim.now + 60.0)

    # at the office: stable reconnection
    phone.connect(12)
    system.run()
    stats = system.metrics.delivery.stats
    return system, stats


def main() -> None:
    system, stats = run(
        "mhh", trace=["stopped_migration", "migration_complete"]
    )
    stops = system.tracer.select("stopped_migration")
    print(f"backlog size:              {BACKLOG}")
    print(f"cells flapped through:     {len(CELL_ROUTE)}")
    print(f"migrations stopped midway: {len(stops)}")
    for rec in stops:
        print(f"   t={rec.time:8.0f} ms  broker {rec.get('broker')} kept "
              f"{rec.get('kept')} queue(s) in place")
    mhh_hops = system.metrics.traffic.wired_hops.get("event_migration", 0)

    system2, stats2 = run(MHHWithoutStop)
    nopq_hops = system2.metrics.traffic.wired_hops.get("event_migration", 0)

    print(f"\nevent-migration traffic with PQlist:    {mhh_hops} hops")
    print(f"event-migration traffic without PQlist: {nopq_hops} hops")

    for s in (stats, stats2):
        assert s.delivered == s.expected
        assert s.duplicates == 0 and s.order_violations == 0
    assert len(stops) > 0, "expected at least one stopped migration"
    assert nopq_hops > mhh_hops
    print("\nOK: the PQlist kept the backlog parked while the phone "
          "flapped, and nothing was lost either way")


if __name__ == "__main__":
    main()

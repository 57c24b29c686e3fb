"""Unit tests for the link layer: latency, FIFO, accounting, wireless."""

import pytest

from repro.errors import RoutingError
from repro.network.links import LinkLayer
from repro.network.paths import ShortestPaths
from repro.network.topology import grid_topology
from repro.sim.core import Simulator


class Msg:
    category = "test"

    def __init__(self, tag):
        self.tag = tag


def make_links(k=3):
    sim = Simulator()
    topo = grid_topology(k)
    hops_log = []

    def account(category, hops):
        hops_log.append((category, hops))

    links = LinkLayer(sim, topo, ShortestPaths(topo), account=account)
    return sim, links, hops_log


def test_broker_hop_latency_and_accounting():
    sim, links, log = make_links()
    got = []
    links.register_broker(0, lambda m, f: got.append((m.tag, f, sim.now)))
    links.register_broker(1, lambda m, f: got.append((m.tag, f, sim.now)))
    links.broker_to_broker(1, 0, Msg("a"))
    sim.run()
    assert got == [("a", 1, 10.0)]
    assert log == [("test", 1)]


def test_broker_to_broker_requires_adjacency():
    sim, links, _ = make_links()
    links.register_broker(0, lambda m, f: None)
    with pytest.raises(RoutingError):
        links.broker_to_broker(0, 8, Msg("x"))  # corners of 3x3 not adjacent


def test_unicast_latency_is_hops_times_latency():
    sim, links, log = make_links()
    got = []
    links.register_broker(8, lambda m, f: got.append(sim.now))
    links.register_broker(0, lambda m, f: None)
    links.unicast(0, 8, Msg("x"))  # manhattan distance 4
    sim.run()
    assert got == [40.0]
    assert log == [("test", 4)]


def test_unicast_to_self_zero_cost():
    sim, links, log = make_links()
    got = []
    links.register_broker(5, lambda m, f: got.append(sim.now))
    links.unicast(5, 5, Msg("x"))
    sim.run()
    assert got == [0.0]
    assert log == []


def test_link_fifo_order_preserved():
    sim, links, _ = make_links()
    got = []
    links.register_broker(1, lambda m, f: got.append(m.tag))
    links.register_broker(0, lambda m, f: None)
    for i in range(20):
        links.broker_to_broker(0, 1, Msg(i))
    sim.run()
    assert got == list(range(20))


def test_unicast_fifo_between_same_pair():
    sim, links, _ = make_links()
    got = []
    links.register_broker(8, lambda m, f: got.append(m.tag))
    for i in range(10):
        links.unicast(0, 8, Msg(i))
    sim.run()
    assert got == list(range(10))


def test_wireless_downlink_serializes():
    sim, links, _ = make_links()
    got = []
    links.register_client(7, lambda m: got.append((m.tag, sim.now)))
    links.broker_to_client(7, Msg("a"))
    links.broker_to_client(7, Msg("b"))
    links.broker_to_client(7, Msg("c"))
    sim.run()
    assert got == [("a", 20.0), ("b", 40.0), ("c", 60.0)]


def test_wireless_uplink_reaches_broker():
    sim, links, _ = make_links()
    got = []
    links.register_client(3, lambda m: None)
    links.register_broker(4, lambda m, f: got.append((m.tag, f, sim.now)))
    links.client_to_broker(3, 4, Msg("up"))
    sim.run()
    # uplink sender id is encoded as -1 - client_id
    assert got == [("up", -4, 20.0)]


def test_cancel_downlink_pending_returns_queued_not_in_service():
    sim, links, _ = make_links()
    got = []
    links.register_client(2, lambda m: got.append(m.tag))
    links.broker_to_client(2, Msg("a"))
    links.broker_to_client(2, Msg("b"))
    links.broker_to_client(2, Msg("c"))
    sim.run(until=5.0)  # "a" is in service
    reclaimed = links.cancel_downlink_pending(2)
    assert [m.tag for m in reclaimed] == ["b", "c"]
    sim.run()
    assert got == ["a"]  # in-service message completed


def test_downlink_backlog_counts_in_service_and_queued():
    sim, links, _ = make_links()
    links.register_client(2, lambda m: None)
    links.broker_to_client(2, Msg("a"))
    links.broker_to_client(2, Msg("b"))
    sim.run(until=5.0)
    assert links.downlink_backlog(2) == 2
    sim.run(until=25.0)
    assert links.downlink_backlog(2) == 1
    sim.run()
    assert links.downlink_backlog(2) == 0


def test_wireless_channel_resumes_after_idle():
    sim, links, _ = make_links()
    got = []
    links.register_client(2, lambda m: got.append(sim.now))
    links.broker_to_client(2, Msg("a"))
    sim.run()
    assert got == [20.0]
    # channel idle; next send starts fresh
    links.broker_to_client(2, Msg("b"))
    sim.run()
    assert got == [20.0, 40.0]


def test_unknown_broker_raises():
    sim, links, _ = make_links()
    links.unicast(0, 1, Msg("x"))
    with pytest.raises(RoutingError):
        sim.run()


def test_wired_hop_to_an_unregistered_broker_raises_on_arrival():
    sim, links, log = make_links()
    links.broker_to_broker(0, 1, Msg("x"))  # sending is not the error
    assert log == [("test", 1)]
    with pytest.raises(RoutingError, match="no broker registered with id 1"):
        sim.run()


def test_non_adjacent_hop_raises_at_the_send_and_leaves_no_trace():
    sim, links, log = make_links()
    links.register_broker(0, lambda m, f: None)
    links.register_broker(4, lambda m, f: None)
    with pytest.raises(RoutingError, match="not adjacent"):
        links.broker_to_broker(0, 4, Msg("x"))  # a diagonal of the 3x3 grid
    assert log == [] and sim.peek() is None


def test_a_wired_hop_keeps_the_receiver_it_was_sent_to():
    """Registration is construction-time wiring (``PubSubSystem`` and the
    socket driver's proxies register each broker once). What a later
    ``register_broker`` means for hops already on the wire is still defined:
    a hop is scheduled on the receiver registered when it was sent; only
    with none registered then — or with the wire guarded, when every
    arrival has a stale check to pass — is it looked up on arrival."""
    sim, links, _ = make_links()
    got = []
    links.register_broker(1, lambda m, f: got.append(("first", m.tag)))
    links.broker_to_broker(0, 1, Msg("a"))
    links.broker_to_broker(0, 3, Msg("early"))  # nobody at 3 yet
    links.register_broker(1, lambda m, f: got.append(("second", m.tag)))
    links.register_broker(3, lambda m, f: got.append(("late", m.tag)))
    links.broker_to_broker(0, 1, Msg("b"))
    sim.run()
    assert got == [("first", "a"), ("late", "early"), ("second", "b")]

    sim, links, _ = make_links()
    links.guard_wire(lambda m, to, frm: False, lambda: 7,
                     lambda m, to, stamp: stamp != 7)
    got = []
    links.register_broker(1, lambda m, f: got.append(("first", m.tag)))
    links.broker_to_broker(0, 1, Msg("a"))
    links.register_broker(1, lambda m, f: got.append(("second", m.tag)))
    sim.run()
    assert got == [("second", "a")]


def test_wireless_sends_are_not_accounted():
    """Traffic is wired hops only (paper §5.1): neither wireless direction
    reaches the accounting callback."""
    sim, links, log = make_links()
    links.register_broker(0, lambda m, f: None)
    links.register_client(1, lambda m: None)
    links.broker_to_client(1, Msg("d"))
    links.client_to_broker(1, 0, Msg("u"))
    sim.run()
    assert log == []

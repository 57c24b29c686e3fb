"""Unit tests for the broker filter table."""

import pytest

from repro.errors import ProtocolError
from repro.pubsub.events import Notification
from repro.pubsub.filter_table import ClientEntry, FilterTable
from repro.pubsub.filters import RangeFilter


def ev(x):
    return Notification(0, 99, 0, 0.0, x)


@pytest.fixture
def table():
    return FilterTable(broker_id=0, neighbors=[1, 2, 3])


def test_match_neighbors_by_range(table):
    table.add_broker_filter(1, "k1", RangeFilter(0.0, 0.5))
    table.add_broker_filter(2, "k2", RangeFilter(0.6, 0.9))
    assert table.match_neighbors(ev(0.3), exclude=None) == [1]
    assert table.match_neighbors(ev(0.7), exclude=None) == [2]
    assert table.match_neighbors(ev(0.55), exclude=None) == []


def test_match_neighbors_excludes_arrival_direction(table):
    table.add_broker_filter(1, "k1", RangeFilter(0.0, 1.0))
    table.add_broker_filter(2, "k2", RangeFilter(0.0, 1.0))
    assert table.match_neighbors(ev(0.5), exclude=1) == [2]


def test_match_neighbors_one_hit_per_neighbor(table):
    table.add_broker_filter(1, "k1", RangeFilter(0.0, 0.5))
    table.add_broker_filter(1, "k2", RangeFilter(0.2, 0.8))
    assert table.match_neighbors(ev(0.3), exclude=None) == [1]


def test_remove_broker_filter(table):
    table.add_broker_filter(1, "k1", RangeFilter(0.0, 0.5))
    assert table.remove_broker_filter(1, "k1") is True
    assert table.remove_broker_filter(1, "k1") is False
    assert table.match_neighbors(ev(0.3), exclude=None) == []


def test_client_entry_matching_unlabelled(table):
    table.set_client_entry(ClientEntry(7, "c7", RangeFilter(0.0, 0.5)))
    assert [e.client for e in table.match_clients(ev(0.3), from_broker=1)] == [7]
    assert [e.client for e in table.match_clients(ev(0.3), from_broker=None)] == [7]
    assert table.match_clients(ev(0.9), from_broker=1) == []


def test_labelled_entry_only_accepts_from_label(table):
    table.set_client_entry(
        ClientEntry(7, "c7", RangeFilter(0.0, 0.5), label=2)
    )
    assert table.match_clients(ev(0.3), from_broker=1) == []
    assert [e.client for e in table.match_clients(ev(0.3), from_broker=2)] == [7]
    # locally published events never match labelled entries
    assert table.match_clients(ev(0.3), from_broker=None) == []


def test_multiple_entries_per_client(table):
    table.set_client_entry(ClientEntry(7, ("c7", 0), RangeFilter(0.0, 0.5)))
    table.set_client_entry(ClientEntry(7, ("c7", 1), RangeFilter(0.0, 0.5)))
    assert len(table.entries_for_client(7)) == 2
    with pytest.raises(ProtocolError):
        table.get_client_entry(7)
    table.remove_entry_by_key(("c7", 0))
    assert table.get_client_entry(7).key == ("c7", 1)


def test_remove_absent_entry_raises(table):
    with pytest.raises(ProtocolError):
        table.remove_client_entry(7)
    with pytest.raises(ProtocolError):
        table.remove_entry_by_key("nope")


def test_require_client_entry(table):
    with pytest.raises(ProtocolError):
        table.require_client_entry(7)
    table.set_client_entry(ClientEntry(7, "c7", RangeFilter(0.0, 0.5)))
    assert table.require_client_entry(7).client == 7


def test_advertised_bookkeeping(table):
    f = RangeFilter(0.2, 0.4)
    table.advertised_add(1, "k", f)
    assert table.advertised_has(1, "k")
    assert table.advertised_covers(1, RangeFilter(0.25, 0.35))
    assert not table.advertised_covers(1, RangeFilter(0.1, 0.3))
    assert table.advertised_keys(1) == ["k"]
    assert table.advertised_remove(1, "k") is True
    assert not table.advertised_has(1, "k")


def test_broker_filter_get_reconstructs_range(table):
    table.add_broker_filter(1, "k", RangeFilter(0.2, 0.4))
    got = table.broker_filter_get(1, "k")
    assert got == RangeFilter(0.2, 0.4) and got.topic_range == (0.2, 0.4)


def test_snapshots(table):
    table.add_broker_filter(1, "k1", RangeFilter(0.0, 0.5))
    table.advertised_add(2, "k2", RangeFilter(0.0, 0.5))
    assert table.snapshot_broker_filters()[1] == {"k1"}
    assert table.snapshot_advertised()[2] == {"k2"}

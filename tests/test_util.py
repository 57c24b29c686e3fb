"""Unit tests for utility helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.util import (
    IdAllocator,
    QueueRef,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


def peek_streams(ids: IdAllocator) -> list[str]:
    """Names of streams that have allocated at least one id."""
    return sorted(ids._next)


class TestIdAllocator:
    def test_streams_independent(self):
        ids = IdAllocator()
        assert ids.next("a") == 0
        assert ids.next("a") == 1
        assert ids.next("b") == 0
        assert ids.next("a") == 2

    def test_peek_streams(self):
        ids = IdAllocator()
        ids.next("z")
        ids.next("a")
        assert peek_streams(ids) == ["a", "z"]


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -0.1)

    def test_check_probability(self):
        assert check_probability("x", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("x", 1.01)

    def test_check_in_range(self):
        assert check_in_range("x", 3, 1, 5) == 3
        with pytest.raises(ConfigurationError):
            check_in_range("x", 9, 1, 5)


def test_queue_ref_str():
    assert "b3" in str(QueueRef(3, 7))

"""Small shared utilities: typed identifiers and validation."""

from repro.util.ids import (
    BrokerId,
    ClientId,
    EventId,
    QueueId,
    QueueRef,
    IdAllocator,
)
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
)

__all__ = [
    "BrokerId",
    "ClientId",
    "EventId",
    "QueueId",
    "QueueRef",
    "IdAllocator",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]

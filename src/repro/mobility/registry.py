"""Protocol registry: name -> class, imported on lookup."""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.base import MobilityProtocol

#: the protocols selectable by name in :class:`~repro.pubsub.system.PubSubSystem`,
#: each the ``(module, class)`` that defines it; a run imports only its own
PROTOCOLS: dict[str, tuple[str, str]] = {
    "mhh": ("repro.mobility.mhh", "MHHProtocol"),
    "sub-unsub": ("repro.mobility.sub_unsub", "SubUnsubProtocol"),
    "home-broker": ("repro.mobility.home_broker", "HomeBrokerProtocol"),
}


def protocol_class(name: str) -> type["MobilityProtocol"]:
    """The protocol class registered under ``name``, its module imported."""
    try:
        module, cls = PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mobility protocol {name!r}; "
            f"available: {sorted(PROTOCOLS)}"
        ) from None
    return getattr(import_module(module), cls)

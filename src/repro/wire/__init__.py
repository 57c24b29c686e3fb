"""Wire protocol: binary codec, stream framing, and multi-process transport.

The sans-IO kernel (``pubsub/``) exchanges Python message objects through
the :class:`~repro.drivers.base.Transport` facade. This package gives those
objects a real byte representation and a real network:

- :mod:`repro.wire.codec` — versioned compact binary codec with a per-type
  registry covering every class in :mod:`repro.pubsub.messages`;
- :mod:`repro.wire.framing` — length-prefixed CRC-framed records, the one
  ``<len><crc32>`` framing of socket streams and write-ahead log segments,
  with an incremental stream decoder;
- :mod:`repro.wire.node` — a broker node process (blocking TCP server, one
  thread per coordinator session) that executes kernel dispatches and
  writes the resulting effects back, one write per dispatch segment;
- :mod:`repro.wire.harness` — the coordinator that runs a full scenario
  with brokers spread across OS processes, in lockstep with the
  deterministic :class:`~repro.drivers.live.VirtualClock`.
"""

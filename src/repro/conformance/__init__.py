"""Protocol-conformance fuzzing.

This subsystem turns the delivery oracle
(:class:`repro.metrics.delivery.DeliveryChecker`) into a randomized
conformance gate: :class:`~repro.conformance.fuzzer.ScenarioFuzzer`
samples adversarial scenarios — topology size × mobility model × wireless
fault profile × protocol — runs each end-to-end (measurement + drain),
and asserts the per-protocol invariant matrix plus cross-engine trace
identity. Every scenario derives entirely from one seed and lane, so any
failure replays byte-identically from the ``--scenario-seed N --lane X``
the fuzzer prints.

See :mod:`repro.conformance.scenarios` for the scenario space and
:mod:`repro.conformance.fuzzer` for the invariant matrix and the CLI
(``python -m repro.conformance.fuzzer``).
"""

from repro.conformance.scenarios import Scenario

__all__ = [
    "Scenario",
    "ScenarioFuzzer",
    "FuzzReport",
    "check_invariants",
    "run_scenario",
]

_FUZZER_EXPORTS = frozenset(__all__) - {"Scenario"}


def __getattr__(name: str):
    # fuzzer exports resolve lazily so `python -m repro.conformance.fuzzer`
    # does not import the module twice (runpy would warn)
    if name in _FUZZER_EXPORTS:
        from repro.conformance import fuzzer

        return getattr(fuzzer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

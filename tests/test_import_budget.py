"""A simulated run imports only the layers it runs.

Each case runs one small experiment in a fresh interpreter and then reads
``sys.modules``: numpy, the live asyncio driver, the socket transport,
the conformance fuzzer, the figure sweeps and the protocols the run did not
select must not be there, and neither must the heavy standard-library
stacks they bring (asyncio pulls in ``ssl``, ``socket``, ``selectors``,
``subprocess`` and ``concurrent.futures``; the sweeps' worker pool pulls
in ``multiprocessing``). Each of those costs a fresh process memory and
start-up time on every simulated run, and none of them is used there. A
durable run writes its log in the wire codec's values and frames, so it
may load those two modules, and nothing else of ``repro.wire``; it runs
with numpy made unimportable, so a run that merely tries to import numpy
fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mobility.registry import PROTOCOLS

SRC = Path(__file__).resolve().parents[1] / "src"

#: standard-library stacks a simulated run must not load
HEAVY_STDLIB = ("asyncio", "ssl", "socket", "selectors", "subprocess",
                "multiprocessing", "concurrent.futures")
#: third-party packages a simulated run must not load (numpy is needed only
#: by tests and the benchmark harness)
THIRD_PARTY = ("numpy",)
#: repro modules (and packages, with everything under them) a simulated
#: run must not load
FORBIDDEN = ("repro.drivers.live", "repro.drivers.socket", "repro.wire",
             "repro.conformance", "repro.experiments.figures",
             "repro.experiments.report")
#: registry name -> module of every protocol
PROTOCOL_MODULES = {name: module for name, (module, _cls) in PROTOCOLS.items()}
#: ``repro.*`` modules a simulated run loads, package inits included:
#: 48 for each of the three paper protocols (54 when the package init
#: still pulled in the live driver, the sweeps and every protocol)
REPRO_MODULE_BUDGET = 48
#: what the durable stack (reliability, the WAL) may add: the codec and the
#: framing its log records are written in, never the socket node, the
#: coordinator or a protocol
DURABLE_WIRE = ("repro.wire", "repro.wire.codec", "repro.wire.framing")
DURABLE_MODULE_BUDGET = 53

_PROBE = """
import json, sys
if "no-numpy" in sys.argv[2:]:
    sys.modules["numpy"] = None  # any ``import numpy`` raises ImportError
from repro.experiments import ExperimentConfig, run_experiment
from repro.workload.spec import WorkloadSpec

durable = "durable" in sys.argv[2:]
cfg = ExperimentConfig(
    sys.argv[1], grid_k=3, seed=1, reliable=durable, durable=durable,
    workload=WorkloadSpec(clients_per_broker=2, mean_connected_s=5.0,
                          mean_disconnected_s=5.0, publish_interval_s=2.0,
                          duration_s=20.0),
)
row = run_experiment(cfg)
assert row.violations == [], row.violations
json.dump(sorted(m for m, mod in sys.modules.items() if mod is not None),
          sys.stdout)
"""


def _modules_after_run(protocol: str, *flags: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, protocol, *flags], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _under(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_a_simulated_run_loads_only_what_it_runs(protocol):
    loaded = _modules_after_run(protocol)
    other_protocols = [m for p, m in PROTOCOL_MODULES.items() if p != protocol]
    unexpected = [m for m in loaded
                  if _under(m, HEAVY_STDLIB + FORBIDDEN + THIRD_PARTY)
                  or m in other_protocols]
    assert unexpected == [], f"{protocol} run loaded {unexpected}"
    assert PROTOCOL_MODULES[protocol] in loaded
    repro = [m for m in loaded if _under(m, ("repro",))]
    assert len(repro) <= REPRO_MODULE_BUDGET, (
        f"{protocol} run loaded {len(repro)} repro modules "
        f"(budget {REPRO_MODULE_BUDGET}): {repro}"
    )


def test_a_durable_run_loads_the_codec_and_no_other_protocol():
    loaded = _modules_after_run("mhh", "durable", "no-numpy")
    other_protocols = [m for p, m in PROTOCOL_MODULES.items() if p != "mhh"]
    unexpected = [m for m in loaded
                  if (_under(m, HEAVY_STDLIB + FORBIDDEN + THIRD_PARTY)
                      and m not in DURABLE_WIRE)
                  or m in other_protocols]
    assert unexpected == [], f"durable mhh run loaded {unexpected}"
    assert {"repro.pubsub.wal", "repro.wire.codec"} <= set(loaded)
    repro = [m for m in loaded if _under(m, ("repro",))]
    assert len(repro) <= DURABLE_MODULE_BUDGET, (
        f"durable mhh run loaded {len(repro)} repro modules "
        f"(budget {DURABLE_MODULE_BUDGET}): {repro}"
    )

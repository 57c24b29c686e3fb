"""Every ``>>>`` example in the package runs and prints what it says.

A module is collected when its source contains ``>>>``; ``__main__``
modules are skipped, because importing one runs it.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(_ROOT.rglob("*.py")):
        if path.stem == "__main__" or ">>>" not in path.read_text():
            continue
        parts = path.relative_to(_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


MODULES = _modules_with_examples()


def test_examples_are_found():
    assert "repro.network.topology" in MODULES
    assert "repro.network.spanning_tree" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} failing example(s) in {name}"

"""The benchmark's tracer wraps program names that must keep existing."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    # tracer.py imports its sibling spec.py as a top-level module.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "spec"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracer")
    for name in ("tracer", "spec"):
        sys.modules.pop(name, None)


def test_every_traced_name_resolves(tracer):
    assert tracer.PATCHED_NAMES
    missing = [
        f"mgtdetect.{module}.{attr}"
        for module, attr in tracer.PATCHED_NAMES
        if not hasattr(importlib.import_module(f"mgtdetect.{module}"), attr)
    ]
    assert missing == []

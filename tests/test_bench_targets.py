"""The benchmark's traced run must find every library function it wraps.

``bench/spans.py`` skips a target the library no longer defines and reports
it as 0 calls, so a rename would silently zero a per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _gaussep_targets():
    spec = importlib.util.spec_from_file_location("_gaussep_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.GAUSSEP_TARGETS


@pytest.mark.parametrize("module, attr", _gaussep_targets())
def test_traced_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))

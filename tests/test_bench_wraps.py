"""The benchmark's span tracer wraps polycontact functions by module and
attribute name (`perfbench/spans.py`, `WRAPS`); each must still exist, or
`perfbench/run.py --trace 1` breaks."""

import importlib
import runpy
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WRAPS = runpy.run_path(str(_SPANS))["WRAPS"]


@pytest.mark.parametrize("module, attribute, span", WRAPS)
def test_wrapped_function_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute))

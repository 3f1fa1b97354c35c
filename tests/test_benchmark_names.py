"""The benchmark's span recorder (``perfbench/spans.py``) wraps package
functions by module and attribute name, and its workloads call ``fit``
with ``check_valid``.  A rename must fail here, not in a traced benchmark
run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from survreport import estimate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _name, _info in spans.WRAPPED]


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names
    for module, attr in names:
        assert callable(getattr(importlib.import_module(f"survreport.{module}"), attr)), f"{module}.{attr}"


def test_fit_accepts_check_valid():
    assert "check_valid" in inspect.signature(estimate.fit).parameters

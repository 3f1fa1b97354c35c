"""The benchmark's span recorder (``perfbench/spans.py``) wraps package
functions by module and attribute name, records the rows of each kernel
call as the first argument's leading dimension, and its workloads call
``fit`` with ``check_valid``.  A rename or a change of layout must fail
here, not in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from survreport import estimate, likelihood as lik
from survreport.panel import ErrorModel
from survreport.simulate import benchmark_config, generate_dataset

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


@pytest.mark.parametrize("model", [estimate.MODEL_COV_FIXED, estimate.MODEL_COV_TIMEVARYING])
def test_kernel_calls_lead_with_one_row_per_kernel_row(monkeypatch, model):
    # spans.py reports np.shape(args[0])[0] as likelihood.rows_per_eval
    config = benchmark_config(0.75, 0.9, 0.5, n_replicates=1, seed=3)
    ds = generate_dataset(type(config)(**{**config.__dict__, "n_subjects": 300}), 0)
    em = ErrorModel(0.75, 0.9)
    if model == estimate.MODEL_COV_TIMEVARYING:
        want = ds.n  # no rows collapse
    else:
        want = estimate._collapse_rows(lik.build_c_matrix(ds, em), ds.covariates)[0].shape[0]
        assert want < ds.n
    rows = []
    gradient = lik.loglik_and_gradient

    def recording_gradient(*args, **kwargs):
        rows.append(np.shape(args[0])[0])
        return gradient(*args, **kwargs)

    monkeypatch.setattr(lik, "loglik_and_gradient", recording_gradient)
    assert estimate.fit(ds, em, model).converged
    assert rows and set(rows) == {want}

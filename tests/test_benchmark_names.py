"""The benchmark's span recorder (``perfbench/spans.py``) wraps package
functions by module and attribute name, records what it reads of each
call's arguments and result (the rows of each kernel call as the first
argument's leading dimension), and its workloads call ``fit`` with
``check_valid``.  A rename or a change of signature or layout must fail
here, not in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from survreport import cli, estimate, likelihood as lik, panel, simulate
from survreport.panel import ErrorModel
from survreport.simulate import benchmark_config, generate_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


def wrapped_names():
    return [(module, attr) for module, attr, _name, _info in load_spans().WRAPPED]


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
    # every model's kernel sees its distinct rows; the time-varying key is
    # the interval covariates, constant in time for these subjects
    z = ds.covariates
    if model == estimate.MODEL_COV_TIMEVARYING:
        z = estimate.interval_covariates(ds).reshape(ds.n, -1, order="F")
    want = estimate._patterns(ds.reports, z)[0].size
    assert want < ds.n
    rows = []
    gradient = lik.loglik_and_gradient

    def recording_gradient(*args, **kwargs):
        rows.append(np.shape(args[0])[0])
        return gradient(*args, **kwargs)

    monkeypatch.setattr(lik, "loglik_and_gradient", recording_gradient)
    assert estimate.fit(ds, em, model).converged
    assert rows and set(rows) == {want}


def test_every_span_reads_its_call(tmp_path):
    """Each wrapper's record of a real call: a CLI fit of a panel file, a
    time-varying fit, a validation and a two-replicate scenario."""
    spans = load_spans()
    modules = {"cli": cli, "estimate": estimate, "likelihood": lik, "panel": panel, "simulate": simulate}
    tracer = spans.Tracer(modules)
    config = benchmark_config(0.75, 0.9, 0.5, n_replicates=2, seed=3)
    config = type(config)(**{**config.__dict__, "n_subjects": 200})
    ds = generate_dataset(config, 0)
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("subject_id,time,result,z1\n")
        fh.writelines(f"{s.subject_id},{t},{r},{s.covariates[0]}\n" for s in ds.subjects for t, r in zip(s.times, s.results))
    drifting = panel.build_dataset(
        [panel.SubjectPanel(s.subject_id, s.times, s.results, covariate_path=((0.0, s.covariates), (2.0, (0.5,))))
         for s in ds.subjects],
        covariate_names=("z1",),
    )
    em = ErrorModel(0.75, 0.9)
    argv = ["fit", str(path), "--phi1", "0.75", "--phi0", "0.9", "--out", str(tmp_path / "fit")]
    tracer.run_op(0, lambda: cli.main(argv))
    tracer.run_op(1, lambda: estimate.fit(drifting, em, estimate.MODEL_COV_TIMEVARYING))
    tracer.run_op(2, lambda: panel.validate(panel.read_panel_csv(path).dataset))
    tracer.run_op(3, lambda: simulate.run_scenario(config, "adjusted"))
    recorded = {s.name for s in tracer.spans if s.attrs is not None}
    assert recorded == {name for _module, _attr, name, info in spans.WRAPPED if info is not None}
    rows = {s.name: s.attrs["rows"] for s in tracer.spans if s.attrs is not None and s.op == 0}
    # the C-matrix span records the dataset's N, whatever rows it builds
    assert rows["likelihood.build_c_matrix"] == rows["estimate.fit"] == rows["panel.read_panel_csv"] == ds.n


def test_benchmark_builds_and_fits_an_in_memory_cohort():
    # the tv-cohort set-up: SubjectPanels with covariate paths through build_dataset
    inputs = load("inputs")
    ds = inputs.to_dataset(inputs.drifting_cohort(1, 200))
    em = ErrorModel(inputs.PHI1, inputs.PHI0, inputs.ETA)
    assert ds.n > 0 and estimate.fit(ds, em, estimate.MODEL_COV_TIMEVARYING).converged


def test_generated_subjects_read_as_the_benchmark_reads_them(monkeypatch):
    # the sim-table check turns a generated dataset's subjects into its own
    monkeypatch.setitem(sys.modules, "inputs", load("inputs"))
    workloads = load("workloads")
    config = benchmark_config(0.75, 0.9, 0.5, n_replicates=1, seed=3)
    ds = generate_dataset(type(config)(**{**config.__dict__, "n_subjects": 50}), 0)
    subjects = workloads._as_subjects(ds)
    assert [s.sid for s in subjects] == list(ds.ids)
    assert all(len(s.visits) == len(s.results) > 0 and len(s.path) == 1 for s in subjects)

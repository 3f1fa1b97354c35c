"""Property tests of the report-matrix code and the likelihood kernel
over small random panels.

Each property compares the library's array code with a per-subject
computation written here or in ``oracles.py``, or the kernel's analytic
derivatives with central differences.
"""

import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survreport.estimate import _life_table_gamma, interval_covariates
from survreport.likelihood import (
    NonPositiveLikelihoodError,
    build_c_matrix,
    loglik_and_gradient,
    loglik_hessian,
)
from survreport.panel import ADAPTIVE, PREDETERMINED, ErrorModel, SubjectPanel, build_dataset

from oracles import central_difference_gradient, direct_pattern_probability

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def panels(draw, max_subjects=8):
    """(dataset, error model): 1-6 grid points, missed visits, both schedules."""
    n_points = draw(st.integers(1, 6))
    steps = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.5)), min_size=n_points, max_size=n_points))
    schedule_times = np.cumsum(steps).tolist()
    schedule = draw(st.sampled_from((ADAPTIVE, PREDETERMINED)))
    n = draw(st.integers(1, max_subjects))
    subjects = []
    for i in range(n):
        visits = draw(
            st.lists(st.sampled_from(range(n_points)), min_size=1, max_size=n_points, unique=True)
        )
        times = tuple(schedule_times[k] for k in sorted(visits))
        if schedule == ADAPTIVE:
            results = [0] * len(times)
            if draw(st.booleans()):
                results[-1] = 1
        else:
            results = draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
        z = draw(st.sampled_from((0.0, 1.0, -0.5)))
        subjects.append(SubjectPanel(f"s{i}", times, tuple(results), covariates=(z,)))
    phi1 = draw(st.floats(0.55, 1.0))
    phi0 = draw(st.floats(0.55, 1.0))
    eta = draw(st.sampled_from((1.0, 0.97, 0.8)))
    dataset = build_dataset(subjects, covariate_names=("z",), schedule=schedule)
    return dataset, ErrorModel(phi1, phi0, eta)


def visit_indices(dataset, subject):
    return [dataset.grid.interval_index(t) for t in subject.times]


@PROPERTY_SETTINGS
@given(panels())
def test_report_matrix_holds_each_visit(case):
    dataset, _ = case
    expected = np.full((dataset.n, dataset.grid.J), -1)
    for i, s in enumerate(dataset.subjects):
        for m, r in zip(visit_indices(dataset, s), s.results):
            expected[i, m - 1] = r
    assert np.array_equal(dataset.reports, expected)


@PROPERTY_SETTINGS
@given(panels())
def test_c_columns_match_direct_probability(case):
    dataset, em = case
    c = build_c_matrix(dataset, em)
    jp1 = dataset.grid.J + 1
    for i, s in enumerate(dataset.subjects):
        idx = visit_indices(dataset, s)
        for j in range(jp1):
            unit = np.zeros(jp1)
            unit[j] = 1.0
            want = direct_pattern_probability(idx, s.results, unit, em.phi1, em.phi0)
            assert math.isclose(c[i, j], want, rel_tol=1e-13, abs_tol=0.0)


@PROPERTY_SETTINGS
@given(panels(), st.randoms(use_true_random=False))
def test_permuting_subjects_permutes_c_rows(case, random):
    dataset, em = case
    perm = list(range(dataset.n))
    random.shuffle(perm)
    permuted = build_dataset(
        [dataset.subjects[k] for k in perm], covariate_names=("z",), schedule=dataset.schedule
    )
    assert permuted.grid == dataset.grid
    assert np.array_equal(build_c_matrix(permuted, em), build_c_matrix(dataset, em)[perm])


@PROPERTY_SETTINGS
@given(panels())
def test_life_table_start_counts(case):
    dataset, _ = case
    J = dataset.grid.J
    events = [0] * J
    at_risk = [0] * J
    for s in dataset.subjects:
        idx = visit_indices(dataset, s)
        positives = [m for m, r in zip(idx, s.results) if r == 1]
        last = positives[0] if positives else idx[-1]
        for j in range(last):
            at_risk[j] += 1
        if positives:
            events[positives[0] - 1] += 1
    haz = np.array([e / a if a else 0.0 for e, a in zip(events, at_risk)])
    expected = np.log(-np.log1p(-np.clip(haz, 5e-4, 0.95)))
    assert np.array_equal(_life_table_gamma(dataset), expected)


@PROPERTY_SETTINGS
@given(panels())
def test_kernel_matches_direct_probability(case):
    dataset, em = case
    rng = np.random.default_rng(dataset.n)
    lambdas = rng.uniform(0.05, 0.8, dataset.grid.J)
    beta = np.array([0.7])
    z = np.array([s.covariates for s in dataset.subjects])
    c = build_c_matrix(dataset, em)
    h = np.concatenate(([0.0], np.cumsum(lambdas)))
    probabilities = []
    for s in dataset.subjects:
        survival = np.exp(-h * math.exp(0.7 * s.covariates[0]))
        theta = survival - np.append(survival[1:], 0.0)
        idx = visit_indices(dataset, s)
        probabilities.append(direct_pattern_probability(idx, s.results, theta, em.phi1, em.phi0, em.eta))
    if min(probabilities) == 0.0:  # a pattern the error model rules out
        with pytest.raises(NonPositiveLikelihoodError):
            loglik_and_gradient(c, lambdas, beta, z=z, eta=em.eta)
        return
    ll, _, _ = loglik_and_gradient(c, lambdas, beta, z=z, eta=em.eta)
    assert math.isclose(ll, math.fsum(map(math.log, probabilities)), rel_tol=1e-11, abs_tol=1e-12)


@st.composite
def covariate_panels(draw):
    """Datasets mixing covariate paths (measured on and off the grid) with
    time-fixed covariates."""
    n_points = draw(st.integers(1, 6))
    taus = [float(k) for k in range(1, n_points + 1)]
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 2))
    values = st.tuples(*[st.sampled_from((0.0, 1.0, 2.5, -1.0))] * p)
    subjects = []
    for i in range(n):
        times = tuple(taus[: draw(st.integers(1, n_points))])
        results = (0,) * len(times)
        if draw(st.booleans()):
            subjects.append(SubjectPanel(f"f{i}", times, results, covariates=draw(values)))
            continue
        path_times = draw(
            st.lists(st.sampled_from([0.0, 0.5, *taus, n_points + 0.5]), min_size=1, max_size=5, unique=True)
        )
        path = tuple((t, draw(values)) for t in sorted(path_times))
        subjects.append(SubjectPanel(f"p{i}", times, results, covariate_path=path))
    names = tuple(f"x{k}" for k in range(p))
    return build_dataset(subjects, covariate_names=names)


@PROPERTY_SETTINGS
@given(covariate_panels())
def test_interval_covariates_match_bisect_locf(dataset):
    taus = dataset.grid.taus
    lefts = [0.0, *taus[:-1]]
    z = interval_covariates(dataset)
    for i, s in enumerate(dataset.subjects):
        for k, left in enumerate(lefts):
            if s.covariates is not None:
                want = s.covariates
            else:
                times = [t for t, _ in s.covariate_path]
                want = s.covariate_path[max(bisect.bisect_right(times, left) - 1, 0)][1]
            assert z[i, k].tolist() == list(want)


@st.composite
def kernel_cases(draw):
    """Kernel arguments ``(c, lambdas, beta, kwargs)`` over ``panels``: the
    one-sample, time-fixed and time-varying models, eta < 1 (from
    ``panels``), optional integer row weights, and optionally a row whose
    linear predictor |z'beta| = 75 is clamped."""
    dataset, em = draw(panels())
    n, J = dataset.n, dataset.grid.J
    c = build_c_matrix(dataset, em)
    lambdas = np.array(draw(st.lists(st.floats(0.05, 0.8), min_size=J, max_size=J)))
    kwargs = {"eta": em.eta}
    if draw(st.booleans()):
        kwargs["weights"] = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    model = draw(st.sampled_from(("onesample", "fixed", "timevarying")))
    if model == "onesample":
        return c, lambdas, None, kwargs
    beta = np.array([draw(st.sampled_from((-0.9, -0.4, 0.3, 0.8)))])
    z = np.array([s.covariates for s in dataset.subjects])
    if model == "timevarying":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        z = z[:, None, :] + rng.normal(scale=0.5, size=(n, J, 1))
    if draw(st.booleans()):
        clamped = draw(st.sampled_from((-75.0, 75.0))) / beta[0]
        if model == "timevarying":
            z[0, draw(st.integers(0, J - 1))] = clamped
        else:
            z[0] = clamped
    kwargs["z_intervals" if model == "timevarying" else "z"] = z
    return c, lambdas, beta, kwargs


def working_point(lambdas, beta):
    return np.concatenate([np.log(lambdas), beta if beta is not None else []])


def working_gradient(c, x, beta, kwargs):
    """Gradient of the log-likelihood in (log lambda, beta)."""
    J = c.shape[1] - 1
    _, g_lambda, g_beta = loglik_and_gradient(c, np.exp(x[:J]), None if beta is None else x[J:], **kwargs)
    return np.concatenate([g_lambda * np.exp(x[:J]), g_beta])


def feasible(c, lambdas, beta, kwargs):
    try:
        loglik_and_gradient(c, lambdas, beta, **kwargs)
    except NonPositiveLikelihoodError:  # a pattern the error model rules out
        return False
    return True


def norm_relative_error(got, want):
    # componentwise ratios blow up on entries that are tiny relative to the
    # finite-difference truncation error
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-8)


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_gradient_matches_central_differences(case):
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    J = lambdas.size
    x = working_point(lambdas, beta)

    def value(x):
        return loglik_and_gradient(c, np.exp(x[:J]), None if beta is None else x[J:], **kwargs)[0]

    want = central_difference_gradient(value, x)
    assert norm_relative_error(working_gradient(c, x, beta, kwargs), want) < 1e-6


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_hessian_matches_central_differences_of_gradient(case):
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    x = working_point(lambdas, beta)
    hessian = loglik_hessian(c, lambdas, beta, **kwargs)
    assert np.array_equal(hessian, hessian.T)
    want = np.array(
        [central_difference_gradient(lambda y: working_gradient(c, y, beta, kwargs)[k], x) for k in range(x.size)]
    )
    assert norm_relative_error(hessian, want) < 1e-6


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_duplicate_row_equals_double_weight(case):
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    weights = kwargs.pop("weights", np.ones(c.shape[0]))
    doubled = {**kwargs, "weights": np.concatenate(([2.0 * weights[0]], weights[1:]))}
    duplicated = {**kwargs, "weights": np.append(weights, weights[0])}
    for key in ("z", "z_intervals"):
        if key in kwargs:
            duplicated[key] = np.concatenate((kwargs[key], kwargs[key][:1]))
    c_dup = np.vstack((c, c[:1]))
    ll_w, *grad_w = loglik_and_gradient(c, lambdas, beta, **doubled)
    ll_d, *grad_d = loglik_and_gradient(c_dup, lambdas, beta, **duplicated)
    assert math.isclose(ll_w, ll_d, rel_tol=1e-12, abs_tol=1e-12)
    for got, want in zip(grad_w, grad_d):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        loglik_hessian(c, lambdas, beta, **doubled),
        loglik_hessian(c_dup, lambdas, beta, **duplicated),
        rtol=1e-10,
        atol=1e-12,
    )

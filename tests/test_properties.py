"""Property tests of the report-matrix code and the likelihood kernel
over small random panels.

Each property compares the library's array code with a per-subject
computation written here or in ``oracles.py``, the kernel's analytic
derivatives with central differences, or a fit with the fit of the same
subjects in another order.
"""

import bisect
import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survreport.estimate import (
    GAMMA_LOWER,
    GAMMA_UPPER,
    MODEL_COV_FIXED,
    MODEL_COV_TIMEVARYING,
    ModelSpecError,
    _life_table_gamma,
    _patterns,
    _projected_gradient,
    fit,
    interval_covariates,
)
from survreport.likelihood import (
    KernelRows,
    NonPositiveLikelihoodError,
    build_c_matrix,
    loglik_and_gradient,
)
from survreport import estimate, panel
from survreport.cli import EXIT_INPUT_ERROR, main
from survreport.panel import (
    ADAPTIVE,
    PREDETERMINED,
    Dataset,
    ErrorModel,
    PanelValidationError,
    StudyGrid,
    SubjectPanel,
    build_dataset,
    read_panel_csv,
)

from oracles import (
    apply_rounding,
    central_difference_gradient,
    collapse_subject_rows,
    cumsum_loglik_and_gradient,
    cumsum_loglik_hessian,
    direct_pattern_probability,
    patterns_by_dict,
    validate_by_subject,
)

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
    return [dataset.grid.taus.index(t) + 1 for t in subject.times]


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
    # the kernel reads c.T: a view, not a copy
    assert c.T.flags.c_contiguous
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
    assert np.array_equal(_life_table_gamma(dataset), life_table_by_subject(dataset))


def life_table_by_subject(dataset):
    """The life-table start by a walk over the subjects' visits."""
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
    return np.log(-np.log1p(-np.clip(haz, 5e-4, 0.95)))


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
            kernel(c, lambdas, beta, z=z, eta=em.eta)
        return
    ll = kernel(c, lambdas, beta, z=z, eta=em.eta)[0]
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
    # the kernel reads z.T: a view, not a copy
    assert z.T.flags.c_contiguous
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


def prepare(c, z=None, **kwargs):
    """Kernel rows of raw arrays: ``kwargs`` (z_intervals, eta, weights), or a
    time-fixed (N, P) ``z`` as one interval that applies to every interval."""
    if z is not None:
        kwargs["z_intervals"] = np.asarray(z, dtype=float)[:, None, :]
    return KernelRows(c, **kwargs)


def kernel(c, lambdas, beta, **kwargs):
    """The kernel on raw arrays, prepared by :func:`prepare`."""
    return loglik_and_gradient(prepare(c, **kwargs), lambdas, beta)


def kernel_hessian(c, lambdas, beta, **kwargs):
    """The kernel's Hessian in (lambda, beta) on raw arrays."""
    return kernel(c, lambdas, beta, **kwargs)[3]()


def working_point(lambdas, beta):
    return np.concatenate([np.log(lambdas), beta if beta is not None else []])


def working_gradient(c, x, beta, kwargs):
    """Gradient of the log-likelihood in (log lambda, beta)."""
    J = c.shape[1] - 1
    _, g_lambda, g_beta, _ = kernel(c, np.exp(x[:J]), None if beta is None else x[J:], **kwargs)
    return np.concatenate([g_lambda * np.exp(x[:J]), g_beta])


def feasible(c, lambdas, beta, kwargs):
    try:
        kernel(c, lambdas, beta, **kwargs)
    except NonPositiveLikelihoodError:  # a pattern the error model rules out
        return False
    return True


def norm_relative_error(got, want):
    # componentwise ratios blow up on entries that are tiny relative to the
    # finite-difference truncation error
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-8)


def hessian_error(got, want, gradient):
    """``norm_relative_error`` of a Hessian in (lambda, beta), relative to at
    least |gradient|^2: where log L is nearly linear in lambda, the Hessian
    is the small difference of two terms of that size, and its rounding (or
    a central difference's, ~eps |gradient| / step) is relative to them."""
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), float(gradient @ gradient), 1e-8)


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_gradient_matches_central_differences(case):
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    J = lambdas.size
    x = working_point(lambdas, beta)

    def value(x):
        return kernel(c, np.exp(x[:J]), None if beta is None else x[J:], **kwargs)[0]

    want = central_difference_gradient(value, x)
    assert norm_relative_error(working_gradient(c, x, beta, kwargs), want) < 1e-6


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_hessian_matches_central_differences_of_gradient(case):
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    J = lambdas.size
    x = np.concatenate([lambdas, beta if beta is not None else []])
    hessian = kernel_hessian(c, lambdas, beta, **kwargs)
    assert np.array_equal(hessian, hessian.T)

    def gradient(y):  # in (lambda, beta)
        return np.concatenate(kernel(c, y[:J], None if beta is None else y[J:], **kwargs)[1:3])

    want = np.array([central_difference_gradient(lambda y: gradient(y)[k], x) for k in range(x.size)])
    assert hessian_error(hessian, want, gradient(x)) < 1e-6


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
    ll_w, *grad_w, _ = kernel(c, lambdas, beta, **doubled)
    ll_d, *grad_d, _ = kernel(c_dup, lambdas, beta, **duplicated)
    assert math.isclose(ll_w, ll_d, rel_tol=1e-12, abs_tol=1e-12)
    for got, want in zip(grad_w, grad_d):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        kernel_hessian(c, lambdas, beta, **doubled),
        kernel_hessian(c_dup, lambdas, beta, **duplicated),
        rtol=1e-10,
        atol=1e-12,
    )


@PROPERTY_SETTINGS
@given(kernel_cases(), st.sampled_from((None, -0.6, 0.7)), st.integers(0, 2**16))
def test_kernel_matches_cumsum_oracle(case, beta2, seed):
    c, lambdas, beta, kwargs = case
    key = "z" if "z" in kwargs else "z_intervals"
    if beta is not None and beta2 is not None:
        # a second covariate brings in the cross-covariate Hessian terms
        z = kwargs[key]
        extra = np.random.default_rng(seed).normal(size=z.shape[:-1] + (1,))
        kwargs = {**kwargs, key: np.concatenate((z, extra), axis=-1)}
        beta = np.append(beta, beta2)
    assume(feasible(c, lambdas, beta, kwargs))
    want_ll, *want_grad = cumsum_loglik_and_gradient(c, lambdas, beta, **kwargs)
    want_hessian = cumsum_loglik_hessian(c, lambdas, beta, **kwargs)
    results = []
    # kernel rows read c, z and z_intervals transposed: a view of a
    # Fortran-ordered array, a copy of a C-ordered one
    for order in (np.ascontiguousarray, np.asfortranarray):
        c_o = order(c)
        kw = {k: order(v) if k in ("z", "z_intervals") else v for k, v in kwargs.items()}
        ll, *grad, _ = kernel(c_o, lambdas, beta, **kw)
        assert math.isclose(ll, want_ll, rel_tol=1e-12, abs_tol=0.0)
        assert norm_relative_error(np.concatenate(grad), np.concatenate(want_grad)) < 1e-10
        hessian = kernel_hessian(c_o, lambdas, beta, **kw)
        assert hessian_error(hessian, want_hessian, np.concatenate(want_grad)) < 1e-10
        results.append((ll, *grad, hessian))
    # both layouts give the same bits
    assert all(np.array_equal(a, b) for a, b in zip(*results))


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_hessian_of_point_outlives_later_kernel_calls(case):
    """A point's ``hessian_of_point``, called only after the kernel has run
    at another lambda and on other data, is that point's Hessian, bit for
    bit, for C- and Fortran-ordered inputs alike."""
    c, lambdas, beta, kwargs = case
    assume(feasible(c, lambdas, beta, kwargs))
    variants = [(c, 1.5 * lambdas, kwargs), (c**2, lambdas, kwargs), (c, lambdas, {**kwargs, "eta": kwargs["eta"] / 2}),
                (c, lambdas, {**kwargs, "weights": np.arange(1.0, c.shape[0] + 1)})]
    for key in ("z", "z_intervals"):
        if key in kwargs:
            variants.append((c, lambdas, {**kwargs, key: kwargs[key] + 1.0}))
    variants = [v for v in variants if feasible(v[0], v[1], beta, v[2])]
    for order in (np.ascontiguousarray, np.asfortranarray):
        c_o = order(c)
        kw = {k: order(v) if k in ("z", "z_intervals") else v for k, v in kwargs.items()}
        hessian_of_point = kernel(c_o, lambdas, beta, **kw)[3]
        for c_v, lambdas_v, kw_v in variants:
            kernel_hessian(order(c_v), lambdas_v, beta, **kw_v)
        assert np.array_equal(hessian_of_point(), kernel_hessian(c_o, lambdas, beta, **kw))


@PROPERTY_SETTINGS
@given(kernel_cases(), st.sampled_from((0.5, 0.9, 0.97)))
def test_prepared_rows_match_cumsum_oracle(case, eta):
    """Rows prepared once, with eta < 1 folded into C, give the oracle's
    value, gradient and Hessian."""
    c, lambdas, beta, kwargs = case
    kwargs = {**kwargs, "eta": eta}
    assume(feasible(c, lambdas, beta, kwargs))
    ll, *grad, hessian_of_point = kernel(c, lambdas, beta, **kwargs)
    want_ll, *want_grad = cumsum_loglik_and_gradient(c, lambdas, beta, **kwargs)
    assert math.isclose(ll, want_ll, rel_tol=1e-12, abs_tol=0.0)
    assert norm_relative_error(np.concatenate(grad), np.concatenate(want_grad)) < 1e-12
    hessian = hessian_of_point()
    assert hessian_error(hessian, cumsum_loglik_hessian(c, lambdas, beta, **kwargs), np.concatenate(want_grad)) < 1e-12


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_one_sample_kernel_is_the_zero_covariate_kernel(case):
    """Without covariates the kernel forms no linear predictor, yet its
    value, lambda gradient and lambda Hessian keep the bits of a zero
    covariate at beta = 0, whose exp(z'beta) is 1."""
    c, lambdas, _, kwargs = case
    kwargs = {k: v for k, v in kwargs.items() if k not in ("z", "z_intervals")}
    assume(feasible(c, lambdas, None, kwargs))
    zero = {**kwargs, "z": np.zeros((c.shape[0], 1))}
    ll, g, _, _ = kernel(c, lambdas, None, **kwargs)
    ll0, g0, _, _ = kernel(c, lambdas, [0.0], **zero)
    assert ll == ll0 and g.tobytes() == g0.tobytes()
    hess = kernel_hessian(c, lambdas, None, **kwargs)
    assert hess.tobytes() == kernel_hessian(c, lambdas, [0.0], **zero)[: lambdas.size, : lambdas.size].tobytes()


@st.composite
def pattern_panels(draw):
    """(dataset, error model): array-held panels whose subjects share a few
    report rows and covariate rows.  Grids of 1-4, 40-45, 127 or 128
    points (many key columns); both
    schedules; subjects without visits; P = 0, 1 or 2 covariates with -0.0
    next to 0.0; error models that rule some patterns out."""
    J = draw(st.one_of(st.integers(1, 4), st.integers(40, 45), st.sampled_from((127, 128))))
    schedule = draw(st.sampled_from((ADAPTIVE, PREDETERMINED)))

    def report_row():
        visited = draw(st.lists(st.booleans(), min_size=J, max_size=J))
        if schedule == PREDETERMINED:
            return [draw(st.integers(0, 1)) if v else -1 for v in visited]
        row = [0 if v else -1 for v in visited]
        if any(visited) and draw(st.booleans()):  # the last visit reports the event
            row[max(k for k, v in enumerate(visited) if v)] = 1
        return row

    p = draw(st.integers(0, 2))
    report_pool = [report_row() for _ in range(draw(st.integers(1, 4)))]
    values = st.sampled_from((0.0, -0.0, 1.0, -0.5))
    covariate_pool = draw(st.lists(st.lists(values, min_size=p, max_size=p), min_size=1, max_size=3))
    n = draw(st.integers(1, 30))
    picks = [(draw(st.sampled_from(report_pool)), draw(st.sampled_from(covariate_pool))) for _ in range(n)]
    dataset = Dataset.from_arrays(  # unchecked: a subject without visits reaches the fit's own error
        [f"s{i}" for i in range(n)], [r for r, _ in picks], StudyGrid(tuple(map(float, range(1, J + 1)))),
        np.array([z for _, z in picks]).reshape(n, p), tuple(f"x{k}" for k in range(p)), schedule, violations=(),
    )
    return dataset, ErrorModel(draw(st.sampled_from((0.6, 0.8, 1.0))), draw(st.sampled_from((0.7, 0.9, 1.0))))


class KernelReached(Exception):
    pass


def kernel_rows(dataset, em):
    """``(c, z, weights)`` of the rows a time-fixed fit prepares for its
    kernel calls, read at the first call as (N, J+1), (N, P) and (N,)
    arrays, or None if the fit raises ``ValueError`` before it."""
    def record(rows, lambdas, beta, **kwargs):
        raise KernelReached(rows.ct.T, rows.zk[:, 0].T, rows.weights)

    with mock.patch("survreport.likelihood.loglik_and_gradient", record):
        try:
            fit(dataset, em, MODEL_COV_FIXED)
        except KernelReached as reached:
            return reached.args
        except ValueError:
            return None
    raise AssertionError("the fit returned without a kernel call")


def in_pattern_order(rows, first, arrays):
    """``arrays``, one row per pattern in the order of ``first``, reordered
    to the patterns whose first subjects are ``rows``, Fortran-ordered."""
    at = {f: k for k, f in enumerate(first)}
    return [np.asfortranarray(a[[at[r] for r in rows.tolist()]]) for a in arrays]


@PROPERTY_SETTINGS
@given(pattern_panels())
def test_pattern_rows_collapse_to_the_subject_row_collapse(case):
    """The patterns are those a walk over the subjects finds (their order is
    checked by the permutation properties), and a fit's kernel rows are
    theirs, in the order of ``_patterns``."""
    dataset, em = case
    z = dataset.covariates
    rows, counts = _patterns(dataset.reports, z)
    first, want_counts = patterns_by_dict(dataset.reports, z)
    assert sorted(zip(rows.tolist(), counts.tolist())) == sorted(zip(first, want_counts))
    want = in_pattern_order(rows, first, collapse_subject_rows(dataset.reports, build_c_matrix(dataset, em), z))
    assert build_c_matrix(dataset, em, rows).tobytes() == want[0].tobytes()
    got = kernel_rows(dataset, em)
    if got is not None:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert got[0].T.flags.c_contiguous and got[1].T.flags.c_contiguous


@st.composite
def float_keys(draw):
    """(reports, z): (N, J) reports and (N, J * P) float covariate rows, as a
    time-varying fit keys its subjects, drawn from small pools so that rows
    repeat; values include -0.0 next to 0.0 and +-1e308, whose projection
    would overflow without its scaled weights."""
    J, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    values = st.sampled_from((0.0, -0.0, 1.0, -0.5, 0.1, 1e308, -1e308))
    report_pool = draw(st.lists(st.lists(st.integers(-1, 1), min_size=J, max_size=J), min_size=1, max_size=4))
    z_pool = draw(st.lists(st.lists(values, min_size=J * p, max_size=J * p), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(report_pool), st.sampled_from(z_pool)), min_size=1, max_size=40))
    n = len(picks)
    reports = np.array([r for r, _ in picks], dtype=np.int8).reshape(n, J)
    z = np.asfortranarray(np.array([v for _, v in picks]).reshape(n, J * p))  # as interval_covariates lays it out
    return reports, z


def pattern_values(reports, z, rows):
    """The report and covariate rows of the patterns whose first subjects are ``rows``, -0.0 as 0.0."""
    return reports[rows].tolist(), (z[rows] + 0.0).tolist()


@PROPERTY_SETTINGS
@given(float_keys(), st.randoms(use_true_random=False))
def test_patterns_of_float_keys_match_the_walk_in_a_canonical_order(case, random):
    reports, z = case
    rows, counts = _patterns(reports, z)
    first, want_counts = patterns_by_dict(reports, z)
    assert sorted(zip(rows.tolist(), counts.tolist())) == sorted(zip(first, want_counts))
    perm = list(range(len(reports)))
    random.shuffle(perm)
    permuted_rows, permuted_counts = _patterns(reports[perm], z[perm])
    assert permuted_counts.tolist() == counts.tolist()
    assert pattern_values(reports[perm], z[perm], permuted_rows) == pattern_values(reports, z, rows)


@pytest.mark.parametrize("weights", [np.zeros, np.ones], ids=["all-zero", "all-one"])
def test_patterns_break_projection_ties_by_the_full_row(monkeypatch, weights):
    # with these weights [0, 1] and [1, 0] project to the same value, and
    # with zero weights every row does: the rows still group exactly, in an
    # order the subjects' order does not change, and with zero weights it
    # is the walk's lexicographic order
    monkeypatch.setattr(estimate, "_projection", weights)
    reports = np.array([[0, 1], [1, 0], [0, 1], [-1, 1], [1, 0], [0, 1]], dtype=np.int8)
    z = np.array([[0.5], [0.5], [-0.0], [0.5], [0.5], [0.0]])
    rows, counts = _patterns(reports, z)
    want = patterns_by_dict(reports, z)
    assert sorted(zip(rows.tolist(), counts.tolist())) == sorted(zip(*want))
    for perm in ([5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3]):
        permuted_rows, permuted_counts = _patterns(reports[perm], z[perm])
        assert permuted_counts.tolist() == counts.tolist()
        assert pattern_values(reports[perm], z[perm], permuted_rows) == pattern_values(reports, z, rows)
    if weights is np.zeros:
        assert (rows.tolist(), counts.tolist()) == want


def test_fit_on_tied_projections_ignores_subject_order(monkeypatch):
    # zero weights tie every projection, so a fit's rows are ordered by the full row alone
    monkeypatch.setattr(estimate, "_projection", np.zeros)
    subjects = [SubjectPanel(f"s{i}", times, results, covariate_path=((0.0, (z0,)), (2.0, (z1,))))
                for i, (times, results, z0, z1) in enumerate([
                    ((1.0, 2.0, 3.0), (0, 0, 1), 0.0, 1.0), ((1.0, 3.0), (0, 0), 1.0, 1.0),
                    ((2.0, 3.0), (0, 1), 0.0, 0.0), ((1.0, 2.0, 3.0), (0, 0, 0), 0.0, 1.0),
                    ((1.0,), (1,), 1.0, 0.0), ((1.0, 2.0, 3.0), (0, 0, 1), 0.0, 1.0)])]
    em = ErrorModel(0.9, 0.95)
    want = fit(build_dataset(subjects, covariate_names=("z",)), em, MODEL_COV_TIMEVARYING)
    got = fit(build_dataset(subjects[::-1], covariate_names=("z",)), em, MODEL_COV_TIMEVARYING)
    assert_same_fit_bits(got, want)


@PROPERTY_SETTINGS
@given(pattern_panels(), st.booleans())
def test_fit_errors_name_the_first_subject_of_every_row(case, perfect):
    """An impossible report pattern, else a subject without visits, is
    named by its first subject, as a walk over every subject's row finds.
    Perfect reports rule out every predetermined row that is not 0s then 1s."""
    dataset, em = case
    em = ErrorModel(1.0, 1.0) if perfect else em
    impossible = np.flatnonzero(~build_c_matrix(dataset, em).any(axis=1))
    empty = np.flatnonzero((dataset.reports < 0).all(axis=1))
    if impossible.size:
        error, message = ModelSpecError, f"subject {dataset.subject_id(impossible[0])}: report pattern is impossible"
    elif empty.size:
        error, message = ValueError, f"subject {dataset.subject_id(empty[0])} has no visits"
    else:
        return
    with pytest.raises(error) as exc:
        fit(dataset, em)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("reports, z, message", [
    # a and b share a pattern, so c's pattern is the second one
    ([[0, 0], [0, 0], [1, 0]], None, "subject c: report pattern is impossible"),
    ([[0, 0], [0, 0], [-1, -1]], None, "subject c has no visits"),
    # b's pattern sorts first in key order, yet a comes first in the file
    ([[-1, -1], [-1, -1]], [[1.0], [0.0]], "subject a has no visits"),
    ([[1, 1, 0], [1, 0, 0]], None, "subject a: report pattern is impossible"),
], ids=["impossible-pattern", "no-visits", "no-visits-b-sorts-first", "impossible-pattern-b-sorts-first"])
def test_fit_errors_name_the_subject_not_the_pattern(reports, z, message):
    ids = ["a", "b", "c"][: len(reports)]
    grid = StudyGrid(tuple(map(float, range(1, len(reports[0]) + 1))))
    # unchecked: a subject without visits reaches the fit's own error
    dataset = Dataset.from_arrays(ids, reports, grid, z, ("x",) if z else (), PREDETERMINED, violations=())
    with pytest.raises(ValueError, match=message):
        fit(dataset, ErrorModel(1.0, 1.0))


def test_patterns_with_equal_c_rows_fit_as_their_subjects():
    # under phi1 = phi0 = 1 a positive first report puts the event in the
    # first interval whatever the second visit says: two patterns, one C row
    dataset = Dataset.from_arrays(["a", "b", "c"], [[1, -1], [1, 1], [1, -1]], StudyGrid((1.0, 2.0)),
                                  schedule=PREDETERMINED)
    em = ErrorModel(1.0, 1.0)
    rows, counts = _patterns(dataset.reports, dataset.covariates)
    assert rows.tolist() == [0, 1] and counts.tolist() == [2, 1]
    c, _, weights = kernel_rows(dataset, em)
    assert c.tolist() == [[1.0, 0.0, 0.0]] * 2 and weights.tolist() == [2.0, 1.0]
    result = fit(dataset, em)
    want = cumsum_loglik_and_gradient(build_c_matrix(dataset, em), result.lambdas, None)[0]
    assert result.loglik == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_pattern_key_does_not_wrap():
    # 2**64 in base 3 takes 41 digits: a wrapping int64 base-3 key would
    # give this report row the key of the row of no visits (all digits 0),
    # and a sum of +-1e308 covariates would overflow; the rows stay apart
    digits, v = [], 2**64
    while v:
        v, d = divmod(v, 3)
        digits.append(d)
    reports = np.array([digits[::-1], [0] * len(digits), [0] * len(digits)]) - 1
    dataset = Dataset.from_arrays(["a", "b", "c"], reports, StudyGrid(tuple(map(float, range(1, len(digits) + 1)))),
                                  [[1e308, 1e308], [1e308, 1e308], [1e308, -1e308]], ("x", "y"), PREDETERMINED,
                                  violations=())  # b and c have no visits
    rows, counts = _patterns(dataset.reports, dataset.covariates)
    assert sorted(rows.tolist()) == [0, 1, 2] and counts.tolist() == [1, 1, 1]


@pytest.mark.parametrize("reports", [[[1, -1], [0, 0], [0, 0]], [[-1, -1], [0, 0], [0, 0]]],
                         ids=["impossible-pattern", "no-visits"])
def test_bad_covariate_is_reported_before_report_errors(reports):
    # subject a's reports are impossible under phi1 = phi0 = 1 (or absent);
    # subject b's covariate is not finite, and that error wins either way
    dataset = Dataset.from_arrays(["a", "b", "c"], reports, StudyGrid((1.0, 2.0)), [[0.0], [np.inf], [1.0]],
                                  ("x",), PREDETERMINED, violations=())  # a may have no visits
    with pytest.raises(ModelSpecError, match="subject b has a non-finite covariate value"):
        fit(dataset, ErrorModel(1.0, 1.0))


def projected_gradient_by_loop(grad, x, J):
    proj = grad.copy()
    for j in range(J):
        if x[j] <= GAMMA_LOWER + 1e-9 and grad[j] > 0:
            proj[j] = 0.0
        if x[j] >= GAMMA_UPPER - 1e-9 and grad[j] < 0:
            proj[j] = 0.0
    return proj


@PROPERTY_SETTINGS
@given(st.integers(0, 5), st.integers(0, 2), st.randoms(use_true_random=False))
def test_projected_gradient_matches_loop(J, p, random):
    at = (GAMMA_LOWER, GAMMA_LOWER + 5e-10, GAMMA_UPPER, GAMMA_UPPER - 5e-10, -1.0, GAMMA_LOWER + 1e-6)
    x = np.array([random.choice(at) for _ in range(J)] + [random.uniform(-3, 3) for _ in range(p)])
    grad = np.array([random.choice((-1.5, -0.0, 0.0, 2.0)) for _ in range(J + p)])
    got = _projected_gradient(grad, x, J)
    assert got.tobytes() == projected_gradient_by_loop(grad, x, J).tobytes()


@st.composite
def fit_cases(draw):
    """(dataset, error model, model) over ``panels`` with up to 12 subjects:
    the time-fixed model, or the time-varying one with each subject's
    covariate changing at one of the visit times."""
    dataset, em = draw(panels(max_subjects=12))
    if not draw(st.booleans()):
        return dataset, em, MODEL_COV_FIXED
    subjects = []
    for s in dataset.subjects:
        switch = draw(st.sampled_from(dataset.grid.taus))
        later = draw(st.sampled_from((0.0, 1.0, -0.5)))
        path = ((0.0, s.covariates), (switch, (later,)))
        subjects.append(SubjectPanel(s.subject_id, s.times, s.results, covariate_path=path))
    return build_dataset(subjects, covariate_names=("z",), schedule=dataset.schedule), em, MODEL_COV_TIMEVARYING


@PROPERTY_SETTINGS
@given(fit_cases(), st.randoms(use_true_random=False))
def test_permuting_subjects_leaves_fit_unchanged(case, random):
    dataset, em, model = case
    perm = list(range(dataset.n))
    random.shuffle(perm)
    permuted = build_dataset(
        [dataset.subjects[k] for k in perm], covariate_names=("z",), schedule=dataset.schedule
    )
    try:
        want = fit(dataset, em, model)
    except ModelSpecError:  # an impossible report pattern is rejected in any order
        with pytest.raises(ModelSpecError):
            fit(permuted, em, model)
        return
    if want.has_covariance:  # the intervals outside the final Newton system, and only they, have zero rows
        assert want.frozen_intervals == tuple(np.flatnonzero(~want.cov_working[: want.gamma.size].any(axis=1)) + 1)
    # every model's kernel sees the distinct rows in an order set by their
    # values, so the fit is the same to the bit, even where the likelihood
    # is flat and rounding would move the point where Newton stops
    assert_same_fit_bits(fit(permuted, em, model), want)


def assert_same_fit_bits(got, want):
    assert (got.iterations, got.converged, got.loglik) == (want.iterations, want.converged, want.loglik)
    assert got.has_covariance == want.has_covariance
    for name in ("gamma", "beta", "beta_se", "survival_se", "cov_working")[: 5 if want.has_covariance else 4]:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


VISIT_TIMES = (1.0, 1.2, 1.5, 1.7, 2.0, 2.3, 2.5, 3.1)


# how a file may write the same rows; only the first is plain
STYLES = ("plain", "padded", "crlf", "quoted")


def write_csv(rows, names, path, style="plain"):
    """Panel file of ``(subject_id, time, result, covariate cells)`` rows:
    plain, with every cell padded by spaces, with CRLF line ends, or with
    the header and ids quoted as R's ``write.csv`` quotes them."""
    header = ("subject_id", "time", "result", *names)
    lines = [(sid, repr(t), str(r), *cells) for sid, t, r, cells in rows]
    if style == "quoted":
        header = tuple(f'"{h}"' for h in header)
        lines = [(f'"{sid}"', *cells) for sid, *cells in lines]
    pad = " " if style == "padded" else ""
    end = "\r\n" if style == "crlf" else "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(f"{pad}{c}{pad}" for c in line) + end for line in (header, *lines))


def in_file_order(rows):
    """Subject ids in the order the rows first name them."""
    return list(dict.fromkeys(sid for sid, *_ in rows))


@st.composite
def csv_panels(draw):
    """(subjects, rows, names, schedule, rounding): ``SubjectPanel``s in the
    order the file first names them, and the file's rows with subjects
    interleaved, visits shuffled and repeated covariate values sometimes
    left empty.  Covariates are constant or vary; rounding to 0.5 or 1
    makes visits meet."""
    p = draw(st.integers(0, 2))
    names = tuple(f"x{j}" for j in range(p))
    schedule = draw(st.sampled_from((ADAPTIVE, PREDETERMINED)))
    values = st.tuples(*[st.sampled_from((0.0, 1.0, 2.5, -1.0))] * p)
    rows, subjects = [], {}
    for i in range(draw(st.integers(1, 6))):
        sid = f"s{i}"
        times = tuple(sorted(draw(st.lists(st.sampled_from(VISIT_TIMES), min_size=1, max_size=5, unique=True))))
        if schedule == ADAPTIVE:
            results = (0,) * (len(times) - 1) + (draw(st.integers(0, 1)),)
        else:
            results = tuple(draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times))))
        vectors = [draw(values)] * len(times) if draw(st.booleans()) else [draw(values) for _ in times]
        for k, (t, r, v) in enumerate(zip(times, results, vectors)):
            # an empty cell repeats the value before it in time
            blank = [k > 0 and v[j] == vectors[k - 1][j] and draw(st.booleans()) for j in range(p)]
            rows.append((sid, t, r, ["" if b else repr(x) for b, x in zip(blank, v)]))
        if not p:
            subjects[sid] = SubjectPanel(sid, times, results)
        elif len(set(vectors)) == 1:
            subjects[sid] = SubjectPanel(sid, times, results, covariates=vectors[0])
        else:
            subjects[sid] = SubjectPanel(sid, times, results, covariate_path=tuple(zip(times, vectors)))
    rows = draw(st.permutations(rows))
    rounding = draw(st.sampled_from((None, 0.5, 1.0)))
    return [subjects[sid] for sid in in_file_order(rows)], rows, names, schedule, rounding


@PROPERTY_SETTINGS
@given(csv_panels(), st.sampled_from(STYLES[1:]))
def test_csv_round_trip_equals_built_dataset(case, style):
    """The plain file and the same rows written in another style give the
    dataset of ``build_dataset``; a plain, CRLF or quoted file with no empty
    cell skips the cell-by-cell reader, a padded one does not."""
    subjects, rows, names, schedule, rounding = case
    n_empty = sum(cell == "" for *_, cells in rows for cell in cells)
    if rounding is not None:
        subjects = [apply_rounding(s, rounding) for s in subjects]
    built = build_dataset(subjects, covariate_names=names, schedule=schedule)
    for how in ("plain", style):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            panel, "_read_csv", wraps=panel._read_csv
        ) as read_cells:
            path = os.path.join(tmp, "panel.csv")
            write_csv(rows, names, path, how)
            loaded = read_panel_csv(path, schedule=schedule, rounding=rounding)
        assert read_cells.called == (how == "padded" or n_empty > 0)
        ds = loaded.dataset
        assert ds.reports.dtype == built.reports.dtype and np.array_equal(ds.reports, built.reports)
        if built.covariates is None:
            assert ds.covariates is None
        else:
            assert ds.covariates.shape == built.covariates.shape
            assert ds.covariates.tobytes() == built.covariates.tobytes()
        for got, want in zip((*ds.covariate_paths, *ds.visits), (*built.covariate_paths, *built.visits)):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        assert loaded.n_imputed == n_empty
        assert loaded.n_collisions_merged == len(rows) - sum(len(s.times) for s in built.subjects)
        assert ds == built and tuple(ds.subjects) == built.subjects
        assert hash(ds) == hash(built)


@PROPERTY_SETTINGS
@given(csv_panels(), st.sampled_from(STYLES), st.booleans())
def test_shuffled_file_reads_as_the_sorted_file(case, style, blank_first):
    """A file whose rows run in subject, time order skips the sort; the
    same rows in any order give its dataset, and an error names the line
    that holds the same row."""
    _, rows, names, schedule, rounding = case
    rank = {sid: k for k, sid in enumerate(in_file_order(rows))}
    ordered = sorted(rows, key=lambda row: (rank[row[0]], row[1]))
    if names and blank_first:  # the first subject's first visit loses its value
        sid, t, r, cells = ordered[0]
        ordered[0] = (sid, t, r, ["", *cells[1:]])
        rows = [ordered[0] if row[:2] == (sid, t) else row for row in rows]
    outcomes = []
    for lines in (ordered, rows):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            path = os.path.join(tmp, "panel.csv")
            write_csv(lines, names, path, style)
            try:
                outcomes.append(read_panel_csv(path, schedule=schedule, rounding=rounding))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert lexsort.called == (lines != ordered)
    got, want = outcomes[1], outcomes[0]
    if isinstance(want, str):
        if want.startswith("line 2: "):  # the blanked cell; the header is line 1
            want = f"line {2 + rows.index(ordered[0])}: " + want[len("line 2: "):]
        assert got == want
        return
    assert got.n_imputed == want.n_imputed and got.n_collisions_merged == want.n_collisions_merged
    ds, ref = got.dataset, want.dataset
    assert ds == ref and ds.reports.tobytes() == ref.reports.tobytes()
    for a, b in zip((*ds.covariate_paths, *ds.visits), (*ref.covariate_paths, *ref.visits)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if ref.covariates is not None:
        assert ds.covariates.tobytes() == ref.covariates.tobytes()


def float_tokens(values):
    """Numbers drawn from ``values`` written as ``repr``, ``.17e`` and
    ``.17E`` write them and with a leading ``+``, and tokens like ``.5``
    and ``5.``."""
    digits = st.integers(1, 10**12).map(str)
    return st.one_of(
        values.map(repr),
        values.map(lambda x: format(x, ".17e")),
        values.map(lambda x: format(x, ".17E")),
        values.map(lambda x: "+" + repr(x) if math.copysign(1.0, x) > 0 else repr(x)),
        digits.map(lambda d: "." + d),
        digits.map(lambda d: d + "."),
    )


@PROPERTY_SETTINGS
@given(
    float_tokens(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    float_tokens(st.floats(allow_nan=False, allow_infinity=False)),
)
def test_plain_file_reads_numbers_as_float_does(time, value):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        panel, "_read_csv", side_effect=AssertionError("read cell by cell")
    ):
        path = os.path.join(tmp, "panel.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"subject_id,time,result,x\nA,{time},0,{value}\n")
        ds = read_panel_csv(path).dataset
    assert ds.grid.taus[0].hex() == float(time).hex()
    assert float(ds.covariates[0, 0]).hex() == float(value).hex()


@st.composite
def broken_datasets(draw):
    """(subjects, names, schedule, make): subjects breaking several
    structural rules at once, and a call that makes their dataset.  Either
    subjects with visits in any order, repeated, not positive or not finite,
    covariate vectors of any length at any time, made by ``Dataset`` on the
    grid of their visit times (the first subject has a visit, so there is
    one); or array-held subjects whose reports break the adaptive rules or
    hold no visit, made by ``Dataset.from_arrays``."""
    schedule = draw(st.sampled_from((ADAPTIVE, PREDETERMINED)))
    names = tuple(f"x{j}" for j in range(draw(st.integers(0, 2))))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        reports = draw(st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=3, max_size=3), min_size=n, max_size=n))
        ids, grid = [f"a{i}" for i in range(n)], StudyGrid((1.0, 2.0, 3.0))
        subjects = [
            SubjectPanel(sid, tuple(t for t, r in zip(grid.taus, row) if r >= 0), tuple(r for r in row if r >= 0),
                         (0.0,) * len(names) if names else None)
            for sid, row in zip(ids, reports)
        ]
        return subjects, names, schedule, lambda: Dataset.from_arrays(
            ids, reports, grid, np.zeros((n, len(names))), names, schedule)
    vector = st.integers(0, 3).map(lambda width: (0.5,) * width)
    subjects = []
    for i in range(n):
        time = st.sampled_from((-1.0, 0.0, 1.0, 2.0, 2.5, 3.0, math.nan, math.inf, -math.inf))
        times = tuple(draw(st.lists(time, min_size=1 if i == 0 else 0, max_size=4)))
        results = tuple(draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times))))
        kind = draw(st.sampled_from(("none", "fixed", "path")))
        covariates = draw(vector) if kind == "fixed" else None
        # a negative path time is legal, a nan or infinite one is not
        time = st.sampled_from((0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf))
        path = tuple((draw(time), draw(vector)) for _ in range(draw(st.integers(0, 3)))) if kind == "path" else None
        subjects.append(SubjectPanel(f"s{i}", times, results, covariates, path))
    return subjects, names, schedule, lambda: Dataset(tuple(subjects), names, schedule)


@PROPERTY_SETTINGS
@given(broken_datasets())
def test_construction_raises_the_violations_of_the_subject_walk(case):
    """A dataset is made exactly when the walk over the test's own subjects
    finds no violation; otherwise making it raises the walk's list."""
    subjects, names, schedule, make = case
    expected = validate_by_subject(subjects, len(names), schedule)
    if not expected:
        assert make().n == len(subjects)
        return
    with pytest.raises(PanelValidationError) as raised:
        make()
    assert [(v.subject_id, v.rule, v.detail) for v in raised.value.violations] == expected


@st.composite
def invalid_csv_panels(draw):
    """Rows of an adaptive-schedule panel file in which some subjects repeat
    a visit time or report a positive that is not their only, last one."""
    rows = []
    for i in range(draw(st.integers(1, 5))):
        times = draw(st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=3))
        rows += [(f"s{i}", t, draw(st.integers(0, 1)), []) for t in times]
    return draw(st.permutations(rows))


@PROPERTY_SETTINGS
@given(invalid_csv_panels())
def test_fit_command_reports_every_violation(rows):
    by_subject = {sid: sorted((r for r in rows if r[0] == sid), key=lambda r: r[1]) for sid in in_file_order(rows)}
    subjects = [SubjectPanel(sid, tuple(r[1] for r in rs), tuple(r[2] for r in rs)) for sid, rs in by_subject.items()]
    expected = validate_by_subject(subjects, 0, ADAPTIVE)
    assume(expected)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "panel.csv")
        write_csv(rows, (), path)
        code = main(["fit", path, "--phi1", "0.8", "--phi0", "0.9", "--out", os.path.join(tmp, "fit")])
    assert code == EXIT_INPUT_ERROR
    for sid, rule, _ in expected:
        assert f"{sid}: {rule}" in err.getvalue()

"""Maximum-likelihood fitting, inference and sensitivity grids.

The ordering constraint 1 > S_2 > ... > S_{J+1} > 0 is enforced by
optimizing over unconstrained working parameters gamma with
Lambda_j = exp(gamma_j) and S_{j+1} = exp(-sum_{k<=j} Lambda_k), together
with the regression coefficients beta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import stats

from . import likelihood as lik
from .panel import Dataset, ErrorModel, validate

MODEL_ONESAMPLE = "onesample"
MODEL_COV_FIXED = "cov_fixed"
MODEL_COV_TIMEVARYING = "cov_timevarying"
_MODELS = (MODEL_ONESAMPLE, MODEL_COV_FIXED, MODEL_COV_TIMEVARYING)

GAMMA_LOWER = -30.0   # exp(-30) ~ 1e-13: interval effectively carries no mass
GAMMA_UPPER = 8.0
MAX_NEWTON_STEPS = 100
MAX_STEP_LENGTH = 2.0  # largest change of one working parameter per step
_Z975 = stats.norm.ppf(0.975)


class ModelSpecError(ValueError):
    """Dataset and requested model are incompatible."""


@dataclass
class FitResult:
    model: str
    error_model: ErrorModel
    covariate_names: tuple[str, ...]
    taus: tuple[float, ...]
    beta: np.ndarray
    beta_se: np.ndarray
    gamma: np.ndarray
    lambdas: np.ndarray
    survival: np.ndarray              # (S_1=1, S_2, ..., S_{J+1})
    survival_se: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    message: str
    frozen_intervals: tuple[int, ...]          # 1-based interval indices
    cov_working: np.ndarray | None             # order: gamma then beta
    cov_transformed: np.ndarray | None         # order: beta then S_2..S_{J+1}
    wald_z: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wald_p: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hazard_ratio: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hr_ci_low: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hr_ci_high: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def has_covariance(self) -> bool:
        return self.cov_working is not None


def _require_finite(dataset: Dataset, values: np.ndarray, rows: np.ndarray) -> None:
    """Reject a covariate value that is nan or infinite, naming its subject."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        sid = dataset.subjects[rows[np.argmax(bad)]].subject_id
        raise ModelSpecError(f"subject {sid} has a non-finite covariate value")


def _fixed_covariate_matrix(dataset: Dataset) -> np.ndarray:
    z = dataset.covariates
    if z is None:
        sid = next(s.subject_id for s in dataset.subjects if s.covariates is None)
        raise ModelSpecError(
            f"subject {sid} has no time-fixed covariates; "
            "use the time-varying model for covariate paths"
        )
    _require_finite(dataset, z, np.arange(dataset.n))
    return z


def interval_covariates(dataset: Dataset) -> np.ndarray:
    """(N, J, P) covariate value in effect on each grid interval.

    Interval k spans tau_{k-1} to tau_k.  The value is the last
    measurement at or before tau_{k-1}; intervals before a subject's
    first measurement fall back to that earliest value.
    """
    taus = dataset.grid.taus
    J = dataset.grid.J
    paths = []
    for s in dataset.subjects:
        # a time-fixed vector is a path measured once, at entry
        path = ((0.0, s.covariates),) if s.covariates is not None else s.covariate_path
        if not path:
            raise ModelSpecError(f"subject {s.subject_id} has no covariates")
        paths.append(path)
    n = len(paths)
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=n)
    points = list(chain.from_iterable(paths))
    times = np.fromiter((t for t, _ in points), dtype=float, count=len(points))
    values = np.array([v for _, v in points], dtype=float).reshape(len(points), dataset.n_covariates)
    rows = np.repeat(np.arange(n), lengths)
    _require_finite(dataset, values, rows)
    unordered = (rows[1:] == rows[:-1]) & (times[1:] <= times[:-1])
    if unordered.any():
        sid = dataset.subjects[rows[1:][np.argmax(unordered)]].subject_id
        raise ValueError(f"subject {sid}: covariate path times not strictly increasing")
    # a measurement at time t is in effect from the first interval whose
    # left end is at or after t; counting them per interval gives LOCF
    first = np.searchsorted(np.array((0.0,) + taus[:-1]), times, side="left")
    seen = np.bincount(rows * (J + 1) + first, minlength=n * (J + 1)).reshape(n, J + 1)
    seen = np.cumsum(seen[:, :J], axis=1)
    starts = np.cumsum(lengths) - lengths
    return values[starts[:, None] + np.maximum(seen - 1, 0)]


def _life_table_gamma(dataset: Dataset) -> np.ndarray:
    """Naive starting values treating self-reports as perfect."""
    reports = dataset.reports
    J = reports.shape[1]
    observed = reports >= 0
    empty = ~observed.any(axis=1)
    if empty.any():
        sid = dataset.subjects[int(np.argmax(empty))].subject_id
        raise ValueError(f"subject {sid} has no visits")
    positive = reports == 1
    has_event = positive.any(axis=1)
    event = positive.argmax(axis=1)
    last_visit = J - 1 - observed[:, ::-1].argmax(axis=1)
    # a subject is at risk on intervals 1..(first positive, else last visit)
    last = np.where(has_event, event, last_visit)
    at_risk = np.cumsum(np.bincount(last, minlength=J)[::-1])[::-1].astype(float)
    events = np.bincount(event[has_event], minlength=J).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        haz = np.where(at_risk > 0, events / np.maximum(at_risk, 1), 0.0)
    haz = np.clip(haz, 5e-4, 0.95)
    return np.log(-np.log1p(-haz))


def _collapse_rows(c: np.ndarray, z: np.ndarray | None):
    """Merge identical (C row, covariate) pairs into weighted rows."""
    # +0.0 turns -0.0 into 0.0, so that equal rows have equal bytes
    key = np.ascontiguousarray(c) if z is None or z.shape[1] == 0 else np.hstack([c, z + 0.0])
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, idx, counts = np.unique(rows, return_index=True, return_counts=True)
    first_seen = np.argsort(idx)
    order = idx[first_seen]
    weights = counts[first_seen].astype(float)
    c2 = c[order]
    z2 = z[order] if z is not None else None
    return c2, z2, weights


def fit(
    dataset: Dataset,
    error_model: ErrorModel,
    model: str = MODEL_COV_FIXED,
    *,
    grad_tol: float = 1e-5,
    compute_covariance: bool = True,
    check_valid: bool = True,
) -> FitResult:
    """Maximize the chosen log-likelihood and assemble inference results.

    Baseline misclassification is applied whenever ``error_model.eta < 1``.
    Projected damped-Newton steps start from the life-table estimate;
    convergence requires the largest free working-scale gradient component
    to fall to ``grad_tol``, within ``MAX_NEWTON_STEPS`` steps.
    """
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}")
    if check_valid:
        violations = validate(dataset)
        if violations:
            from .panel import PanelValidationError

            raise PanelValidationError(violations)

    J = dataset.grid.J
    p = dataset.n_covariates if model != MODEL_ONESAMPLE else 0
    if model == MODEL_COV_FIXED and dataset.n_covariates == 0:
        model = MODEL_ONESAMPLE
        p = 0
    eta = error_model.eta

    c = lik.build_c_matrix(dataset, error_model)
    impossible = ~c.any(axis=1)
    if impossible.any():
        sid = dataset.subjects[int(np.argmax(impossible))].subject_id
        raise ModelSpecError(
            f"subject {sid}: report pattern is impossible under "
            f"phi1={error_model.phi1:g}, phi0={error_model.phi0:g}"
        )
    z = None
    z_int = None
    weights = None
    if model == MODEL_COV_TIMEVARYING:
        if p == 0:
            raise ModelSpecError("time-varying model requires covariates")
        z_int = interval_covariates(dataset)
    elif p:
        z = _fixed_covariate_matrix(dataset)
        c, z, weights = _collapse_rows(c, z)
    else:
        c, _, weights = _collapse_rows(c, None)

    gamma0 = _life_table_gamma(dataset)
    x0 = np.concatenate([gamma0, np.zeros(p)])

    def negloglik_and_grad(x):
        lambdas = np.exp(x[:J])
        beta = x[J:]
        try:
            ll, g_lambda, g_beta = lik.loglik_and_gradient(
                c, lambdas, beta if p else None, z=z, z_intervals=z_int, eta=eta, weights=weights
            )
        except lik.NonPositiveLikelihoodError:
            # a line-search point put zero mass on some subject's only
            # admissible intervals; report +inf so the search backtracks
            return np.inf, np.zeros(x.size)
        grad = np.concatenate([g_lambda * lambdas, g_beta])
        return -ll, -grad

    def hessian(x):  # of the negative log-likelihood, in the working parameters
        beta = x[J:] if p else None
        return -lik.loglik_hessian(c, np.exp(x[:J]), beta, z=z, z_intervals=z_int, eta=eta, weights=weights)

    x_hat, f_hat, steps, stopped = _newton(negloglik_and_grad, hessian, x0, J, grad_tol)
    converged = stopped is None
    gamma_hat = x_hat[:J]
    beta_hat = x_hat[J:]
    lambdas_hat = np.exp(gamma_hat)
    survival = lik.survival_from_increments(lambdas_hat)
    loglik_hat = -f_hat
    if converged:
        message = f"converged after {steps} Newton step(s)"
    else:
        message = f"not converged: stopped after {steps} Newton step(s) because {stopped}"

    frozen = tuple(int(j + 1) for j in np.flatnonzero(gamma_hat <= GAMMA_LOWER + 1e-6))

    cov_working = None
    cov_transformed = None
    beta_se = np.full(p, np.nan)
    survival_se = np.full(J + 1, np.nan)
    if compute_covariance:
        cov_working, cov_transformed = _covariances(
            hessian(x_hat), J, p, lambdas_hat, survival, frozen
        )
        if cov_working is not None:
            beta_se = np.sqrt(np.maximum(np.diag(cov_working)[J:], 0.0))
            survival_se = np.concatenate(
                ([0.0], np.sqrt(np.maximum(np.diag(cov_transformed)[p:], 0.0)))
            )

    # a huge SE saturates the hazard-ratio limits at 0 and inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wald_z = beta_hat / beta_se
        hr = np.exp(beta_hat)
        hr_lo = np.exp(beta_hat - _Z975 * beta_se)
        hr_hi = np.exp(beta_hat + _Z975 * beta_se)
    wald_p = 2.0 * stats.norm.sf(np.abs(wald_z))

    return FitResult(
        model=model,
        error_model=error_model,
        covariate_names=dataset.covariate_names if p else (),
        taus=dataset.grid.taus,
        beta=beta_hat,
        beta_se=beta_se,
        gamma=gamma_hat,
        lambdas=lambdas_hat,
        survival=survival,
        survival_se=survival_se,
        loglik=loglik_hat,
        converged=converged,
        iterations=steps,
        message=message,
        frozen_intervals=frozen,
        cov_working=cov_working,
        cov_transformed=cov_transformed,
        wald_z=wald_z,
        wald_p=wald_p,
        hazard_ratio=hr,
        hr_ci_low=hr_lo,
        hr_ci_high=hr_hi,
    )


def _projected_gradient(grad, x, J):
    """Zero components that push against an active gamma bound."""
    gamma, g = x[:J], grad[:J]
    pinned = ((gamma <= GAMMA_LOWER + 1e-9) & (g > 0)) | ((gamma >= GAMMA_UPPER - 1e-9) & (g < 0))
    proj = grad.copy()
    proj[:J][pinned] = 0.0
    return proj


def _newton(negloglik_and_grad, hessian, x, J, grad_tol):
    """Projected damped Newton (Nocedal and Wright 2006, ch. 3-4) from
    ``x``, gamma kept inside its bounds, with Armijo backtracking.  The
    Hessian's eigenvalues enter in absolute value, so an indefinite one
    still gives a descent direction.  Returns ``(x, objective value at x,
    steps taken, None)`` once the projected gradient is at most
    ``grad_tol``, else with the reason for stopping in place of None.
    """
    f, g = negloglik_and_grad(x)
    for steps in range(MAX_NEWTON_STEPS + 1):
        proj = _projected_gradient(g, x, J)
        if np.max(np.abs(proj)) <= grad_tol:
            return x, f, steps, None
        if steps == MAX_NEWTON_STEPS:
            return x, f, steps, "it reached the step limit"
        free = proj == g  # all but the components pinned at a bound
        h = hessian(x)
        # near-zero-mass intervals contribute no curvature (and a matching
        # near-zero gradient); drop them so the Newton system stays regular
        free[:J] &= np.abs(np.diag(h)[:J]) > 1e-6
        w, v = np.linalg.eigh(h[np.ix_(free, free)])
        w = np.abs(w)
        if w.max(initial=0.0) == 0.0:
            return x, f, steps, "no free parameter has curvature"
        direction = v @ ((v.T @ -g[free]) / np.maximum(w, 1e-8 * w.max()))
        slope = float(g[free] @ direction)
        # a near-flat direction would otherwise throw the point onto the
        # plateau where some S_j underflows and every gradient vanishes
        t = MAX_STEP_LENGTH / np.max(np.abs(direction), initial=MAX_STEP_LENGTH)
        for _ in range(25):
            x_new = x.copy()
            x_new[free] += t * direction
            x_new[:J] = np.clip(x_new[:J], GAMMA_LOWER, GAMMA_UPPER)
            f_new, g_new = negloglik_and_grad(x_new)
            # an infeasible point reports f = inf with a zero gradient
            if np.isfinite(f_new) and f_new <= f + 1e-4 * t * slope + 1e-12 * max(1.0, abs(f)):
                break
            t *= 0.5
        else:
            return x, f, steps, "no step lowered the objective"
        x, f, g = x_new, f_new, g_new


def _covariances(hessian, J, p, lambdas, survival, frozen):
    """Inverse observed information of (gamma, beta) from ``hessian``, the
    closed-form Hessian of the negative log-likelihood at the estimate, and
    the delta-method covariance of (beta, S_2..S_{J+1}).  Frozen and
    no-curvature intervals get zero rows; ``(None, None)`` if the rest is
    numerically singular (its inverse would be rounding noise) or gives a
    negative variance."""
    k = hessian.shape[0]

    free = np.ones(k, dtype=bool)
    free[[j - 1 for j in frozen]] = False
    free[:J] &= np.diag(hessian)[:J] > 1e-6  # no-curvature intervals carry no mass
    idx = np.flatnonzero(free)
    sub = hessian[np.ix_(idx, idx)]
    try:
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv.size and sv[-1] <= 1e-12 * sv[0]:
            return None, None
        cov_free = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        return None, None
    if not np.all(np.isfinite(cov_free)) or np.any(np.diag(cov_free) < -1e-8):
        return None, None
    cov = np.zeros((k, k))
    cov[np.ix_(idx, idx)] = cov_free

    # delta method: rows are beta then S_2..S_{J+1}; columns gamma then beta
    jac = np.zeros((p + J, k))
    jac[:p, J:] = np.eye(p)
    for j in range(2, J + 2):  # S_j depends on gamma_1..gamma_{j-1}
        s_j = survival[j - 1]
        jac[p + j - 2, : j - 1] = -s_j * lambdas[: j - 1]
    cov_transformed = jac @ cov @ jac.T
    return cov, cov_transformed


def wald_test(fit_result: FitResult, contrast) -> tuple[float, float]:
    """Wald z-test for one coefficient index or a linear contrast on beta."""
    if not fit_result.has_covariance:
        raise ValueError("fit has no covariance; Wald test unavailable")
    beta = fit_result.beta
    p = beta.size
    J = fit_result.gamma.size
    cov_beta = fit_result.cov_working[J:, J:]
    if np.isscalar(contrast) and isinstance(contrast, (int, np.integer)):
        vec = np.zeros(p)
        vec[int(contrast)] = 1.0
    else:
        vec = np.asarray(contrast, dtype=float)
        if vec.shape != (p,):
            raise ValueError(f"contrast must have length {p}")
    est = float(vec @ beta)
    se = math.sqrt(float(vec @ cov_beta @ vec))
    z = est / se
    return z, float(2.0 * stats.norm.sf(abs(z)))


def lr_test(fit_full: FitResult, fit_reduced: FitResult, df: int) -> tuple[float, float]:
    """Likelihood-ratio test of nested fits against chi-square(df)."""
    stat = 2.0 * (fit_full.loglik - fit_reduced.loglik)
    if stat < -1e-8:
        raise ValueError(
            f"full-model log-likelihood below reduced ({stat / 2:.3g}); optimizer failure"
        )
    stat = max(stat, 0.0)
    return stat, float(stats.chi2.sf(stat, df))


def survival_curve(fit_result: FitResult, covariate_profile) -> list[tuple[float, float, float, float]]:
    """Survival at each grid time for a covariate profile, with 95% CIs.

    Returns rows (tau_j, S, lo, hi) where S is the survival probability
    just past tau_j.  Confidence limits come from the delta method on the
    complementary log-log scale, so they always lie inside [0, 1].
    """
    profile = np.asarray(covariate_profile, dtype=float)
    p = fit_result.beta.size
    if profile.shape != (p,):
        raise ValueError(f"profile must have length {p}")
    J = fit_result.gamma.size
    lambdas = fit_result.lambdas
    cum = np.cumsum(lambdas)
    e = float(np.exp(profile @ fit_result.beta)) if p else 1.0
    out = []
    for j in range(1, J + 1):  # survival just past tau_j is S_{j+1}^e
        h = cum[j - 1]
        s_prof = math.exp(-e * h)
        lo = hi = float("nan")
        if fit_result.has_covariance:
            # v = log(-log S^e) = z'beta + log H_j
            grad = np.zeros(J + p)
            grad[:j] = lambdas[:j] / h
            grad[J:] = profile
            var = float(grad @ fit_result.cov_working @ grad)
            sd = math.sqrt(max(var, 0.0))
            v = math.log(e * h) if e * h > 0 else -math.inf
            # cap the cloglog limits so huge SEs saturate at 0/1 instead of
            # overflowing exp
            hi = math.exp(-math.exp(min(v - _Z975 * sd, 700.0)))
            lo = math.exp(-math.exp(min(v + _Z975 * sd, 700.0)))
        out.append((fit_result.taus[j - 1], s_prof, lo, hi))
    return out


@dataclass(frozen=True)
class GridCell:
    phi1: float
    phi0: float
    eta: float
    fit: FitResult | None
    error: str | None = None


@dataclass(frozen=True)
class SensitivityGrid:
    cells: tuple[GridCell, ...]


def sensitivity_grid(dataset: Dataset, model: str, error_models) -> SensitivityGrid:
    """Refit the same dataset and model once per error-model cell."""
    error_models = list(error_models)
    if not error_models:
        raise ValueError("sensitivity grid needs at least one cell")
    cells = []
    for em in error_models:
        try:
            cells.append(GridCell(em.phi1, em.phi0, em.eta, fit(dataset, em, model)))
        except Exception as exc:  # per-cell failures are recorded, not fatal
            cells.append(GridCell(em.phi1, em.phi0, em.eta, None, error=str(exc)))
    return SensitivityGrid(cells=tuple(cells))


def fit_to_dict(fit_result: FitResult) -> dict:
    """JSON-serializable summary of a fit."""
    f = fit_result

    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    coefficients = [
        {
            "name": name,
            "estimate": float(f.beta[i]),
            "se": float(f.beta_se[i]),
            "z": float(f.wald_z[i]),
            "p_value": float(f.wald_p[i]),
            "hazard_ratio": float(f.hazard_ratio[i]),
            "hr_ci_low": float(f.hr_ci_low[i]),
            "hr_ci_high": float(f.hr_ci_high[i]),
        }
        for i, name in enumerate(f.covariate_names)
    ]
    return {
        "model": f.model,
        "error_model": {"phi1": f.error_model.phi1, "phi0": f.error_model.phi0, "eta": f.error_model.eta},
        "taus": list(f.taus),
        "coefficients": coefficients,
        "baseline_survival": arr(f.survival),
        "baseline_survival_se": arr(f.survival_se),
        "hazard_increments": arr(f.lambdas),
        "loglik": f.loglik,
        "convergence": {
            "converged": f.converged,
            "iterations": f.iterations,
            "message": f.message,
            "frozen_intervals": list(f.frozen_intervals),
        },
        "covariance_working": arr(f.cov_working),
        "covariance_beta_survival": arr(f.cov_transformed),
    }


def fit_to_json(fit_result: FitResult) -> str:
    return json.dumps(fit_to_dict(fit_result), indent=2)


def coefficient_rows(fit_result: FitResult) -> list[dict]:
    """Flat coefficient table for CSV output."""
    return fit_to_dict(fit_result)["coefficients"]

"""Maximum-likelihood fitting, inference and sensitivity grids.

The ordering constraint 1 > S_2 > ... > S_{J+1} > 0 is enforced by
optimizing over unconstrained working parameters gamma with
Lambda_j = exp(gamma_j) and S_{j+1} = exp(-sum_{k<=j} Lambda_k), together
with the regression coefficients beta.  Every model's kernel sees one row
per distinct (report row, covariate row) of its subjects, weighted by its
count, in an order set by the rows' values alone (:func:`_patterns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import likelihood as lik
from .panel import Dataset, ErrorModel, validate  # noqa: F401  perfbench/spans.py wraps estimate.validate

MODEL_ONESAMPLE = "onesample"
MODEL_COV_FIXED = "cov_fixed"
MODEL_COV_TIMEVARYING = "cov_timevarying"
_MODELS = (MODEL_ONESAMPLE, MODEL_COV_FIXED, MODEL_COV_TIMEVARYING)

GAMMA_LOWER = -30.0   # exp(-30) ~ 1e-13: interval effectively carries no mass
GAMMA_UPPER = 8.0
MAX_NEWTON_STEPS = 100
GRAD_TOL = 1e-5  # convergence: the largest free working-scale gradient component at most this
MAX_STEP_LENGTH = 2.0  # largest change of one working parameter per step
# scoring goes on while it predicts more than this many log-likelihood units: over the 480 published-design fits
# (seed 1) a fit takes 6.02 steps, against 7.49 with no scoring, 6.29 at 3 units, 5.81 at 0.1 and 8.70 at 0
_SCORING_GAIN = 1.0
_Z975 = 1.959963984540054  # standard normal 97.5 % quantile


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


def interval_covariates(dataset: Dataset) -> np.ndarray:
    """(N, J, P) covariate value in effect on each grid interval, as a
    Fortran-ordered array.

    Interval k spans tau_{k-1} to tau_k.  The value is the last
    measurement at or before tau_{k-1}; intervals before a subject's
    first measurement fall back to that earliest value.  A made dataset
    gives every subject finite, increasing measurement times.
    """
    rows, times, values = dataset.covariate_paths
    n, J = dataset.n, dataset.grid.J
    lengths = np.bincount(rows, minlength=n)
    # a measurement at time t is in effect from the first interval whose left end is
    # at or after t: the count of left ends before t, summed in the smallest type
    # that holds J (3x faster than a binary search); counted per interval, LOCF
    lefts = np.array((0.0,) + dataset.grid.taus[:-1])[:, None]
    first = np.add.reduce(lefts < times, axis=0, dtype=np.min_scalar_type(J)).astype(np.intp)
    seen = np.bincount(first * n + rows, minlength=(J + 1) * n).reshape(J + 1, n)[:J]
    for k in range(1, J):  # a running sum by rows: cumsum along axis 0 is 6x slower
        seen[k] += seen[k - 1]
    starts = np.cumsum(lengths) - lengths
    # gathered covariate-major, so that the (N, J, P) result is Fortran-ordered
    return np.take(values.T, starts + np.maximum(seen - 1, 0), axis=1).T


def _life_table_gamma(dataset: Dataset) -> np.ndarray:
    """Naive starting values treating self-reports as perfect."""
    rt = np.ascontiguousarray(dataset.reports.T)  # (J, N): reduce along the long axis
    J = rt.shape[0]
    up = np.arange(1, J + 1, dtype=np.min_scalar_type(-J - 1))[:, None]  # 1..J, smallest signed type
    last_visit = ((rt >= 0) * up).max(axis=0) - 1
    if (last_visit < 0).any():
        raise ValueError(f"subject {dataset.subject_id(int(np.argmax(last_visit < 0)))} has no visits")
    event = J - ((rt == 1) * up[::-1]).max(axis=0)  # the first positive report; J if none
    # a subject is at risk on intervals 1..(first positive, else last visit)
    last = np.minimum(event, last_visit)
    at_risk = np.cumsum(np.bincount(last, minlength=J)[::-1])[::-1]
    events = np.bincount(event, minlength=J + 1)[:J]  # none where no one is at risk
    haz = np.clip(events / np.maximum(at_risk, 1), 5e-4, 0.95)
    return np.log(-np.log1p(-haz))


@lru_cache(maxsize=None)
def _projection(k: int) -> np.ndarray:
    """Fixed weights of ``k`` key columns, under 1 / (k + 1): a projection of finite values cannot overflow."""
    return np.random.default_rng(k).uniform(0.5, 1.0, k) / (k + 1)


def _patterns(reports: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest subject index and count of each distinct (report row, covariate
    row), in an order that depends only on the rows' values (-0.0 counts as
    0.0): that of a projection of each row, summed column by column so that
    equal rows project to equal bits, with ties between different rows
    broken by the full row."""
    columns = [*reports.T, *z.T]
    proj = sum(column * weight for column, weight in zip(columns, _projection(len(columns))))
    order = np.argsort(proj)
    tied = np.diff(proj[order]) == 0  # equal neighbours
    if not tied.any():  # every row is distinct
        return order, np.ones_like(order)
    for exact in (False, True):
        changed = np.zeros_like(tied)  # the row differs from the one sorted before it
        for column in columns:
            sorted_column = column[order]
            changed |= sorted_column[1:] != sorted_column[:-1]
        if exact or not (changed & tied).any():
            break
        order = np.lexsort((*columns[::-1], proj))  # different rows share a projection: by the full row too
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    return np.minimum.reduceat(order, starts), np.diff(starts, append=order.size)


def _model_and_p(dataset: Dataset, model: str) -> tuple[str, int]:
    """The model fitted (the fixed model without covariates is the
    one-sample one) and its number of coefficients."""
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}")
    p = 0 if model == MODEL_ONESAMPLE else dataset.n_covariates
    if model == MODEL_COV_TIMEVARYING and not p:
        raise ModelSpecError("time-varying model requires covariates")
    return model if p else MODEL_ONESAMPLE, p


def fit(
    dataset: Dataset,
    error_model: ErrorModel,
    model: str = MODEL_COV_FIXED,
    *,
    check_valid: bool = True,  # ignored, as a made dataset is valid; perfbench/workloads.py passes it
) -> FitResult:
    """Maximize the chosen log-likelihood and assemble inference results.

    Baseline misclassification is applied whenever ``error_model.eta < 1``.
    Projected damped scoring steps, then Newton steps, start from the
    life-table estimate; convergence requires the largest free working-scale
    gradient component to fall to ``GRAD_TOL``, within ``MAX_NEWTON_STEPS`` steps.
    """
    model, p = _model_and_p(dataset, model)
    J, n = dataset.grid.J, dataset.n
    tv = model == MODEL_COV_TIMEVARYING
    if tv:  # a subject's covariate row: its J * P interval covariates
        z = interval_covariates(dataset).reshape(n, J * p, order="F")
    else:  # its time-fixed ones, or none
        z = dataset.covariates if p else np.empty((n, 0))
        if z is None:
            raise ModelSpecError(f"subject {dataset.vectorless_subject_id()} has no time-fixed covariates; "
                                 "use the time-varying model for covariate paths")
    points, _, values = dataset.covariate_paths  # every value, in effect or not; a time-fixed vector is one point
    bad = ~np.isfinite(values).all(axis=1)
    if p and bad.any():
        raise ModelSpecError(f"subject {dataset.subject_id(points[np.argmax(bad)])} has a non-finite covariate value")
    # one kernel row per distinct (report row, covariate row), weighted by its count
    rows, counts = _patterns(dataset.reports, z)
    zk = np.take(z.T, rows, axis=1).reshape(p, J if tv else 1, rows.size)  # as KernelRows reads it
    zk += 0.0  # -0.0 as 0.0
    c = lik.build_c_matrix(dataset, error_model, rows)
    impossible = ~c.any(axis=1)
    if impossible.any():  # named by its first subject in file order
        raise ModelSpecError(f"subject {dataset.subject_id(rows[impossible].min())}: report pattern is impossible "
                             f"under phi1={error_model.phi1:g}, phi0={error_model.phi0:g}")
    x0 = np.concatenate([_life_table_gamma(dataset), np.zeros(p)])
    kernel_rows = lik.KernelRows(c, z_intervals=zk.T, eta=error_model.eta, weights=counts.astype(float))

    def evaluate(x):  # the negative log-likelihood in the working parameters (gamma = log lambda, beta)
        lambdas = np.exp(x[:J])
        try:
            ll, g_lambda, g_beta, hessian = lik.loglik_and_gradient(kernel_rows, lambdas, x[J:])
        except lik.NonPositiveLikelihoodError:
            if x is x0:  # an infeasible start has no step to back off from
                raise
            # a line-search point put zero mass on some subject's only
            # admissible intervals; report +inf so the search backtracks
            return np.inf, np.zeros(x.size), None
        g, lift = np.concatenate([g_lambda * lambdas, g_beta]), np.concatenate([lambdas, np.ones(p)])
        # the chain rule: H_gamma = Lambda H_lambda Lambda + diag(g_gamma), negated; scoring's Lambda B Lambda lacks it
        return -ll, -g, lambda exact=True: -(hessian(exact) * np.outer(lift, lift)
                                             + np.diag(np.append(g[:J], np.zeros(p)) * exact))

    x_hat, f_hat, (free, w, v), steps, stopped = _newton(evaluate, x0, J, GRAD_TOL)
    gamma_hat, beta_hat = x_hat[:J], x_hat[J:]
    lambdas_hat = np.exp(gamma_hat)
    survival = lik.survival_from_increments(lambdas_hat)
    message = (f"converged after {steps} Newton step(s)" if stopped is None
               else f"not converged: stopped after {steps} Newton step(s) because {stopped}")
    kept = np.zeros(J + p, dtype=bool)
    kept[free] = True  # the parameters of the final point's Newton system
    frozen = tuple(int(j + 1) for j in np.flatnonzero(~kept[:J]))

    beta_se, survival_se = np.full(p, np.nan), np.full(J + 1, np.nan)
    cov_working, cov_transformed = _covariances(kept, w, v, J, p, lambdas_hat, survival)
    if cov_working is not None:
        beta_se = np.sqrt(np.maximum(np.diag(cov_working)[J:], 0.0))
        survival_se = np.concatenate(([0.0], np.sqrt(np.maximum(np.diag(cov_transformed)[p:], 0.0))))

    # a huge SE saturates the hazard-ratio limits at 0 and inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wald_z = beta_hat / beta_se
        hr = np.exp(beta_hat)
        hr_lo = np.exp(beta_hat - _Z975 * beta_se)
        hr_hi = np.exp(beta_hat + _Z975 * beta_se)
    wald_p = np.array([_two_sided_p(v) for v in wald_z])

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
        loglik=-f_hat,
        converged=stopped is None,
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


def _newton(evaluate, x, J, grad_tol):
    """Projected damped scoring, then Newton (Jennrich and Sampson 1976;
    Nocedal and Wright 2006, ch. 3-4) from ``x``, gamma kept inside its
    bounds, with Armijo backtracking.  ``evaluate(x)`` gives the objective,
    its gradient and ``hessian(exact)``, which forms its Hessian, or the
    scores' outer product B.  Scoring goes on while 1/2 g'|B|^-1 g exceeds
    ``_SCORING_GAIN`` and has at least halved since the last scoring point;
    the first point where it does not, or where the loop would stop, is
    factored again with the exact Hessian, as is every later one.  Each
    factorization is of the block of the free parameters ``free`` (a slice
    when all are): eigenvalues ``w``, which enter the step in absolute value
    (so an indefinite one still descends), and eigenvectors ``v``, both None
    if it cannot be factored.  Returns ``(x, objective value, (free, w, v) of
    the exact Hessian, steps taken, None)`` once the projected gradient is at
    most ``grad_tol``, else with the reason for stopping in place of None.
    """
    f, g, hessian = evaluate(x)
    steps, exact, gain = 0, False, math.inf  # gain: the last point's predicted gain 1/2 g'|H|^-1 g
    while True:
        bounded = J and (x[:J].min() <= GAMMA_LOWER + 1e-9 or x[:J].max() >= GAMMA_UPPER - 1e-9)
        proj = _projected_gradient(g, x, J) if bounded else g
        largest = np.abs(proj).max()
        h = hessian(exact)
        # near-zero-mass intervals contribute no curvature (and a matching near-zero
        # gradient); drop them, and the pinned and nan components, from the Newton system
        curved = np.abs(h.diagonal()[:J]) > 1e-6
        free = slice(None)
        if bounded or largest != largest or not curved.all():
            free = proj == g
            free[:J] &= curved
            h = h[np.ix_(free, free)]
        try:
            w, v = np.linalg.eigh(h)
        except np.linalg.LinAlgError:
            w = v = None
        # why the loop stops at this point ("" when converged), or None
        stopped = ("" if largest <= grad_tol else "it reached the step limit" if steps == MAX_NEWTON_STEPS
                   else "its Hessian could not be factored" if w is None
                   else "no free parameter has curvature" if np.abs(w).max(initial=0.0) == 0.0 else None)
        if stopped is None:  # the step in the eigenbasis, over the floored |eigenvalues|
            curvature, toward = np.abs(w), v.T @ -g[free]
            step = toward / np.maximum(curvature, 1e-8 * curvature.max())
        if not exact and (stopped is not None or not _SCORING_GAIN < 0.5 * toward @ step <= gain / 2):
            exact = True  # the switch: this point again, with the exact Hessian
            continue
        if stopped is not None:
            return x, f, (free, w, v), steps, stopped or None
        gain, direction = 0.5 * toward @ step, v @ step
        slope = float(g[free] @ direction)
        # a near-flat direction would otherwise throw the point onto the
        # plateau where some S_j underflows and every gradient vanishes
        t = MAX_STEP_LENGTH / np.abs(direction).max(initial=MAX_STEP_LENGTH)
        for _ in range(25):
            x_new = x.copy()
            x_new[free] += t * direction
            np.minimum(np.maximum(x_new[:J], GAMMA_LOWER, out=x_new[:J]), GAMMA_UPPER, out=x_new[:J])
            f_new, g_new, hessian_new = evaluate(x_new)
            # an infeasible point reports f = inf with a zero gradient
            if math.isfinite(f_new) and f_new <= f + 1e-4 * t * slope + 1e-12 * max(1.0, abs(f)):
                break
            t *= 0.5
        else:
            if exact:
                return x, f, (free, w, v), steps, "no step lowered the objective"
            exact = True  # the switch
            continue
        x, f, g, hessian, steps = x_new, f_new, g_new, hessian_new, steps + 1


def _covariances(free, w, v, J, p, lambdas, survival):
    """Inverse observed information of (gamma, beta) from ``w, v``, the
    eigendecomposition of the block ``free`` (a mask) of the negative
    log-likelihood's Hessian at the estimate, and the delta-method covariance
    of (beta, S_2..S_{J+1}).  Parameters outside the block get zero rows; ``(None, None)`` if the block could not be
    factored, is numerically singular (its inverse would be rounding noise:
    the |eigenvalues| are the singular values) or gives a negative variance."""
    if w is None or (w.size and np.abs(w).min() <= 1e-12 * np.abs(w).max()):
        return None, None
    cov_free = (v / w) @ v.T
    if not np.all(np.isfinite(cov_free)) or np.any(np.diag(cov_free) < -1e-8):
        return None, None
    cov = np.zeros((J + p, J + p))
    cov[slice(None) if free.all() else np.ix_(free, free)] = cov_free  # no index arrays when all are free

    # delta method: rows are beta then S_2..S_{J+1}; columns gamma then beta
    jac = np.zeros((p + J, J + p))
    jac[:p, J:] = np.eye(p)
    jac[p:, :J] = np.tril(-survival[1:, None] * lambdas)  # S_j depends on gamma_1..gamma_{j-1}
    return cov, jac @ cov @ jac.T


def _two_sided_p(z: float) -> float:
    """2 P(Z > |z|) = erfc(|z| / sqrt 2) for a standard normal Z."""
    return math.erfc(abs(z) * math.sqrt(0.5))  # times 1/sqrt 2, as scipy's ndtr


def wald_test(fit_result: FitResult, contrast) -> tuple[float, float]:
    """Wald z-test for one coefficient index (0 to p-1; not a bool) or a
    linear contrast on beta, whose variance must be positive."""
    if not fit_result.has_covariance:
        raise ValueError("fit has no covariance; Wald test unavailable")
    beta = fit_result.beta
    p = beta.size
    J = fit_result.gamma.size
    cov_beta = fit_result.cov_working[J:, J:]
    if isinstance(contrast, (int, np.integer)) and not isinstance(contrast, bool):
        if not 0 <= contrast < p:
            raise ValueError(f"coefficient index {contrast} is out of range for {p} coefficient(s)")
        vec = np.zeros(p)
        vec[contrast] = 1.0
    else:
        vec = np.asarray(contrast, dtype=float)
        if vec.shape != (p,):
            raise ValueError(f"contrast must be a coefficient index or have length {p}, got {contrast!r}")
    var = float(vec @ cov_beta @ vec)
    if not var > 0.0:
        raise ValueError(f"contrast has variance {var:g}; the Wald test needs a positive one")
    z = float(vec @ beta) / math.sqrt(var)
    return z, _two_sided_p(z)


def lr_test(fit_full: FitResult, fit_reduced: FitResult, df: int) -> tuple[float, float]:
    """Likelihood-ratio test of nested fits against chi-square(df), df a
    positive integer."""
    if isinstance(df, bool) or not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    stat = 2.0 * (fit_full.loglik - fit_reduced.loglik)
    if stat < -1e-8:
        raise ValueError(
            f"full-model log-likelihood below reduced ({stat / 2:.3g}); optimizer failure"
        )
    stat = max(stat, 0.0)
    # closed-form upper tail: the series of the odd or the even df family
    term, tail = (math.sqrt(2.0 * stat / math.pi), math.erfc(math.sqrt(stat / 2.0))) if df % 2 else (1.0, 0.0)
    term *= math.exp(-stat / 2.0)
    for k in range(2 + df % 2, df + 1, 2):
        tail += term
        term *= stat / k
    return stat, tail


def survival_curve(fit_result: FitResult, covariate_profile) -> list[tuple[float, float, float, float]]:
    """Survival at each grid time for a covariate profile, with 95% CIs.

    Returns rows (tau_j, S, lo, hi) where S is the survival probability
    just past tau_j.  Confidence limits come from the delta method on the
    complementary log-log scale, so they always lie inside [0, 1].
    """
    profile = np.asarray(covariate_profile, dtype=float)
    p = fit_result.beta.size
    if profile.shape != (p,) or not np.isfinite(profile).all():
        raise ValueError(f"covariate profile must be {p} finite value(s), got {covariate_profile!r}")
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


def sensitivity_grid(dataset: Dataset, model: str, error_models) -> tuple[GridCell, ...]:
    """Refit the same dataset and model once per error-model cell; a cell
    whose fit raises a ``ValueError`` records its message."""
    error_models = list(error_models)
    if not error_models:
        raise ValueError("sensitivity grid needs at least one cell")
    _model_and_p(dataset, model)  # a model error fails every cell alike
    cells = []
    for em in error_models:
        try:
            cells.append(GridCell(em.phi1, em.phi0, em.eta, fit(dataset, em, model)))
        except ValueError as exc:  # an impossible pattern, a singular system: recorded, not fatal
            cells.append(GridCell(em.phi1, em.phi0, em.eta, None, error=str(exc)))
    return tuple(cells)


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

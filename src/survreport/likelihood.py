"""Log-likelihood machinery for error-prone panel outcome data.

The observed-data likelihood for one subject is a mixture over the J+1
intervals that could contain the latent event time:

    L_i = sum_j theta_j * C_ij,    theta_j = S_j - S_{j+1},

where C_ij multiplies the per-visit report probabilities given the event
lies in interval j.  With proportional hazards the subject-specific
survival is S_j^(i) = S_j ** exp(z_i' beta); with a time-varying
covariate path it is built from per-interval cumulative hazard
increments.  Baseline misclassification mixes in a prevalent-case term
weighted by 1 - eta.

Values are evaluated in the survival-difference (theta) form, whose terms
are all non-negative; the equivalent coefficient transform D = C @ T_r is
exposed for callers who want the compact linear form.  One kernel,
``loglik_and_gradient``, serves every model variant, and
``loglik_hessian`` gives its exact second derivatives.
"""

from __future__ import annotations

import math

import numpy as np

from .panel import Dataset, ErrorModel

BEFORE_EVENT_INTERVAL = "before_event_interval"
AFTER_EVENT_INTERVAL = "after_event_interval"

# exp(z'beta) is clamped to this range during optimization so that wild
# line-search points cannot overflow; converged solutions are unaffected.
LINEAR_PREDICTOR_CLAMP = 50.0


class NonPositiveLikelihoodError(ValueError):
    """A subject's likelihood is non-positive: the observed pattern is
    impossible under the supplied error model and parameters."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"subject row {row} has non-positive likelihood")


def report_probability(result: int, relation: str, error_model: ErrorModel) -> float:
    """Probability of one report given the visit's relation to the event.

    ``after_event_interval`` means the visit time is at or past the right
    end of the interval containing the event (the event has occurred by
    the visit); ``before_event_interval`` means the visit is at or before
    the interval's left end.
    """
    if relation == AFTER_EVENT_INTERVAL:
        p_pos = error_model.phi1
    elif relation == BEFORE_EVENT_INTERVAL:
        p_pos = 1.0 - error_model.phi0
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return p_pos if result == 1 else 1.0 - p_pos


def transform_matrix(J: int) -> np.ndarray:
    """(J+1)x(J+1) matrix T with theta = T @ S: +1 diagonal, -1 superdiagonal."""
    if J < 1:
        raise ValueError("J must be at least 1")
    t = np.eye(J + 1)
    idx = np.arange(J)
    t[idx, idx + 1] = -1.0
    return t


def to_d_matrix(c: np.ndarray) -> np.ndarray:
    """Transformed coefficients D with sum_j C_ij theta_j == sum_j D_ij S_j."""
    c = np.asarray(c, dtype=float)
    d = c.copy()
    d[:, 1:] -= c[:, :-1]
    return d


def build_c_matrix(dataset: Dataset, error_model: ErrorModel) -> np.ndarray:
    """N x (J+1) coefficient matrix of per-interval report probabilities.

    Row i, column j is the probability of subject i's report vector given
    the event time falls in interval j; column J+1 corresponds to the
    event never occurring.
    """
    reports = dataset.reports
    n, J = reports.shape
    phi1, phi0 = error_model.phi1, error_model.phi0
    # per-cell report probability, indexed by report + 1 (a missed visit
    # contributes a factor of 1)
    after = np.array([1.0, 1.0 - phi1, phi1])[reports + 1]    # visit after the event
    before = np.array([1.0, phi0, 1.0 - phi0])[reports + 1]   # visit before the event
    # for column j the visits at tau_1..tau_{j-1} precede the event
    # interval and the rest follow it
    c = np.ones((n, J + 1))
    np.cumprod(before, axis=1, out=c[:, 1:])
    c[:, :J] *= np.cumprod(after[:, ::-1], axis=1)[:, ::-1]
    return c


def survival_from_increments(lambdas: np.ndarray) -> np.ndarray:
    """Baseline survival (S_1=1, ..., S_{J+1}) from cumulative-hazard increments."""
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0):
        raise ValueError("hazard increments must be non-negative")
    return np.exp(-np.concatenate(([0.0], np.cumsum(lambdas))))


def _clamped_exp_lp(z: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of the clamped linear predictor plus the not-clamped mask."""
    u = np.asarray(z, dtype=float) @ np.asarray(beta, dtype=float)
    mask = np.abs(u) < LINEAR_PREDICTOR_CLAMP
    return np.exp(np.clip(u, -LINEAR_PREDICTOR_CLAMP, LINEAR_PREDICTOR_CLAMP)), mask


def _row_mixture(c, subject_survival, eta):
    """Per-subject likelihood eta * sum_j C_ij theta_j^(i) + (1-eta) C_i1."""
    theta = subject_survival - np.concatenate(
        (subject_survival[:, 1:], np.zeros((subject_survival.shape[0], 1))), axis=1
    )
    row = np.einsum("ij,ij->i", c, theta)
    if eta != 1.0:
        row = eta * row + (1.0 - eta) * c[:, 0]
    return row


def _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights):
    """Front half shared by the value, the gradient and the Hessian.

    Returns ``(lp, mask, rows, q, tail, scale)``: exp of the clamped linear
    predictor ((N, J) with ``z_intervals``, else (N,)) and its not-clamped
    mask, the per-subject likelihoods, q_ij = D_ij S_j^(i), the tail sums
    T_ik = sum_{j>k} q_ij, and the (weighted) eta / rows.
    """
    if z is not None and z_intervals is not None:
        raise ValueError("pass either z or z_intervals, not both")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    if np.any(lambdas < 0):
        raise ValueError("hazard increments must be non-negative")
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if z_intervals is not None:
        lp, mask = _clamped_exp_lp(z_intervals, beta)  # (N, J)
        cum = np.cumsum(lambdas[None, :] * lp, axis=1)
        ss = np.exp(-np.concatenate((np.zeros((n, 1)), cum), axis=1))
    else:
        if beta.size:
            lp, mask = _clamped_exp_lp(z, beta)  # (N,)
        else:
            lp = np.ones(n)
            mask = np.ones(n, dtype=bool)
        h = np.concatenate(([0.0], np.cumsum(lambdas)))
        ss = np.exp(-np.outer(lp, h))

    rows = _row_mixture(c, ss, eta)
    bad = np.flatnonzero(rows <= 0.0)
    if bad.size:
        raise NonPositiveLikelihoodError(int(bad[0]))
    q = to_d_matrix(c) * ss  # (N, J+1); sum_j q_ij == rows pre-mixture
    scale = eta / rows
    if weights is not None:
        scale = scale * np.asarray(weights, dtype=float)
    tail = np.cumsum(q[:, :0:-1], axis=1)[:, ::-1]  # T_ik = sum_{j>k} q_ij
    return lp, mask, rows, q, tail, scale


def _as_params(lambdas, beta):
    lambdas = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float) if beta is not None else np.zeros(0)
    return lambdas, beta


def loglik_and_gradient(
    c,
    lambdas,
    beta,
    z=None,
    z_intervals=None,
    eta: float = 1.0,
    weights=None,
):
    """Log-likelihood and its gradient w.r.t. (lambda, beta).

    Covers every variant: pass ``z`` (N x P) for time-fixed covariates,
    ``z_intervals`` (N x J x P) for time-varying ones, neither for the
    one-sample model, and ``eta < 1`` for baseline misclassification.
    Returns ``(loglik, grad_lambda, grad_beta)``.
    """
    lambdas, beta = _as_params(lambdas, beta)
    lp, mask, rows, q, tail, scale = _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    logs = np.log(rows)
    if weights is not None:
        logs = logs * np.asarray(weights, dtype=float)
    # compensated summation keeps the total stable for very large N
    ll = math.fsum(logs.tolist())

    grad_beta = np.zeros(0)
    if z_intervals is not None:
        grad_lambda = -(scale[:, None] * lp * tail).sum(axis=0)
        if beta.size:
            # d w_ik / d beta_p = w_ik z_ikp (zero where clamped)
            effect = scale[:, None] * (lambdas * lp) * mask * tail  # (N, J)
            grad_beta = -np.einsum("ik,ikp->p", effect, np.asarray(z_intervals, dtype=float))
    else:
        grad_lambda = -((scale * lp)[:, None] * tail).sum(axis=0)
        if beta.size:
            hdot = q @ np.concatenate(([0.0], np.cumsum(lambdas)))  # sum_j q_ij H_j
            grad_beta = -np.asarray(z, dtype=float).T @ (scale * lp * mask * hdot)
    return ll, grad_lambda, grad_beta


def loglik_hessian(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None):
    """Hessian of the log-likelihood w.r.t. the working parameters
    (gamma = log lambda, beta), gamma first.

    Takes the arguments of ``loglik_and_gradient``.  With u_ik = lambda_k
    w_ik the hazard increment of interval k and A_ij = sum_{k<j} u_ik,
    S_j^(i) = exp(-A_ij), so each row's likelihood L_i has second
    derivative eta * sum_j q_ij (dA_ij dA_ij' - d2A_ij), and
    d2 log L_i = d2 L_i / L_i - dL_i dL_i' / L_i^2.  Clamped linear
    predictors get no beta-curvature, as in the gradient.  Time-fixed and
    one-sample models are the J-broadcast of the time-varying form.
    """
    lambdas, beta = _as_params(lambdas, beta)
    p = beta.size
    lp, mask, rows, q, tail, scale = _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    n, J = tail.shape
    if z_intervals is None:
        lp, mask = lp[:, None], mask[:, None]
        zk = np.broadcast_to(np.asarray(z, dtype=float)[:, None, :], (n, J, p)) if p else None
    else:
        zk = np.asarray(z_intervals, dtype=float)
    u = lambdas * lp  # (N, J)
    su = scale[:, None] * u
    # g_i = sum_j q_ij dA_ij, so that d log L_i = -(eta / L_i) g_i
    g = u * tail
    hess = np.zeros((J + p, J + p))
    # gamma-gamma: sum_j q_ij u_ia u_ib [j > max(a, b)]; exact on and above
    # the diagonal, mirrored below
    hess[:J, :J] = su.T @ g - np.diag((su * tail).sum(axis=0))
    if p:
        umz = (u * mask)[:, :, None] * zk
        v = np.cumsum(umz, axis=1)  # v[:, k] = dA_i,k+1 / d beta
        qv = q[:, 1:, None] * v
        r = np.cumsum(qv[:, ::-1], axis=1)[:, ::-1]  # r[:, a] = sum_{j > a} q_ij V_ij
        smt = (scale[:, None] * tail)[:, :, None] * umz
        hess[:J, J:] = np.einsum("ia,iap->ap", su, r) - smt.sum(axis=0)
        hess[J:, J:] = (scale[:, None, None] * qv).reshape(-1, p).T @ v.reshape(-1, p) - (
            smt.reshape(-1, p).T @ zk.reshape(-1, p)
        )
        g = np.concatenate((g, r[:, 0]), axis=1)
    hess -= (g * (scale * eta / rows)[:, None]).T @ g
    return np.triu(hess) + np.triu(hess, 1).T

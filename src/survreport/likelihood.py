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
``loglik_hessian`` gives its exact second derivatives, reusing the front
half of a gradient at the same point through the caller's ``memo``.  Sums
over intervals are products with 0/1 triangular matrices and sums over
subjects products with a vector: numpy reductions along a short axis cost
ten times as much.
"""

from __future__ import annotations

import math

import numpy as np

from .panel import Dataset, ErrorModel

# exp(z'beta) is clamped to this range during optimization so that wild
# line-search points cannot overflow; converged solutions are unaffected.
LINEAR_PREDICTOR_CLAMP = 50.0


class NonPositiveLikelihoodError(ValueError):
    """A subject's likelihood is non-positive: the observed pattern is
    impossible under the supplied error model and parameters."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"subject row {row} has non-positive likelihood")


def _differences(n: int) -> np.ndarray:
    """(n, n) matrix with ``x @ _differences(n)`` = (x_1 - x_2, ..., x_{n-1} - x_n, x_n)."""
    return np.eye(n) - np.eye(n, k=-1)


def to_d_matrix(c: np.ndarray) -> np.ndarray:
    """Transformed coefficients D with sum_j C_ij theta_j == sum_j D_ij S_j."""
    c = np.asarray(c, dtype=float)
    return c @ _differences(c.shape[1]).T  # D_ij = C_ij - C_i,j-1, exactly


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
    z = np.asarray(z, dtype=float)
    # a 2-D product: matmul of a 3-D stack with a vector is ten times slower
    u = np.dot(z.reshape(-1, z.shape[-1]), np.asarray(beta, dtype=float)).reshape(z.shape[:-1])
    mask = np.abs(u) < LINEAR_PREDICTOR_CLAMP
    return np.exp(np.clip(u, -LINEAR_PREDICTOR_CLAMP, LINEAR_PREDICTOR_CLAMP)), mask


def _before(J: int) -> np.ndarray:
    """(J, J+1) 0/1 matrix, [k, j] = 1 when interval k precedes S_j: ``x @
    _before(J)`` sums the first j of x's J columns into column j, ``y @
    _before(J).T`` the columns of y after k into column k."""
    return np.triu(np.ones((J, J + 1)), 1)


def _row_mixture(c, subject_survival, eta):
    """Per-subject likelihood eta * sum_j C_ij theta_j^(i) + (1-eta) C_i1."""
    theta = subject_survival @ _differences(subject_survival.shape[1])  # exact, non-negative
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
    before = _before(lambdas.size)
    if z_intervals is not None:
        lp, mask = _clamped_exp_lp(z_intervals, beta)  # (N, J)
        ss = np.exp(-((lambdas * lp) @ before))
    else:
        lp, mask = _clamped_exp_lp(z, beta) if beta.size else (np.ones(n), np.ones(n, dtype=bool))  # (N,)
        ss = np.exp(-np.outer(lp, lambdas @ before))

    rows = _row_mixture(c, ss, eta)
    bad = np.flatnonzero(rows <= 0.0)
    if bad.size:
        raise NonPositiveLikelihoodError(int(bad[0]))
    q = to_d_matrix(c) * ss  # (N, J+1); sum_j q_ij == rows pre-mixture
    scale = eta / rows
    if weights is not None:
        scale = scale * np.asarray(weights, dtype=float)
    tail = q @ before.T  # T_ik = sum_{j>k} q_ij
    return lp, mask, rows, q, tail, scale


def _as_params(lambdas, beta):
    lambdas = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float) if beta is not None else np.zeros(0)
    return lambdas, beta


def loglik_and_gradient(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None,
                        memo: dict | None = None):
    """Log-likelihood and its gradient w.r.t. (lambda, beta).

    Covers every variant: pass ``z`` (N x P) for time-fixed covariates,
    ``z_intervals`` (N x J x P) for time-varying ones, neither for the
    one-sample model, and ``eta < 1`` for baseline misclassification.
    A caller-owned ``memo`` dict keeps this point's front half for a
    ``loglik_hessian`` at the same point and data.
    Returns ``(loglik, grad_lambda, grad_beta)``.
    """
    lambdas, beta = _as_params(lambdas, beta)
    terms = _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    if memo is not None:
        memo["at"], memo["terms"] = (lambdas.tobytes(), beta.tobytes()), terms
    lp, mask, rows, q, tail, scale = terms
    logs = np.log(rows)
    if weights is not None:
        logs = logs * np.asarray(weights, dtype=float)
    # compensated summation keeps the total stable for very large N
    ll = math.fsum(logs.tolist())

    grad_beta = np.zeros(0)
    if z_intervals is not None:
        lt = lp * tail
        grad_lambda = -(scale @ lt)
        if beta.size:
            # d w_ik / d beta_p = w_ik z_ikp (zero where clamped)
            lz = (lt * mask)[:, :, None] * np.asarray(z_intervals, dtype=float)  # (N, J, P)
            grad_beta = -(lambdas @ (scale @ lz.reshape(lt.shape[0], -1)).reshape(lambdas.size, -1))
    else:
        grad_lambda = -((scale * lp) @ tail)
        if beta.size:
            hdot = q @ (lambdas @ _before(lambdas.size))  # sum_j q_ij H_j
            grad_beta = -np.asarray(z, dtype=float).T @ (scale * lp * mask * hdot)
    return ll, grad_lambda, grad_beta


def loglik_hessian(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None,
                   memo: dict | None = None):
    """Hessian of the log-likelihood w.r.t. the working parameters
    (gamma = log lambda, beta), gamma first.

    Takes the arguments of ``loglik_and_gradient``, and reuses the front
    half a ``memo`` holds from a gradient at the same point.  With
    u_ik = lambda_k w_ik the hazard increment of interval k and
    A_ij = sum_{k<j} u_ik, S_j^(i) = exp(-A_ij), so each row's likelihood
    L_i has second derivative eta * sum_j q_ij (dA_ij dA_ij' - d2A_ij), and
    d2 log L_i = d2 L_i / L_i - dL_i dL_i' / L_i^2.  Clamped linear
    predictors get no beta-curvature, as in the gradient.  In the
    time-fixed model dA_ij / d beta_p = z_ip A_ij, one running sum for all p.
    """
    lambdas, beta = _as_params(lambdas, beta)
    p = beta.size
    if memo is not None and memo.get("at") == (lambdas.tobytes(), beta.tobytes()):
        lp, mask, rows, q, tail, scale = memo["terms"]
    else:
        lp, mask, rows, q, tail, scale = _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    n, J = tail.shape
    if z_intervals is None:
        lp, mask = lp[:, None], mask[:, None]
        zk = np.asarray(z, dtype=float)[:, None, :] if p else None  # (N, 1, P)
    else:
        zk = np.asarray(z_intervals, dtype=float)
    u = lambdas * lp  # (N, J)
    # g_i = sum_j q_ij dA_ij, so that d log L_i = -(eta / L_i) g_i; outer
    # products of dL_i are weighted by eta^2 / L_i^2 (times the row weight)
    g = u * tail
    outer = scale * eta / rows
    gs = g * outer[:, None]
    hess = np.zeros((J + p, J + p))
    # gamma-gamma: sum_j q_ij u_ia u_ib [j > max(a, b)]; exact on and above
    # the diagonal, mirrored below
    hess[:J, :J] = (scale[:, None] * u).T @ g - np.diag(scale @ g) - gs.T @ g
    if p:
        before = _before(J)
        um = u * mask
        cum = um @ before if z_intervals is None else None
        zs = [zk[:, :, a] for a in range(p)]
        w = [um * za for za in zs]  # w[a][:, k] = d u_ik / d beta_a
        v = [cum * za for za in zs] if cum is not None else [wa @ before for wa in w]  # dA_ij / d beta_a
        dg = np.empty((p, n))  # dg[a] = sum_j q_ij dA_ij / d beta_a
        for a in range(p):
            qv = q * v[a]
            r = qv @ before.T  # r[:, k] = sum_{j > k} q_ij dA_ij / d beta_a
            dg[a] = r[:, 0]
            hess[:J, J + a] = scale @ (u * r - tail * w[a]) - gs.T @ dg[a]
            for b in range(a, p):
                hess[J + a, J + b] = np.sum(scale @ (qv * v[b])) - np.sum(scale @ (tail * w[a] * zs[b]))
        hess[J:, J:] -= (dg * outer) @ dg.T
    return np.triu(hess) + np.triu(hess, 1).T

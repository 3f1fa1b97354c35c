"""Log-likelihood machinery for error-prone panel outcome data.

The observed-data likelihood for one subject is a mixture over the J+1
intervals that could contain the latent event time:

    L_i = sum_j theta_j * C_ij,    theta_j = S_j - S_{j+1},

where C_ij multiplies the per-visit report probabilities given the event
lies in interval j.  With proportional hazards the subject-specific
survival is built from per-interval cumulative hazard increments
lambda_k exp(z_ik' beta); a time-fixed covariate has z_ik = z_i, so that
S_j^(i) = S_j ** exp(z_i' beta).  Baseline misclassification mixes in a
prevalent-case term weighted by 1 - eta.

Values are evaluated in the survival-difference (theta) form, whose terms
are all non-negative; the equivalent linear form in S, D = C @ T_r, is
built only by the test oracle ``tests/oracles.to_d_matrix``.  One kernel,
``loglik_and_gradient``, serves every model variant, and
``loglik_hessian`` gives its exact second derivatives, reusing the front
half of a gradient at the same point through the caller's ``memo``.

The kernel works interval-major: per-subject arrays are (J, N) or
(J+1, N) with subjects contiguous, so that a per-interval scalar
broadcasts along a whole row.  Every model reaches it through one
covariate-major (P, K, N) array: ``z_intervals.T`` (K = J) for
time-varying covariates, a time-fixed ``z`` as one interval (K = 1) that
applies to every interval, and no covariates as P = 0.  The transposes are
views that are free for the Fortran-ordered arrays of ``build_c_matrix``,
``estimate.interval_covariates`` and the row collapse.  Sums over
intervals are 0/1 triangular matrices on the left and sums over subjects
products with a vector: numpy loops over short rows, or reductions along a
short axis, cost several times as much.  The log-likelihood is one
pairwise ``np.sum``, whose rounding error is O(eps log N) relative to
sum_i |log L_i|.
"""

from __future__ import annotations

from functools import lru_cache

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


def build_c_matrix(dataset: Dataset, error_model: ErrorModel, rows=None) -> np.ndarray:
    """N x (J+1) coefficient matrix of per-interval report probabilities.

    Row i, column j is the probability of subject i's report vector given
    the event time falls in interval j; column J+1 corresponds to the
    event never occurring; ``rows`` builds only those rows, in that order
    and with the same bits.  The matrix is Fortran-ordered, so that its
    transpose is a C-contiguous view.
    """
    reports = np.ascontiguousarray((dataset.reports if rows is None else dataset.reports[rows]).T) + 1  # (J, N)
    J, n = reports.shape
    phi1, phi0 = error_model.phi1, error_model.phi0
    # per-cell report probability, indexed by report + 1 (a missed visit
    # contributes a factor of 1)
    after = np.array([1.0, 1.0 - phi1, phi1])[reports]    # visit after the event
    before = np.array([1.0, phi0, 1.0 - phi0])[reports]   # visit before the event
    # for column j the visits at tau_1..tau_{j-1} precede the event
    # interval and the rest follow it; running products one row at a time
    ct = np.ones((J + 1, n))
    for j in range(J):
        np.multiply(ct[j], before[j], out=ct[j + 1])
    suffix = np.ones(n)
    for j in range(J - 1, -1, -1):
        suffix *= after[j]
        ct[j] *= suffix
    return ct.T


def survival_from_increments(lambdas: np.ndarray) -> np.ndarray:
    """Baseline survival (S_1=1, ..., S_{J+1}) from cumulative-hazard increments."""
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0):
        raise ValueError("hazard increments must be non-negative")
    return np.exp(-np.concatenate(([0.0], np.cumsum(lambdas))))


def _interval_major(x) -> np.ndarray:
    """``x.T`` as a C-contiguous float array: a view for a Fortran-ordered ``x``."""
    return np.ascontiguousarray(np.asarray(x, dtype=float).T)


def _clamped_exp_lp(zk: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of the clamped (K, N) linear predictor of covariate-major ``zk``
    (P, K, N), and the same with 0 where it is clamped."""
    p, k, n = zk.shape
    if not p:  # exp(0) = 1 everywhere and nothing is clamped: no predictor to form
        return (np.ones((1, n)),) * 2
    # np.dot: matmul of a vector with a matrix is four times slower
    u = np.dot(beta, zk.reshape(p, k * n)).reshape(k, n)
    lp = np.exp(np.clip(u, -LINEAR_PREDICTOR_CLAMP, LINEAR_PREDICTOR_CLAMP))
    free = np.abs(u) < LINEAR_PREDICTOR_CLAMP
    return lp, lp if free.all() else np.where(free, lp, 0.0)


@lru_cache(maxsize=None)
def _before(J: int) -> np.ndarray:
    """Read-only (J, J+1) 0/1 matrix, [k, j] = 1 when interval k precedes
    S_j: ``_before(J) @ y`` sums the rows of y after k into row k,
    ``_before(J).T @ x`` the first j of x's J rows into row j."""
    before = np.triu(np.ones((J, J + 1)), 1)
    before.setflags(write=False)
    return before


def _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights):
    """Front half shared by the value, the gradient and the Hessian.

    Returns interval-major ``(zk, lp, lp_free, rows, q, tail, scale)``: the
    (P, K, N) covariates, exp of the clamped (K, N) linear predictor and
    the same with 0 where clamped, the per-subject likelihoods, the
    (J+1, N) q_ji = D_ij S_j^(i), the (J, N) tail sums T_ki = sum_{j>k}
    q_ji, and the (weighted) eta / rows.
    """
    if z is not None and z_intervals is not None:
        raise ValueError("pass either z or z_intervals, not both")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    if np.any(lambdas < 0):
        raise ValueError("hazard increments must be non-negative")
    ct = _interval_major(c)  # (J+1, N)
    if z_intervals is None:  # a time-fixed z is one interval that applies to all; none is P = 0
        z_intervals = np.empty((ct.shape[1], 1, 0)) if z is None else np.asarray(z, dtype=float)[:, None, :]
    zk = _interval_major(z_intervals)  # (P, K, N)
    before = _before(lambdas.size)
    lp, lp_free = _clamped_exp_lp(zk, beta)
    ss = np.exp(before.T @ (-lambdas[:, None] * lp))  # negation is exact

    # rows: eta * sum_j C_ij theta_j + (1-eta) C_i1, with theta_j = S_j -
    # S_{j+1} exact and non-negative
    theta = ss.copy()
    theta[:-1] -= ss[1:]
    rows = np.einsum("ji,ji->i", ct, theta)
    if eta != 1.0:
        rows = eta * rows + (1.0 - eta) * ct[0]
    bad = np.flatnonzero(rows <= 0.0)
    if bad.size:
        raise NonPositiveLikelihoodError(int(bad[0]))
    q = np.empty_like(ct)  # D S; sum_j q_ji == rows pre-mixture
    q[0] = ct[0]
    np.subtract(ct[1:], ct[:-1], out=q[1:])
    q *= ss
    scale = eta / rows
    if weights is not None:
        scale = scale * np.asarray(weights, dtype=float)
    return zk, lp, lp_free, rows, q, before @ q, scale


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
    zk, lp, lp_free, rows, q, tail, scale = terms
    logs = np.log(rows)
    if weights is not None:
        logs *= np.asarray(weights, dtype=float)
    ll = float(np.sum(logs))  # pairwise: error O(eps log N) relative to sum |log L_i|

    lt = lp * tail
    grad_lambda = -(lt @ scale)
    # d w_ki / d beta_p = w_ki z_ikp (zero where clamped; lp_free is lp when nothing is)
    lz = (lt if lp_free is lp else lp_free * tail) * zk  # (P, J, N)
    grad_beta = -((lz.reshape(-1, tail.shape[1]) @ scale).reshape(-1, lambdas.size) @ lambdas)
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
    predictors get no beta-curvature, as in the gradient.
    """
    lambdas, beta = _as_params(lambdas, beta)
    p = beta.size
    hit = memo is not None and memo.get("at") == (lambdas.tobytes(), beta.tobytes())
    terms = memo["terms"] if hit else _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    zk, lp, lp_free, rows, q, tail, scale = terms
    J, n = tail.shape
    before = _before(J)
    u = lambdas[:, None] * lp  # (J, N)
    # g_i = sum_j q_ij dA_ij, so that d log L_i = -(eta / L_i) g_i; outer
    # products of dL_i are weighted by eta^2 / L_i^2 (times the row weight)
    g = u * tail
    outer = scale * eta / rows
    gs = g * outer
    hess = np.zeros((J + p, J + p))
    # gamma-gamma: sum_j q_ij u_ia u_ib [j > max(a, b)]; exact on and above
    # the diagonal, mirrored below at the end
    hess[:J, :J] = (u * scale) @ g.T - np.diag(g @ scale) - gs @ g.T
    w = (u if lp_free is lp else lambdas[:, None] * lp_free) * zk  # (P, J, N), w[a, k] = d u_k / d beta_a
    v = before.T @ w  # dA_j / d beta_a
    dg = np.empty((p, n))  # dg[a] = sum_j q_j dA_j / d beta_a
    for a in range(p):
        qv = q * v[a]
        r = before @ qv  # r[k] = sum_{j > k} q_j dA_j / d beta_a
        dg[a] = r[0]
        tw = tail * w[a]
        hess[:J, J + a] = (u * r - tw) @ scale - gs @ dg[a]
        for b in range(a, p):
            hess[J + a, J + b] = np.sum((qv * v[b]) @ scale) - np.sum((tw * zk[b]) @ scale)
    hess[J:, J:] -= (dg * outer) @ dg.T
    return np.where(np.tri(J + p, k=-1, dtype=bool), hess.T, hess)

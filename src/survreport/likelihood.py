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
``loglik_and_gradient``, serves every model variant.  It forms each
point's front half and a (J+P, N) matrix G of per-subject scores once;
with ``hessian=True`` it also returns a function that forms the exact
second derivatives from those arrays when called.  The function is tied
to its call's arrays: call it before changing them in place.

The kernel works interval-major: per-subject arrays are (J, N) with
subjects contiguous, so that a per-interval scalar broadcasts along a
whole row.  Every model reaches it through one covariate-major (P, K, N)
array: ``z_intervals.T`` (K = J), a time-fixed ``z`` as one interval
(K = 1) that applies to every interval, or P = 0 without covariates.
Sums over intervals are 0/1 triangular matrices on the left and sums over
subjects products with a vector: numpy loops over short rows, or
reductions along a short axis, cost several times as much.  The
log-likelihood is one pairwise ``np.sum``, whose rounding error is
O(eps log N) relative to sum_i |log L_i|.
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
    """``zk`` (P, K, N), covariate-major, with 0 where the linear predictor
    is clamped (|z'beta| >= LINEAR_PREDICTOR_CLAMP: no beta-derivative), and
    exp of the clamped (K, N) linear predictor."""
    p, k, n = zk.shape
    if not p:  # exp(0) = 1 everywhere and nothing is clamped: no predictor to form
        return zk, np.ones((1, n))
    # np.dot: matmul of a vector with a matrix is four times slower
    lin = np.dot(beta, zk.reshape(p, k * n)).reshape(k, n)
    if -LINEAR_PREDICTOR_CLAMP < lin.min() and lin.max() < LINEAR_PREDICTOR_CLAMP:
        return zk, np.exp(lin, out=lin)
    free = np.abs(lin) < LINEAR_PREDICTOR_CLAMP
    return np.where(free, zk, 0.0), np.exp(np.clip(lin, -LINEAR_PREDICTOR_CLAMP, LINEAR_PREDICTOR_CLAMP))


@lru_cache(maxsize=None)
def _before(J: int) -> np.ndarray:
    """Read-only (J, J) 0/1 upper triangle, [k, j] = 1 when interval k
    precedes S_{j+2}: ``_before(J) @ y`` sums the rows of y from k on into
    row k, ``_before(J).T @ x`` the first j+1 rows of x into row j."""
    before = np.triu(np.ones((J, J)))
    before.setflags(write=False)
    return before


def _hazard_sums(lambdas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(J, N) -sum_{k<=j} lambda_k x_ki of a (J, N) ``x``, or of a (1, N) one
    that applies to every interval, with -lambda folded into the triangle."""
    neg = _before(lambdas.size).T * -lambdas
    return (neg if x.shape[0] == lambdas.size else neg.sum(axis=1, keepdims=True)) @ x


def _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights):
    """Front half shared by the value, the gradient and the Hessian:
    interval-major ``(zf, lp, rows, q, scale)``, the (P, K, N) covariates
    with 0 where clamped, exp of the clamped (K, N) linear predictor, the
    likelihoods, the (J, N) q_ki = D_i(k+1) S_(k+1)^(i) and the (weighted)
    eta / rows."""
    if z is not None and z_intervals is not None:
        raise ValueError("pass either z or z_intervals, not both")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    if np.any(lambdas < 0):
        raise ValueError("hazard increments must be non-negative")
    ct = _interval_major(c)  # (J+1, N)
    if z_intervals is None:  # a time-fixed z is one interval that applies to all; none is P = 0
        z_intervals = np.empty((ct.shape[1], 1, 0)) if z is None else np.asarray(z, dtype=float)[:, None, :]
    zf, lp = _clamped_exp_lp(_interval_major(z_intervals), beta)
    ss = _hazard_sums(lambdas, lp)
    np.exp(ss, out=ss)  # S_2 .. S_{J+1}; S_1 = 1
    # rows: eta * sum_j C_ij theta_j + (1-eta) C_i1, with theta_j = S_j -
    # S_{j+1} exact and non-negative
    theta = np.empty_like(ct)
    np.subtract(1.0, ss[0], out=theta[0])
    np.subtract(ss[:-1], ss[1:], out=theta[1:-1])
    theta[-1] = ss[-1]
    rows = np.einsum("ji,ji->i", ct, theta)
    if eta != 1.0:
        rows = eta * rows + (1.0 - eta) * ct[0]
    if (rows <= 0.0).any():
        raise NonPositiveLikelihoodError(int(np.argmax(rows <= 0.0)))
    q = ct[1:] - ct[:-1]
    q *= ss
    scale = eta / rows * (1.0 if weights is None else np.asarray(weights, dtype=float))
    return zf, lp, rows, q, scale


def loglik_and_gradient(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None,
                        hessian: bool = False):
    """Log-likelihood and its gradient w.r.t. (lambda, beta).

    Covers every variant: pass ``z`` (N x P) for time-fixed covariates,
    ``z_intervals`` (N x J x P) for time-varying ones, neither for the
    one-sample model, and ``eta < 1`` for baseline misclassification.
    Returns ``(loglik, grad_lambda, grad_beta)``, and with ``hessian=True``
    also ``hessian_of_point``, a function of no arguments that returns
    ``loglik_hessian`` here from this call's arrays and the ``lambdas`` and
    covariates it was given: call it before changing those in place.
    With u_ik = lambda_k lp_ik, S_j^(i) = exp(-A_ij), A_ij = sum_{k<j} u_ik:
    d log L_i = -scale_i G_i, G_i = sum_j q_ij dA_ij, per unit lambda in the
    gamma rows, G_ki = lp_ki T_ki, and G_(J+p)i = sum_k lambda_k lz_pki."""
    lambdas, beta = np.asarray(lambdas, dtype=float), np.asarray(() if beta is None else beta, dtype=float)
    zf, lp, rows, q, scale = _kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    J = lambdas.size
    G = np.empty((J + zf.shape[0], rows.size))
    np.matmul(_before(J), q, out=G[:J])  # the tail sums T_ki = sum_{j>=k} q_ji
    G[:J] *= lp
    lz = G[:J] * zf
    for a in range(zf.shape[0]):
        np.dot(lambdas, lz[a], out=G[J + a])
    # gamma from its own J rows, so that a one-sample fit keeps its bits
    sum_lambda, sum_beta = G[:J] @ scale, G[J:] @ scale
    logs = np.log(rows) * (1.0 if weights is None else np.asarray(weights, dtype=float))
    ll = float(np.sum(logs))  # pairwise: error O(eps log N) relative to sum |log L_i|
    if not hessian:
        return ll, -sum_lambda, -sum_beta
    return ll, -sum_lambda, -sum_beta, lambda: _hessian(lambdas, eta, zf, lp, rows, q, scale, G, lz, sum_lambda)


def loglik_hessian(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None):
    """Hessian of the log-likelihood w.r.t. the working parameters
    (gamma = log lambda, beta), gamma first; takes the arguments of
    ``loglik_and_gradient``."""
    return loglik_and_gradient(c, lambdas, beta, z, z_intervals, eta, weights, hessian=True)[3]()


def _hessian(lambdas, eta, zf, lp, rows, q, scale, G, lz, sum_lambda):
    """``loglik_hessian`` from one point's front half, scores G and lambda
    gradient.  d2 L_i = eta sum_j q_ij (dA_ij dA_ij' - d2A_ij) and
    d2 log L_i = d2 L_i / L_i - G_i G_i' (eta / L_i)^2.  A clamped
    predictor has no beta-curvature."""
    J, p, before = lambdas.size, zf.shape[0], _before(lambdas.size)
    hess = np.zeros((J + p, J + p))
    ls = lp * scale
    # gamma-gamma: sum_j q_ij u_ia u_ib [j > max(a, b)] - [a = b] u_ia T_ia;
    # exact on and above the diagonal, mirrored below at the end
    hess[:J, :J] = ls @ G[:J].T * np.outer(lambdas, lambdas) - np.diag(lambdas * sum_lambda)
    v = [_hazard_sums(lambdas, lp * za) for za in zf]  # -dA_ij / d beta_a
    for a in range(p):
        qv = q * v[a]
        # u_ik (sum_{j>k} q_ij dA_ij / d beta_a - z_ika T_ik), summed over i
        hess[:J, J + a] = -lambdas * (np.sum(before * (ls @ qv.T), axis=1) + lz[a] @ scale)
        for b in range(a, p):
            hess[J + a, J + b] = np.einsum("ji,ji->i", qv, v[b]) @ scale - lambdas @ ((lz[a] * zf[b]) @ scale)
    # outer products of dL_i, weighted by eta^2 / L_i^2 (times the row weight)
    lift = np.concatenate((lambdas, np.ones(p)))
    hess -= np.outer(lift, lift) * ((G * (scale * eta / rows)) @ G.T)
    return np.where(np.tri(J + p, k=-1, dtype=bool), hess.T, hess)

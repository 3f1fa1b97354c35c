"""Log-likelihood machinery for error-prone panel outcome data.

The observed-data likelihood for one subject is a mixture over the J+1
intervals that could contain the latent event time:

    L_i = sum_j theta_j * C_ij,    theta_j = S_j - S_{j+1},

where C_ij multiplies the per-visit report probabilities given the event
lies in interval j.  With proportional hazards the subject-specific
survival is built from per-interval cumulative hazard increments
lambda_k exp(z_ik' beta); a time-fixed covariate has z_ik = z_i, so that
S_j^(i) = S_j ** exp(z_i' beta).  Baseline misclassification mixes in a
prevalent-case term weighted by 1 - eta: as the theta_j sum to 1, that is
the same sum over C' = eta C + (1 - eta) C[:, 0].

One kernel, ``loglik_and_gradient``, serves every model variant in the
theta form, whose terms are all non-negative (the linear form in S is
built only by the oracle ``tests/oracles.to_d_matrix``), with derivatives
in (lambda, beta).  It reads the :class:`KernelRows` a fit prepares once
from its distinct rows: C', its differences C'[1:] - C'[:-1], the
covariates and the row counts as weights, laid out as the kernel reads
them.  Each point forms its front half and a (J+P, N) matrix G of
per-subject scores once; the kernel also returns a function that forms
the exact second derivatives from those arrays, or their outer-product
term -sum_i w_i s_i s_i' of the scores s_i (BHHH): call it before
changing them in place.

The kernel works interval-major: per-subject arrays are (J, N) with
subjects contiguous, so that a per-interval scalar broadcasts along a
whole row.  Every model reaches it through one covariate-major (P, K, N)
array, ``z_intervals.T``: K = J, or K = 1 for time-fixed covariates, one
interval that applies to every interval, and P = 0 without covariates.
Sums over intervals are 0/1 triangular matrices on the left and sums over
subjects products with a vector: numpy loops over short rows, or
reductions along a short axis, cost several times as much.  The
log-likelihood is one pairwise ``np.sum``, whose rounding error is
O(eps log N) relative to sum_i |log L_i|.
"""

from __future__ import annotations

from functools import lru_cache, partial

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


def build_c_matrix(dataset: Dataset, error_model: ErrorModel, rows=slice(None)) -> np.ndarray:
    """N x (J+1) coefficient matrix of per-interval report probabilities.

    Row i, column j is the probability of subject i's report vector given
    the event time falls in interval j; column J+1 corresponds to the
    event never occurring; ``rows`` (every subject by default) builds only
    those rows, in that order and with the same bits.  The matrix is
    Fortran-ordered, so that its transpose is a C-contiguous view.
    """
    # (J, N); an intp index reads a table 3x faster than an int8 one
    reports = np.take(dataset.reports.T, np.arange(dataset.n)[rows], axis=1).astype(np.intp)
    J, n = reports.shape
    phi1, phi0 = error_model.phi1, error_model.phi0
    # per-cell report probability, indexed by the report (a missed visit, -1,
    # reads the last entry and contributes a factor of 1)
    after = np.array([1.0 - phi1, phi1, 1.0])[reports]    # visit after the event
    before = np.array([phi0, 1.0 - phi0, 1.0])[reports]   # visit before the event
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


def _increments(lambdas) -> np.ndarray:
    """``lambdas`` as a float array; a negative, nan or infinite one is an error."""
    lambdas = np.asarray(lambdas, dtype=float)
    if not (lambdas.min(initial=np.inf) >= 0.0 and lambdas.max(initial=0.0) < np.inf):  # a nan fails both
        raise ValueError("hazard increments lambdas must be finite and non-negative")
    return lambdas


def survival_from_increments(lambdas: np.ndarray) -> np.ndarray:
    """Baseline survival (S_1=1, ..., S_{J+1}) from cumulative-hazard increments."""
    return np.exp(-np.concatenate(([0.0], np.cumsum(_increments(lambdas)))))


class KernelRows:
    """The kernel's data, checked and laid out once per fit: ``ct``, the
    interval-major (J+1, N) C' = eta C + (1 - eta) C[:, 0] (exact, as the
    theta_j sum to 1), its differences ``d`` = C'[1:] - C'[:-1], the
    covariate-major (P, K, N) ``zk`` (views of Fortran-ordered inputs), its
    largest |z| per covariate ``zmax``, the float ``weights`` (1.0 for
    none) and ``shape``, that of C: (N, J+1)."""

    def __init__(self, c, z_intervals=None, eta: float = 1.0, weights=None):
        if not (0.0 < eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
        ct = np.ascontiguousarray(np.asarray(c, dtype=float).T)
        self.ct = ct if eta == 1.0 else eta * ct + (1.0 - eta) * ct[0]
        self.d = self.ct[1:] - self.ct[:-1]
        if z_intervals is None:  # no covariates: P = 0
            z_intervals = np.empty((ct.shape[1], 1, 0))
        self.zk = np.ascontiguousarray(np.asarray(z_intervals, dtype=float).T)
        self.zmax = np.abs(self.zk).max(axis=(1, 2), initial=0.0)  # nan if a z is
        self.weights = 1.0 if weights is None else np.asarray(weights, dtype=float)
        self.shape = ct.shape[::-1]


def _clamped_exp_lp(kr: KernelRows, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (P, K, N) covariates of ``kr``, covariate-major, with 0 where the
    linear predictor is clamped (|z'beta| >= LINEAR_PREDICTOR_CLAMP: no
    beta-derivative), and exp of the clamped (K, N) linear predictor."""
    p, k, n = kr.zk.shape
    # np.dot: matmul of a vector with a matrix is four times slower
    lin = np.dot(beta, kr.zk.reshape(p, k * n)).reshape(k, n)
    # |beta| . max|z| bounds |z'beta|, with room for the rounding of either sum (0 when P = 0)
    if np.dot(np.abs(beta), kr.zmax) < LINEAR_PREDICTOR_CLAMP / 2 or (
            -LINEAR_PREDICTOR_CLAMP < lin.min() and lin.max() < LINEAR_PREDICTOR_CLAMP):
        return kr.zk, np.exp(lin, out=lin)
    free = np.abs(lin) < LINEAR_PREDICTOR_CLAMP
    return np.where(free, kr.zk, 0.0), np.exp(np.clip(lin, -LINEAR_PREDICTOR_CLAMP, LINEAR_PREDICTOR_CLAMP))


@lru_cache(maxsize=None)
def _before(J: int) -> np.ndarray:
    """Read-only (J, J) 0/1 upper triangle, [k, j] = 1 when interval k
    precedes S_{j+2}: ``_before(J) @ y`` sums the rows of y from k on into
    row k, ``_before(J).T @ x`` the first j+1 rows of x into row j; as a
    mask, it selects the entries on and above the diagonal."""
    before = np.triu(np.ones((J, J)))
    before.setflags(write=False)
    return before


def _kernel_terms(kr, lambdas, beta):
    """Front half shared by the value, the gradient and the Hessian:
    interval-major ``(zf, lp, sums, rows, q, scale)``, the (P, K, N)
    covariates with 0 where clamped, exp of the clamped (K, N) linear
    predictor, the map from a (K, N) x to the (J, N) -sum_{k<=j} lambda_k x_ki
    (a K = 1 x applies to every interval), the likelihoods, the (J, N)
    q_ki = D_i(k+1) S_(k+1)^(i) and the (weighted) 1 / rows, from
    :class:`KernelRows` ``kr``."""
    zf, lp = _clamped_exp_lp(kr, beta)
    # its weights, formed once per point: the running sums of -lambda, or the triangle with -lambda folded in
    sums = (partial(np.multiply, np.cumsum(-lambdas)[:, None]) if lp.shape[0] == 1
            else partial(np.matmul, _before(lambdas.size).T * -lambdas))
    ss = sums(lp)
    np.exp(ss, out=ss)  # S_2 .. S_{J+1}; S_1 = 1
    # rows: sum_j C'_ij theta_j, with theta_j = S_j - S_{j+1} exact and non-negative
    theta = np.empty_like(kr.ct)
    np.subtract(1.0, ss[0], out=theta[0])
    np.subtract(ss[:-1], ss[1:], out=theta[1:-1])
    theta[-1] = ss[-1]
    rows = np.einsum("ji,ji->i", kr.ct, theta)
    if not rows.min() > 0.0:  # a nan fails too
        raise NonPositiveLikelihoodError(int(np.argmin(rows > 0.0)))
    return zf, lp, sums, rows, ss * kr.d, 1.0 / rows * kr.weights


def loglik_and_gradient(kr: KernelRows, lambdas, beta):
    """``(loglik, grad_lambda, grad_beta, hessian_of_point)`` of the prepared
    rows ``kr``; ``hessian_of_point(exact=True)`` forms the Hessian in (lambda,
    beta), lambda first, or its outer-product term alone, from this call's
    arrays and ``lambdas``: call it before changing them in place.  With
    S_j^(i) = exp(-A_ij), A_ij = sum_{k<j} lambda_k lp_ik: d log L_i = -scale_i G_i,
    G_i = sum_j q_ij dA_ij, so G_ki = lp_ki T_ki and G_(J+p)i = sum_k lambda_k lz_pki."""
    lambdas, beta = _increments(lambdas), np.asarray(() if beta is None else beta, dtype=float)
    if not np.isfinite(beta).all():
        raise ValueError("coefficients beta must be finite")
    zf, lp, sums, rows, q, scale = _kernel_terms(kr, lambdas, beta)
    J = lambdas.size
    G = np.empty((J + zf.shape[0], rows.size))
    np.matmul(_before(J), q, out=G[:J])  # the tail sums T_ki = sum_{j>=k} q_ji
    G[:J] *= lp
    lz = G[:J] * zf
    for a in range(zf.shape[0]):
        np.dot(lambdas, lz[a], out=G[J + a])
    # lambda from its own J rows, so that a one-sample fit keeps its bits
    sum_lambda, sum_beta = G[:J] @ scale, G[J:] @ scale
    ll = float((np.log(rows) * kr.weights).sum())  # pairwise: error O(eps log N) relative to sum |log L_i|
    return ll, -sum_lambda, -sum_beta, lambda exact=True: _hessian(lambdas, zf, lp, sums, rows, q, scale, G, lz, exact)


def _hessian(lambdas, zf, lp, sums, rows, q, scale, G, lz, exact=True):
    """The Hessian of ``loglik_and_gradient`` from one point's front half and
    scores G.  d2 L_i = sum_j q_ij (dA_ij dA_ij' - d2A_ij) and
    d2 log L_i = d2 L_i / L_i - G_i G_i' / L_i^2; A is linear in lambda, so
    d2A has only lambda-beta and beta-beta terms.  A clamped predictor has
    no beta-curvature.  ``exact=False`` gives only the outer-product term."""
    outer = (G * (scale / rows)) @ G.T  # outer products of dL_i, weighted by 1 / L_i^2 (times the row weight)
    if not exact:
        return -outer
    J, p, before = lambdas.size, zf.shape[0], _before(lambdas.size)
    hess = np.zeros((J + p, J + p))
    ls = lp * scale
    # lambda-lambda: sum_j q_ij lp_ia lp_ib [j > max(a, b)]; exact on and above
    # the diagonal, mirrored below at the end
    hess[:J, :J] = ls @ G[:J].T  # one row broadcasts when K = 1
    v = [sums(lp * za) for za in zf]  # -dA_ij / d beta_a
    for a in range(p):
        qv = q * v[a]
        # lp_ik (sum_{j>k} q_ij dA_ij / d beta_a - z_ika T_ik), summed over i
        hess[:J, J + a] = -((before * (ls @ qv.T)).sum(axis=1) + lz[a] @ scale)
        for b in range(a, p):
            hess[J + a, J + b] = np.einsum("ji,ji->i", qv, v[b]) @ scale - lambdas @ ((lz[a] * zf[b]) @ scale)
    hess -= outer
    return np.where(_before(J + p), hess, hess.T)

"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles, without
reusing the library's coefficient-matrix machinery, so tests compare two
separately derived computation paths.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from survreport.likelihood import LINEAR_PREDICTOR_CLAMP, NonPositiveLikelihoodError
from survreport.panel import round_to_granularity


BEFORE_EVENT_INTERVAL = "before_event_interval"
AFTER_EVENT_INTERVAL = "after_event_interval"


def report_probability(result: int, relation: str, error_model) -> float:
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


def direct_pattern_probability(times_idx, results, theta, phi1, phi0, eta=1.0):
    """Probability of one report pattern by summing over the latent event
    interval, with each per-visit report probability written out directly.

    ``times_idx`` holds 1-based grid indices of the visits, ``theta`` the
    J+1 interval probabilities.  With ``eta < 1`` a prevalent component is
    mixed in, whose visits are all post-event.
    """
    jp1 = len(theta)
    total = 0.0
    for j in range(1, jp1 + 1):  # event in (tau_{j-1}, tau_j]
        prob = theta[j - 1]
        for m, r in zip(times_idx, results):
            if m >= j:  # visit at/after the interval's right end: event occurred
                p_pos = phi1
            else:  # visit at/before the interval's left end: event not yet
                p_pos = 1.0 - phi0
            prob *= p_pos if r == 1 else 1.0 - p_pos
        total += prob
    if eta == 1.0:
        return total
    prevalent = 1.0
    for r in results:
        prevalent *= phi1 if r == 1 else 1.0 - phi1
    return eta * total + (1.0 - eta) * prevalent


def all_patterns(n_visits, adaptive):
    """Enumerate report patterns for a fixed schedule of n visits.

    Adaptive schedules stop at the first positive, so patterns are k-1
    negatives followed by a positive (k = 1..n) plus the all-negative
    pattern; predetermined schedules allow every binary vector.
    """
    if adaptive:
        pats = [tuple([0] * k + [1]) for k in range(n_visits)]
        pats.append(tuple([0] * n_visits))
        return pats
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n_visits)]


def turnbull_intervals(times_idx, results, jp1):
    """Set of admissible event intervals under perfect reports.

    Returns the 1-based interval indices j consistent with the pattern:
    after the last negative visit and no later than the first positive.
    """
    last_neg = 0
    first_pos = jp1
    for m, r in zip(times_idx, results):
        if r == 0:
            last_neg = max(last_neg, m)
        else:
            first_pos = min(first_pos, m)
    return list(range(last_neg + 1, first_pos + 1))


def interval_censored_loglik(subjects_idx, theta):
    """Nonparametric interval-censoring log-likelihood at theta.

    ``subjects_idx`` is a list of (times_idx, results) pairs; theta has
    J+1 entries.
    """
    jp1 = len(theta)
    total = 0.0
    for times_idx, results in subjects_idx:
        allowed = turnbull_intervals(times_idx, results, jp1)
        mass = sum(theta[j - 1] for j in allowed)
        if mass <= 0.0:
            return -math.inf
        total += math.log(mass)
    return total


def _indicator_matrix(subjects_idx, jp1):
    b = np.zeros((len(subjects_idx), jp1))
    for i, (times_idx, results) in enumerate(subjects_idx):
        for j in turnbull_intervals(times_idx, results, jp1):
            b[i, j - 1] = 1.0
    return b


def npmle_grid_search(subjects_idx, jp1, resolution=1e-3, refine_to=1e-6):
    """Brute-force NPMLE over the probability simplex.

    Enumerates the full lattice at ``resolution`` (exhaustive for up to
    two free coordinates, a 5e-3 lattice for three), then refines the
    lattice locally around the incumbent until the spacing reaches
    ``refine_to``.  Returns (theta_hat, loglik).
    """
    b = _indicator_matrix(subjects_idx, jp1)
    free = jp1 - 1
    if free > 3:
        raise ValueError("grid search supports J <= 3 (four interval masses)")

    def evaluate(candidates):
        lik = candidates @ b.T  # (M, N)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(lik, 1e-300)).sum(axis=1)

    def lattice(center, half_width, step):
        axes = []
        for k in range(free):
            lo = max(center[k] - half_width, 0.0)
            hi = min(center[k] + half_width, 1.0)
            axes.append(np.arange(lo, hi + step / 2, step))
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        tail = 1.0 - pts.sum(axis=1)
        ok = tail >= -1e-12
        pts = pts[ok]
        tail = np.clip(tail[ok], 0.0, 1.0)
        return np.hstack([pts, tail[:, None]])

    step = resolution if free <= 2 else 5e-3
    center = np.full(free, 1.0 / jp1)
    cands = lattice(center, 1.0, step)
    best_ll = -np.inf
    best = None
    chunk = 200_000
    while True:
        for start in range(0, cands.shape[0], chunk):
            lls = evaluate(cands[start : start + chunk])
            i = int(np.argmax(lls))
            if lls[i] > best_ll:
                best_ll = float(lls[i])
                best = cands[start + i]
        if step <= refine_to:
            break
        half_width = 2.0 * step
        step /= 4.0
        cands = lattice(best[:free], half_width, step)
    return best, best_ll


def npmle_self_consistency(subjects_idx, jp1, max_iter=20000, tol=1e-12):
    """Turnbull self-consistency iteration for the interval-censoring NPMLE."""
    b = _indicator_matrix(subjects_idx, jp1)
    n = b.shape[0]
    theta = np.full(jp1, 1.0 / jp1)
    for _ in range(max_iter):
        lik = b @ theta
        new = theta * (b / lik[:, None]).sum(axis=0) / n
        if np.max(np.abs(new - theta)) < tol:
            theta = new
            break
        theta = new
    lik = b @ theta
    return theta, float(np.log(lik).sum())


def central_difference_gradient(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def apply_rounding(subject, granularity: float):
    """A ``SubjectPanel`` with its visit times rounded to ``granularity``,
    visits that meet merged subject by subject.

    When two visits collapse onto the same rounded time the later record's
    result wins (a later self-report supersedes an earlier one within the
    same period).  Covariate-path times are rounded the same way, keeping
    the later measurement on collision.
    """
    merged: dict[float, int] = {}
    for t, r in zip(subject.times, subject.results):
        merged[round_to_granularity(t, granularity)] = r
    times = tuple(sorted(merged))
    path = subject.covariate_path
    if path is not None:  # a later measurement replaces an earlier one
        path = tuple(sorted({round_to_granularity(t, granularity): vec for t, vec in path}.items()))
    return dataclasses.replace(subject, times=times, results=tuple(merged[t] for t in times), covariate_path=path)


def validate_by_subject(subjects, p, schedule):
    """Structural violations of a dataset of ``subjects`` with ``p``
    covariates, found by walking the subjects one by one:
    ``(subject_id, rule, detail)`` in subject then rule order.  A subject
    whose times and results differ in length gets only that rule, and one
    without visits only "zero visits"; a result other than 0 or 1 is no
    positive, and a time-fixed vector that is not empty is read as one point
    at time 0 in place of any covariate path."""
    out = []
    for s in subjects:
        sid = s.subject_id
        if len(s.times) != len(s.results):
            out.append((sid, "times and results differ in length", ""))
            continue
        if not s.times:
            out.append((sid, "zero visits", ""))
            continue
        if any(t <= 0.0 for t in s.times):
            out.append((sid, "non-positive visit time", ""))
        if any(b <= a for a, b in zip(s.times, s.times[1:])):
            out.append((sid, "visit times not strictly increasing", ""))
        if not all(math.isfinite(t) for t in s.times):
            out.append((sid, "non-finite visit time", ""))
        if not all(r in (0, 1) for r in s.results):
            out.append((sid, "result not 0 or 1", ""))
        if schedule == "adaptive":
            positives = [k for k, r in enumerate(s.results) if r == 1]
            if len(positives) > 1:
                out.append((sid, "multiple positive results", ""))
            elif positives and positives[0] != len(s.times) - 1:
                out.append((sid, "positive not terminal", ""))
        if s.covariates is not None and s.covariate_path is not None:
            out.append((sid, "fixed covariates and a covariate path", ""))
        path = ((0.0, s.covariates),) if s.covariates else s.covariate_path or ()
        width = len(path[0][1]) if path else 0
        if width != p:
            out.append((sid, "covariate length mismatch", f"expected {p}, got {width}"))
        if len({len(v) for _, v in path}) > 1:
            out.append((sid, "ragged covariate path", ""))
        if not all(math.isfinite(t) for t, _ in path):
            out.append((sid, "non-finite covariate path time", ""))
        if any(b <= a for (a, _), (b, _) in zip(path, path[1:])):
            out.append((sid, "covariate path times not strictly increasing", ""))
        if not all(math.isfinite(x) for _, v in path for x in v):
            out.append((sid, "non-finite covariate value", ""))
    return out


def patterns_by_dict(reports, z):
    """First row and count of each distinct (report row, covariate row), by
    a walk over the subjects with ``z + 0.0`` so that -0.0 and 0.0 group
    together, sorted by (report row, covariate row)."""
    first, counts = {}, {}
    for i, key in enumerate(zip(map(tuple, reports.tolist()), map(tuple, (z + 0.0).tolist()))):
        first.setdefault(key, i)
        counts[key] = counts.get(key, 0) + 1
    return [first[k] for k in sorted(first)], [counts[k] for k in sorted(first)]


def adaptive_reports_by_subject(keep, positive):
    """Reports of an adaptive schedule, one subject and visit at a time: a
    missed visit reports -1, a kept one its draw, and after the first
    positive among the kept visits every visit reports -1."""
    out = []
    for keep_row, positive_row in zip(keep.tolist(), positive.tolist()):
        row, stopped = [], False
        for kept, pos in zip(keep_row, positive_row):
            row.append(int(pos) if kept and not stopped else -1)
            stopped = stopped or (kept and pos)
        out.append(row)
    return np.array(out, dtype=np.int8).reshape(keep.shape)


def generated_by_subject(config, replicate_index):
    """What ``simulate.generate_dataset`` returns, as ``(ids, reports, taus,
    covariates)``, or None when every subject misses every visit: the same
    random draws, in the same order and shapes (covariates, event times,
    prevalent subjects, then the (N, V) visit-kept and report draws), turned
    into reports one subject and visit at a time."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, replicate_index)))
    n, n_visits, em, gen = config.n_subjects, config.n_visits, config.error_model, config.covariate_gen
    z = np.empty((n, 0))
    if gen is not None and gen.kind == "bernoulli":
        z = (rng.random(n) < gen.p).astype(float)[:, None]
    elif gen is not None:
        z = np.array([gen.table[i % len(gen.table)] for i in range(n)], dtype=float)
    mult = np.exp(z @ np.asarray(config.beta_true, dtype=float)) if gen is not None else np.ones(n)
    dist, neg_log_u = config.event_dist, -np.log(rng.random(n))
    if dist.kind == "exponential":
        event = neg_log_u / (dist.rate * mult)
    else:
        event = dist.scale * (neg_log_u / mult) ** (1.0 / dist.shape)
    n_prevalent = int(round(n * (1.0 - em.eta)))
    if n_prevalent:
        event[rng.choice(n, size=n_prevalent, replace=False)] = -1.0
    kept_draw, report_draw = rng.random((n, n_visits)), rng.random((n, n_visits))
    subjects = []
    for i in range(n):
        row, stopped = [], False
        for v in range(n_visits):
            kept = kept_draw[i, v] >= config.missing_prob
            positive = report_draw[i, v] < (em.phi1 if event[i] <= (v + 1) * config.visit_spacing else 1.0 - em.phi0)
            row.append(int(positive) if kept and not stopped else -1)
            stopped = stopped or (kept and positive)
        if max(row) >= 0:
            subjects.append((i, row))
    if not subjects:
        return None
    visited = [v for v in range(n_visits) if any(row[v] >= 0 for _, row in subjects)]
    return (
        tuple(f"s{replicate_index}_{i}" for i, _ in subjects),
        np.array([[row[v] for v in visited] for _, row in subjects], dtype=np.int8),
        tuple((v + 1) * config.visit_spacing for v in visited),
        z[[i for i, _ in subjects]],
    )


def collapse_subject_rows(reports, c, z):
    """The kernel rows of a time-fixed fit, from every subject's C row: the
    row of the first subject of each pattern of ``patterns_by_dict``, z with
    -0.0 as 0.0, weighted by the pattern's count.  Returns Fortran-ordered
    ``(c, z, weights)``."""
    first, counts = patterns_by_dict(reports, z)
    return np.asfortranarray(c[first]), np.asfortranarray(z[first] + 0.0), np.array(counts, dtype=float)


# The likelihood kernel as it was before its interval and subject sums
# became matrix products: running sums by ``np.cumsum`` along the interval
# axis, sums over subjects by ``.sum(axis=0)`` and ``np.einsum``, and the
# time-fixed Hessian as the J-broadcast of the time-varying one.  The
# property tests hold the library kernel to it.


def to_d_matrix(c: np.ndarray) -> np.ndarray:
    """Transformed coefficients D with sum_j C_ij theta_j == sum_j D_ij S_j."""
    c = np.asarray(c, dtype=float)
    d = c.copy()
    d[:, 1:] -= c[:, :-1]
    return d


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


def cumsum_kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights):
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


def cumsum_loglik_and_gradient(
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
    lp, mask, rows, q, tail, scale = cumsum_kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
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


def cumsum_loglik_hessian(c, lambdas, beta, z=None, z_intervals=None, eta: float = 1.0, weights=None):
    """Hessian of the log-likelihood w.r.t. (lambda, beta), lambda first.

    Takes the arguments of ``cumsum_loglik_and_gradient``.  With w_ik the
    relative hazard of interval k and A_ij = sum_{k<j} lambda_k w_ik,
    S_j^(i) = exp(-A_ij), so each row's likelihood L_i has second
    derivative eta * sum_j q_ij (dA_ij dA_ij' - d2A_ij), and
    d2 log L_i = d2 L_i / L_i - dL_i dL_i' / L_i^2.  A is linear in
    lambda, so d2A has only lambda-beta and beta-beta terms.  Clamped linear
    predictors get no beta-curvature, as in the gradient.  Time-fixed and
    one-sample models are the J-broadcast of the time-varying form.
    """
    lambdas, beta = _as_params(lambdas, beta)
    p = beta.size
    lp, mask, rows, q, tail, scale = cumsum_kernel_terms(c, lambdas, beta, z, z_intervals, eta, weights)
    n, J = tail.shape
    if z_intervals is None:
        lp, mask = lp[:, None], mask[:, None]
        zk = np.broadcast_to(np.asarray(z, dtype=float)[:, None, :], (n, J, p)) if p else None
    else:
        zk = np.asarray(z_intervals, dtype=float)
    w = np.broadcast_to(lp, (n, J))  # (N, J)
    sw = scale[:, None] * w
    # g_i = sum_j q_ij dA_ij, so that d log L_i = -(eta / L_i) g_i
    g = w * tail
    hess = np.zeros((J + p, J + p))
    # lambda-lambda: sum_j q_ij w_ia w_ib [j > max(a, b)]; exact on and above
    # the diagonal, mirrored below
    hess[:J, :J] = sw.T @ g
    if p:
        wmz = (w * mask)[:, :, None] * zk  # wmz[:, k] = d2A_i,j / d lambda_k d beta for j > k
        v = np.cumsum(lambdas[:, None] * wmz, axis=1)  # v[:, k] = dA_i,k+1 / d beta
        qv = q[:, 1:, None] * v
        r = np.cumsum(qv[:, ::-1], axis=1)[:, ::-1]  # r[:, a] = sum_{j > a} q_ij V_ij
        smt = (scale[:, None] * tail)[:, :, None] * wmz
        hess[:J, J:] = np.einsum("ia,iap->ap", sw, r) - smt.sum(axis=0)
        hess[J:, J:] = (scale[:, None, None] * qv).reshape(-1, p).T @ v.reshape(-1, p) - (
            (lambdas[:, None] * smt).reshape(-1, p).T @ zk.reshape(-1, p)
        )
        g = np.concatenate((g, r[:, 0]), axis=1)
    hess -= (g * (scale * eta / rows)[:, None]).T @ g
    return np.triu(hess) + np.triu(hess, 1).T

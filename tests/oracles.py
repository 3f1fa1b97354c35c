"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles, without
reusing the library's coefficient-matrix machinery, so tests compare two
separately derived computation paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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

"""The three benchmark workloads: set-up, the timed operation, output checks.

Each workload makes a different layer of survreport do most of the work:

- ``cohort-fixed``: one in-process ``survreport fit`` on a 20,000-subject
  panel CSV.  The per-subject Python loops (CSV parse, ``validate``, the C
  matrix) dominate; rows collapse to a few hundred patterns, so the
  likelihood kernel is almost idle.
- ``tv-cohort``: ``estimate.fit`` with the time-varying model on cohorts
  of 5,000 subjects whose covariate drifts at every visit.  Nothing
  collapses, so the kernel and the numeric Hessian do the work; the CSV
  layer is bypassed.
- ``sim-table``: every published cell of both tables at a small replicate
  count, run as ``reproduce_tables`` runs them.  ``generate_dataset`` and
  the fixed cost of many small fits dominate.

Set-up is split in two.  ``make_inputs`` is the benchmark's own work
(generating panels, writing the CSV) and is not timed.  ``load`` is the
program calls that turn those inputs into what an operation needs; it is
timed as part of ``setup_s``.  The generated inputs are dropped after
set-up, and the output checks regenerate what they need from the seed, so
the memory the program holds while it runs is not mixed with the
benchmark's own.

Every operation repeats identical inputs, so each produces identical
outputs and the failure fraction is fixed for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import bisect
import json
import math
import os

import numpy as np

import inputs
from oracles import direct_pattern_probability

from survreport import cli, estimate, panel, simulate

LOGLIK_RTOL = 1e-9
# a summary's mean estimate may differ from the mean of independent refits
# by optimizer tolerance (gradient below 1e-5), not more
ESTIMATE_ATOL = 1e-5
# an estimate further than this many standard errors from the generating
# value is treated as wrong (a false alarm about once in 1e9 fits)
MAX_Z = 6.0
TRUE_MODEL = panel.ErrorModel(inputs.PHI1, inputs.PHI0, inputs.ETA)


@dataclass
class Record:
    """Outcome of one unit of work inside an operation (a fit or a table row)."""

    label: str
    values: dict
    attempted: int = 1
    failed: int = 0
    reason: str = ""
    broken: bool = False    # a wrong or missing output, not just a failed fit


@dataclass
class Check:
    """Result of the output checks made once, outside the timed region."""

    failures: dict = field(default_factory=dict)   # record label -> reason
    detail: dict = field(default_factory=dict)


def _fit_record(label, fit) -> Record:
    values = {"beta": [float(b) for b in fit.beta], "loglik": float(fit.loglik),
              "se": [float(s) for s in fit.beta_se], "converged": bool(fit.converged)}
    reason = _fit_problem(fit.converged, fit.has_covariance, fit.beta_se)
    return Record(label, values, failed=int(bool(reason)), reason=reason)


def _fit_problem(converged, has_covariance, se) -> str:
    if not converged:
        return "not converged"
    if not has_covariance:
        return "no covariance"
    if not np.all(np.isfinite(se)):
        return "non-finite SE"
    return ""


def _is_clean(fit) -> bool:
    """Checks apply to fits that did not fail; failed ones are already counted."""
    return not _fit_problem(fit.converged, fit.has_covariance, fit.beta_se)


def _theta(survival) -> np.ndarray:
    s = np.asarray(survival, dtype=float)
    return s - np.append(s[1:], 0.0)


def _patterns(subjects):
    """Distinct (visits, reports, covariate) patterns with their counts."""
    counts: dict = {}
    for s in subjects:
        key = (s.visits, s.results, s.path[0])
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_loglik_fixed(subjects, survival, beta, em) -> float:
    """Log-likelihood of a time-fixed binary-exposure fit, from first principles."""
    survival = np.asarray(survival, dtype=float)
    terms = []
    for (visits, results, z), count in _patterns(subjects).items():
        theta = _theta(survival ** math.exp(z * beta))
        p = direct_pattern_probability(visits, results, theta, em.phi1, em.phi0, em.eta)
        terms.append(count * math.log(p))
    return math.fsum(terms)


def independent_interval_covariates(path_times, path_values, taus):
    """Covariate in effect on each grid interval, from the path alone.

    Interval k runs from tau_{k-1} to tau_k (tau_0 = 0); it takes the last
    measurement at or before its left end, or the first measurement when
    none precedes it.
    """
    lefts = [0.0, *taus[:-1]]
    return [path_values[max(bisect.bisect_right(path_times, left) - 1, 0)] for left in lefts]


def oracle_loglik_timevarying(subjects, lambdas, beta, em) -> float:
    lambdas = np.asarray(lambdas, dtype=float)
    taus = [float(k) for k in range(1, lambdas.size + 1)]
    path_times = [float(k) for k in range(inputs.N_VISITS)]
    terms = []
    for s in subjects:
        x = independent_interval_covariates(path_times, list(s.path), taus)
        cum = np.cumsum(lambdas * np.exp(beta * np.asarray(x)))
        survival = np.exp(-np.concatenate(([0.0], cum)))
        p = direct_pattern_probability(s.visits, s.results, _theta(survival), em.phi1, em.phi0, em.eta)
        terms.append(math.log(p))
    return math.fsum(terms)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LOGLIK_RTOL * max(1.0, abs(a), abs(b))


def _check_estimate(check: Check, label, beta, se, truth, key=None):
    """Fail ``label`` when ``beta`` lies more than MAX_Z SE from ``truth``."""
    z = abs(beta - truth) / se if se > 0 else math.inf
    check.detail.setdefault("z_from_truth", {})[key or label] = z
    if not z <= MAX_Z:
        check.failures[label] = f"estimate {beta:.4f} is {z:.1f} SE from {truth}"


def _check_loglik(check: Check, label, reported, oracle, key=None):
    """Fail ``label`` when the reported log-likelihood is not the oracle's."""
    check.detail.setdefault("oracle_loglik", {})[key or label] = oracle
    if not _close(reported, oracle):
        check.failures[label] = f"loglik {reported!r} differs from oracle {oracle!r}"


class Workload:
    name = ""
    op_metric = ""          # what this workload's op_s is called in reports
    per_op = "fits"         # what fits_per_ref_s counts

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def size(self, n: int) -> int:
        return max(200, int(round(n * self.scale)))

    def make_inputs(self):
        """Generate the inputs from the seed (the benchmark's work, untimed)."""
        return None

    def load(self, raw) -> None:
        """Program calls that prepare an operation's inputs (timed in set-up)."""

    def op(self):
        raise NotImplementedError

    def records(self, out) -> list[Record]:
        raise NotImplementedError

    def check(self, out) -> Check:
        raise NotImplementedError

    def estimates(self, out) -> list:
        return [{"label": r.label, **r.values} for r in self.records(out)]


class CohortFixed(Workload):
    name = "cohort-fixed"
    op_metric = "analysis_s"

    def subjects(self):
        return inputs.fixed_cohort(self.seed, self.size(20000))

    def make_inputs(self):
        # the CLI reads the panel itself, so reading it is part of the
        # operation and nothing is left to load in set-up
        self.csv = os.path.join(self.workdir, "cohort.csv")
        self.prefix = os.path.join(self.workdir, "cohort_fit")
        inputs.write_panel_csv(self.subjects(), self.csv)
        self.argv = ["fit", self.csv, "--phi1", str(inputs.PHI1), "--phi0", str(inputs.PHI0),
                     "--eta", str(inputs.ETA), "--out", self.prefix]

    def op(self):
        return cli.main(self.argv)

    def records(self, rc):
        if rc not in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED):
            return [Record("fit", {"exit": rc}, failed=1, reason=f"exit code {rc}", broken=True)]
        try:
            with open(self.prefix + ".json", encoding="utf-8") as fh:
                doc = json.load(fh)
            coef = doc["coefficients"][0]
            values = {"beta": [coef["estimate"]], "loglik": doc["loglik"], "se": [coef["se"]],
                      "converged": doc["convergence"]["converged"]}
            has_cov = doc["covariance_working"] is not None
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [Record("fit", {}, failed=1, reason=f"unreadable JSON output: {exc}", broken=True)]
        reason = _fit_problem(values["converged"], has_cov, values["se"])
        return [Record("fit", values, failed=int(bool(reason)), reason=reason)]

    def check(self, rc):
        check = Check()
        if any(r.failed for r in self.records(rc)):
            return check  # already counted as failed; nothing clean to check
        with open(self.prefix + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["taus"] != [float(k) for k in range(1, inputs.N_VISITS + 1)]:
            check.failures["fit"] = f"unexpected grid {doc['taus']}"
            return check
        coef = doc["coefficients"][0]
        oracle = oracle_loglik_fixed(self.subjects(), doc["baseline_survival"], coef["estimate"], TRUE_MODEL)
        _check_loglik(check, "fit", doc["loglik"], oracle)
        _check_estimate(check, "fit", coef["estimate"], coef["se"], inputs.BETA)
        return check


class TvCohort(Workload):
    name = "tv-cohort"
    op_metric = "8 x fit_s"
    # fits per operation: the optimizer's evaluation count varies from one
    # dataset to the next by up to a third, so an operation fits several
    # independent cohorts to keep the seed from deciding the figure
    n_datasets = 8

    def subjects(self, k):
        return inputs.drifting_cohort(self.seed, self.size(5000), stream=f"drift{k}")

    def make_inputs(self):
        return [self.subjects(k) for k in range(self.n_datasets)]

    def load(self, cohorts):
        self.datasets = None  # a repeated set-up must not hold two copies
        self.datasets = [inputs.to_dataset(subjects) for subjects in cohorts]

    def op(self):
        return [estimate.fit(ds, TRUE_MODEL, estimate.MODEL_COV_TIMEVARYING) for ds in self.datasets]

    def records(self, fits):
        return [_fit_record(f"cohort{k}", fit) for k, fit in enumerate(fits)]

    def check(self, fits):
        check = Check()
        for k, fit in enumerate(fits):
            label = f"cohort{k}"
            if not _is_clean(fit):
                continue
            if fit.taus != tuple(float(v) for v in range(1, inputs.N_VISITS + 1)):
                check.failures[label] = f"unexpected grid {fit.taus}"
                continue
            beta = float(fit.beta[0])
            oracle = oracle_loglik_timevarying(self.subjects(k), fit.lambdas, beta, TRUE_MODEL)
            _check_loglik(check, label, fit.loglik, oracle)
            _check_estimate(check, label, beta, float(fit.beta_se[0]), inputs.TV_BETA)
        return check


def table_cells():
    """(label, phi1, phi0, eta, S_end, arm) for every published cell, in
    the order ``reproduce_tables`` runs them."""
    one = [("table1", p1, p0, 1.0, s, arm) for p1, p0, s, arm, *_ in simulate.PUBLISHED_TABLE1]
    two = [("table2", inputs.PHI1, inputs.PHI0, eta, s, arm) for s, eta, arm, *_ in simulate.PUBLISHED_TABLE2]
    return [(f"{t}/phi1={p1},phi0={p0},eta={eta},S_end={s},{arm}", p1, p0, eta, s, arm)
            for t, p1, p0, eta, s, arm in one + two]


class SimTable(Workload):
    """The loop ``reproduce_tables`` runs: ``run_scenario`` per published cell.

    Calling ``run_scenario`` per cell rather than ``reproduce_tables`` per
    table keeps the work of an operation fixed: ``reproduce_tables``
    abandons the rest of a table when one cell loses every replicate,
    which would make a sweep cheaper exactly when the program fails more.
    """

    name = "sim-table"
    op_metric = "sweep_s"
    per_op = "replicates"

    def load(self, raw):
        # 2 replicates per cell keep a sweep short while making a cell that
        # loses every replicate (and so raises) rare
        self.replicates = max(1, int(round(2 * self.scale)))
        self.cells = [
            (label, simulate.benchmark_config(p1, p0, s_end, eta=eta, n_replicates=self.replicates,
                                              seed=self.seed), arm)
            for label, p1, p0, eta, s_end, arm in table_cells()
        ]

    def op(self):
        out = {}
        for label, config, arm in self.cells:
            try:
                out[label] = simulate.run_scenario(config, arm)
            except RuntimeError as exc:   # no replicate of the cell converged
                out[label] = exc
        return out

    def records(self, out):
        records = []
        for label, s in out.items():
            if isinstance(s, Exception):
                records.append(Record(label, {"error": str(s)}, attempted=self.replicates,
                                      failed=self.replicates, reason=str(s)))
                continue
            failed = s.n_replicates - s.n_converged
            records.append(Record(label, {"mean_estimate": s.mean_estimate, "n_converged": s.n_converged},
                                  attempted=s.n_replicates, failed=failed,
                                  reason=f"{failed} replicate(s) dropped" if failed else ""))
        return records

    def check(self, out):
        """Refit every replicate independently and hold each summary to it.

        Each refit's log-likelihood is checked against the oracle, and on
        the adjusted arm its estimate against the generating beta.  The
        timed ``run_scenario`` summary must then have converged on the
        same replicates and report the mean of their estimates.
        """
        check = Check()
        refits = check.detail.setdefault("refits", {})
        for label, config, arm in self.cells:
            em = simulate.analysis_error_model(config, arm)
            betas = []
            for rep in range(config.n_replicates):
                key = f"{label}/rep{rep}"
                dataset = simulate.generate_dataset(config, rep)
                fit = estimate.fit(dataset, em, estimate.MODEL_COV_FIXED, check_valid=False)
                refits[key] = {"beta": float(fit.beta[0]), "loglik": float(fit.loglik)}
                if not _is_clean(fit):
                    continue
                beta, se = float(fit.beta[0]), float(fit.beta_se[0])
                betas.append(beta)
                oracle = oracle_loglik_fixed(_as_subjects(dataset), fit.survival, beta, em)
                _check_loglik(check, label, fit.loglik, oracle, key)
                if arm == simulate.ADJUSTED:
                    _check_estimate(check, label, beta, se, config.beta_true[0], key)
            summary = out[label]
            if isinstance(summary, Exception):
                if betas:
                    check.failures[label] = f"run_scenario raised, but {len(betas)} refit(s) converged"
            elif summary.n_converged != len(betas):
                check.failures[label] = f"n_converged {summary.n_converged}, but {len(betas)} refit(s) converged"
            elif not abs(summary.mean_estimate - math.fsum(betas) / len(betas)) <= ESTIMATE_ATOL:
                check.failures[label] = (f"mean estimate {summary.mean_estimate!r} is not the mean "
                                         f"of the refits {betas}")
        return check


def _as_subjects(dataset):
    """Generated dataset as benchmark subjects, with visits as 1-based grid indices."""
    taus = list(dataset.grid.taus)
    return [
        inputs.Subject(s.subject_id, tuple(bisect.bisect_left(taus, t) + 1 for t in s.times),
                       s.results, (float(s.covariates[0]),))
        for s in dataset.subjects
    ]


WORKLOADS = {w.name: w for w in (CohortFixed, TvCohort, SimTable)}

"""Synthetic panel generation and operating-characteristic studies.

Each scenario draws event times under proportional hazards, contaminates
the cohort with prevalent subjects when the baseline screen is imperfect
(eta < 1), samples error-prone reports at scheduled visits with adaptive
stopping at the first positive, and summarizes bias, spread, RMSE and
confidence-interval coverage of the regression estimate over replicates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from . import estimate
from .estimate import _Z975
from .panel import ADAPTIVE, Dataset, ErrorModel, StudyGrid
from .panel import build_dataset  # noqa: F401  perfbench/spans.py times simulate.build_dataset

DEFAULT_SEED = 20210617

ADJUSTED = "adjusted"
UNADJUSTED = "unadjusted"


class EmptyReplicateError(ValueError):
    """Raised when no subject of a simulated replicate kept a visit."""


@dataclass(frozen=True)
class EventDist:
    """Event-time distribution for the reference group (z = 0)."""

    kind: str                 # "exponential" or "weibull"
    rate: float = 0.0         # exponential hazard
    shape: float = 0.0        # weibull shape
    scale: float = 0.0        # weibull scale

    def __post_init__(self):
        if self.kind not in ("exponential", "weibull"):
            raise ValueError(f"unknown event distribution {self.kind!r}")
        for name in ("rate",) if self.kind == "exponential" else ("shape", "scale"):
            if not 0.0 < getattr(self, name) < math.inf:  # a nan fails too
                raise ValueError(f"{self.kind} {name} must be finite and positive, got {getattr(self, name)!r}")

    def draw(self, rng: np.random.Generator, hazard_multiplier: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws with the hazard scaled per subject."""
        u = rng.random(hazard_multiplier.shape)
        neg_log_u = -np.log(u)
        if self.kind == "exponential":
            return neg_log_u / (self.rate * hazard_multiplier)
        return self.scale * (neg_log_u / hazard_multiplier) ** (1.0 / self.shape)

    def survival(self, t: float) -> float:
        if self.kind == "exponential":
            return math.exp(-self.rate * t)
        return math.exp(-((t / self.scale) ** self.shape))


def exponential_rate_for_incidence(cumulative_incidence: float, horizon: float) -> float:
    """Hazard giving the requested cumulative incidence by the horizon."""
    if not 0.0 < cumulative_incidence < 1.0:
        raise ValueError("cumulative incidence must lie in (0, 1)")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    return -math.log1p(-cumulative_incidence) / horizon


@dataclass(frozen=True)
class CovariateGen:
    """Covariate generator: a Bernoulli exposure arm or a fixed table."""

    kind: str                      # "bernoulli" or "table"
    p: float = 0.5
    table: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind == "bernoulli":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("bernoulli p must lie in [0, 1]")
        elif self.kind == "table":
            if len({len(row) for row in self.table}) != 1:
                raise ValueError("table generator needs at least one row, and rows of one length")
        else:
            raise ValueError(f"unknown covariate generator {self.kind!r}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "bernoulli":
            return (rng.random(n) < self.p).astype(float)[:, None]
        rows = np.asarray(self.table, dtype=float)
        return rows[np.arange(n) % rows.shape[0]]


@dataclass(frozen=True)
class ScenarioConfig:
    n_subjects: int
    n_visits: int
    visit_spacing: float
    missing_prob: float
    event_dist: EventDist
    beta_true: tuple[float, ...]
    covariate_gen: CovariateGen | None
    error_model: ErrorModel            # truth used for data generation
    n_replicates: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_subjects < 1 or self.n_visits < 1 or self.n_replicates < 1:
            raise ValueError("counts must be at least 1")
        if not 0.0 < self.visit_spacing < math.inf:
            raise ValueError(f"visit spacing must be finite and positive, got {self.visit_spacing!r}")
        if not 0.0 <= self.missing_prob < 1.0:
            raise ValueError("missing probability must lie in [0, 1)")
        gen = self.covariate_gen  # draws no covariate, one (bernoulli) or a table row
        width = 0 if gen is None else 1 if gen.kind == "bernoulli" else len(gen.table[0])
        if len(self.beta_true) != width:
            raise ValueError(f"beta_true has {len(self.beta_true)} value(s) for {width} generated covariate(s)")


@dataclass(frozen=True)
class ScenarioSummary:
    analysis: str
    beta_true: float
    mean_estimate: float
    mean_bias_pct: float
    empirical_sd: float
    mean_estimated_se: float
    rmse: float
    coverage_pct: float
    n_converged: int
    n_replicates: int


@lru_cache(maxsize=1)
def _id_digits(n: int) -> np.ndarray:  # str(i) for i < n: replicate ids are s{replicate}_{i}
    return np.array([str(i) for i in range(n)], dtype=object)


def _adaptive_reports(keep: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """(N, V) int8 reports: each kept visit's result while no earlier kept one
    was positive, else -1; made visit-major, by rows of N, and transposed."""
    keep, positive = np.ascontiguousarray(keep.T), np.ascontiguousarray((keep & positive).T)
    stopped = np.zeros_like(positive)  # a kept visit before this one was positive
    for v in range(1, len(stopped)):  # by rows: a running count along axis 0 is slower
        np.logical_or(stopped[v - 1], positive[v - 1], out=stopped[v])
    return np.where(keep & ~stopped, positive, np.int8(-1)).T


def generate_dataset(config: ScenarioConfig, replicate_index: int) -> Dataset:
    """Draw one synthetic panel dataset.

    A fraction 1 - eta of subjects enters with the event already present
    (prevalent); their reports are positive with probability phi1 at every
    visit.  Visits are missing completely at random, and report collection
    stops at the first positive.  The dataset is held as its report and
    covariate matrices; its subjects are made only when read.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, replicate_index)))  # one stream per replicate
    n = config.n_subjects
    em = config.error_model
    beta = np.asarray(config.beta_true, dtype=float)

    # without covariates (and beta) z is (N, 0), and every hazard multiplier exp(0) = 1
    z = np.empty((n, 0)) if config.covariate_gen is None else config.covariate_gen.draw(rng, n)
    x = config.event_dist.draw(rng, np.exp(z @ beta))
    n_prevalent = int(round(n * (1.0 - em.eta)))
    if n_prevalent:
        prevalent = rng.choice(n, size=n_prevalent, replace=False)
        x[prevalent] = -1.0

    schedule = np.arange(1, config.n_visits + 1) * config.visit_spacing
    keep = rng.random((n, config.n_visits)) >= config.missing_prob
    p_pos = np.where(x[:, None] <= schedule, em.phi1, 1.0 - em.phi0)
    reports = _adaptive_reports(keep, rng.random((n, config.n_visits)) < p_pos).T  # visit-major: rows of N
    # subjects who missed every visit give no data; unvisited times are no grid points
    kept = reports >= 0
    rows = np.flatnonzero(kept.any(axis=0))
    if not rows.size:
        raise EmptyReplicateError(f"replicate {replicate_index}: no subject kept a visit")
    cols = np.flatnonzero(kept.any(axis=1))
    # the ids are distinct and every structural rule holds by construction
    return Dataset.from_arrays(
        np.add(f"s{replicate_index}_", _id_digits(n)[rows]).tolist(),
        (reports[:, rows] if cols.size == len(reports) else reports[np.ix_(cols, rows)]).T,
        StudyGrid(tuple(schedule[cols].tolist())),
        z[rows],
        covariate_names=tuple(f"z{k + 1}" for k in range(beta.size)),
        schedule=ADAPTIVE,
        violations=(),
    )


def analysis_error_model(config: ScenarioConfig, analysis: str) -> ErrorModel:
    """Resolve an analysis arm to the error model the fit will assume.

    ``adjusted`` assumes the generating truth.  ``unadjusted`` ignores the
    modeled error source: perfect reports when the truth has eta = 1,
    otherwise the true report error rates with eta = 1.
    """
    if analysis == ADJUSTED:
        return config.error_model
    if analysis == UNADJUSTED:
        em = config.error_model
        if em.eta < 1.0:
            return ErrorModel(em.phi1, em.phi0, 1.0)
        return ErrorModel(1.0, 1.0, 1.0)
    raise ValueError(f"unknown analysis arm {analysis!r}")


def run_scenario(config: ScenarioConfig, analysis: str = ADJUSTED) -> ScenarioSummary:
    """Fit every replicate and summarize operating characteristics.

    Only the first regression coefficient is summarized (the exposure of
    interest).  Replicates that keep no visit or do not converge are excluded and counted.
    """
    if not config.beta_true:
        raise ValueError("run_scenario needs a regression coefficient to summarize")
    assumed = analysis_error_model(config, analysis)
    beta_true = float(config.beta_true[0])

    estimates, ses = [], []
    for rep in range(config.n_replicates):
        try:
            result = estimate.fit(generate_dataset(config, rep), assumed, estimate.MODEL_COV_FIXED)
        except EmptyReplicateError:  # a replicate that keeps no visit is dropped
            continue
        if result.converged and result.has_covariance and np.isfinite(result.beta_se[0]):
            estimates.append(float(result.beta[0]))
            ses.append(float(result.beta_se[0]))
    if not estimates:
        raise RuntimeError("no replicate converged")

    est, se = np.asarray(estimates), np.asarray(ses)
    mean_est = float(est.mean())
    bias_pct = 100.0 * (mean_est - beta_true) / beta_true if beta_true else math.nan  # undefined at 0
    emp_sd = float(est.std(ddof=1)) if est.size > 1 else float("nan")
    rmse = float(np.sqrt(np.mean((est - beta_true) ** 2)))
    covered = np.abs(est - beta_true) <= _Z975 * se
    return ScenarioSummary(
        analysis=analysis,
        beta_true=beta_true,
        mean_estimate=mean_est,
        mean_bias_pct=bias_pct,
        empirical_sd=emp_sd,
        mean_estimated_se=float(se.mean()),
        rmse=rmse,
        coverage_pct=100.0 * float(covered.mean()),
        n_converged=est.size,
        n_replicates=config.n_replicates,
    )


# Published operating characteristics for the two simulation studies:
# (phi1, phi0, S_end, analysis) -> (bias %, std err, RMSE, coverage %)
PUBLISHED_TABLE1 = (
    (0.75, 1.00, 0.90, ADJUSTED, 0.3, 0.17, 0.17, 96.8),
    (0.75, 1.00, 0.90, UNADJUSTED, 0.1, 0.17, 0.17, 97.0),
    (1.00, 0.75, 0.90, ADJUSTED, -6.7, 0.82, 0.82, 93.8),
    (1.00, 0.75, 0.90, UNADJUSTED, -90.2, 0.07, 0.90, 0.0),
    (0.61, 0.995, 0.90, ADJUSTED, 1.4, 0.21, 0.22, 94.9),
    (0.61, 0.995, 0.90, UNADJUSTED, -16.4, 0.17, 0.23, 82.9),
    (0.75, 1.00, 0.50, ADJUSTED, 0.1, 0.09, 0.09, 95.1),
    (0.75, 1.00, 0.50, UNADJUSTED, -1.9, 0.09, 0.09, 93.5),
    (1.00, 0.75, 0.50, ADJUSTED, 0.2, 0.19, 0.19, 94.4),
    (1.00, 0.75, 0.50, UNADJUSTED, -59.2, 0.07, 0.60, 0.0),
    (0.61, 0.995, 0.50, ADJUSTED, 0.5, 0.09, 0.09, 94.2),
    (0.61, 0.995, 0.50, UNADJUSTED, -6.9, 0.08, 0.11, 86.7),
)

# (S_end, eta, analysis) -> (bias %, std err, RMSE, coverage %); reports use
# phi1 = 0.61, phi0 = 0.995
PUBLISHED_TABLE2 = (
    (0.90, 0.99, ADJUSTED, 2.6, 0.22, 0.23, 95.0),
    (0.90, 0.99, UNADJUSTED, -4.5, 0.20, 0.21, 94.1),
    (0.90, 0.96, ADJUSTED, 1.2, 0.24, 0.24, 95.8),
    (0.90, 0.96, UNADJUSTED, -22.9, 0.17, 0.29, 72.7),
    (0.90, 0.93, ADJUSTED, 0.1, 0.25, 0.25, 95.2),
    (0.90, 0.93, UNADJUSTED, -36.4, 0.15, 0.40, 36.3),
    (0.50, 0.99, ADJUSTED, 0.0, 0.09, 0.09, 95.2),
    (0.50, 0.99, UNADJUSTED, -1.5, 0.09, 0.09, 94.1),
    (0.50, 0.96, ADJUSTED, 0.1, 0.10, 0.10, 94.2),
    (0.50, 0.96, UNADJUSTED, -5.7, 0.09, 0.11, 89.2),
    (0.50, 0.93, ADJUSTED, 0.6, 0.10, 0.10, 94.1),
    (0.50, 0.93, UNADJUSTED, -9.4, 0.09, 0.13, 80.9),
)

STUDY_HORIZON_YEARS = 8.0


def benchmark_config(
    phi1: float,
    phi0: float,
    s_end: float,
    eta: float = 1.0,
    n_replicates: int = 1000,
    seed: int = DEFAULT_SEED,
    event_dist: EventDist | None = None,
) -> ScenarioConfig:
    """Scenario matching the published benchmark design: 1000 subjects,
    two equal exposure arms with beta = 1, 8 annual visits each missing
    with probability 0.3."""
    if event_dist is None:
        rate = exponential_rate_for_incidence(1.0 - s_end, STUDY_HORIZON_YEARS)
        event_dist = EventDist("exponential", rate=rate)
    return ScenarioConfig(
        n_subjects=1000,
        n_visits=8,
        visit_spacing=1.0,
        missing_prob=0.3,
        event_dist=event_dist,
        beta_true=(1.0,),
        covariate_gen=CovariateGen("bernoulli", p=0.5),
        error_model=ErrorModel(phi1, phi0, eta),
        n_replicates=n_replicates,
        seed=seed,
    )


@dataclass(frozen=True)
class TableRow:
    phi1: float
    phi0: float
    eta: float
    s_end: float
    analysis: str
    published_bias_pct: float
    published_std_err: float
    published_rmse: float
    published_coverage_pct: float
    summary: ScenarioSummary
    bias_mc_se_pct: float
    coverage_mc_se_pct: float


def reproduce_tables(which: str, scale: int, seed: int = DEFAULT_SEED) -> list[TableRow]:
    """Re-run every row of one published table at ``scale`` replicates.

    Monte Carlo error bars accompany the reproduced bias and coverage so
    the comparison accounts for the replicate budget.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    rows = []
    if which == "table1":
        specs = [(p1, p0, 1.0, s_end, arm, b, se, rm, cov) for (p1, p0, s_end, arm, b, se, rm, cov) in PUBLISHED_TABLE1]
    elif which == "table2":
        specs = [(0.61, 0.995, eta, s_end, arm, b, se, rm, cov) for (s_end, eta, arm, b, se, rm, cov) in PUBLISHED_TABLE2]
    else:
        raise ValueError("which must be 'table1' or 'table2'")
    for phi1, phi0, eta, s_end, arm, bias, se, rmse, coverage in specs:
        config = benchmark_config(phi1, phi0, s_end, eta=eta, n_replicates=scale, seed=seed)
        summary = run_scenario(config, arm)
        n = summary.n_converged  # one estimate has no spread: its SD and both error bars are nan, not 0
        bias_se = 100.0 * summary.empirical_sd / math.sqrt(n) / abs(summary.beta_true)
        cov_frac = summary.coverage_pct / 100.0
        cov_se = 100.0 * math.sqrt(max(cov_frac * (1.0 - cov_frac), 0.0) / n) if n > 1 else math.nan
        rows.append(TableRow(phi1, phi0, eta, s_end, arm, bias, se, rmse, coverage, summary, bias_se, cov_se))
    return rows


# The reproduction report's columns in order: CSV key, text header (None: CSV
# only), text width and precision (None: no fixed point), and whether a
# two-space group gap comes before the column
_REPORT_COLUMNS = (
    ("phi1", "phi1", 5, 2, False),
    ("phi0", "phi0", 6, 3, False),
    ("eta", "eta", 5, 2, False),
    ("s_end", "S_end", 5, 2, False),
    ("analysis", "analysis", 10, None, False),
    ("bias_pct", "bias%", 8, 1, False),
    ("published_bias_pct", "pub", 7, 1, False),
    ("bias_mc_se_pct", "+/-", 5, 1, False),
    ("empirical_sd", "SD", 6, 3, True),
    ("mean_estimated_se", "SE", 6, 3, False),
    ("published_std_err", "pubSE", 6, 2, False),
    ("rmse", "RMSE", 6, 3, False),
    ("published_rmse", "pub", 5, 2, False),
    ("coverage_pct", "cover%", 7, 1, True),
    ("published_coverage_pct", "pub", 6, 1, False),
    ("coverage_mc_se_pct", "+/-", 5, 1, False),
    ("n_converged", "nconv", 5, None, False),
    ("n_replicates", None, None, None, False),
)


def summary_record(summary: ScenarioSummary) -> dict:
    """The ``simulate`` CSV's record of a summary: its fields, ``mean_bias_pct`` named ``bias_pct``."""
    return {("bias_pct" if k == "mean_bias_pct" else k): v for k, v in asdict(summary).items()}


def table_report_records(rows: list[TableRow]) -> list[dict]:
    """Flat dict rows (one per table cell) for CSV output, keyed in :data:`_REPORT_COLUMNS` order."""
    out = []
    for r in rows:  # the reproduced values are the summary record's
        values = {**vars(r), **summary_record(r.summary)}
        out.append({key: values[key] for key, *_ in _REPORT_COLUMNS})
    return out


def format_table_report(rows: list[TableRow]) -> str:
    """Human-readable published-vs-reproduced comparison in the text columns of :data:`_REPORT_COLUMNS`."""
    columns = [c for c in _REPORT_COLUMNS if c[1] is not None]
    table = [[f"{h:>{w}}" for _, h, w, _, _ in columns]]  # the header, then one line per table cell
    for record in table_report_records(rows):
        table.append([format(record[k], f">{w}" if p is None else f">{w}.{p}f") for k, _, w, p, _ in columns])
    # one space between columns, two before a group
    lines = ["".join(("  " if c[4] else " ") + cell for c, cell in zip(columns, line))[1:] for line in table]
    lines.insert(1, "-" * len(lines[0]))  # the dashed rule under the header
    return "\n".join(lines)


def _number(value, kinds=(int, float), least=-math.inf):
    """A finite JSON number whose type is one of ``kinds`` (a bool's is
    not), at least ``least``, converted to the last kind."""
    if type(value) not in kinds or not math.isfinite(value) or value < least:
        raise ValueError
    return kinds[-1](value)


def _scenario_value(obj: dict, path: str, convert, *default):
    """``convert`` of the scenario value at ``path`` (its last part the key
    in ``obj``; ``dict`` takes only an object), or ``default`` if given and
    the key is absent; a missing key, or a value ``convert`` rejects, is a
    ValueError naming the path."""
    key = path.rpartition(".")[2]
    if key not in obj and default:
        return default[0]
    try:
        if convert is dict and not isinstance(obj[key], dict):
            raise TypeError
        return convert(obj[key])
    except KeyError:
        raise ValueError(f"scenario config missing key {path!r}") from None
    except (TypeError, ValueError):
        raise ValueError(f"scenario config key {path!r} has invalid value {json.dumps(obj[key], default=repr)}") from None


def scenario_from_dict(spec: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the documented key-value schema; a missing
    key, a section that is not an object, a number that is not a finite JSON
    one, or a count (seed) not a JSON integer >= 1 (0) is a ValueError naming the key."""
    if not isinstance(spec, dict):
        raise ValueError(f"scenario config must be a JSON object, not {json.dumps(spec, default=repr)}")
    get = _scenario_value
    event = get(spec, "event_dist", dict)
    dist = EventDist(
        kind=get(event, "event_dist.kind", str),
        rate=get(event, "event_dist.rate", _number, 0.0),
        shape=get(event, "event_dist.shape", _number, 0.0),
        scale=get(event, "event_dist.scale", _number, 0.0),
    )
    gen = None
    if spec.get("covariate_gen") is not None:
        cov = get(spec, "covariate_gen", dict)
        gen = CovariateGen(
            kind=get(cov, "covariate_gen.kind", str),
            p=get(cov, "covariate_gen.p", _number, 0.5),
            table=get(cov, "covariate_gen.table", lambda rows: tuple(tuple(map(_number, row)) for row in rows), ()),
        )
    err = get(spec, "error_model", dict)
    return ScenarioConfig(
        n_subjects=get(spec, "n_subjects", lambda v: _number(v, (int,), 1)),
        n_visits=get(spec, "n_visits", lambda v: _number(v, (int,), 1)),
        visit_spacing=get(spec, "visit_spacing", _number),
        missing_prob=get(spec, "missing_prob", _number),
        event_dist=dist,
        beta_true=get(spec, "beta_true", lambda beta: tuple(map(_number, beta)), ()),
        covariate_gen=gen,
        error_model=ErrorModel(get(err, "error_model.phi1", _number), get(err, "error_model.phi0", _number),
                               get(err, "error_model.eta", _number, 1.0)),
        n_replicates=get(spec, "n_replicates", lambda v: _number(v, (int,), 1)),
        seed=get(spec, "seed", lambda v: _number(v, (int,), 0), DEFAULT_SEED),
    )


def scenario_from_json(path) -> ScenarioConfig:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario config is not valid JSON: {exc}") from None
    return scenario_from_dict(spec)

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
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import stats

from . import estimate
from .panel import ADAPTIVE, Dataset, ErrorModel, StudyGrid
from .panel import build_dataset  # noqa: F401  perfbench/spans.py times simulate.build_dataset

DEFAULT_SEED = 20210617
_Z975 = stats.norm.ppf(0.975)

ADJUSTED = "adjusted"
UNADJUSTED = "unadjusted"


@dataclass(frozen=True)
class EventDist:
    """Event-time distribution for the reference group (z = 0)."""

    kind: str                 # "exponential" or "weibull"
    rate: float = 0.0         # exponential hazard
    shape: float = 0.0        # weibull shape
    scale: float = 0.0        # weibull scale

    def __post_init__(self):
        if self.kind == "exponential":
            if self.rate <= 0:
                raise ValueError("exponential rate must be positive")
        elif self.kind == "weibull":
            if self.shape <= 0 or self.scale <= 0:
                raise ValueError("weibull shape and scale must be positive")
        else:
            raise ValueError(f"unknown event distribution {self.kind!r}")

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
            if not self.table:
                raise ValueError("table generator needs at least one row")
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
        if self.visit_spacing <= 0:
            raise ValueError("visit spacing must be positive")
        if not 0.0 <= self.missing_prob < 1.0:
            raise ValueError("missing probability must lie in [0, 1)")
        beta = tuple(self.beta_true)
        if self.covariate_gen is None and beta:
            raise ValueError("beta_true given without a covariate generator")
        if self.covariate_gen is not None and not beta:
            raise ValueError("covariate generator given without beta_true")


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


def _replicate_rng(seed: int, replicate_index: int) -> np.random.Generator:
    # independent, order-insensitive stream per replicate
    return np.random.default_rng(np.random.SeedSequence((seed, replicate_index)))


def generate_dataset(config: ScenarioConfig, replicate_index: int) -> Dataset:
    """Draw one synthetic panel dataset.

    A fraction 1 - eta of subjects enters with the event already present
    (prevalent); their reports are positive with probability phi1 at every
    visit.  Visits are missing completely at random, and report collection
    stops at the first positive.  The dataset is held as its report and
    covariate matrices; its subjects are made only when read.
    """
    rng = _replicate_rng(config.seed, replicate_index)
    n = config.n_subjects
    em = config.error_model
    beta = np.asarray(config.beta_true, dtype=float)

    if config.covariate_gen is not None:
        z = config.covariate_gen.draw(rng, n)
        mult = np.exp(z @ beta)
    else:
        z = None
        mult = np.ones(n)

    x = config.event_dist.draw(rng, mult)
    n_prevalent = int(round(n * (1.0 - em.eta)))
    if n_prevalent:
        prevalent = rng.choice(n, size=n_prevalent, replace=False)
        x[prevalent] = -1.0

    schedule = np.arange(1, config.n_visits + 1) * config.visit_spacing
    keep = rng.random((n, config.n_visits)) >= config.missing_prob
    pos_draw = rng.random((n, config.n_visits))

    p_pos = np.where(x[:, None] <= schedule[None, :], em.phi1, 1.0 - em.phi0)
    positive = keep & (pos_draw < p_pos)
    # collection stops at the first positive among the kept visits
    first_positive = np.where(positive.any(axis=1), positive.argmax(axis=1), config.n_visits)
    kept = keep & (np.arange(config.n_visits)[None, :] <= first_positive[:, None])

    reports = np.where(kept, positive, np.int8(-1))
    # subjects who missed every visit give no data; unvisited times are no grid points
    rows = np.flatnonzero(kept.any(axis=1))
    cols = np.flatnonzero(kept.any(axis=0))
    return Dataset.from_arrays(
        [f"s{replicate_index}_{i}" for i in rows.tolist()],
        reports[np.ix_(rows, cols)],
        StudyGrid(tuple(schedule[cols].tolist())),
        z[rows] if z is not None else None,
        covariate_names=tuple(f"z{k + 1}" for k in range(beta.size)) if z is not None else (),
        schedule=ADAPTIVE,
    )


def analysis_error_model(config: ScenarioConfig, analysis) -> ErrorModel:
    """Resolve an analysis arm to the error model the fit will assume.

    ``adjusted`` assumes the generating truth.  ``unadjusted`` ignores the
    modeled error source: perfect reports when the truth has eta = 1,
    otherwise the true report error rates with eta = 1.
    """
    if isinstance(analysis, ErrorModel):
        return analysis
    if analysis == ADJUSTED:
        return config.error_model
    if analysis == UNADJUSTED:
        em = config.error_model
        if em.eta < 1.0:
            return ErrorModel(em.phi1, em.phi0, 1.0)
        return ErrorModel(1.0, 1.0, 1.0)
    raise ValueError(f"unknown analysis arm {analysis!r}")


def run_scenario(config: ScenarioConfig, analysis=ADJUSTED) -> ScenarioSummary:
    """Fit every replicate and summarize operating characteristics.

    Only the first regression coefficient is summarized (the exposure of
    interest).  Non-converged replicates are excluded and counted.
    """
    if not config.beta_true:
        raise ValueError("run_scenario needs a regression coefficient to summarize")
    assumed = analysis_error_model(config, analysis)
    beta_true = float(config.beta_true[0])

    estimates = []
    ses = []
    for rep in range(config.n_replicates):
        dataset = generate_dataset(config, rep)
        result = estimate.fit(
            dataset, assumed, estimate.MODEL_COV_FIXED, check_valid=False
        )
        if result.converged and result.has_covariance and np.isfinite(result.beta_se[0]):
            estimates.append(float(result.beta[0]))
            ses.append(float(result.beta_se[0]))
    if not estimates:
        raise RuntimeError("no replicate converged")

    est = np.asarray(estimates)
    se = np.asarray(ses)
    mean_est = float(est.mean())
    bias_pct = 100.0 * (mean_est - beta_true) / beta_true
    emp_sd = float(est.std(ddof=1)) if est.size > 1 else float("nan")
    rmse = float(np.sqrt(np.mean((est - beta_true) ** 2)))
    covered = np.abs(est - beta_true) <= _Z975 * se
    label = analysis if isinstance(analysis, str) else "custom"
    return ScenarioSummary(
        analysis=label,
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
        n = max(summary.n_converged, 1)
        sd = summary.empirical_sd if math.isfinite(summary.empirical_sd) else 0.0
        bias_se = 100.0 * sd / math.sqrt(n) / abs(summary.beta_true)
        cov_frac = summary.coverage_pct / 100.0
        cov_se = 100.0 * math.sqrt(max(cov_frac * (1.0 - cov_frac), 0.0) / n)
        rows.append(
            TableRow(
                phi1=phi1,
                phi0=phi0,
                eta=eta,
                s_end=s_end,
                analysis=arm,
                published_bias_pct=bias,
                published_std_err=se,
                published_rmse=rmse,
                published_coverage_pct=coverage,
                summary=summary,
                bias_mc_se_pct=bias_se,
                coverage_mc_se_pct=cov_se,
            )
        )
    return rows


def format_table_report(rows: list[TableRow]) -> str:
    """Human-readable published-vs-reproduced comparison."""
    header = (
        f"{'phi1':>5} {'phi0':>6} {'eta':>5} {'S_end':>5} {'analysis':>10} "
        f"{'bias%':>8} {'pub':>7} {'+/-':>5}  {'SD':>6} {'SE':>6} {'pubSE':>6} "
        f"{'RMSE':>6} {'pub':>5}  {'cover%':>7} {'pub':>6} {'+/-':>5} {'nconv':>5}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        s = r.summary
        lines.append(
            f"{r.phi1:>5.2f} {r.phi0:>6.3f} {r.eta:>5.2f} {r.s_end:>5.2f} {r.analysis:>10} "
            f"{s.mean_bias_pct:>8.1f} {r.published_bias_pct:>7.1f} {r.bias_mc_se_pct:>5.1f}  "
            f"{s.empirical_sd:>6.3f} {s.mean_estimated_se:>6.3f} {r.published_std_err:>6.2f} "
            f"{s.rmse:>6.3f} {r.published_rmse:>5.2f}  "
            f"{s.coverage_pct:>7.1f} {r.published_coverage_pct:>6.1f} {r.coverage_mc_se_pct:>5.1f} "
            f"{s.n_converged:>5d}"
        )
    return "\n".join(lines)


def table_report_records(rows: list[TableRow]) -> list[dict]:
    """Flat dict rows (one per table cell) for CSV output."""
    out = []
    for r in rows:
        s = r.summary
        out.append(
            {
                "phi1": r.phi1,
                "phi0": r.phi0,
                "eta": r.eta,
                "s_end": r.s_end,
                "analysis": r.analysis,
                "bias_pct": s.mean_bias_pct,
                "published_bias_pct": r.published_bias_pct,
                "bias_mc_se_pct": r.bias_mc_se_pct,
                "empirical_sd": s.empirical_sd,
                "mean_estimated_se": s.mean_estimated_se,
                "published_std_err": r.published_std_err,
                "rmse": s.rmse,
                "published_rmse": r.published_rmse,
                "coverage_pct": s.coverage_pct,
                "published_coverage_pct": r.published_coverage_pct,
                "coverage_mc_se_pct": r.coverage_mc_se_pct,
                "n_converged": s.n_converged,
                "n_replicates": s.n_replicates,
            }
        )
    return out


def scenario_from_dict(spec: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the documented key-value schema."""
    try:
        event = spec["event_dist"]
        dist = EventDist(
            kind=event["kind"],
            rate=float(event.get("rate", 0.0)),
            shape=float(event.get("shape", 0.0)),
            scale=float(event.get("scale", 0.0)),
        )
        cov = spec.get("covariate_gen")
        gen = None
        if cov is not None:
            gen = CovariateGen(
                kind=cov["kind"],
                p=float(cov.get("p", 0.5)),
                table=tuple(tuple(map(float, row)) for row in cov.get("table", ())),
            )
        err = spec["error_model"]
        return ScenarioConfig(
            n_subjects=int(spec["n_subjects"]),
            n_visits=int(spec["n_visits"]),
            visit_spacing=float(spec["visit_spacing"]),
            missing_prob=float(spec["missing_prob"]),
            event_dist=dist,
            beta_true=tuple(map(float, spec.get("beta_true", ()))),
            covariate_gen=gen,
            error_model=ErrorModel(float(err["phi1"]), float(err["phi0"]), float(err.get("eta", 1.0))),
            n_replicates=int(spec["n_replicates"]),
            seed=int(spec.get("seed", DEFAULT_SEED)),
        )
    except KeyError as exc:
        raise ValueError(f"scenario config missing key {exc.args[0]!r}") from None


def scenario_from_json(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario config is not valid JSON: {exc}") from None
    return scenario_from_dict(spec)

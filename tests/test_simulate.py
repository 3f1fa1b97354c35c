import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survreport import panel
from survreport.estimate import ModelSpecError, fit
from survreport.panel import PREDETERMINED, Dataset, ErrorModel, build_dataset, validate
from survreport.simulate import (
    ADJUSTED,
    DEFAULT_SEED,
    UNADJUSTED,
    CovariateGen,
    EventDist,
    ScenarioConfig,
    analysis_error_model,
    benchmark_config,
    exponential_rate_for_incidence,
    format_table_report,
    generate_dataset,
    reproduce_tables,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    table_report_records,
)


def small_config(**overrides):
    base = dict(
        n_subjects=200,
        n_visits=4,
        visit_spacing=1.0,
        missing_prob=0.2,
        event_dist=EventDist("exponential", rate=0.2),
        beta_true=(1.0,),
        covariate_gen=CovariateGen("bernoulli", p=0.5),
        error_model=ErrorModel(0.8, 0.95),
        n_replicates=3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestEventDist:
    def test_exponential_survival(self):
        rate = exponential_rate_for_incidence(0.1, 8.0)
        assert rate == pytest.approx(-math.log(0.9) / 8.0)
        assert EventDist("exponential", rate=rate).survival(8.0) == pytest.approx(0.9)

    def test_weibull_survival(self):
        d = EventDist("weibull", shape=1.5, scale=8.0 / math.log(2.0) ** (1 / 1.5))
        assert d.survival(8.0) == pytest.approx(0.5)

    def test_draw_matches_survival(self):
        rng = np.random.default_rng(0)
        d = EventDist("weibull", shape=1.5, scale=4.0)
        x = d.draw(rng, np.ones(200_000))
        for t in (1.0, 3.0, 6.0):
            emp = float((x > t).mean())
            se = math.sqrt(d.survival(t) * (1 - d.survival(t)) / x.size)
            assert abs(emp - d.survival(t)) < 4 * se

    def test_hazard_multiplier_scales_exponential(self):
        rng = np.random.default_rng(1)
        d = EventDist("exponential", rate=0.5)
        x = d.draw(rng, np.full(200_000, 2.0))
        # doubling the hazard halves the mean
        assert float(x.mean()) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="exponential"), dict(kind="weibull", shape=1.0), dict(kind="poisson", rate=1.0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EventDist(**kwargs)

    def test_bad_incidence(self):
        with pytest.raises(ValueError):
            exponential_rate_for_incidence(1.0, 8.0)


class TestCovariateGen:
    def test_table_cycles_rows(self):
        gen = CovariateGen("table", table=((0.0,), (1.0,)))
        z = gen.draw(np.random.default_rng(0), 5)
        assert z.ravel().tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_bernoulli_mean(self):
        gen = CovariateGen("bernoulli", p=0.25)
        z = gen.draw(np.random.default_rng(0), 100_000)
        assert float(z.mean()) == pytest.approx(0.25, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CovariateGen("bernoulli", p=1.5)
        with pytest.raises(ValueError):
            CovariateGen("table")


class TestScenarioConfig:
    def test_beta_requires_generator(self):
        with pytest.raises(ValueError):
            small_config(covariate_gen=None)

    def test_generator_requires_beta(self):
        with pytest.raises(ValueError):
            small_config(beta_true=())

    def test_bad_missing_prob(self):
        with pytest.raises(ValueError):
            small_config(missing_prob=1.0)


class TestGenerateDataset:
    def test_deterministic_per_replicate(self):
        config = small_config()
        d1 = generate_dataset(config, 0)
        d2 = generate_dataset(config, 0)
        assert d1 == d2
        d3 = generate_dataset(config, 1)
        assert d1 != d3

    def test_replicate_streams_order_insensitive(self):
        config = small_config()
        # drawing replicate 5 does not depend on earlier replicates
        late = generate_dataset(config, 5)
        again = generate_dataset(config, 5)
        assert late == again

    def test_adaptive_invariants_hold(self):
        ds = generate_dataset(small_config(n_subjects=500), 0)
        assert validate(ds) == []
        for s in ds.subjects:
            positives = [r for r in s.results if r == 1]
            assert len(positives) <= 1
            if positives:
                assert s.results[-1] == 1

    def test_incidence_calibration(self):
        # perfect reports, no missing visits: the share of subjects ever
        # reporting positive is the cumulative incidence by the horizon
        n = 100_000
        target = 0.1
        config = small_config(
            n_subjects=n,
            n_visits=8,
            missing_prob=0.0,
            event_dist=EventDist(
                "exponential", rate=exponential_rate_for_incidence(target, 8.0)
            ),
            beta_true=(),
            covariate_gen=None,
            error_model=ErrorModel(1.0, 1.0),
        )
        ds = generate_dataset(config, 0)
        frac = sum(s.results[-1] == 1 for s in ds.subjects) / n
        se = math.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 3 * se

    def test_prevalent_count_is_rounded_share(self):
        # with a negligible event rate and perfect reports, exactly
        # round(N * (1 - eta)) subjects report positive at their first visit
        config = small_config(
            n_subjects=1000,
            n_visits=8,
            missing_prob=0.0,
            event_dist=EventDist("exponential", rate=1e-9),
            beta_true=(),
            covariate_gen=None,
            error_model=ErrorModel(1.0, 1.0, eta=0.93),
        )
        ds = generate_dataset(config, 0)
        n_pos = sum(s.results[0] == 1 for s in ds.subjects)
        assert n_pos == 70

    def test_covariates_attached(self):
        ds = generate_dataset(small_config(), 0)
        assert ds.covariate_names == ("z1",)
        assert all(s.covariates in ((0.0,), (1.0,)) for s in ds.subjects)


@st.composite
def small_configs(draw):
    """Small scenarios: up to 30 subjects and 5 visits, heavy missingness,
    eta < 1, and no, Bernoulli or two-column table covariates."""
    kind = draw(st.sampled_from(("none", "bernoulli", "table")))
    if kind == "none":
        gen, beta = None, ()
    elif kind == "bernoulli":
        gen, beta = CovariateGen("bernoulli", p=draw(st.sampled_from((0.0, 0.3, 1.0)))), (0.7,)
    else:
        table = ((0.0, 1.0), (1.0, -0.5), (-0.0, 0.0))
        gen, beta = CovariateGen("table", table=table[: draw(st.integers(1, 3))]), (0.5, -0.3)
    return ScenarioConfig(
        n_subjects=draw(st.integers(1, 30)),
        n_visits=draw(st.integers(1, 5)),
        visit_spacing=draw(st.sampled_from((0.5, 1.0, 1.5))),
        missing_prob=draw(st.floats(0.0, 0.9)),
        event_dist=EventDist("exponential", rate=draw(st.sampled_from((0.05, 0.3, 1.0)))),
        beta_true=beta,
        covariate_gen=gen,
        error_model=ErrorModel(
            draw(st.floats(0.6, 1.0)), draw(st.floats(0.6, 1.0)), draw(st.sampled_from((1.0, 0.9, 0.7)))
        ),
        n_replicates=1,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def generate_or_none(config, rep):
    try:
        return generate_dataset(config, rep)
    except ValueError:  # every subject missed every visit
        return None


def fit_outcome(dataset, error_model):
    """Bytes of beta, SE and log-likelihood, or the error a fit raised."""
    try:
        f = fit(dataset, error_model, check_valid=False)
    except ValueError as exc:  # both datasets must fail alike
        return type(exc), str(exc)
    return f.beta.tobytes(), f.beta_se.tobytes(), np.float64(f.loglik).tobytes()


class TestArrayDataset:
    """A generated dataset is held as arrays; it equals the same subjects
    passed through build_dataset and fits identically."""

    @settings(max_examples=100, deadline=None)
    @given(small_configs(), st.integers(0, 5))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_generated_equals_built(self, config, rep):
        ds = generate_or_none(config, rep)
        assume(ds is not None)
        built = build_dataset(list(ds.subjects), covariate_names=ds.covariate_names, schedule=ds.schedule)
        assert ds.reports.dtype == built.reports.dtype
        assert np.array_equal(ds.reports, built.reports)
        assert ds.grid == built.grid
        assert ds.covariates.shape == built.covariates.shape
        assert ds.covariates.tobytes() == built.covariates.tobytes()
        assert ds.subjects == built.subjects and tuple(ds.subjects) == built.subjects
        assert all(s.subject_id.startswith(f"s{rep}_") for s in ds.subjects)
        assert ds == built and built == ds and hash(ds) == hash(built)
        # a fresh dataset whose subjects were never read fits like the built one
        fresh = generate_dataset(config, rep)
        assert fit_outcome(fresh, config.error_model) == fit_outcome(built, config.error_model)

    def test_no_subject_panel_until_read(self, monkeypatch):
        made = []
        original = panel.SubjectPanel.__post_init__

        def counting(self):
            made.append(self.subject_id)
            original(self)

        monkeypatch.setattr(panel.SubjectPanel, "__post_init__", counting)
        config = small_config()
        ds = generate_dataset(config, 0)
        fit(ds, config.error_model, check_valid=False)
        assert made == [] and ds.n > 0
        assert ds.subjects[0].subject_id == made[0] == "s0_0"
        assert len(made) == ds.n
        list(ds.subjects)
        assert len(made) == ds.n  # made once, then kept

    def test_impossible_pattern_names_generated_subject(self):
        # adaptive reports stop at the first positive, so every generated
        # pattern is possible; a later negative after it is not when
        # reports are exact
        ds = generate_dataset(small_config(), 2)
        reports = np.array(ds.reports)
        i = int(np.flatnonzero((reports[:, :-1] == 1).any(axis=1))[0])
        k = int(np.flatnonzero(reports[i] == 1)[0])
        reports[i, k + 1] = 0
        ids = [s.subject_id for s in ds.subjects]
        bad = Dataset.from_arrays(ids, reports, ds.grid, ds.covariates, ds.covariate_names, PREDETERMINED)
        assert ids[i].startswith("s2_")
        with pytest.raises(ModelSpecError, match=f"subject {ids[i]}: report pattern is impossible"):
            fit(bad, ErrorModel(1.0, 1.0), check_valid=False)


class TestAnalysisErrorModel:
    def test_adjusted_is_truth(self):
        config = small_config(error_model=ErrorModel(0.61, 0.995, 0.93))
        assert analysis_error_model(config, ADJUSTED) == ErrorModel(0.61, 0.995, 0.93)

    def test_unadjusted_with_eta_below_one_keeps_report_errors(self):
        config = small_config(error_model=ErrorModel(0.61, 0.995, 0.93))
        assert analysis_error_model(config, UNADJUSTED) == ErrorModel(0.61, 0.995, 1.0)

    def test_unadjusted_with_perfect_baseline_assumes_perfect_reports(self):
        config = small_config(error_model=ErrorModel(0.61, 0.995, 1.0))
        assert analysis_error_model(config, UNADJUSTED) == ErrorModel(1.0, 1.0, 1.0)

    def test_explicit_model_passes_through(self):
        config = small_config()
        em = ErrorModel(0.5, 0.99)
        assert analysis_error_model(config, em) is em

    def test_unknown_arm(self):
        with pytest.raises(ValueError):
            analysis_error_model(small_config(), "naive")


class TestRunScenario:
    def test_summary_internally_consistent(self):
        summary = run_scenario(small_config(n_replicates=30), ADJUSTED)
        assert summary.analysis == ADJUSTED
        assert summary.n_converged <= summary.n_replicates == 30
        n = summary.n_converged
        # rmse^2 = (n-1)/n * sd^2 + bias^2
        bias = summary.mean_estimate - summary.beta_true
        expect = math.sqrt((n - 1) / n * summary.empirical_sd**2 + bias**2)
        assert summary.rmse == pytest.approx(expect, rel=1e-12)
        assert 0.0 <= summary.coverage_pct <= 100.0

    def test_requires_coefficient(self):
        config = small_config(beta_true=(), covariate_gen=None)
        with pytest.raises(ValueError):
            run_scenario(config, ADJUSTED)

    def test_deterministic(self):
        config = small_config(n_replicates=5)
        s1 = run_scenario(config, ADJUSTED)
        s2 = run_scenario(config, ADJUSTED)
        assert s1 == s2


class TestReproduceTables:
    def test_structure_and_determinism(self):
        rows = reproduce_tables("table1", scale=2, seed=11)
        assert len(rows) == 12
        arms = {r.analysis for r in rows}
        assert arms == {ADJUSTED, UNADJUSTED}
        again = reproduce_tables("table1", scale=2, seed=11)
        assert [r.summary for r in again] == [r.summary for r in rows]

    def test_report_formats(self):
        rows = reproduce_tables("table2", scale=2, seed=11)
        assert len(rows) == 12
        assert all(r.phi1 == 0.61 and r.phi0 == 0.995 for r in rows)
        text = format_table_report(rows)
        assert "bias%" in text and len(text.splitlines()) == 14
        records = table_report_records(rows)
        assert len(records) == 12
        assert {"bias_pct", "published_bias_pct", "coverage_pct"} <= records[0].keys()

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_tables("table9", scale=1)


class TestScenarioSerialization:
    def spec(self):
        return {
            "n_subjects": 50,
            "n_visits": 4,
            "visit_spacing": 1.0,
            "missing_prob": 0.3,
            "event_dist": {"kind": "exponential", "rate": 0.08},
            "beta_true": [1.0],
            "covariate_gen": {"kind": "bernoulli", "p": 0.5},
            "error_model": {"phi1": 0.61, "phi0": 0.995, "eta": 0.93},
            "n_replicates": 2,
            "seed": 42,
        }

    def test_from_dict(self):
        config = scenario_from_dict(self.spec())
        assert config.n_subjects == 50
        assert config.error_model == ErrorModel(0.61, 0.995, 0.93)
        assert config.event_dist == EventDist("exponential", rate=0.08)
        assert config.seed == 42

    def test_defaults(self):
        spec = self.spec()
        del spec["seed"]
        del spec["covariate_gen"]
        spec["beta_true"] = []
        config = scenario_from_dict(spec)
        assert config.seed == DEFAULT_SEED
        assert config.covariate_gen is None

    def test_missing_key(self):
        spec = self.spec()
        del spec["event_dist"]
        with pytest.raises(ValueError, match="event_dist"):
            scenario_from_dict(spec)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.spec()), encoding="utf-8")
        assert scenario_from_json(path) == scenario_from_dict(self.spec())

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            scenario_from_json(path)


class TestBenchmarkConfig:
    def test_matches_published_design(self):
        config = benchmark_config(0.61, 0.995, 0.5)
        assert config.n_subjects == 1000
        assert config.n_visits == 8
        assert config.missing_prob == 0.3
        assert config.beta_true == (1.0,)
        assert config.covariate_gen == CovariateGen("bernoulli", p=0.5)
        assert config.event_dist.survival(8.0) == pytest.approx(0.5)

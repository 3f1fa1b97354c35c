import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survreport import panel
from survreport.cli import EXIT_INPUT_ERROR, main
from survreport.estimate import ModelSpecError, fit
from survreport.panel import PREDETERMINED, Dataset, ErrorModel, build_dataset
from survreport.simulate import (
    ADJUSTED,
    DEFAULT_SEED,
    UNADJUSTED,
    CovariateGen,
    EmptyReplicateError,
    EventDist,
    ScenarioConfig,
    ScenarioSummary,
    TableRow,
    _adaptive_reports,
    analysis_error_model,
    benchmark_config,
    exponential_rate_for_incidence,
    format_table_report,
    generate_dataset,
    reproduce_tables,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    summary_record,
    table_report_records,
)

from oracles import adaptive_reports_by_subject, generated_by_subject, validate_by_subject


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

    @pytest.mark.parametrize("kind, name", [("exponential", "rate"), ("weibull", "shape"), ("weibull", "scale")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_rejected_by_name(self, kind, name, value):
        # a nan rate used to pass the <= 0 test and give a summary of nan event times
        valid = {"rate": 0.5} if kind == "exponential" else {"shape": 1.5, "scale": 4.0}
        with pytest.raises(ValueError, match=f"^{kind} {name} must be finite and positive, got {value!r}$"):
            EventDist(kind, **{**valid, name: value})

    def test_bad_incidence(self):
        with pytest.raises(ValueError):
            exponential_rate_for_incidence(1.0, 8.0)

    @pytest.mark.parametrize("horizon", [0.0, -8.0, math.nan, math.inf])
    def test_bad_horizon_is_rejected_by_name(self, horizon):
        # a zero horizon used to raise a bare ZeroDivisionError
        with pytest.raises(ValueError, match=f"^horizon must be finite and positive, got {horizon!r}$"):
            exponential_rate_for_incidence(0.1, horizon)


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

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_visit_spacing_is_rejected_by_name(self, spacing):
        # a nan spacing used to fail only in run_scenario, on the grid times it made
        with pytest.raises(ValueError, match=f"^visit spacing must be finite and positive, got {spacing!r}$"):
            small_config(visit_spacing=spacing)


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
        assert validate_by_subject(ds.subjects, ds.n_covariates, ds.schedule) == []
        for s in ds.subjects:
            positives = [r for r in s.results if r == 1]
            assert len(positives) <= 1
            if positives:
                assert s.results[-1] == 1

    @pytest.mark.parametrize("n_visits", [1, 5, 300])
    def test_reports_match_the_per_subject_walk(self, n_visits):
        # at 300 visits a subject can have more positives than an 8-bit count holds
        rng = np.random.default_rng(n_visits)
        for p_keep, p_pos in [(0.7, 0.1), (1.0, 0.9), (0.2, 0.5), (0.0, 0.5)]:
            keep = rng.random((60, n_visits)) < p_keep
            positive = rng.random((60, n_visits)) < p_pos
            got = _adaptive_reports(keep, positive)
            want = adaptive_reports_by_subject(keep, positive)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("overrides", [{}, {"missing_prob": 0.9}, {"error_model": ErrorModel(0.6, 0.7, 0.9)},
                                           {"n_visits": 40, "visit_spacing": 0.1}])
    def test_generated_datasets_break_no_rule(self, overrides):
        # generate_dataset hands its dataset no violations, without checking
        for rep in range(3):
            ds = generate_dataset(small_config(**overrides), rep)
            assert len(set(ds.ids)) == ds.n and all(type(i) is str for i in ds.ids)
            assert panel._violations(ds.ids, ds.visits, ds.schedule, ds.covariate_paths, ds.n_covariates) == []

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
        f = fit(dataset, error_model)
    except ValueError as exc:  # both datasets must fail alike
        return type(exc), str(exc)
    return f.beta.tobytes(), f.beta_se.tobytes(), np.float64(f.loglik).tobytes()


class TestArrayDataset:
    """A generated dataset is held as arrays; it equals the same subjects
    passed through build_dataset and fits identically."""

    @settings(max_examples=200, deadline=None)
    @given(small_configs(), st.integers(0, 5))
    def test_generated_matches_the_per_subject_draws(self, config, rep):
        # ties each replicate's bytes to its random draws: drawing the (N, V)
        # matrices as (V, N) would keep every other test here green
        ds, want = generate_or_none(config, rep), generated_by_subject(config, rep)
        assert (ds is None) == (want is None)
        assume(ds is not None)
        ids, reports, taus, covariates = want
        assert ds.ids == ids and ds.grid.taus == taus
        assert ds.reports.dtype == reports.dtype and ds.reports.shape == reports.shape
        assert ds.reports.tobytes() == reports.tobytes()
        assert ds.covariates.shape == covariates.shape and ds.covariates.tobytes() == covariates.tobytes()

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
        original = panel.SubjectPanel.__init__

        def counting(self, subject_id, *args, **kwargs):
            made.append(subject_id)
            original(self, subject_id, *args, **kwargs)

        monkeypatch.setattr(panel.SubjectPanel, "__init__", counting)
        config = small_config()
        ds = generate_dataset(config, 0)
        fit(ds, config.error_model)
        fit(ds, config.error_model)  # the structural checks read the arrays
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
            fit(bad, ErrorModel(1.0, 1.0))


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

    def test_unknown_arm(self):
        with pytest.raises(ValueError):
            analysis_error_model(small_config(), "naive")


class TestRunScenario:
    @pytest.mark.parametrize("arm", ["naive", ErrorModel(0.5, 0.99)])
    def test_unknown_arm(self, arm):
        with pytest.raises(ValueError, match="unknown analysis arm"):
            run_scenario(small_config(n_replicates=1), arm)

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

    def test_replicates_that_keep_no_visit_leave_none_converged(self):
        config = small_config(n_subjects=3, n_visits=1, missing_prob=0.9, event_dist=EventDist("exponential", rate=0.1),
                              error_model=ErrorModel(0.9, 0.95), n_replicates=5, seed=1)
        for rep in (0, 2, 3, 4):
            with pytest.raises(EmptyReplicateError, match=f"^replicate {rep}: no subject kept a visit$"):
                generate_dataset(config, rep)
        # replicate 1 converges, but has no covariance
        result = fit(generate_dataset(config, 1), config.error_model)
        assert result.converged and not result.has_covariance
        with pytest.raises(RuntimeError, match="no replicate converged"):
            run_scenario(config)

    def test_replicates_that_keep_no_visit_are_dropped(self):
        # at seed 30, replicates 1 and 5 keep no visit, and 2 of the other 4 converge
        config = small_config(n_subjects=4, n_visits=2, missing_prob=0.75, event_dist=EventDist("exponential", rate=0.3),
                              error_model=ErrorModel(0.9, 0.95), n_replicates=6, seed=30)
        kept = []
        for rep in range(6):
            if rep in (1, 5):
                with pytest.raises(EmptyReplicateError, match=f"replicate {rep}"):
                    generate_dataset(config, rep)
                continue
            result = fit(generate_dataset(config, rep), config.error_model)
            if result.converged and result.has_covariance and np.isfinite(result.beta_se[0]):
                kept.append(result.beta[0])
        summary = run_scenario(config)
        assert (summary.n_converged, summary.n_replicates) == (len(kept), 6) == (2, 6)
        assert summary.mean_estimate == np.mean(kept)

    def test_other_errors_of_a_replicate_propagate(self, monkeypatch):
        def broken(config, replicate_index):
            raise ValueError("not an empty replicate")

        monkeypatch.setattr("survreport.simulate.generate_dataset", broken)
        with pytest.raises(ValueError, match="not an empty replicate"):
            run_scenario(small_config(n_replicates=2))


class TestReproduceTables:
    def test_structure_and_determinism(self):
        rows = reproduce_tables("table1", scale=2, seed=11)
        assert len(rows) == 12
        arms = {r.analysis for r in rows}
        assert arms == {ADJUSTED, UNADJUSTED}
        again = reproduce_tables("table1", scale=2, seed=11)
        assert [r.summary for r in again] == [r.summary for r in rows]
        for r in rows:
            if r.summary.n_converged == 2:
                assert math.isfinite(r.bias_mc_se_pct) and math.isfinite(r.coverage_mc_se_pct)

    def test_one_replicate_gives_no_error_bar(self):
        # one converged estimate has no spread: a zero error bar would claim
        # an exact reproduction
        rows = reproduce_tables("table1", scale=1, seed=11)
        assert [r.summary.n_converged for r in rows] == [1] * 12
        assert all(math.isnan(r.bias_mc_se_pct) and math.isnan(r.coverage_mc_se_pct) for r in rows)
        assert all(line.split()[7] == "nan" and line.split()[15] == "nan"
                   for line in format_table_report(rows).splitlines()[2:])

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


class TestReportColumns:
    """The text report and both CSVs are rendered from one column list and one
    summary record, so a column cannot land in only one of the forms."""

    SUMMARY = ScenarioSummary(ADJUSTED, 1.0, 1.0125, 1.25, 0.2345, 0.2211, 0.2367, 95.5, 199, 200)
    ROW = TableRow(0.61, 0.995, 0.96, 0.9, ADJUSTED, 1.2, 0.24, 0.24, 95.8, SUMMARY, 1.66, 1.47)

    def test_summary_record_is_the_simulate_csv_row(self):
        assert summary_record(self.SUMMARY) == {
            "analysis": ADJUSTED, "beta_true": 1.0, "mean_estimate": 1.0125, "bias_pct": 1.25, "empirical_sd": 0.2345,
            "mean_estimated_se": 0.2211, "rmse": 0.2367, "coverage_pct": 95.5, "n_converged": 199, "n_replicates": 200,
        }
        assert list(summary_record(self.SUMMARY)) == [
            "analysis", "beta_true", "mean_estimate", "bias_pct", "empirical_sd", "mean_estimated_se", "rmse",
            "coverage_pct", "n_converged", "n_replicates",
        ]

    def test_header_rule_and_csv_keys_are_pinned(self):
        header, rule, line = format_table_report([self.ROW]).split("\n")
        assert header == (" phi1   phi0   eta S_end   analysis    bias%     pub   +/-      SD     SE  pubSE   RMSE"
                          "   pub   cover%    pub   +/- nconv")
        assert rule == "-" * 121 == "-" * len(header) == "-" * len(line)
        assert line == (" 0.61  0.995  0.96  0.90   adjusted      1.2     1.2   1.7   0.234  0.221   0.24  0.237"
                        "  0.24     95.5   95.8   1.5   199")
        [record] = table_report_records([self.ROW])
        assert list(record) == [
            "phi1", "phi0", "eta", "s_end", "analysis", "bias_pct", "published_bias_pct", "bias_mc_se_pct",
            "empirical_sd", "mean_estimated_se", "published_std_err", "rmse", "published_rmse", "coverage_pct",
            "published_coverage_pct", "coverage_mc_se_pct", "n_converged", "n_replicates",
        ]

    def test_reproduced_values_are_the_summary_records(self):
        [record] = table_report_records([self.ROW])
        summary = summary_record(self.SUMMARY)
        assert summary.keys() - record.keys() == {"beta_true", "mean_estimate"}
        assert all(record[k] == summary[k] for k in summary.keys() & record.keys())


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

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" and Windows Notepad start a file with one
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(self.spec()), encoding="utf-8")
        marked.write_text(json.dumps(self.spec()), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert scenario_from_json(marked) == scenario_from_json(plain) == scenario_from_dict(self.spec())

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

    @pytest.mark.parametrize("beta_true, covariate_gen, width", [
        ([1.0, 0.5], {"kind": "bernoulli", "p": 0.5}, 1),
        ([1.0], {"kind": "table", "table": [[0.0, 1.0], [1.0, 0.0]]}, 2),
        ([1.0], None, 0),
    ])
    def test_beta_of_the_wrong_width_is_rejected_by_name(self, beta_true, covariate_gen, width):
        # a two-value beta with the one-column bernoulli generator used to
        # fail inside numpy's matmul when the first replicate was drawn
        spec = {**self.spec(), "beta_true": beta_true, "covariate_gen": covariate_gen}
        with pytest.raises(ValueError, match=rf"^beta_true has {len(beta_true)} value\(s\) for {width} generated"):
            scenario_from_dict(spec)
        assert scenario_from_dict({**spec, "beta_true": [0.5] * width}).beta_true == (0.5,) * width

    def test_table_rows_of_different_lengths_are_rejected(self):
        spec = {**self.spec(), "beta_true": [1.0], "covariate_gen": {"kind": "table", "table": [[0.0], [1.0, 2.0]]}}
        with pytest.raises(ValueError, match="rows of one length"):
            scenario_from_dict(spec)

    def test_missing_key(self):
        spec = self.spec()
        del spec["event_dist"]
        with pytest.raises(ValueError, match="event_dist"):
            scenario_from_dict(spec)

    @pytest.mark.parametrize("key, value", [
        ("n_subjects", 120.9),
        ("n_visits", 4.5),
        ("n_replicates", True),
        ("seed", 3.7),
        ("seed", -1),
        ("n_subjects", "120"),
        ("n_subjects", 0),
        ("missing_prob", False),
        ("visit_spacing", True),
        ("visit_spacing", float("nan")),
        ("error_model.phi1", True),
        ("event_dist.rate", "0.08"),
        ("beta_true", [True]),
        ("covariate_gen.table", [["1"]]),
    ])
    def test_value_of_the_wrong_kind_is_rejected_naming_the_key(self, tmp_path, capsys, key, value):
        spec = self.spec()
        section, _, name = key.rpartition(".")
        (spec[section] if section else spec)[name] = value
        message = f"scenario config key {key!r} has invalid value {json.dumps(value)}"
        with pytest.raises(ValueError) as exc:
            scenario_from_dict(spec)
        assert str(exc.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"survreport: error: {message}\n"

    def test_zero_seed_and_integral_numbers_are_taken(self):
        config = scenario_from_dict({**self.spec(), "seed": 0, "visit_spacing": 2, "missing_prob": 0})
        assert (config.seed, config.visit_spacing, config.missing_prob) == (0, 2.0, 0.0)
        assert isinstance(config.visit_spacing, float)

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

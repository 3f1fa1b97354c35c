import json
import warnings

import numpy as np
import pytest

from survreport import likelihood as lik
from survreport.estimate import (
    MODEL_COV_FIXED,
    MODEL_COV_TIMEVARYING,
    MODEL_ONESAMPLE,
    ModelSpecError,
    _Z975,
    _covariances,
    _newton,
    fit,
    fit_to_dict,
    fit_to_json,
    interval_covariates,
    lr_test,
    sensitivity_grid,
    survival_curve,
    wald_test,
)
from survreport.panel import PREDETERMINED, ErrorModel, SubjectPanel, build_dataset
from survreport.simulate import benchmark_config, generate_dataset

from oracles import npmle_grid_search, npmle_self_consistency, turnbull_intervals


def simulated(seed=0, phi1=0.75, phi0=0.9, s_end=0.5, eta=1.0, n=400):
    config = benchmark_config(phi1, phi0, s_end, eta=eta, n_replicates=1, seed=seed)
    config = type(config)(**{**config.__dict__, "n_subjects": n})
    return config, generate_dataset(config, 0)


def fixed_panel(rows):
    """Predetermined-schedule dataset from ``(times, results, z)`` rows."""
    subjects = [SubjectPanel(f"s{i}", t, r, covariates=(z,)) for i, (t, r, z) in enumerate(rows)]
    return build_dataset(subjects, covariate_names=("z",), schedule=PREDETERMINED)


class TestFitBasics:
    def setup_method(self):
        self.config, self.ds = simulated(seed=3)
        self.em = ErrorModel(0.75, 0.9)

    def test_converges_with_covariance(self):
        res = fit(self.ds, self.em)
        assert res.converged
        assert res.has_covariance
        assert res.beta.shape == (1,)
        assert np.isfinite(res.beta_se[0])
        # survival is a proper decreasing curve
        assert res.survival[0] == 1.0
        assert np.all(np.diff(res.survival) < 0)

    def test_optimizer_idempotent(self):
        r1 = fit(self.ds, self.em)
        r2 = fit(self.ds, self.em)
        assert np.max(np.abs(r1.beta - r2.beta)) < 1e-9
        assert np.max(np.abs(r1.survival - r2.survival)) < 1e-9
        assert r1.loglik == pytest.approx(r2.loglik, abs=1e-9)

    def test_estimate_near_truth(self):
        res = fit(self.ds, self.em)
        # one replicate at N=400: beta_hat should be within ~3 SE of 1
        assert abs(res.beta[0] - 1.0) < 3.5 * res.beta_se[0]

    def test_onesample_ignores_covariates(self):
        res = fit(self.ds, self.em, MODEL_ONESAMPLE)
        assert res.beta.size == 0
        assert res.converged

    def test_covariate_shift_invariance(self):
        # adding a constant to z changes the baseline, not the coefficient
        res = fit(self.ds, self.em)
        shifted = build_dataset(
            [
                SubjectPanel(s.subject_id, s.times, s.results,
                             covariates=(s.covariates[0] + 2.0,))
                for s in self.ds.subjects
            ],
            covariate_names=self.ds.covariate_names,
            schedule=self.ds.schedule,
        )
        res2 = fit(shifted, self.em)
        assert res2.beta[0] == pytest.approx(res.beta[0], abs=1e-6)
        assert res2.beta_se[0] == pytest.approx(res.beta_se[0], abs=1e-5)

    def test_symmetric_groups_give_zero_beta(self):
        # identical report patterns in both arms: beta_hat must vanish
        subjects = []
        patterns = [((1.0, 2.0), (0, 1)), ((1.0, 2.0), (0, 0)), ((1.0,), (1,))]
        k = 0
        for z in (0.0, 1.0):
            for times, results in patterns:
                for _ in range(5):
                    subjects.append(
                        SubjectPanel(f"s{k}", times, results, covariates=(z,))
                    )
                    k += 1
        ds = build_dataset(subjects, covariate_names=("z1",))
        res = fit(ds, ErrorModel(0.8, 0.9))
        assert abs(res.beta[0]) < 1e-6

    def test_iterations_count_newton_steps(self, monkeypatch):
        calls = []
        hessian = lik.loglik_hessian

        def counting_hessian(*args, **kwargs):
            calls.append(None)
            return hessian(*args, **kwargs)

        monkeypatch.setattr(lik, "loglik_hessian", counting_hessian)
        res = fit(self.ds, self.em)
        assert res.converged
        assert res.iterations >= 1
        # one Hessian per Newton step, plus one for the covariance
        assert len(calls) == res.iterations + 1
        assert res.message == f"converged after {res.iterations} Newton step(s)"
        stuck = fit(self.ds, self.em, grad_tol=0.0)
        assert not stuck.converged
        assert stuck.message.startswith("not converged: stopped after")
        assert stuck.message.endswith(("because it reached the step limit", "because no step lowered the objective"))
        assert stuck.loglik >= res.loglik - 1e-9

    def test_newton_rejects_infeasible_step(self):
        # -log-likelihood (x - 1)^2, infeasible (f = inf, zero gradient, as
        # fit reports it) beyond x = 0.75: the full Newton step lands there
        def negloglik_and_grad(x):
            if x[0] > 0.75:
                return np.inf, np.zeros(1)
            return (x[0] - 1.0) ** 2, 2.0 * (x - 1.0)

        x, _, steps, _ = _newton(negloglik_and_grad, lambda x: np.array([[2.0]]), np.zeros(1), 0, 1e-5)
        assert steps >= 1
        assert np.isfinite(negloglik_and_grad(x)[0])

    def test_newton_descends_on_indefinite_hessian(self):
        # f = x^4 - x^2 + y^2 at (0.1, 0): f_xx = -1.88, so a plain Newton
        # solve steps toward the saddle at the origin (slope +0.020)
        def f_and_grad(x):
            return x[0] ** 4 - x[0] ** 2 + x[1] ** 2, np.array([4 * x[0] ** 3 - 2 * x[0], 2 * x[1]])

        def hess(x):
            return np.array([[12 * x[0] ** 2 - 2.0, 0.0], [0.0, 2.0]])

        x, f, steps, stopped = _newton(f_and_grad, hess, np.array([0.1, 0.0]), 0, 1e-10)
        assert stopped is None
        assert steps <= 10
        assert x == pytest.approx([1 / np.sqrt(2), 0.0], abs=1e-9)
        assert f == pytest.approx(-0.25, abs=1e-15)

    def test_step_length_cap_keeps_off_the_underflow_plateau(self):
        # from the life-table start the first Newton step on this panel is
        # long enough to push S_2 to an underflowing zero, where every
        # gradient vanishes and the fit would stop at once, far below the
        # maximum (log-likelihood -16.61, no covariance)
        rows = [
            ((0.25,), (1,), 1.0), ((0.25, 0.5, 1.0), (1, 0, 0), -0.5), ((0.5, 1.0), (0, 1), -0.5),
            ((0.5, 1.0), (0, 0), 0.0), ((0.5, 1.0), (1, 0), -0.5), ((0.25, 0.5, 1.0), (0, 1, 1), -0.5),
            ((1.0,), (1,), 1.0), ((0.25, 0.5, 1.0), (0, 0, 0), -0.5), ((0.25, 0.5), (0, 1), 1.0),
            ((0.25, 1.0), (1, 1), 0.0), ((0.25, 1.0), (1, 0), 1.0),
        ]
        res = fit(fixed_panel(rows), ErrorModel(0.6, 0.95))
        assert res.converged and res.has_covariance
        assert res.loglik == pytest.approx(-15.77801, abs=1e-5)
        assert res.beta[0] == pytest.approx(0.8287, abs=1e-4)

    def test_negative_curvature_interval_stays_in_the_newton_step(self):
        # on the way, the objective turns concave along the last interval's
        # gamma (Hessian diagonal -0.66, gradient 0.66); an interval dropped
        # for non-positive curvature never moves again and the fit runs
        # into the step limit at log-likelihood -12.87
        rows = [
            ((0.5, 5.0), (1, 0), 0.0), ((1.0, 2.0), (1, 1), 0.0), ((0.5, 1.0, 3.0), (1, 1, 0), -0.5),
            ((1.0, 2.0, 3.0, 5.0), (0, 0, 0, 1), -0.5), ((1.0, 2.0), (0, 1), 1.0), ((0.5, 4.5), (1, 1), 1.0),
            ((0.5, 2.0, 3.0, 4.5, 5.0), (1, 1, 1, 1, 1), -0.5), ((5.0,), (1,), 0.0),
        ]
        res = fit(fixed_panel(rows), ErrorModel(0.98, 0.63, 0.8))
        assert res.converged
        assert res.loglik == pytest.approx(-11.80504, abs=1e-5)

    def test_rounding_level_gradient_stays_in_the_newton_step(self):
        # the likelihood is monotone along beta (SE ~220) and beta's gradient
        # is zero to rounding: exactly zero in some subject orders, 1e-16 in
        # others; dropping exact-zero components from the step made the
        # fit (and its step count) depend on the order of the subjects
        rows = [
            ((1.0,), (1,), -0.5), ((1.0,), (0,), -0.5), ((1.0,), (1,), 1.0), ((1.0,), (1,), -0.5),
            ((1.0,), (1,), 1.0), ((1.0,), (1,), 1.0), ((1.0,), (1,), 0.0),
        ]
        fits = [fit(fixed_panel(rows[k:] + rows[:k]), ErrorModel(0.86, 0.9)) for k in range(len(rows))]
        assert len({f.iterations for f in fits}) == 1
        for f in fits[1:]:
            assert f.beta[0] == pytest.approx(fits[0].beta[0], rel=1e-9)

    def test_numerically_singular_information_gives_no_covariance(self):
        # the inverse of this matrix is ~1e15 times rounding noise
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        lambdas = np.array([0.5])
        assert _covariances(h, 1, 1, lambdas, np.exp(-np.array([0.0, 0.5])), ()) == (None, None)
        cov, _ = _covariances(h + np.eye(2), 1, 1, lambdas, np.exp(-np.array([0.0, 0.5])), ())
        assert np.allclose(cov, np.linalg.inv(h + np.eye(2)))

    def test_zero_visit_subject_fails_life_table_start(self):
        ds = build_dataset(
            [SubjectPanel("a", (1.0, 2.0), (0, 1)), SubjectPanel("b", (), ())],
        )
        with pytest.raises(ValueError, match="subject b has no visits"):
            fit(ds, self.em, check_valid=False)

    def test_bad_model_name(self):
        with pytest.raises(ValueError):
            fit(self.ds, self.em, "cox")

    def test_eta_below_one_changes_fit(self):
        _, ds = simulated(seed=9, phi1=0.61, phi0=0.995, s_end=0.9, eta=0.93)
        res_adj = fit(ds, ErrorModel(0.61, 0.995, 0.93))
        res_naive = fit(ds, ErrorModel(0.61, 0.995, 1.0))
        assert res_adj.converged
        # ignoring contamination attenuates the estimate
        assert res_naive.beta[0] < res_adj.beta[0]


class TestInputGuards:
    """Inputs that cannot give a fit fail with an error naming the subject."""

    @staticmethod
    def cohort(bad_covariate=None, path=False):
        rng = np.random.default_rng(5)
        subjects = []
        for i in range(30):
            x = float(rng.normal()) if i != 7 or bad_covariate is None else bad_covariate
            results = (0, int(rng.random() < 0.3))
            if path:
                cov = {"covariate_path": ((0.0, (1.0,)), (1.0, (x,)))}
            else:
                cov = {"covariates": (x,)}
            subjects.append(SubjectPanel(f"s{i}", (1.0, 2.0), results, **cov))
        return build_dataset(subjects, covariate_names=("x",))

    def test_impossible_report_pattern_names_subject(self):
        ds = build_dataset(
            [SubjectPanel("a", (1.0, 2.0), (0, 1)), SubjectPanel("b", (1.0, 2.0), (1, 0))],
            schedule=PREDETERMINED,
        )
        with pytest.raises(ModelSpecError, match="subject b: report pattern is impossible"):
            fit(ds, ErrorModel(1.0, 1.0), MODEL_ONESAMPLE)
        # the same pattern is possible once reports can be wrong
        assert fit(ds, ErrorModel(0.9, 1.0), MODEL_ONESAMPLE).converged

    @pytest.mark.parametrize("model", [MODEL_COV_FIXED, MODEL_COV_TIMEVARYING])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_names_subject(self, model, value):
        ds = self.cohort(bad_covariate=value, path=model == MODEL_COV_TIMEVARYING)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelSpecError, match="subject s7 has a non-finite covariate"):
                fit(ds, ErrorModel(0.8, 0.9), model)

    def test_huge_se_saturates_hazard_ratio_limits(self):
        # replicate 0 has a monotone likelihood: the fit walks up the flat
        # ridge in beta until the SE is ~500; at the default tolerance it
        # stops earlier (SE ~280) with a finite upper limit
        config = benchmark_config(1.0, 0.75, 0.9, n_replicates=2, seed=6)
        ds = generate_dataset(config, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(ds, config.error_model, check_valid=False, grad_tol=1e-6)
        assert result.beta_se[0] > 100.0
        # the upper limit's exponent overflows a double
        assert result.beta[0] + _Z975 * result.beta_se[0] > np.log(np.finfo(float).max)
        assert result.hr_ci_high[0] == np.inf and result.hr_ci_low[0] == 0.0
        assert np.isfinite(result.hazard_ratio[0])

    def test_finite_cohort_fits(self):
        assert fit(self.cohort(), ErrorModel(0.8, 0.9)).has_covariance
        assert fit(self.cohort(path=True), ErrorModel(0.8, 0.9), MODEL_COV_TIMEVARYING).has_covariance


class TestPerfectTestReduction:
    """With perfect reports the fit is the interval-censoring NPMLE."""

    def subjects_idx(self, ds):
        grid = ds.grid
        return [
            ([grid.interval_index(t) for t in s.times], list(s.results))
            for s in ds.subjects
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_grid_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        taus = (1.0, 2.0, 3.0)
        subjects = []
        for i in range(60):
            x = rng.exponential(2.0)
            times, results = [], []
            for t in taus:
                if rng.random() < 0.3:
                    continue
                times.append(t)
                results.append(1 if x <= t else 0)
                if x <= t:
                    break
            if times:
                subjects.append(SubjectPanel(f"s{i}", tuple(times), tuple(results)))
        ds = build_dataset(subjects)
        em = ErrorModel(1.0, 1.0)
        res = fit(ds, em, MODEL_ONESAMPLE)
        _, oracle_ll = npmle_grid_search(self.subjects_idx(ds), ds.grid.J + 1)
        assert res.loglik == pytest.approx(oracle_ll, abs=1e-4)

    def test_matches_self_consistency_oracle(self):
        rng = np.random.default_rng(5)
        taus = (1.0, 2.0, 3.0, 4.0, 5.0)
        subjects = []
        for i in range(120):
            x = rng.exponential(3.0)
            times, results = [], []
            for t in taus:
                if rng.random() < 0.3:
                    continue
                times.append(t)
                results.append(1 if x <= t else 0)
                if x <= t:
                    break
            if times:
                subjects.append(SubjectPanel(f"s{i}", tuple(times), tuple(results)))
        ds = build_dataset(subjects)
        res = fit(ds, ErrorModel(1.0, 1.0), MODEL_ONESAMPLE)
        _, oracle_ll = npmle_self_consistency(self.subjects_idx(ds), ds.grid.J + 1)
        assert res.loglik == pytest.approx(oracle_ll, abs=1e-4)


class TestTimeVarying:
    def test_interval_covariates_locf(self):
        s = SubjectPanel(
            "a",
            (1.0, 2.0, 3.0),
            (0, 0, 0),
            covariate_path=((1.0, (5.0,)), (2.0, (7.0,))),
        )
        ds = build_dataset([s], covariate_names=("x",))
        z = interval_covariates(ds)
        # interval 1 starts at 0 (before the first measurement): falls back
        # to the earliest value; interval 2 starts at tau_1 = 1 -> 5.0;
        # interval 3 starts at tau_2 = 2 -> 7.0
        assert z[0, :, 0].tolist() == [5.0, 5.0, 7.0]

    def test_unordered_path_rejected(self):
        s = SubjectPanel("a", (1.0, 2.0), (0, 0), covariate_path=((2.0, (1.0,)), (1.0, (3.0,))))
        ds = build_dataset([s], covariate_names=("x",))
        with pytest.raises(ValueError, match="subject a"):
            interval_covariates(ds)

    def test_constant_path_matches_fixed_fit(self):
        _, ds = simulated(seed=4, n=200)
        res_fixed = fit(ds, ErrorModel(0.75, 0.9), MODEL_COV_FIXED)
        res_tv = fit(ds, ErrorModel(0.75, 0.9), MODEL_COV_TIMEVARYING)
        assert res_tv.beta[0] == pytest.approx(res_fixed.beta[0], abs=1e-5)
        assert res_tv.loglik == pytest.approx(res_fixed.loglik, abs=1e-7)

    def test_requires_covariates(self):
        ds = build_dataset([SubjectPanel("a", (1.0, 2.0), (0, 1))])
        with pytest.raises(ModelSpecError):
            fit(ds, ErrorModel(0.8, 0.9), MODEL_COV_TIMEVARYING)


class TestInference:
    def setup_method(self):
        _, self.ds = simulated(seed=6)
        self.res = fit(self.ds, ErrorModel(0.75, 0.9))

    def test_wald_index_matches_reported_z(self):
        z, p = wald_test(self.res, 0)
        assert z == pytest.approx(float(self.res.wald_z[0]), rel=1e-12)
        assert p == pytest.approx(float(self.res.wald_p[0]), rel=1e-12)
        assert 0.0 <= p <= 1.0

    def test_wald_contrast_arithmetic(self):
        # synthetic check: with the known covariance the z value is exact
        res = self.res
        se = float(np.sqrt(res.cov_working[-1, -1]))
        z, _ = wald_test(res, np.array([1.0]))
        assert z == pytest.approx(float(res.beta[0]) / se, rel=1e-12)

    def test_wald_bad_contrast_length(self):
        with pytest.raises(ValueError):
            wald_test(self.res, np.array([1.0, 0.0]))

    def test_lr_identical_models(self):
        stat, p = lr_test(self.res, self.res, df=1)
        assert stat == 0.0
        assert p == 1.0

    def test_lr_nested_positive(self):
        reduced = fit(self.ds, ErrorModel(0.75, 0.9), MODEL_ONESAMPLE)
        stat, p = lr_test(self.res, reduced, df=1)
        assert stat >= 0.0
        assert 0.0 <= p <= 1.0

    def test_lr_reversed_raises(self):
        reduced = fit(self.ds, ErrorModel(0.75, 0.9), MODEL_ONESAMPLE)
        if self.res.loglik - reduced.loglik > 1e-6:
            with pytest.raises(ValueError):
                lr_test(reduced, self.res, df=1)

    def test_survival_curve_within_unit_interval(self):
        for profile in ([0.0], [1.0]):
            curve = survival_curve(self.res, profile)
            assert len(curve) == len(self.res.taus)
            for tau, s, lo, hi in curve:
                assert 0.0 <= lo <= s <= hi <= 1.0
        # exposed profile has uniformly lower survival (beta_hat > 0 here)
        if self.res.beta[0] > 0:
            base = [s for _, s, _, _ in survival_curve(self.res, [0.0])]
            exp = [s for _, s, _, _ in survival_curve(self.res, [1.0])]
            assert all(e < b for e, b in zip(exp, base))

    def test_survival_curve_matches_power_relation(self):
        curve = survival_curve(self.res, [1.0])
        e = np.exp(self.res.beta[0])
        for (tau, s, _, _), s_base in zip(curve, self.res.survival[1:]):
            assert s == pytest.approx(s_base**e, rel=1e-12)

    def test_delta_method_se_reasonable(self):
        # SEs on the survival scale stay inside (0, 0.5) for a real fit
        se = self.res.survival_se[1:]
        assert np.all(se > 0)
        assert np.all(se < 0.5)


class TestSerialization:
    def test_round_trip(self):
        _, ds = simulated(seed=8, n=150)
        res = fit(ds, ErrorModel(0.75, 0.9))
        blob = fit_to_json(res)
        back = json.loads(blob)
        assert back["model"] == MODEL_COV_FIXED
        assert back["coefficients"][0]["name"] == "z1"
        assert back["coefficients"][0]["estimate"] == pytest.approx(float(res.beta[0]))
        assert back["baseline_survival"] == pytest.approx(res.survival.tolist())
        assert back["convergence"]["converged"] is True
        assert back["error_model"] == {"phi1": 0.75, "phi0": 0.9, "eta": 1.0}
        d = fit_to_dict(res)
        assert len(d["covariance_working"]) == res.gamma.size + 1


class TestSensitivityGrid:
    def test_single_cell_equals_direct_fit(self):
        _, ds = simulated(seed=10, n=150)
        em = ErrorModel(0.75, 0.9)
        grid = sensitivity_grid(ds, MODEL_COV_FIXED, [em])
        direct = fit(ds, em)
        cell = grid.cells[0]
        assert cell.error is None
        assert cell.fit.beta[0] == pytest.approx(direct.beta[0], abs=1e-9)

    def test_full_cross_of_18_cells(self):
        _, ds = simulated(seed=10, n=150)
        models = [
            ErrorModel(p1, p0, eta)
            for p1 in (0.5, 0.61, 0.7)
            for p0 in (0.993, 0.995, 0.997)
            for eta in (0.96, 0.98)
        ]
        grid = sensitivity_grid(ds, MODEL_COV_FIXED, models)
        assert len(grid.cells) == 18
        assert all(c.fit is not None for c in grid.cells)

    def test_hr_decreasing_in_assumed_specificity(self):
        # assuming lower specificity attributes more positives to noise,
        # so correcting for them amplifies the estimated hazard ratio:
        # HR is a decreasing function of the assumed phi0
        _, ds = simulated(seed=12, phi1=0.61, phi0=0.995, s_end=0.5, n=600)
        models = [ErrorModel(0.61, p0) for p0 in (0.999, 0.997, 0.995, 0.99)]
        grid = sensitivity_grid(ds, MODEL_COV_FIXED, models)
        hrs = [float(c.fit.hazard_ratio[0]) for c in grid.cells]
        assert all(a < b for a, b in zip(hrs, hrs[1:]))

    def test_empty_grid_rejected(self):
        _, ds = simulated(seed=10, n=50)
        with pytest.raises(ValueError):
            sensitivity_grid(ds, MODEL_COV_FIXED, [])

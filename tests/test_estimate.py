import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from survreport import estimate, likelihood as lik, panel, simulate
from survreport.estimate import (
    GAMMA_LOWER,
    GAMMA_UPPER,
    MODEL_COV_FIXED,
    MODEL_COV_TIMEVARYING,
    MODEL_ONESAMPLE,
    ModelSpecError,
    _Z975,
    _covariances,
    _newton,
    _two_sided_p,
    fit,
    fit_to_dict,
    interval_covariates,
    lr_test,
    sensitivity_grid,
    survival_curve,
    wald_test,
)
from survreport.panel import PREDETERMINED, Dataset, ErrorModel, StudyGrid, SubjectPanel, build_dataset
from survreport.simulate import benchmark_config, generate_dataset

from oracles import central_difference_gradient, npmle_grid_search, npmle_self_consistency, turnbull_intervals


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
        calls, factored = [], []
        hessian, eigh = lik._hessian, np.linalg.eigh

        def counting_hessian(*args):
            calls.append(args[-1])  # exact
            return hessian(*args)

        def counting_eigh(h):
            factored.append(sys._getframe(1).f_code.co_name)
            return eigh(h)

        monkeypatch.setattr(lik, "_hessian", counting_hessian)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res = fit(self.ds, self.em)
        assert res.converged and res.has_covariance
        assert res.iterations >= 1
        # one matrix per accepted point, factored once there by the Newton
        # loop: the scoring matrix for the first ``scored`` steps, then the
        # exact Hessian from the switch on, which factors its point again;
        # the last factors give the covariance
        scored = calls.count(False) - 1
        assert 1 <= scored < res.iterations
        assert calls == [False] * (scored + 1) + [True] * (res.iterations + 1 - scored)
        assert factored == ["_newton"] * (res.iterations + 2)
        assert res.message == f"converged after {res.iterations} Newton step(s)"
        monkeypatch.setattr("survreport.estimate.GRAD_TOL", 0.0)
        stuck = fit(self.ds, self.em)
        assert not stuck.converged
        assert stuck.message.startswith("not converged: stopped after")
        assert stuck.message.endswith(("because it reached the step limit", "because no step lowered the objective"))
        assert stuck.loglik >= res.loglik - 1e-9

    def test_hessian_that_cannot_be_factored_gives_no_covariance(self, monkeypatch):
        eigh, factored, limit = np.linalg.eigh, [], math.inf

        def failing_after(h):  # factors the first ``limit`` matrices only
            factored.append(None)
            if len(factored) > limit:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", failing_after)
        steps = fit(self.ds, self.em).iterations
        limit, factored[:] = len(factored) - 1, []  # all but the final point's Hessian
        res = fit(self.ds, self.em)
        assert res.converged and res.iterations == steps
        assert not res.has_covariance and np.isnan(res.beta_se).all()
        limit, factored[:] = 0, []  # the start cannot be factored either way: no step
        res = fit(self.ds, self.em)
        assert not res.converged and not res.has_covariance and res.iterations == 0
        assert res.message == "not converged: stopped after 0 Newton step(s) because its Hessian could not be factored"

    def test_working_hessian_and_covariance_match_central_differences(self, monkeypatch):
        # fit's objective is the one place that takes the kernel's (lambda,
        # beta) derivatives to the working parameters (log lambda, beta)
        newton, started = estimate._newton, []

        def recording(evaluate, x, J, grad_tol):
            started.append((evaluate, x.copy()))
            return newton(evaluate, x, J, grad_tol)

        monkeypatch.setattr(estimate, "_newton", recording)
        res = fit(self.ds, self.em)
        [(evaluate, x0)] = started

        def information(x):  # central differences of the working gradient
            return np.array([central_difference_gradient(lambda y: evaluate(y)[1][k], x) for k in range(x.size)])

        # at the start the gradient is far from 0, so the chain rule's
        # diag(g_gamma) term counts
        _, g, hessian = evaluate(x0)
        assert np.abs(g[: res.gamma.size]).max() > 1.0
        want = information(x0)
        assert np.linalg.norm(hessian() - want) < 1e-7 * np.linalg.norm(want)
        # at the estimate the covariance is the final factorization's inverse
        assert res.has_covariance and res.frozen_intervals == ()
        x = np.concatenate([res.gamma, res.beta])
        assert np.linalg.norm(res.cov_working @ information(x) - np.eye(x.size)) < 1e-7

    def test_frozen_intervals_are_the_zero_rows_of_the_covariance(self):
        # interval 4 ends at gamma -17.8, far above GAMMA_LOWER, with no
        # curvature: it is left out of the Newton system and the covariance
        config = benchmark_config(0.61, 0.995, 0.9, n_replicates=20, seed=1)
        res = fit(generate_dataset(config, 12), config.error_model)
        assert res.converged and res.has_covariance
        assert res.gamma[3] == pytest.approx(-17.78, abs=0.01)
        assert res.frozen_intervals == (4,)
        assert tuple(np.flatnonzero(~res.cov_working.any(axis=1)) + 1) == (4,)

    @pytest.mark.parametrize("model", [MODEL_COV_FIXED, MODEL_COV_TIMEVARYING])
    def test_hessians_reuse_the_gradients_front_half(self, monkeypatch, model):
        counts = {"front": 0, "gradient": 0}
        kernel_terms, gradient = lik._kernel_terms, lik.loglik_and_gradient

        def counting_terms(*args):
            counts["front"] += 1
            return kernel_terms(*args)

        def counting_gradient(*args, **kwargs):
            counts["gradient"] += 1
            return gradient(*args, **kwargs)

        monkeypatch.setattr(lik, "_kernel_terms", counting_terms)
        monkeypatch.setattr(lik, "loglik_and_gradient", counting_gradient)
        res = fit(self.ds, self.em, model)
        assert res.converged and res.iterations >= 1 and res.has_covariance
        # iterations + 2 matrices (the switch point forms two), none of which
        # computes a front half
        assert counts["front"] == counts["gradient"]

    def test_newton_rejects_infeasible_step(self):
        # -log-likelihood (x - 1)^2, infeasible (f = inf, zero gradient, as
        # fit reports it) beyond x = 0.75: the full Newton step lands there
        def evaluate(x):
            if x[0] > 0.75:
                return np.inf, np.zeros(1), None
            return (x[0] - 1.0) ** 2, 2.0 * (x - 1.0), lambda exact: np.array([[2.0]])

        x, _, _, steps, _ = _newton(evaluate, np.zeros(1), 0, 1e-5)
        assert steps >= 1
        assert np.isfinite(evaluate(x)[0])

    def test_newton_descends_on_indefinite_hessian(self):
        # f = x^4 - x^2 + y^2 at (0.1, 0): f_xx = -1.88, so a plain Newton
        # solve steps toward the saddle at the origin (slope +0.020)
        def evaluate(x):
            hessian = np.array([[12 * x[0] ** 2 - 2.0, 0.0], [0.0, 2.0]])
            return x[0] ** 4 - x[0] ** 2 + x[1] ** 2, np.array([4 * x[0] ** 3 - 2 * x[0], 2 * x[1]]), lambda exact: hessian

        x, f, _, steps, stopped = _newton(evaluate, np.array([0.1, 0.0]), 0, 1e-10)
        assert stopped is None
        assert steps <= 10
        assert x == pytest.approx([1 / np.sqrt(2), 0.0], abs=1e-9)
        assert f == pytest.approx(-0.25, abs=1e-15)

    @staticmethod
    def separable_quadratic(minimum, curvature, seen):
        """sum_k curvature_k (x_k - minimum_k)^2 / 2, each point evaluated kept in ``seen``."""
        minimum, curvature = np.array(minimum), np.array(curvature)

        def evaluate(x):
            seen.append(x.copy())
            return float(curvature @ (x - minimum) ** 2 / 2), curvature * (x - minimum), lambda exact: np.diag(curvature)

        return evaluate

    @pytest.mark.parametrize("bound, beyond", [(GAMMA_LOWER, GAMMA_LOWER - 10.0), (GAMMA_UPPER, GAMMA_UPPER + 10.0)])
    def test_gamma_at_a_bound_stays_pinned(self, bound, beyond):
        # the first gamma's minimum lies past its bound, so at the bound its
        # gradient pushes outward: it stays there while the others converge
        seen = []
        evaluate = self.separable_quadratic([beyond, -1.0, 0.5], [2.0, 1.0, 3.0], seen)
        x, f, _, steps, stopped = _newton(evaluate, np.array([bound, 0.0, 0.0]), 2, 1e-10)
        assert stopped is None and steps >= 1
        assert all(point[0] == bound for point in seen)
        assert x[0] == bound and x[1:] == pytest.approx([-1.0, 0.5], abs=1e-12)
        assert f == pytest.approx(100.0)

    def test_gamma_clamped_onto_a_bound_stays_pinned(self):
        # a long step toward a minimum past the lower bound is clamped onto it
        seen = []
        evaluate = self.separable_quadratic([GAMMA_LOWER - 5.0, 2.0], [1.0, 1.0], seen)
        x, _, _, _, stopped = _newton(evaluate, np.array([GAMMA_LOWER + 1.0, 0.0]), 1, 1e-10)
        assert stopped is None
        assert x[0] == GAMMA_LOWER and x[1] == pytest.approx(2.0, abs=1e-12)
        assert min(point[0] for point in seen) == GAMMA_LOWER

    def test_flat_interval_is_left_out_of_the_step(self):
        # the second gamma's curvature is at the 1e-6 floor, its gradient
        # below the tolerance: a Newton step including it would move it by 5
        seen = []
        evaluate = self.separable_quadratic([1.0, 5.0, -0.5], [2.0, 1e-6, 1.0], seen)
        x, _, _, steps, stopped = _newton(evaluate, np.array([0.0, 0.0, 0.0]), 2, 1e-5)
        assert stopped is None and steps >= 1
        assert all(point[1] == 0.0 for point in seen)
        assert x[[0, 2]] == pytest.approx([1.0, -0.5], abs=1e-12)

    def test_step_length_cap_keeps_off_the_underflow_plateau(self, monkeypatch):
        # from the life-table start the first Newton step on this panel is
        # long enough to push S_2 to an underflowing zero, where every
        # gradient vanishes and the fit would stop at once, far below the
        # maximum (log-likelihood -16.61, no covariance); the first scoring
        # step is not, so the panel is fitted both ways
        rows = [
            ((0.25,), (1,), 1.0), ((0.25, 0.5, 1.0), (1, 0, 0), -0.5), ((0.5, 1.0), (0, 1), -0.5),
            ((0.5, 1.0), (0, 0), 0.0), ((0.5, 1.0), (1, 0), -0.5), ((0.25, 0.5, 1.0), (0, 1, 1), -0.5),
            ((1.0,), (1,), 1.0), ((0.25, 0.5, 1.0), (0, 0, 0), -0.5), ((0.25, 0.5), (0, 1), 1.0),
            ((0.25, 1.0), (1, 1), 0.0), ((0.25, 1.0), (1, 0), 1.0),
        ]
        for scoring_gain in (estimate._SCORING_GAIN, math.inf):  # the second: Newton from the start
            monkeypatch.setattr(estimate, "_SCORING_GAIN", scoring_gain)
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
        lambdas, survival, free = np.array([0.5]), np.exp(-np.array([0.0, 0.5])), np.ones(2, dtype=bool)
        assert _covariances(free, *np.linalg.eigh(h), 1, 1, lambdas, survival) == (None, None)
        cov, _ = _covariances(free, *np.linalg.eigh(h + np.eye(2)), 1, 1, lambdas, survival)
        assert np.allclose(cov, np.linalg.inv(h + np.eye(2)))
        # a Hessian that could not be factored has none either
        assert _covariances(free, None, None, 1, 1, lambdas, survival) == (None, None)

    def test_zero_visit_subject_fails_life_table_start(self):
        with pytest.raises(panel.PanelValidationError, match="b: zero visits"):
            build_dataset([SubjectPanel("a", (1.0, 2.0), (0, 1)), SubjectPanel("b", (), ())])
        # the start's own check, on a dataset whose maker vouched for it
        ds = Dataset.from_arrays(["a", "b"], [[0, 1], [-1, -1]], StudyGrid((1.0, 2.0)), violations=())
        with pytest.raises(ValueError, match="subject b has no visits"):
            fit(ds, self.em)

    def test_bad_model_name(self):
        with pytest.raises(ValueError):
            fit(self.ds, self.em, "cox")

    def test_in_memory_dataset_is_validated_when_made(self):
        # on the adaptive schedule a positive report must be the last visit
        with pytest.raises(panel.PanelValidationError, match="a: positive not terminal"):
            build_dataset([SubjectPanel("a", (1.0, 2.0), (1, 0)), SubjectPanel("b", (1.0, 2.0), (0, 1))])

    def test_eta_below_one_changes_fit(self):
        _, ds = simulated(seed=9, phi1=0.61, phi0=0.995, s_end=0.9, eta=0.93)
        res_adj = fit(ds, ErrorModel(0.61, 0.995, 0.93))
        res_naive = fit(ds, ErrorModel(0.61, 0.995, 1.0))
        assert res_adj.converged
        # ignoring contamination attenuates the estimate
        assert res_naive.beta[0] < res_adj.beta[0]



class TestScoringThenNewton:
    """Scoring steps on the outer product of the scores while they predict a
    gain of more than ``_SCORING_GAIN`` that keeps halving, then Newton steps
    on the exact Hessian: the same fits as Newton from the start."""

    @staticmethod
    def assert_same_fit(got, want):
        assert got.converged and want.converged
        assert abs(got.loglik - want.loglik) <= 1e-8 * max(1.0, abs(want.loglik))
        assert np.all(np.abs(got.beta - want.beta) <= 1e-4 * want.beta_se)

    def test_tiny_time_varying_panel_converges(self):
        # the four subjects of the array-paths guard above; scoring alone,
        # without the halving rule, crawls here (10 steps against 5)
        ds = build_dataset([
            SubjectPanel("a", (1.0, 2.0), (0, 1), covariates=(1.0,)),
            SubjectPanel("b", (1.0, 2.0), (0, 0), covariate_path=((0.0, (0.5,)), (1.0, (1.5,)))),
            SubjectPanel("c", (1.0,), (1,), covariates=(2.0,)),
            SubjectPanel("d", (1.0,), (0,), covariate_path=((0.0, (2.0,)),)),
        ], covariate_names=("x",))
        res = fit(ds, ErrorModel(0.8, 0.9), MODEL_COV_TIMEVARYING)
        assert res.converged and res.has_covariance and res.iterations <= 6

    @pytest.mark.parametrize("scoring", [[[2.0, 1.0], [1.0, 2.0]], [[2.0, 2.0], [2.0, 2.0]]])
    def test_scoring_step_that_lowers_nothing_switches_at_the_same_point(self, scoring):
        # (x0 - 1)^2 + x1^2, infeasible off x1 = 0: the scoring matrix (the
        # second one singular) couples x1 into every step, the exact Hessian
        # does not, so only Newton steps can move
        seen = []

        def evaluate(x):
            seen.append(x.copy())
            if x[1] != 0.0:
                return np.inf, np.zeros(2), None
            return (x[0] - 1.0) ** 2, 2.0 * (x - [1.0, 0.0]), lambda exact: np.diag([2.0, 2.0]) if exact else np.array(scoring)

        x, f, (_, w, _), steps, stopped = _newton(evaluate, np.zeros(2), 0, 1e-10)
        assert stopped is None and steps >= 1
        assert len(seen) > 25 and x.tolist() == [1.0, 0.0] and f == 0.0
        assert w.tolist() == [2.0, 2.0]  # the final factors are the exact Hessian's

    def test_newton_from_the_start_reaches_the_same_fits(self, monkeypatch):
        from test_benchmark_names import load

        problems = []
        for p1, p0, s_end, arm, *_ in simulate.PUBLISHED_TABLE1:
            config = benchmark_config(p1, p0, s_end, n_replicates=1, seed=1)
            problems.append((generate_dataset(config, 0), simulate.analysis_error_model(config, arm), MODEL_COV_FIXED))
        for s_end, eta, arm, *_ in simulate.PUBLISHED_TABLE2:
            config = benchmark_config(0.61, 0.995, s_end, eta=eta, n_replicates=1, seed=1)
            problems.append((generate_dataset(config, 0), simulate.analysis_error_model(config, arm), MODEL_COV_FIXED))
        inputs = load("inputs")
        drifting = inputs.to_dataset(inputs.drifting_cohort(1, 5000))
        problems.append((drifting, ErrorModel(inputs.PHI1, inputs.PHI0, inputs.ETA), MODEL_COV_TIMEVARYING))
        hybrid = [fit(*problem) for problem in problems]
        monkeypatch.setattr(estimate, "_SCORING_GAIN", math.inf)  # exact Newton at every point
        newton = [fit(*problem) for problem in problems]
        assert len(problems) == 25
        for got, want in zip(hybrid, newton):
            self.assert_same_fit(got, want)
        # scoring saved steps overall
        assert sum(f.iterations for f in hybrid) < sum(f.iterations for f in newton)

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

    def test_fixed_model_on_array_paths_names_subject_without_making_panels(self, monkeypatch):
        # subjects b and d hold covariate paths, a and c time-fixed vectors
        ds = build_dataset([
            SubjectPanel("a", (1.0, 2.0), (0, 1), covariates=(1.0,)),
            SubjectPanel("b", (1.0, 2.0), (0, 0), covariate_path=((0.0, (0.5,)), (1.0, (1.5,)))),
            SubjectPanel("c", (1.0,), (1,), covariates=(2.0,)),
            SubjectPanel("d", (1.0,), (0,), covariate_path=((0.0, (2.0,)),)),
        ], covariate_names=("x",))
        made = []
        original = panel.SubjectPanel.__post_init__

        def counting(self):
            made.append(self.subject_id)
            original(self)

        monkeypatch.setattr(panel.SubjectPanel, "__post_init__", counting)
        with pytest.raises(ModelSpecError, match="subject b has no time-fixed covariates"):
            fit(ds, ErrorModel(0.8, 0.9), MODEL_COV_FIXED)
        assert made == []
        assert fit(ds, ErrorModel(0.8, 0.9), MODEL_COV_TIMEVARYING).converged
        assert made == []

    def test_huge_se_saturates_hazard_ratio_limits(self, monkeypatch):
        # replicate 0 has a monotone likelihood: the fit walks up the flat
        # ridge in beta until the SE is ~500; at the default tolerance it
        # stops earlier (SE ~280) with a finite upper limit
        config = benchmark_config(1.0, 0.75, 0.9, n_replicates=2, seed=6)
        ds = generate_dataset(config, 0)
        monkeypatch.setattr("survreport.estimate.GRAD_TOL", 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(ds, config.error_model)
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
            ([grid.taus.index(t) + 1 for t in s.times], list(s.results))
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
        with pytest.raises(panel.PanelValidationError) as raised:
            build_dataset([s], covariate_names=("x",))
        assert [(v.subject_id, v.rule) for v in raised.value.violations] == [
            ("a", "covariate path times not strictly increasing")]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_path_time_rejected(self, bad):
        # nan compares false with every interval start and inf is past all
        # of them: the measurement would silently never be in effect
        fine = SubjectPanel("b", (1.0, 2.0), (0, 0), covariate_path=((0.0, (2.0,)),))
        s = SubjectPanel("a", (1.0, 2.0), (0, 0), covariate_path=((0.0, (1.0,)), (bad, (5.0,))))
        with pytest.raises(panel.PanelValidationError) as raised:
            build_dataset([fine, s], covariate_names=("x",))
        # a nan neighbour breaks no order; -inf after 0 does
        unordered = [("a", "covariate path times not strictly increasing")] if bad < 0 else []
        assert [(v.subject_id, v.rule) for v in raised.value.violations] == [
            ("a", "non-finite covariate path time"), *unordered]

    def test_negative_path_time_is_legal(self):
        s = SubjectPanel("a", (1.0, 2.0), (0, 0), covariate_path=((-1.0, (1.0,)), (1.0, (5.0,))))
        ds = build_dataset([s], covariate_names=("x",))  # made, so valid
        assert interval_covariates(ds)[0, :, 0].tolist() == [1.0, 5.0]

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

    def test_wald_rejects_zero_variance_contrast(self):
        with pytest.raises(ValueError, match="contrast has variance 0; the Wald test needs a positive one"):
            wald_test(self.res, [0.0])

    def test_wald_rejects_index_past_the_last_coefficient(self):
        for index in (1, np.int64(7), -1):
            with pytest.raises(ValueError, match=f"coefficient index {index} is out of range for 1 coefficient"):
                wald_test(self.res, index)

    def test_wald_rejects_bool_index(self):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="contrast must be a coefficient index or have length 1, got"):
                wald_test(self.res, flag)

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

    def test_lr_rejects_df_that_is_not_a_positive_integer(self):
        for df in (0, -1, 1.5, 2.0, "1", True):
            with pytest.raises(ValueError, match="df must be a positive integer"):
                lr_test(self.res, self.res, df=df)

    def test_tails_match_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for z in np.linspace(0.0, 37.0, 741):
            want = 2.0 * stats.norm.sf(z)
            assert _two_sided_p(z) == pytest.approx(want, rel=1e-13, abs=0.0)
            assert _two_sided_p(-z) == _two_sided_p(z)
        assert _Z975 == stats.norm.ppf(0.975)
        for df in range(1, 41):
            for stat in (0.0, 1e-9, 0.01, 0.5, 1.0, 3.84, 7.5, 20.0, 60.0, 150.0, 700.0):
                reduced = type(self.res)(**{**self.res.__dict__, "loglik": self.res.loglik - stat / 2.0})
                got_stat, p = lr_test(self.res, reduced, df=df)
                assert p == pytest.approx(float(stats.chi2.sf(got_stat, df)), rel=1e-13, abs=0.0)

    def test_importing_the_cli_leaves_scipy_unloaded(self):
        code = "import sys, survreport.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(lik.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

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

    @pytest.mark.parametrize("profile", [[math.nan], [math.inf], [-math.inf], [0.0, 1.0]])
    def test_survival_curve_rejects_a_bad_profile_by_name(self, profile):
        # [nan] used to give rows of nan, [inf] S = 0 with nan limits and a RuntimeWarning
        with pytest.raises(ValueError, match=r"^covariate profile must be 1 finite value\(s\), got "):
            survival_curve(self.res, profile)

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
        blob = json.dumps(fit_to_dict(res), indent=2)
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
        (cell,) = sensitivity_grid(ds, MODEL_COV_FIXED, [em])
        direct = fit(ds, em)
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
        assert len(grid) == 18
        assert all(c.fit is not None for c in grid)

    def test_hr_decreasing_in_assumed_specificity(self):
        # assuming lower specificity attributes more positives to noise,
        # so correcting for them amplifies the estimated hazard ratio:
        # HR is a decreasing function of the assumed phi0
        _, ds = simulated(seed=12, phi1=0.61, phi0=0.995, s_end=0.5, n=600)
        models = [ErrorModel(0.61, p0) for p0 in (0.999, 0.997, 0.995, 0.99)]
        grid = sensitivity_grid(ds, MODEL_COV_FIXED, models)
        hrs = [float(c.fit.hazard_ratio[0]) for c in grid]
        assert all(a < b for a, b in zip(hrs, hrs[1:]))

    def test_impossible_pattern_cell_is_recorded(self):
        # a positive then a negative report cannot happen when reports are perfect
        ds = build_dataset([SubjectPanel("a", (1.0, 2.0), (1, 0)), SubjectPanel("b", (1.0, 2.0), (0, 1)),
                            SubjectPanel("c", (1.0, 2.0), (0, 0))], schedule=PREDETERMINED)
        impossible, possible = sensitivity_grid(ds, MODEL_ONESAMPLE, [ErrorModel(1.0, 1.0), ErrorModel(0.8, 0.9)])
        assert impossible.fit is None
        assert impossible.error == "subject a: report pattern is impossible under phi1=1, phi0=1"
        assert possible.error is None and possible.fit.converged

    def test_a_programming_error_in_a_cell_propagates(self, monkeypatch):
        _, ds = simulated(seed=10, n=50)

        def broken(*args, **kwargs):
            raise TypeError("broken fit")

        monkeypatch.setattr(estimate, "fit", broken)
        with pytest.raises(TypeError, match="broken fit"):
            sensitivity_grid(ds, MODEL_COV_FIXED, [ErrorModel(0.75, 0.9)])

    def test_empty_grid_rejected(self):
        _, ds = simulated(seed=10, n=50)
        with pytest.raises(ValueError):
            sensitivity_grid(ds, MODEL_COV_FIXED, [])

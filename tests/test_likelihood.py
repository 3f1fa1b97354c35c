import numpy as np
import pytest

from survreport.likelihood import (
    NonPositiveLikelihoodError,
    build_c_matrix,
    loglik_and_gradient,
    loglik_hessian,
    survival_from_increments,
    to_d_matrix,
)
from survreport.panel import ADAPTIVE, PREDETERMINED, ErrorModel, SubjectPanel, build_dataset

from oracles import (
    AFTER_EVENT_INTERVAL,
    BEFORE_EVENT_INTERVAL,
    all_patterns,
    central_difference_gradient,
    direct_pattern_probability,
    report_probability,
    transform_matrix,
)


def make_dataset(patterns, taus=None, covs=None, schedule=PREDETERMINED):
    subjects = []
    for i, (times, results) in enumerate(patterns):
        subjects.append(
            SubjectPanel(
                subject_id=f"s{i}",
                times=tuple(float(t) for t in times),
                results=tuple(results),
                covariates=covs[i] if covs is not None else None,
            )
        )
    names = ("z1",) if covs is not None else ()
    ds = build_dataset(subjects, covariate_names=names, schedule=schedule)
    if taus is not None:
        assert ds.grid.taus == tuple(float(t) for t in taus)
    return ds


def loglik(c, lambdas, beta=None, **kw):
    """Value of the single kernel."""
    return loglik_and_gradient(c, lambdas, beta, **kw)[0]


def increments_of_survival(s):
    """Hazard increments lambda with survival_from_increments(lambda) == s."""
    return -np.diff(np.log(s))


def random_theta(rng, jp1):
    theta = rng.dirichlet(np.ones(jp1))
    return np.maximum(theta, 1e-12)


def survival_of_theta(theta):
    # S_j = sum of interval masses at or past j
    return np.concatenate((np.cumsum(theta[::-1])[::-1], [0.0]))[: len(theta)]


class TestReportProbability:
    def test_positive_after_event_is_sensitivity(self):
        em = ErrorModel(0.61, 0.995)
        assert report_probability(1, AFTER_EVENT_INTERVAL, em) == 0.61

    def test_negative_after_event(self):
        em = ErrorModel(0.61, 0.995)
        assert report_probability(0, AFTER_EVENT_INTERVAL, em) == pytest.approx(0.39)

    def test_positive_before_event_is_false_positive_rate(self):
        em = ErrorModel(0.61, 0.995)
        assert report_probability(1, BEFORE_EVENT_INTERVAL, em) == pytest.approx(0.005)

    def test_negative_before_event_is_specificity(self):
        em = ErrorModel(0.61, 0.995)
        assert report_probability(0, BEFORE_EVENT_INTERVAL, em) == 0.995

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            report_probability(0, "during", ErrorModel(0.9, 0.9))


class TestTransformMatrix:
    def test_j2_example(self):
        t = transform_matrix(2)
        expected = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(t, expected)

    def test_theta_identity(self):
        # theta_j = S_j - S_{j+1} with S_{J+2} treated as zero
        rng = np.random.default_rng(0)
        for _ in range(20):
            jp1 = int(rng.integers(2, 7))
            theta = random_theta(rng, jp1)
            s = survival_of_theta(theta)
            assert np.allclose(transform_matrix(jp1 - 1) @ s, theta, atol=1e-14)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            transform_matrix(0)


class TestCMatrix:
    def test_hand_computed_row(self):
        # two visits, results (0, 1), phi1=0.8, phi0=0.9:
        # event in interval 1 -> (1-0.8)*0.8, interval 2 -> 0.9*0.8,
        # never -> 0.9*(1-0.9)
        ds = make_dataset([((1.0, 2.0), (0, 1))])
        c = build_c_matrix(ds, ErrorModel(0.8, 0.9))
        assert np.allclose(c, [[0.16, 0.72, 0.09]], atol=1e-15)

    def test_all_negative_row(self):
        ds = make_dataset([((1.0, 2.0), (0, 0))])
        c = build_c_matrix(ds, ErrorModel(0.8, 0.9))
        # j=1: 0.2*0.2; j=2: 0.9*0.2; j=3: 0.9*0.9
        assert np.allclose(c, [[0.04, 0.18, 0.81]], atol=1e-15)

    def test_missing_visit_skips_column_factor(self):
        # subject observed only at tau_2 of a two-point grid
        ds = make_dataset([((1.0, 2.0), (0, 1)), ((2.0,), (1,))])
        c = build_c_matrix(ds, ErrorModel(0.8, 0.9))
        assert np.allclose(c[1], [0.8, 0.8, 0.1], atol=1e-15)

    def test_matches_first_principles_oracle(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(
            [((1.0, 2.0, 3.0), (0, 0, 1)), ((1.0, 3.0), (0, 0)), ((2.0,), (1,))]
        )
        em = ErrorModel(0.7, 0.85)
        c = build_c_matrix(ds, em)
        grid = ds.grid
        for i, s in enumerate(ds.subjects):
            idx = [grid.interval_index(t) for t in s.times]
            for j in range(1, grid.J + 2):
                theta = np.zeros(grid.J + 1)
                theta[j - 1] = 1.0
                want = direct_pattern_probability(idx, s.results, theta, em.phi1, em.phi0)
                assert c[i, j - 1] == pytest.approx(want, abs=1e-14)

    def test_perfect_reports_are_indicators(self):
        ds = make_dataset([((1.0, 2.0, 3.0), (0, 0, 1))])
        c = build_c_matrix(ds, ErrorModel(1.0, 1.0))
        # event must lie in interval 3: after the last negative, by the positive
        assert np.array_equal(c, [[0.0, 0.0, 1.0, 0.0]])


class TestDMatrix:
    def test_theta_form_equals_s_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            jp1 = int(rng.integers(2, 8))
            c = rng.random((5, jp1))
            theta = random_theta(rng, jp1)
            s = survival_of_theta(theta)
            lhs = c @ theta
            rhs = to_d_matrix(c) @ s
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_first_column_unchanged(self):
        c = np.array([[0.16, 0.72, 0.09]])
        d = to_d_matrix(c)
        assert d[0, 0] == c[0, 0]
        assert np.allclose(d, [[0.16, 0.56, -0.63]], atol=1e-15)


class TestSurvivalFromIncrements:
    def test_values(self):
        s = survival_from_increments([0.5, 1.0])
        assert np.allclose(s, [1.0, np.exp(-0.5), np.exp(-1.5)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            survival_from_increments([-0.1])


class TestNormalization:
    """Pattern probabilities over a full schedule must sum to one."""

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_patterns_sum_to_one(self, adaptive):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n_visits = int(rng.integers(1, 6))
            phi0 = rng.uniform(0.6, 1.0)
            phi1 = rng.uniform(1.0 - phi0 + 0.05, 1.0)
            em = ErrorModel(min(phi1, 1.0), phi0)
            theta = random_theta(rng, n_visits + 1)
            taus = tuple(float(k) for k in range(1, n_visits + 1))
            schedule = ADAPTIVE if adaptive else PREDETERMINED
            total = 0.0
            for pat in all_patterns(n_visits, adaptive):
                times = taus[: len(pat)] if adaptive else taus
                ds = make_dataset([(times, pat)], schedule=schedule)
                # rebuild against the full grid in case the pattern is short
                full = build_dataset(
                    list(ds.subjects)
                    + [SubjectPanel("pad", taus, tuple([0] * n_visits))],
                    schedule=schedule,
                )
                c = build_c_matrix(full, em)[0]
                total += float(c @ theta)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestLoglikVariants:
    def setup_method(self):
        self.rng = np.random.default_rng(99)
        self.ds = make_dataset(
            [
                ((1.0, 2.0, 3.0), (0, 0, 1)),
                ((1.0, 3.0), (0, 0)),
                ((2.0, 3.0), (0, 1)),
                ((1.0,), (1,)),
            ],
            covs=[(1.0,), (0.0,), (1.0,), (0.0,)],
        )
        self.em = ErrorModel(0.75, 0.9)
        self.c = build_c_matrix(self.ds, self.em)
        self.theta = random_theta(self.rng, 4)
        self.s = survival_of_theta(self.theta)
        self.lambdas = increments_of_survival(self.s)

    def test_onesample_matches_direct_sum(self):
        want = float(np.sum(np.log(self.c @ self.theta)))
        got = loglik(self.c, self.lambdas)
        assert got == pytest.approx(want, abs=1e-12)

    def test_cov_matches_rederived_mixture(self):
        beta = np.array([0.7])
        z = np.array([[1.0], [0.0], [1.0], [0.0]])
        e = np.exp(z @ beta).ravel()
        want = 0.0
        for i in range(4):
            s_i = self.s**e[i]
            theta_i = s_i - np.concatenate((s_i[1:], [0.0]))
            want += np.log(float(self.c[i] @ theta_i))
        got = loglik(self.c, self.lambdas, beta, z=z)
        assert got == pytest.approx(want, abs=1e-12)

    def test_entry_misclass_mixes_prevalent_term(self):
        beta = np.array([0.3])
        z = np.array([[1.0], [0.0], [1.0], [0.0]])
        eta = 0.93
        e = np.exp(z @ beta).ravel()
        want = 0.0
        for i in range(4):
            s_i = self.s**e[i]
            theta_i = s_i - np.concatenate((s_i[1:], [0.0]))
            want += np.log(eta * float(self.c[i] @ theta_i) + (1 - eta) * self.c[i, 0])
        got = loglik(self.c, self.lambdas, beta, z=z, eta=eta)
        assert got == pytest.approx(want, abs=1e-12)

    def test_entry_misclass_matches_pattern_oracle(self):
        eta = 0.9
        grid = self.ds.grid
        beta = np.zeros(1)
        z = np.zeros((4, 1))
        got = loglik(self.c, self.lambdas, beta, z=z, eta=eta)
        want = 0.0
        for i, subj in enumerate(self.ds.subjects):
            idx = [grid.interval_index(t) for t in subj.times]
            want += np.log(
                direct_pattern_probability(
                    idx, subj.results, self.theta, self.em.phi1, self.em.phi0, eta=eta
                )
            )
        assert got == pytest.approx(want, abs=1e-12)

    def test_timevarying_hand_accumulated_hazard(self):
        lambdas = np.array([0.2, 0.5, 0.3])
        beta = np.array([0.4])
        z_int = self.rng.normal(size=(4, 3, 1))
        got = loglik(self.c, lambdas, beta, z_intervals=z_int)
        want = 0.0
        for i in range(4):
            cum = 0.0
            s_i = [1.0]
            for k in range(3):
                cum += lambdas[k] * np.exp(z_int[i, k, 0] * beta[0])
                s_i.append(np.exp(-cum))
            s_i = np.array(s_i)
            theta_i = s_i - np.concatenate((s_i[1:], [0.0]))
            want += np.log(float(self.c[i] @ theta_i))
        assert got == pytest.approx(want, abs=1e-12)

    def test_impossible_pattern_raises_with_row(self):
        ds = make_dataset([((1.0, 2.0), (0, 1)), ((1.0, 2.0), (1, 0))])
        c = build_c_matrix(ds, ErrorModel(1.0, 1.0))
        lambdas = increments_of_survival(np.array([1.0, 0.6, 0.3]))
        with pytest.raises(NonPositiveLikelihoodError) as err:
            loglik(c, lambdas)
        assert err.value.row == 1
        with pytest.raises(NonPositiveLikelihoodError) as err:
            loglik_hessian(c, lambdas, None)
        assert err.value.row == 1

    def test_weights_equal_replication(self):
        c2 = np.vstack([self.c, self.c[:2]])
        w = np.array([2.0, 2.0, 1.0, 1.0])
        assert loglik(self.c, self.lambdas, weights=w) == pytest.approx(
            loglik(c2, self.lambdas), abs=1e-12
        )


class TestReductions:
    def setup_method(self):
        self.ds = make_dataset(
            [((1.0, 2.0), (0, 1)), ((1.0, 2.0), (0, 0)), ((2.0,), (0,))],
            covs=[(1.0,), (0.5,), (0.0,)],
        )
        self.c = build_c_matrix(self.ds, ErrorModel(0.8, 0.9))
        self.lambdas = increments_of_survival(np.array([1.0, 0.7, 0.4]))
        self.z = np.array([[1.0], [0.5], [0.0]])

    def test_eta_one_equals_cov(self):
        beta = np.array([0.6])
        assert loglik(self.c, self.lambdas, beta, z=self.z, eta=1.0) == loglik(
            self.c, self.lambdas, beta, z=self.z
        )

    def test_beta_zero_equals_onesample(self):
        got = loglik(self.c, self.lambdas, np.zeros(1), z=self.z)
        assert got == loglik(self.c, self.lambdas)

    def test_constant_path_equals_fixed(self):
        beta = np.array([0.6])
        z_int = np.repeat(self.z[:, None, :], 2, axis=1)
        got = loglik(self.c, self.lambdas, beta, z_intervals=z_int)
        want = loglik(self.c, self.lambdas, beta, z=self.z)
        assert got == pytest.approx(want, abs=1e-10)

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            loglik(self.c, self.lambdas, np.zeros(1), z=self.z, eta=0.0)


class TestGradient:
    def _check(self, c, lambdas, beta, **kw):
        ll, g_lam, g_beta = loglik_and_gradient(c, lambdas, beta, **kw)
        x0 = np.concatenate([lambdas, beta if beta is not None else []])
        nl = lambdas.size

        def f(x):
            b = x[nl:] if beta is not None else None
            return loglik_and_gradient(c, x[:nl], b, **kw)[0]

        num = central_difference_gradient(f, x0)
        ana = np.concatenate([g_lam, g_beta])
        # norm-relative error: componentwise ratios blow up on entries that
        # are tiny relative to the finite-difference truncation error
        denom = max(float(np.linalg.norm(num)), 1e-8)
        assert float(np.linalg.norm(ana - num)) / denom < 1e-6

    def test_fixed_covariates(self):
        rng = np.random.default_rng(11)
        c = build_c_matrix(
            make_dataset(
                [((1.0, 2.0, 3.0), (0, 0, 1)), ((1.0, 3.0), (0, 0)), ((2.0,), (1,))]
            ),
            ErrorModel(0.7, 0.9),
        )
        z = rng.normal(size=(3, 2))
        for _ in range(10):
            self._check(c, rng.uniform(0.1, 1.0, 3), rng.normal(size=2), z=z)

    def test_entry_misclass(self):
        rng = np.random.default_rng(12)
        c = build_c_matrix(
            make_dataset([((1.0, 2.0), (0, 1)), ((1.0, 2.0), (0, 0)), ((2.0,), (0,))]),
            ErrorModel(0.61, 0.995),
        )
        z = rng.normal(size=(3, 1))
        for _ in range(10):
            self._check(c, rng.uniform(0.05, 0.8, 2), rng.normal(size=1), z=z, eta=0.93)

    def test_timevarying(self):
        rng = np.random.default_rng(13)
        c = build_c_matrix(
            make_dataset([((1.0, 2.0, 3.0), (0, 0, 1)), ((1.0, 3.0), (0, 0))]),
            ErrorModel(0.8, 0.85),
        )
        z_int = rng.normal(size=(2, 3, 2))
        for _ in range(10):
            self._check(
                c, rng.uniform(0.1, 1.0, 3), rng.normal(size=2), z_intervals=z_int
            )

    def test_onesample(self):
        rng = np.random.default_rng(14)
        c = build_c_matrix(
            make_dataset([((1.0, 2.0), (0, 1)), ((1.0, 2.0), (0, 0))]),
            ErrorModel(0.9, 0.9),
        )
        for _ in range(10):
            self._check(c, rng.uniform(0.1, 1.0, 2), None)

    def test_weighted_gradient(self):
        rng = np.random.default_rng(15)
        c = build_c_matrix(
            make_dataset([((1.0, 2.0), (0, 1)), ((1.0, 2.0), (0, 0))]),
            ErrorModel(0.8, 0.9),
        )
        z = np.array([[1.0], [0.0]])
        lam = rng.uniform(0.1, 1.0, 2)
        beta = rng.normal(size=1)
        w = np.array([3.0, 2.0])
        ll_w, gl_w, gb_w = loglik_and_gradient(c, lam, beta, z=z, weights=w)
        c_rep = np.vstack([c[0], c[0], c[0], c[1], c[1]])
        z_rep = np.vstack([z[0], z[0], z[0], z[1], z[1]])
        ll_r, gl_r, gb_r = loglik_and_gradient(c_rep, lam, beta, z=z_rep)
        assert ll_w == pytest.approx(ll_r, abs=1e-12)
        assert np.allclose(gl_w, gl_r, atol=1e-12)
        assert np.allclose(gb_w, gb_r, atol=1e-12)

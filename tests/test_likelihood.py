import numpy as np
import pytest

from survreport import likelihood as lik
from survreport.likelihood import (
    KernelRows,
    LINEAR_PREDICTOR_CLAMP,
    NonPositiveLikelihoodError,
    build_c_matrix,
    loglik_and_gradient,
    survival_from_increments,
)
from survreport.panel import ADAPTIVE, PREDETERMINED, ErrorModel, SubjectPanel, build_dataset

from oracles import (
    AFTER_EVENT_INTERVAL,
    BEFORE_EVENT_INTERVAL,
    all_patterns,
    central_difference_gradient,
    direct_pattern_probability,
    report_probability,
    to_d_matrix,
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


def kernel_rows(c, z=None, **kw):
    """Kernel rows of raw arrays: ``kw`` (z_intervals, eta, weights), or a
    time-fixed (N, P) ``z`` as one interval that applies to every interval."""
    if z is not None:
        kw["z_intervals"] = np.asarray(z, dtype=float)[:, None, :]
    return KernelRows(c, **kw)


def kernel(c, lambdas, beta=None, **kw):
    """The single kernel on raw arrays, prepared by :func:`kernel_rows`."""
    return loglik_and_gradient(kernel_rows(c, **kw), lambdas, beta)


def loglik(c, lambdas, beta=None, **kw):
    """Value of the single kernel."""
    return kernel(c, lambdas, beta, **kw)[0]


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
            idx = [grid.taus.index(t) + 1 for t in s.times]
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
        assert survival_from_increments([]).tolist() == [1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            survival_from_increments([-0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_by_name(self, bad):
        # np.any(x < 0) is False for a nan, which used to give [1, nan, nan]
        with pytest.raises(ValueError, match="lambdas must be finite"):
            survival_from_increments([bad, 0.1])


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
            idx = [grid.taus.index(t) + 1 for t in subj.times]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected_by_name(self, bad):
        # a nan lambda or beta used to give a nan log-likelihood and no error
        with pytest.raises(ValueError, match="lambdas must be finite"):
            loglik(self.c, np.full(self.lambdas.size, bad), [0.0], z=self.z)
        with pytest.raises(ValueError, match="lambdas must be finite"):
            kernel(self.c, np.append(self.lambdas[1:], bad), [0.0], z=self.z)
        with pytest.raises(ValueError, match="beta must be finite"):
            loglik(self.c, self.lambdas, [bad], z=self.z)

    def test_nan_row_is_non_positive(self):
        c = self.c.copy()
        c[1, 0] = np.nan
        with pytest.raises(NonPositiveLikelihoodError) as err:
            loglik(c, self.lambdas, [0.6], z=self.z)
        assert err.value.row == 1


class TestClampBoundary:
    """A linear predictor at exactly +-LINEAR_PREDICTOR_CLAMP is clamped: it
    has no beta-derivative, as one beyond the clamp has none."""

    c = build_c_matrix(make_dataset([((1.0, 2.0), (0, 1))]), ErrorModel(0.8, 0.9))
    beta = np.array([0.5])  # a power of two: z * beta is exact

    def kernel(self, z, time_varying):
        # one subject, whose hazard increments lambda exp(z beta) stay near
        # 0.3 and 0.6 at the clamp, so that its derivatives do not vanish
        lambdas = np.array([0.3, 0.6]) * np.exp(-np.sign(z) * LINEAR_PREDICTOR_CLAMP)
        kw = {"z_intervals": np.full((1, 2, 1), z)} if time_varying else {"z": np.full((1, 1), z)}
        *point, hessian = kernel(self.c, lambdas, self.beta, **kw)
        return (*point, hessian())

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_predictor_at_the_clamp_gets_no_beta_derivative(self, sign, time_varying):
        at = sign * LINEAR_PREDICTOR_CLAMP / self.beta[0]
        assert at * self.beta[0] == sign * LINEAR_PREDICTOR_CLAMP
        on = self.kernel(at, time_varying)
        assert on[2].tolist() == [0.0] and not on[3][2].any() and not on[3][:, 2].any()
        for got, want in zip(on, self.kernel(2.0 * at, time_varying)):
            assert np.array_equal(got, want)
        inside = self.kernel(np.nextafter(at, 0.0), time_varying)
        assert inside[2][0] != 0.0 and inside[3][2, 2] != 0.0


class TestGradient:
    def _check(self, c, lambdas, beta, **kw):
        rows = kernel_rows(c, **kw)
        ll, g_lam, g_beta, _ = loglik_and_gradient(rows, lambdas, beta)
        x0 = np.concatenate([lambdas, beta if beta is not None else []])
        nl = lambdas.size

        def f(x):
            b = x[nl:] if beta is not None else None
            return loglik_and_gradient(rows, x[:nl], b)[0]

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
        ll_w, gl_w, gb_w, _ = kernel(c, lam, beta, z=z, weights=w)
        c_rep = np.vstack([c[0], c[0], c[0], c[1], c[1]])
        z_rep = np.vstack([z[0], z[0], z[0], z[1], z[1]])
        ll_r, gl_r, gb_r, _ = kernel(c_rep, lam, beta, z=z_rep)
        assert ll_w == pytest.approx(ll_r, abs=1e-12)
        assert np.allclose(gl_w, gl_r, atol=1e-12)
        assert np.allclose(gb_w, gb_r, atol=1e-12)


def hessian_in_one_piece(lambdas, zf, lp, sums, rows, q, scale, G, lz):
    """The closed-form Hessian from the kernel's arrays, its outer-product
    term subtracted in place: forming that term first, as the scoring
    matrix, must not move a bit of the exact Hessian."""
    J, p, before = lambdas.size, zf.shape[0], lik._before(lambdas.size)
    hess = np.zeros((J + p, J + p))
    ls = lp * scale
    hess[:J, :J] = ls @ G[:J].T
    v = [sums(lp * za) for za in zf]
    for a in range(p):
        qv = q * v[a]
        hess[:J, J + a] = -((before * (ls @ qv.T)).sum(axis=1) + lz[a] @ scale)
        for b in range(a, p):
            hess[J + a, J + b] = np.einsum("ji,ji->i", qv, v[b]) @ scale - lambdas @ ((lz[a] * zf[b]) @ scale)
    hess -= (G * (scale / rows)) @ G.T
    return np.where(lik._before(J + p), hess, hess.T)


class TestScoringMatrix:
    """``hessian_of_point(exact=False)`` is the scoring (BHHH) matrix
    -sum_i w_i s_i s_i', s_i the gradient of log L_i; the default is the
    exact Hessian."""

    c = build_c_matrix(
        make_dataset([((1.0, 2.0, 3.0), (0, 0, 1)), ((1.0, 3.0), (0, 0)), ((2.0, 3.0), (0, 1)), ((1.0,), (1,))]),
        ErrorModel(0.8, 0.85),
    )
    weights = np.array([1.0, 3.0, 2.0, 5.0])

    def cases(self):
        rng = np.random.default_rng(21)
        lambdas = rng.uniform(0.1, 0.8, 3)
        yield {}, lambdas, None
        yield {"z": rng.normal(size=(4, 2)), "eta": 0.93}, lambdas, rng.normal(size=2)
        yield {"z_intervals": rng.normal(size=(4, 3, 2))}, lambdas, rng.normal(size=2)

    def test_scoring_matrix_is_the_weighted_outer_product_of_the_row_scores(self):
        for kw, lambdas, beta in self.cases():
            hessian = kernel(self.c, lambdas, beta, weights=self.weights, **kw)[3]
            want = np.zeros((lambdas.size + (0 if beta is None else beta.size),) * 2)
            for i, w in enumerate(self.weights):
                row = {key: value[i:i + 1] if key != "eta" else value for key, value in kw.items()}
                _, g_lambda, g_beta, _ = kernel(self.c[i:i + 1], lambdas, beta, **row)
                score = np.concatenate([g_lambda, g_beta])
                want -= w * np.outer(score, score)
            got = hessian(exact=False)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
            # the exact Hessian adds the curvature of each L_i to it
            assert not np.allclose(hessian(), got)

    def test_exact_hessian_keeps_its_bits(self, monkeypatch):
        forms, seen = lik._hessian, []

        def recording(*args):  # the point's arrays, then the exact flag
            seen.append(args)
            return forms(*args)

        monkeypatch.setattr(lik, "_hessian", recording)
        for kw, lambdas, beta in self.cases():
            hessian = kernel(self.c, lambdas, beta, weights=self.weights, **kw)[3]
            got = hessian()
            assert seen[-1][-1] is True
            assert np.array_equal(got, hessian_in_one_piece(*seen[-1][:-1]))
            assert np.array_equal(hessian(exact=True), got)

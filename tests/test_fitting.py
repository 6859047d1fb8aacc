import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, gammaln, logit

from zicount import (
    CountParams,
    Flavor,
    RegressionCoefficients,
    RegressionFit,
    fit_intercept_only,
    fit_regression,
    hnb_loglik,
    hnb_pmf,
    make_qmp_standin,
    nb_log_pmf,
    rescale_power,
    standard_errors,
    zinb_loglik,
    zinb_pmf,
)
from zicount import fitting
from zicount.exceptions import (
    DegenerateDataError,
    IllConditionedDesignError,
    InitializationError,
    NonFiniteCoefficientsError,
    ZicountError,
)
from zicount.counts import _nb_logpmf
from zicount.fitting import (
    _ETA_CLIP,
    _LOG_R_CLIP,
    _logistic_negll,
    _nb_negll,
    _observed_information,
    _zinb_negll,
)
from zicount.bench import _seed
from zicount.synth import (
    CorrelationSpec,
    CorrKind,
    gen_setting_one,
    gen_setting_two,
    setting_one_config,
    setting_one_deflation_config,
    setting_two_config,
)


def pmf_sum_oracle(y, X, Z, coef, flavor):
    """Per-observation pmf log sum; the independent route the likelihoods must match."""
    mu = np.exp(np.asarray(X) @ coef.beta)
    total = 0.0
    if flavor is Flavor.ZINB:
        pi = expit(np.asarray(Z) @ coef.gamma)
        for yi, mi, pii in zip(y, mu, pi):
            total += math.log(zinb_pmf(int(yi), CountParams(mi, coef.r, pii, Flavor.ZINB)))
    else:
        pi = expit(np.asarray(X) @ coef.gamma)
        for yi, mi, pii in zip(y, mu, pi):
            total += math.log(hnb_pmf(int(yi), CountParams(mi, coef.r, pii, Flavor.HNB)))
    return total


class TestZinbLoglik:
    def test_zero_inflation_off_limit(self):
        y = np.array([0])
        X = np.ones((1, 1))
        coef = RegressionCoefficients(beta=[0.7], gamma=[-40.0], log_r=0.3)
        nb0 = nb_log_pmf(0, CountParams(math.exp(0.7), coef.r, flavor=Flavor.NB))
        assert zinb_loglik(y, X, X, coef) == pytest.approx(nb0, abs=1e-10)

    def test_matches_pmf_sum_oracle(self):
        rng = np.random.default_rng(0)
        y = np.array([0, 3, 7])
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        coef = RegressionCoefficients(beta=[0.5, 0.3], gamma=[-0.4, 0.8], log_r=-0.2)
        assert zinb_loglik(y, X, X, coef) == pytest.approx(pmf_sum_oracle(y, X, X, coef, Flavor.ZINB), abs=1e-8)

    def test_overflow_raises(self):
        y = np.array([0, 1, 2])
        X = np.full((3, 1), 500.0)
        coef = RegressionCoefficients(beta=[2.0], gamma=[0.0], log_r=0.0)
        with pytest.raises(IllConditionedDesignError):
            zinb_loglik(y, X, X, coef)


class TestHnbLoglik:
    def test_all_zero_only_hurdle_term(self):
        y = np.zeros(4, dtype=int)
        X = np.ones((4, 1))
        coef = RegressionCoefficients(beta=[0.5], gamma=[logit(0.3)], log_r=0.0)
        assert hnb_loglik(y, X, coef) == pytest.approx(4 * math.log(0.3), abs=1e-10)

    def test_matches_pmf_sum_oracle(self):
        rng = np.random.default_rng(1)
        y = np.array([0, 2, 5])
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        coef = RegressionCoefficients(beta=[0.8, -0.3], gamma=[0.1, 0.5], log_r=0.4)
        assert hnb_loglik(y, X, coef) == pytest.approx(pmf_sum_oracle(y, X, None, coef, Flavor.HNB), abs=1e-8)

    def test_collapses_to_nb_when_pi_matches_nb_zero_mass(self):
        mu, r = 3.0, 2.0
        pi = float(np.exp(-r * np.log1p(mu / r)))
        y = np.array([0, 1, 4, 0, 2])
        X = np.ones((len(y), 1))
        coef = RegressionCoefficients(beta=[math.log(mu)], gamma=[logit(pi)], log_r=math.log(r))
        nb = sum(nb_log_pmf(int(v), CountParams(mu, r, flavor=Flavor.NB)) for v in y)
        assert hnb_loglik(y, X, coef) == pytest.approx(nb, abs=1e-8)


@given(
    n=st.integers(2, 12),
    beta0=st.floats(-1.0, 2.5),
    beta1=st.floats(-1.0, 1.0),
    gamma0=st.floats(-2.0, 2.0),
    gamma1=st.floats(-1.0, 1.0),
    log_r=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_likelihood_equivalence_property(n, beta0, beta1, gamma0, gamma1, log_r, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(np.clip(beta0 + beta1 * x, -10, 3)))
    coef = RegressionCoefficients(beta=[beta0, beta1], gamma=[gamma0, gamma1], log_r=log_r)
    assert zinb_loglik(y, X, X, coef) == pytest.approx(
        pmf_sum_oracle(y, X, X, coef, Flavor.ZINB), abs=1e-8
    )
    assert hnb_loglik(y, X, coef) == pytest.approx(
        pmf_sum_oracle(y, X, None, coef, Flavor.HNB), abs=1e-8
    )


def _joint_hnb_fit_oracle(y, X):
    """Maximize hnb_loglik over all parameters at once (no factorization)."""
    q = X.shape[1]

    def negll(theta):
        coef = RegressionCoefficients(theta[:q], theta[q : 2 * q], float(np.clip(theta[-1], -15, 15)))
        val = hnb_loglik(y, X, coef)
        return -val if np.isfinite(val) else 1e12

    theta0 = np.zeros(2 * q + 1)
    theta0[0] = math.log(max(y.mean(), 0.5))
    res = minimize(negll, theta0, method="L-BFGS-B", options=dict(maxiter=500, ftol=1e-12, gtol=1e-7))
    return -res.fun


class TestFitRegression:
    def test_setting_one_coefficient_recovery(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=-2.8)
        truth = np.array([cfg.beta0, cfg.beta1, cfg.gamma0, cfg.gamma1])
        hits = 0
        for rep in range(10):
            y, x = gen_setting_one(cfg, seed=1000 + rep)
            X = np.column_stack([np.ones(len(y)), x])
            fit = fit_regression(y, X, X, Flavor.ZINB)
            se = standard_errors(y, X, X, fit)
            est = np.concatenate([fit.coefficients.beta, fit.coefficients.gamma])
            ok = np.all(np.abs(est - truth) <= 3 * se[:4])
            hits += bool(ok)
        assert hits >= 9

    def test_nb_data_pushes_zinb_weight_to_boundary(self):
        rng = np.random.default_rng(7)
        n = 800
        x = rng.normal(size=n)
        mu = np.exp(1.0 + 0.5 * x)
        y = rng.negative_binomial(2.0, 2.0 / (2.0 + mu))
        X = np.column_stack([np.ones(n), x])
        fit = fit_regression(y, X, np.ones((n, 1)), Flavor.ZINB)
        pi_hat = expit(fit.coefficients.gamma[0])
        assert pi_hat < 0.02
        # the mixture must not fit worse than the plain-NB oracle it nests
        nb_ll = -_ztnb_style_nb_negll(y, X)
        assert fit.loglik >= nb_ll - 1e-4

    def test_intercept_only_equivalence(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=-1.0, beta1=0.0, gamma1=0.0, n=400)
        y, _ = gen_setting_one(cfg, seed=5)
        ones = np.ones((len(y), 1))
        full = fit_regression(y, ones, ones, Flavor.ZINB)
        reduced = fit_intercept_only(y, Flavor.ZINB)
        assert reduced.loglik == pytest.approx(full.loglik, abs=1e-6)

    def test_hnb_factorized_equals_joint(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=-0.5, n=300)
        y, x = gen_setting_one(cfg, seed=9)
        X = np.column_stack([np.ones(len(y)), x])
        fit = fit_regression(y, X, None, Flavor.HNB)
        assert fit.loglik == pytest.approx(_joint_hnb_fit_oracle(y, X), abs=1e-6)

    def test_monotone_trace(self, monkeypatch):
        """Every optimizer run ascends: the log-likelihood at the start and
        after each iteration, recorded by a callback that a spy on
        ``fitting.minimize`` injects, never falls."""
        traces = []
        library_minimize = fitting.minimize

        def spy(fun, x0, **kwargs):
            trace = []

            def recorded(x, *args):
                out = fun(x, *args)
                if not trace:
                    trace.append(-out[0])
                return out

            def iterated(x, value):
                trace.append(-value)

            result = library_minimize(recorded, x0, callback=iterated, **kwargs)
            traces.append(trace)
            return result

        monkeypatch.setattr(fitting, "minimize", spy)
        cfg = setting_one_config(Flavor.ZINB, gamma0=-1.5, n=300)
        y, x = gen_setting_one(cfg, seed=11)
        X = np.column_stack([np.ones(len(y)), x])
        for flavor in (Flavor.ZINB, Flavor.HNB):
            fit_regression(y, X, X if flavor is Flavor.ZINB else None, flavor)
        for flavor in (Flavor.HNB, Flavor.NB):
            fit_intercept_only(y, flavor)
        # one Newton run per fit: the ZINB fit, the hurdle's truncated NB
        # part and the intercept-only fits; the logistic parts call the
        # Newton loop directly (see TestFitLogistic)
        assert len(traces) == 4 and all(len(trace) > 2 for trace in traces)
        for trace in traces:
            assert np.all(np.diff(trace) >= -1e-7)

    def test_z_must_match_x_for_hnb(self):
        y = np.array([0, 1, 2, 0, 3, 1, 0, 2])
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        Z = np.ones((8, 1))
        with pytest.raises(ValueError):
            fit_regression(y, X, Z, Flavor.HNB)

    def test_degenerate_all_zero_hnb(self):
        with pytest.raises(DegenerateDataError):
            fit_regression(np.zeros(20, dtype=int), np.ones((20, 1)), None, Flavor.HNB)

    def test_too_few_observations(self):
        with pytest.raises(DegenerateDataError):
            fit_regression(np.array([0, 1, 2]), np.ones((3, 2)), np.ones((3, 2)), Flavor.ZINB)

    @pytest.mark.parametrize("flavor", [Flavor.ZINB, Flavor.HNB])
    def test_nan_in_design_is_an_initialization_error(self, flavor):
        y = np.array([0, 1, 2, 0, 3, 1, 0, 2, 5, 0])
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        X[3, 1] = np.nan
        with pytest.raises(InitializationError), np.errstate(invalid="ignore"):
            fit_regression(y, X, None, flavor)


def _ztnb_style_nb_negll(y, X):
    """Plain NB MLE as an oracle for nesting checks; returns min negll."""
    def negll(theta):
        beta = theta[:-1]
        r = math.exp(float(np.clip(theta[-1], -15, 15)))
        mu = np.exp(np.clip(X @ beta, -30, 30))
        from scipy.special import gammaln

        ll = (
            gammaln(y + r)
            - gammaln(r)
            - gammaln(y + 1.0)
            + y * np.log(mu)
            - y * np.log(mu + r)
            - r * np.log1p(mu / r)
        ).sum()
        return -float(ll)

    theta0 = np.zeros(X.shape[1] + 1)
    theta0[0] = math.log(max(y.mean(), 0.5))
    return minimize(negll, theta0, method="L-BFGS-B", options=dict(maxiter=500)).fun


def _logistic_case(name, n=500, seed=3):
    """(b, Z) of one logistic fit: a zero indicator of setting-one data, or
    an edge column on a standard-normal covariate."""
    if name.startswith("setting_one"):
        flavor = Flavor.ZINB if name.endswith("zinb") else Flavor.HNB
        y, x = gen_setting_one(setting_one_config(flavor, gamma0=-1.0, n=n), seed=seed)
        return (y == 0).astype(float), np.column_stack([np.ones(n), x])
    x = np.random.default_rng(seed).standard_normal(n)
    b = {"no_zero": np.zeros(n), "all_zero": np.ones(n), "separated": (x < 0).astype(float)}[name]
    return b, np.column_stack([np.ones(n), x])


def _lstsq_step(hess, grad):
    """The minimum-norm Newton step by eigenvalues and a least-squares
    solve: a Levenberg shift H + 2|lambda_min| I where H has a negative
    eigenvalue beyond eps * dimension * largest |eigenvalue|, then lstsq
    (whose cutoff is that rounding). The reference for the closed-form and
    eigendecomposition steps of ``fitting._newton_step``."""
    lam = np.linalg.eigvalsh(hess)
    if lam[0] < -len(lam) * np.finfo(float).eps * max(-lam[0], lam[-1]):
        hess = hess - 2.0 * lam[0] * np.eye(len(lam))
    return np.linalg.lstsq(hess, grad, rcond=None)[0]


_HESSIANS_2X2 = [
    [[54.0, 3.0], [3.0, 119.0]],  # positive definite
    [[2.0, 5.0], [5.0, 1.0]],  # indefinite: the Levenberg shift
    [[-3.0, 0.0], [0.0, -1e-9]],  # negative definite
    [[4.0, 2.0], [2.0, 1.0]],  # singular: the minimum-norm step
    [[1e-6, 0.0], [0.0, 1e6]],  # ill-conditioned
    [[0.0, 0.0], [0.0, 0.0]],
]


def _assert_same_step(step, hess, grad, rtol=1e-9):
    # the size of H^+ g, for components that round to 0
    scale = np.abs(np.linalg.pinv(hess)).max() * np.abs(grad).max()
    np.testing.assert_allclose(step, _lstsq_step(hess, grad), rtol=rtol, atol=1e-12 * scale)


class TestNewtonStep:
    """The closed-form 2 x 2 step and the eigendecomposition step against
    the least-squares rule."""

    @pytest.mark.parametrize("hess", _HESSIANS_2X2)
    def test_two_coordinates_in_closed_form(self, hess):
        hess = np.array(hess)
        for grad in ([1.0, -2.0], [0.3, 0.0], [-1e-8, 5e-9]):
            _assert_same_step(fitting._newton_step(hess, np.array(grad)), hess, np.array(grad))

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "negative", "singular", "ill", "zero"])
    @pytest.mark.parametrize("dim", [3, 5])
    def test_more_coordinates_from_one_eigendecomposition(self, kind, dim):
        rng = np.random.default_rng(dim)
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        lam = {
            "definite": np.linspace(1.0, 50.0, dim),
            "indefinite": np.linspace(-3.0, 7.0, dim),
            "negative": -np.linspace(1e-9, 4.0, dim),
            "singular": np.r_[0.0, np.linspace(1.0, 2.0, dim - 1)],
            "ill": np.logspace(-6, 6, dim),
            "zero": np.zeros(dim),
        }[kind]
        hess = (q * lam) @ q.T
        hess = 0.5 * (hess + hess.T)
        # with condition number 1e12 either solve is good to about 1e12 eps
        rtol = 1e-3 if kind == "ill" else 1e-9
        for grad in (rng.normal(size=dim), np.r_[1e-8, np.zeros(dim - 1)]):
            _assert_same_step(fitting._newton_step(hess, grad), hess, grad, rtol)


class TestStepInBox:
    """The Newton step held and cut at a box."""

    _lo, _hi = fitting._INTERCEPT_BOX.T

    @pytest.mark.parametrize("hess", _HESSIANS_2X2)
    def test_inside_the_box_it_is_the_newton_step(self, hess):
        hess = np.array(hess)
        for grad in ([1.0, -2.0], [0.3, 0.0], [-1e-8, 5e-9]):
            grad = np.array(grad)
            step, cut = fitting._step_in_box(np.array([0.5, -0.25]), grad, hess, self._lo, self._hi)
            _assert_same_step(step, hess, grad)

    def test_a_coordinate_on_its_bound_is_held_while_the_objective_falls_outward(self):
        hess = np.array([[4.0, 1.0], [1.0, 2.0]])
        x = np.array([0.5, _LOG_R_CLIP])
        # descent raises log r: held, and eta takes its own one-dimensional step
        step, cut = fitting._step_in_box(x, np.array([2.0, -1.0]), hess, self._lo, self._hi)
        np.testing.assert_allclose(step, [0.5, 0.0])
        assert cut == 1.0
        # descent lowers log r: both move, and no further than the box
        step, cut = fitting._step_in_box(x, np.array([2.0, 1.0]), hess, self._lo, self._hi)
        np.testing.assert_allclose(step, _lstsq_step(hess, np.array([2.0, 1.0])))
        assert np.all(np.abs(x - cut * step) <= self._hi + 1e-12)

    def test_a_regression_holds_log_r_only(self):
        """The regression fits box log r alone: (beta, gamma, log r) with
        log r on its clip, descent raising it."""
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        hess, grad = a @ a.T + np.eye(4), rng.normal(size=4)
        grad[-1] = -abs(grad[-1])
        lo, hi = np.array([[-np.inf, np.inf]] * 3 + [[-_LOG_R_CLIP, _LOG_R_CLIP]]).T
        x = np.array([0.3, -2.0, 1.0, _LOG_R_CLIP])
        step, cut = fitting._step_in_box(x, grad, hess, lo, hi)
        assert step[-1] == 0.0 and cut == 1.0
        np.testing.assert_allclose(step[:3], np.linalg.solve(hess[:3, :3], grad[:3]))

    def test_the_step_is_cut_at_the_box_along_its_direction(self):
        x = np.array([-29.5, 0.0])
        step, cut = fitting._step_in_box(x, np.array([4.0, 0.0]), np.eye(2), self._lo, self._hi)
        np.testing.assert_allclose(step, [4.0, 0.0])
        assert cut == pytest.approx(0.5 / 4.0)


class TestFitLogistic:
    """IRLS, the solver of every logistic model."""

    @pytest.mark.parametrize("stretch", [1.0, 10.0])
    @pytest.mark.parametrize("name", ["setting_one_zinb", "setting_one_hnb", "separated"])
    def test_accepted_steps_never_lower_the_loglik(self, name, stretch, monkeypatch):
        """A budget of k iterations ends at the k-th accepted iterate, so
        raising k walks the accepted steps. Newton steps from gamma = 0 seldom
        overshoot, so a stretched step makes the halving do the work."""
        newton_step = fitting._newton_step
        monkeypatch.setattr(fitting, "_newton_step", lambda hess, grad: stretch * newton_step(hess, grad))
        b, Z = _logistic_case(name)
        logliks, converged = [], False
        for k in range(fitting._NEWTON_MAXITER):
            monkeypatch.setattr(fitting, "_NEWTON_MAXITER", k)
            gamma, _, converged = fitting._fit_logistic(b, Z)
            logliks.append(-_logistic_negll(gamma, b, Z)[0])
            if converged:
                break
        assert converged and len(logliks) > 3
        assert np.all(np.diff(logliks) >= 0.0)

    @pytest.mark.parametrize(
        "name", ["setting_one_zinb", "setting_one_hnb", "no_zero", "all_zero", "separated"]
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_loglik_reaches_a_tight_scipy_reference(self, name, seed):
        b, Z = _logistic_case(name, seed=seed)
        gamma, negll, converged = fitting._fit_logistic(b, Z)
        reference = minimize(
            _logistic_negll, np.zeros(2), args=(b, Z), jac=True, method="L-BFGS-B",
            options=dict(maxiter=10_000, ftol=1e-15, gtol=1e-12),
        )
        assert converged and -negll >= -reference.fun - 1e-9
        if not name.startswith("setting_one"):
            # the clipped log-likelihood's ceiling: every |eta| at the clip
            ceiling = -len(b) * math.log1p(math.exp(-_ETA_CLIP))
            assert -negll >= ceiling - 1e-9


class TestFitInterceptOnly:
    def test_hnb_zero_share_is_exact(self):
        y = np.array([0, 0, 0, 1, 2, 3, 4, 5, 6, 7])  # 30% zeros
        fit = fit_intercept_only(y, Flavor.HNB)
        assert expit(fit.coefficients.gamma[0]) == pytest.approx(0.3, abs=1e-12)

    def test_zinb_boundary_when_zeros_scarce(self):
        rng = np.random.default_rng(3)
        mu, r = 1.2, 3.0
        y = rng.negative_binomial(r, r / (r + mu), size=600)
        if not (y == 0).any():
            y[0] = 0
        fit = fit_intercept_only(y, Flavor.ZINB)
        assert expit(fit.coefficients.gamma[0]) < 0.05

    def test_nb_mle_beats_moment_start(self):
        rng = np.random.default_rng(4)
        y = rng.negative_binomial(1.5, 1.5 / (1.5 + 4.0), size=500)
        fit = fit_intercept_only(y, Flavor.NB)
        assert fit.n_params == 2
        mu0 = max(float(np.mean(y)), 1e-6)
        v = float(np.var(y))
        r0 = mu0 * mu0 / (v - mu0) if v > mu0 else 100.0
        moment = RegressionCoefficients(beta=[math.log(mu0)], gamma=[], log_r=math.log(r0))
        moment_ll = sum(
            nb_log_pmf(int(v_), CountParams(mu0, moment.r, flavor=Flavor.NB)) for v_ in y
        )
        assert fit.loglik >= moment_ll - 1e-9

    @pytest.mark.parametrize(
        "flavor, y",
        [
            # positives with no spread push the truncated NB to its Poisson limit
            (Flavor.HNB, np.array([0] * 5 + [3] * 20)),
            # underdispersed counts push the NB to its Poisson limit
            (Flavor.NB, np.array([3] * 20)),
        ],
    )
    def test_stored_dispersion_is_the_clipped_one(self, flavor, y):
        fit = fit_intercept_only(y, flavor)
        assert fit.coefficients.log_r == _LOG_R_CLIP
        mu, r = math.exp(fit.coefficients.beta[0]), fit.coefficients.r
        if flavor is Flavor.NB:
            at_coefficients = sum(nb_log_pmf(int(v), CountParams(mu, r, flavor=Flavor.NB)) for v in y)
        else:
            at_coefficients = hnb_loglik(y, np.ones((len(y), 1)), fit.coefficients)
        assert fit.loglik == pytest.approx(at_coefficients, abs=1e-9)

    def test_needs_three_observations(self):
        with pytest.raises(DegenerateDataError):
            fit_intercept_only(np.array([0, 1]), Flavor.HNB)

    @pytest.mark.parametrize("flavor", [Flavor.HNB, Flavor.NB, Flavor.ZINB])
    def test_negative_count_is_rejected(self, flavor):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            fit_intercept_only([-3, 0, 2, 5, 1], flavor)

    @pytest.mark.parametrize("flavor", [Flavor.HNB, Flavor.NB])
    def test_row_order_does_not_move_the_fit(self, flavor):
        """The fit sees only the histogram of y, so a row permutation gives
        the same bits."""
        rng = np.random.default_rng(12)
        y = np.where(rng.random(400) < 0.3, 0, rng.negative_binomial(0.8, 0.8 / 4.8, size=400))
        fit = fit_intercept_only(y, flavor)
        for seed in range(3):
            other = fit_intercept_only(np.random.default_rng(seed).permutation(y), flavor)
            assert other.loglik == fit.loglik
            assert other.coefficients.log_r == fit.coefficients.log_r
            np.testing.assert_array_equal(other.coefficients.beta, fit.coefficients.beta)
            np.testing.assert_array_equal(other.coefficients.gamma, fit.coefficients.gamma)

    @pytest.mark.parametrize("seed, mu, r, zero_share", [(5, 3.0, 0.7, 0.4), (6, 40.0, 2.5, 0.1), (7, 0.6, 5.0, 0.0)])
    def test_hnb_loglik_matches_the_per_observation_likelihood(self, seed, mu, r, zero_share):
        rng = np.random.default_rng(seed)
        y = rng.negative_binomial(r, r / (r + mu), size=300)
        y[rng.random(300) < zero_share] = 0
        fit = fit_intercept_only(y, Flavor.HNB)
        assert fit.converged and abs(fit.coefficients.log_r) < _LOG_R_CLIP
        assert fit.loglik == pytest.approx(hnb_loglik(y, np.ones((len(y), 1)), fit.coefficients), abs=1e-9)


def _exact_negll(theta, values, counts, truncated):
    """The intercept-only objective at theta in 30-digit arithmetic. Near
    log r = 15 its float value rounds at up to 1e-7 (the log-gammas of y + r
    and r cancel), so two end points are compared here instead."""
    with mpmath.workdps(30):
        eta, log_r = (mpmath.mpf(float(np.clip(t, -c, c))) for t, c in zip(theta, (_ETA_CLIP, _LOG_R_CLIP)))
        mu, r = mpmath.exp(eta), mpmath.exp(log_r)
        log_p0 = r * (log_r - mpmath.log(mu + r))
        total = mpmath.mpf(0)
        for y, w in zip(values, counts):
            y = mpmath.mpf(float(y))
            log_pmf = (
                mpmath.loggamma(y + r) - mpmath.loggamma(r) - mpmath.loggamma(y + 1)
                + y * (eta - mpmath.log(mu + r)) + log_p0
            )
            total += float(w) * (log_pmf - (mpmath.log(-mpmath.expm1(log_p0)) if truncated else 0))
        return -total


def _assert_reaches_a_tight_reference(y, flavor):
    """The fit converged, and its objective is within 1e-9 of the lower end
    of a tight L-BFGS-B (ftol 1e-15, gtol 1e-12) from two starts: the fit's
    own (the moment estimate of the fitted counts) and (log of their mean,
    log r = 0)."""
    fit = fit_intercept_only(y, flavor)
    truncated = flavor is Flavor.HNB
    args = _histogram_shape(y[y > 0] if truncated else y, truncated)
    _, values, counts, _ = args
    n, mean = counts.sum(), counts @ values / counts.sum()
    var = counts @ (values - mean) ** 2 / n
    r = mean * mean / (var - mean) if var > mean else 100.0
    options = dict(maxiter=10_000, ftol=1e-15, gtol=1e-12)
    reference = min(
        (minimize(_nb_negll, x0, args=args, jac=True, method="L-BFGS-B", options=options) for x0 in
         ([math.log(mean), math.log(np.clip(r, 1e-3, 1e3))], [math.log(mean), 0.0])),
        key=lambda res: res.fun,
    )
    theta = np.array([fit.coefficients.beta[0], fit.coefficients.log_r])
    assert fit.converged
    if _nb_negll(theta, *args)[0] > reference.fun + 1e-9:
        gap = _exact_negll(theta, values, counts, truncated) - _exact_negll(reference.x, values, counts, truncated)
        assert gap <= 1e-9, (float(gap), fit.coefficients.log_r)


class TestNewtonReachesATightReference:
    """The intercept-only Newton fits end converged and within 1e-9 of a
    tight L-BFGS-B run on the same objective (see
    :func:`_assert_reaches_a_tight_reference`)."""

    @pytest.mark.parametrize("flavor", [Flavor.HNB, Flavor.NB])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_every_standin_column(self, seed, flavor):
        # the training block of criterion 9's protocol; seed 1's column 29
        # (counts up to 1431) ends where the objective rounds at ~1e-11
        block = rescale_power(make_qmp_standin(seed=seed), 0.851).values[:90]
        for j in range(block.shape[1]):
            _assert_reaches_a_tight_reference(block[:, j].astype(int), flavor)

    @pytest.mark.parametrize(
        "y, flavor",
        [
            # the positives are all 1: the maximum sits at the eta clip
            ([0, 0, 1, 1, 1, 1], Flavor.HNB),
            # underdispersed positives: the maximum sits at the log r clip
            ([0, 1, 1, 1, 2], Flavor.HNB),
            ([0, 1, 1, 1, 2], Flavor.NB),
            ([0] * 5 + [3] * 20, Flavor.HNB),
            ([0] * 5 + [3] * 20, Flavor.NB),
            ([3] * 20, Flavor.HNB),
            ([3] * 20, Flavor.NB),
        ],
    )
    def test_edge_cases(self, y, flavor):
        _assert_reaches_a_tight_reference(np.array(y), flavor)


def _regression_objective(y, X, flavor):
    """The Newton run's objective of ``fit_regression``, its arguments and
    its start: ZINB's, or the hurdle's zero-truncated NB part's (the
    logistic part is TestFitLogistic's)."""
    beta0 = fitting._init_beta(y, X)
    if flavor is Flavor.ZINB:
        gamma0 = fitting._fit_logistic((y == 0).astype(float), X)[0]
        return _zinb_negll, (y.astype(float), X, X), np.concatenate([beta0, gamma0, [0.0]])
    pos = y > 0
    return _nb_negll, (X[pos], y[pos].astype(float), 1.0, True), np.append(beta0, 0.0)


def _assert_regression_reaches_a_tight_reference(y, X, flavor):
    """The fit converged, and its objective is within 1e-9 of the lower end
    of a tight L-BFGS-B (ftol 1e-15, gtol 1e-12) from the fit's start and
    from its end point."""
    fit = fit_regression(y, X, X if flavor is Flavor.ZINB else None, flavor)
    coef = fit.coefficients
    fun, args, start = _regression_objective(y, X, flavor)
    theta = np.concatenate([coef.beta, coef.gamma if flavor is Flavor.ZINB else [], [coef.log_r]])
    options = dict(maxiter=10_000, ftol=1e-15, gtol=1e-12)
    reference = min(
        minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", options=options).fun for x0 in (start, theta)
    )
    assert fit.converged
    assert fun(theta, *args)[0] <= reference + 1e-9


class TestRegressionNewtonReachesATightReference:
    """The ZINB and hurdle regression fits end converged and within 1e-9 of
    a tight L-BFGS-B run on the same objective (see
    :func:`_assert_regression_reaches_a_tight_reference`)."""

    @pytest.mark.parametrize("flavor", [Flavor.ZINB, Flavor.HNB])
    @pytest.mark.parametrize("true_flavor, gamma0", [(Flavor.ZINB, -1.5), (Flavor.ZINB, 0.5), (Flavor.HNB, -0.5)])
    def test_criterion_two_data(self, true_flavor, gamma0, flavor):
        y, x = gen_setting_one(setting_one_config(true_flavor, gamma0=gamma0, n=500), seed=3)
        _assert_regression_reaches_a_tight_reference(y, np.column_stack([np.ones(len(y)), x]), flavor)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hnb_cv_columns(self, seed):
        # criterion 4's strong cell: each column regressed on its covariate
        spec = CorrelationSpec(CorrKind.AR, 0.9, 5)
        cfg = setting_two_config(spec, beta1=2.0, gamma0=float(np.log(1.0 / 9.0)), gamma1=0.0)
        Y, X = gen_setting_two(cfg, seed)
        for j in range(Y.shape[1]):
            design = np.column_stack([np.ones(len(Y)), X[:, j]])
            _assert_regression_reaches_a_tight_reference(Y[:, j].astype(int), design, Flavor.HNB)

    def test_deflation_fit_where_the_default_lbfgsb_stopped_short(self):
        # criterion 3's sweep at seed 10, pi_h = 0.43, replication 1: from
        # the fit's start, L-BFGS-B (at ftol 1e-9, and at the tight
        # tolerances too) stops 2.93 log-likelihood units below the Newton fit
        cfg = setting_one_deflation_config(gamma0=float(logit(0.43)))
        y, x = gen_setting_one(cfg, _seed(10, 21, 1, 430))
        _assert_regression_reaches_a_tight_reference(y, np.column_stack([np.ones(len(y)), x]), Flavor.ZINB)


def _histogram_shape(y, truncated):
    """The intercept-only fits' arguments of ``_nb_negll``: no design, the
    distinct values of ``y`` and how often each occurs."""
    values, counts = np.unique(y, return_counts=True)
    return None, values.astype(float), counts.astype(float), truncated


@pytest.mark.parametrize("truncated", [False, True])
def test_regression_and_histogram_shapes_agree(truncated):
    """The regression's call shape (one row per observation, unit weights)
    with a design of ones is the histogram's call shape on the same counts,
    in value and gradient."""
    rng = np.random.default_rng(11)
    y = rng.negative_binomial(0.8, 0.15, size=240).astype(float)
    if truncated:
        y += 1.0
    for theta in ([1.2, -0.4], [3.0, 2.5], [-2.0, 6.0], [0.3, -9.0]):
        theta = np.array(theta)
        value, grad, _ = _nb_negll(theta, np.ones((len(y), 1)), y, 1.0, truncated)
        h_value, h_grad, _ = _nb_negll(theta, *_histogram_shape(y, truncated))
        assert h_value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(h_grad, grad, rtol=1e-12)


def test_minimize_calls_its_objective_nfev_times(monkeypatch):
    """The start value and its finiteness check come from the optimizer's
    own first evaluation, so no objective call falls outside ``nfev``: for
    the Newton run of each regression fit and of an intercept-only fit."""
    y = np.array([0, 0, 1, 2, 2, 3, 5, 8, 13, 0, 4, 0, 1, 6])
    X = np.column_stack([np.ones(len(y)), np.linspace(-1.0, 1.0, len(y))])
    fits = [
        (lambda: fit_regression(y, X, X, Flavor.ZINB), "_zinb_negll"),
        (lambda: fit_regression(y, X, None, Flavor.HNB), "_nb_negll"),
        (lambda: fit_intercept_only(y, Flavor.NB), "_nb_negll"),
    ]
    library_minimize = fitting.minimize
    for fit, objective in fits:
        runs, calls, starts = [], [], []
        original = getattr(fitting, objective)

        def spy(fun, x0, **kwargs):
            starts.append((np.array(x0), kwargs["args"]))
            runs.append(library_minimize(fun, x0, **kwargs))
            return runs[-1]

        def counted(theta, *args, **kwargs):
            calls.append(np.array(theta))
            return original(theta, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(fitting, "minimize", spy)
            patch.setattr(fitting, objective, counted)
            fit()
        assert len(runs) == 1 and len(calls) == runs[0].nfev > 1
        theta0, args = starts[0]
        np.testing.assert_array_equal(calls[0], theta0)
        assert runs[0].fun == original(runs[0].x, *args)[0]


def _second_difference_information(y, X, Z, fit, step=1e-4):
    """Minus the Hessian of the log-likelihood by second differences of the
    log-likelihood itself (about 2m^2 calls): the reference for the
    score-based information."""
    q1, q2 = X.shape[1], Z.shape[1]
    coef = fit.coefficients
    theta = np.concatenate([coef.beta, coef.gamma, [coef.log_r]])

    def loglik(t):
        c = RegressionCoefficients(t[:q1], t[q1 : q1 + q2], t[-1])
        return zinb_loglik(y, X, Z, c) if fit.flavor is Flavor.ZINB else hnb_loglik(y, X, c)

    m = len(theta)
    hess = np.empty((m, m))
    f0 = loglik(theta)
    for i in range(m):
        for j in range(i, m):
            ei, ej = np.zeros(m), np.zeros(m)
            ei[i], ej[j] = step, step
            if i == j:
                hess[i, i] = (loglik(theta + ei) - 2.0 * f0 + loglik(theta - ei)) / step**2
            else:
                hess[i, j] = hess[j, i] = (
                    loglik(theta + ei + ej) - loglik(theta + ei - ej) - loglik(theta - ei + ej) + loglik(theta - ei - ej)
                ) / (4.0 * step**2)
    return -hess


@pytest.mark.parametrize("flavor", [Flavor.ZINB, Flavor.HNB])
def test_score_information_matches_second_differences(flavor):
    cfg = setting_one_config(flavor, gamma0=-1.0, n=500)
    y, x = gen_setting_one(cfg, seed=21)
    X = np.column_stack([np.ones(len(y)), x])
    fit = fit_regression(y, X, X if flavor is Flavor.ZINB else None, flavor)
    assert fit.converged
    info = _observed_information(y, X, X, fit)
    reference = _second_difference_information(y, X, X, fit)
    assert np.allclose(info, info.T)
    np.testing.assert_allclose(info, reference, rtol=1e-3, atol=1e-3 * np.abs(reference).max())
    se_reference = np.sqrt(np.diag(np.linalg.inv(reference)))
    np.testing.assert_allclose(standard_errors(y, X, X, fit), se_reference, rtol=1e-3)


class TestAic:
    def test_direct_formula(self):
        coef = RegressionCoefficients(beta=[0.0], gamma=[0.0], log_r=0.0)
        fit = RegressionFit(coef, loglik=-100.0, n_params=3, flavor=Flavor.HNB, converged=True, n_obs=10)
        assert fit.aic == 206.0

    def test_smaller_model_wins_at_equal_loglik(self):
        coef = RegressionCoefficients(beta=[0.0], gamma=[0.0], log_r=0.0)
        small = RegressionFit(coef, -50.0, 3, Flavor.HNB, True, 10)
        large = RegressionFit(coef, -50.0, 4, Flavor.HNB, True, 10)
        assert large.aic - small.aic == 2.0

    @pytest.mark.parametrize(
        "beta, gamma, log_r", [([np.nan], [0.0], 0.0), ([0.0], [np.inf], 0.0), ([0.0], [], -np.inf)]
    )
    def test_non_finite_coefficients_are_a_typed_value_error(self, beta, gamma, log_r):
        with pytest.raises(NonFiniteCoefficientsError) as info:
            RegressionCoefficients(beta=beta, gamma=gamma, log_r=log_r)
        assert isinstance(info.value, ValueError) and isinstance(info.value, ZicountError)


# ---------------------------------------------------------------------------
# analytic scores of the optimizer objectives


def _central_difference(fun, theta, args, step, part=0):
    """Central differences of ``fun(theta, *args)[part]`` (the value, or
    with ``part`` 1 the gradient) in each coordinate of theta, stacked
    along the last axis."""
    diffs = []
    for i in range(len(theta)):
        e = np.zeros(len(theta))
        e[i] = step
        diffs.append((fun(theta + e, *args)[part] - fun(theta - e, *args)[part]) / (2.0 * step))
    return np.stack(diffs, axis=-1)


def _kernel_hessian_matches_its_score(y, theta, truncated, step, atol):
    """Each row's second derivatives from ``_nb_logpmf`` in (eta, log r)
    against central differences of that row's analytic score."""

    def kernel(t):
        return _nb_logpmf(y, math.exp(t[0]), math.exp(t[1]), derivatives=True, truncated=truncated)

    h_eta, h_cross, h_log_r = kernel(theta)[3:]
    d_eta = _central_difference(kernel, theta, (), step, part=1)
    d_log_r = _central_difference(kernel, theta, (), step, part=2)
    pairs = ((h_eta, d_eta[:, 0]), (h_cross, d_eta[:, 1]), (h_cross, d_log_r[:, 0]), (h_log_r, d_log_r[:, 1]))
    for analytic, fd in pairs:
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=atol)


def _nb_term_size(y, eta, log_r):
    """Sum of |terms| of the clipped NB log pmfs. The objectives round at
    about 1e-16 of it, and a difference quotient divides that by its step."""
    eta = np.clip(eta, -_ETA_CLIP, _ETA_CLIP)
    r = math.exp(np.clip(log_r, -_LOG_R_CLIP, _LOG_R_CLIP))
    mu = np.exp(eta)
    terms = (
        np.abs(gammaln(y + r)) + abs(gammaln(r)) + gammaln(y + 1.0)
        + y * (np.abs(eta) + np.abs(np.log(mu + r))) + r * np.log1p(mu / r)
    )
    return float(terms.sum())


# a linear predictor or log r well inside its clip, or within 1 of it on
# either side
_near_or_inside = lambda clip: st.one_of(  # noqa: E731
    st.floats(-3.0, 3.0), st.floats(clip - 1.0, clip + 1.0), st.floats(-clip - 1.0, -clip + 1.0)
)


@given(
    objective=st.sampled_from(["logistic", "zinb", "regression", "histogram", "histogram_truncated"]),
    column=st.sampled_from(["mixed", "all_zero", "no_zero"]),
    n=st.integers(3, 25),
    seed=st.integers(0, 2**31),
    eta_mu=_near_or_inside(_ETA_CLIP),
    eta_pi=_near_or_inside(_ETA_CLIP),
    log_r=_near_or_inside(_LOG_R_CLIP),
    slope=st.floats(-0.5, 0.5),
)
@settings(max_examples=300, deadline=None)
def test_objective_gradient_matches_central_difference(objective, column, n, seed, eta_mu, eta_pi, log_r, slope):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x])
    y = rng.negative_binomial(1.0, 0.2, size=n).astype(float)
    if column == "all_zero":
        y[:] = 0.0
    elif column == "no_zero":
        y += 1.0
    beta = np.array([eta_mu, slope])
    gamma = np.array([eta_pi, -slope])
    step = 1e-6
    # a central difference across a clip's kink is no derivative
    assume(np.all(np.abs(np.abs(X @ beta) - _ETA_CLIP) > 10 * step))
    assume(np.all(np.abs(np.abs(X @ gamma) - _ETA_CLIP) > 10 * step))
    assume(abs(abs(eta_mu) - _ETA_CLIP) > 10 * step and abs(abs(log_r) - _LOG_R_CLIP) > 10 * step)
    if objective == "logistic":
        fun, theta, args = _logistic_negll, gamma, ((y == 0).astype(float), X)
        size = float(np.abs(np.clip(X @ gamma, -_ETA_CLIP, _ETA_CLIP)).sum())
    elif objective == "zinb":
        fun, theta, args = _zinb_negll, np.concatenate([beta, gamma, [log_r]]), (y, X, X)
        size = _nb_term_size(y, X @ beta, log_r) + float(np.abs(X @ gamma).sum())
    elif objective == "regression":
        assume(column != "all_zero")
        pos = y > 0
        fun, theta, args = _nb_negll, np.append(beta, log_r), (X[pos], y[pos], 1.0, True)
        size = 2.0 * _nb_term_size(y[pos], X[pos] @ beta, log_r)
    elif objective == "histogram":
        fun, theta, args = _nb_negll, np.array([eta_mu, log_r]), _histogram_shape(y, truncated=False)
        size = _nb_term_size(y, np.full(n, eta_mu), log_r)
    else:
        assume(column != "all_zero")
        pos = y[y > 0]
        fun, theta, args = _nb_negll, np.array([eta_mu, log_r]), _histogram_shape(pos, truncated=True)
        size = 2.0 * _nb_term_size(pos, np.full(len(pos), eta_mu), log_r)
    value, grad, hess = fun(theta, *args)
    assert np.isfinite(value) and grad.shape == theta.shape and hess.shape == (len(theta), len(theta))
    if objective != "logistic" and abs(log_r) > _LOG_R_CLIP:
        assert grad[-1] == 0.0
    fd = _central_difference(fun, theta, args, step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6 + 1e-13 * size / step)
    # the score rounds at about the size of the value's terms too
    fd = _central_difference(fun, theta, args, step, part=1)
    np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-6 + 1e-13 * size / step)
    if objective.startswith("histogram"):
        _kernel_hessian_matches_its_score(args[1], theta, args[3], step, atol=1e-6 + 1e-13 * size / step)
    # the per-fit constants a fit passes leave every bit as it is:
    # gammaln(y + 1), and for a regression the distinct counts
    if objective != "logistic":
        counts = args[0] if objective == "zinb" else args[1]
        constants = (gammaln(counts + 1),)
        if objective in ("zinb", "regression"):
            constants += (np.unique(counts, return_inverse=True),)
        c_value, c_grad, c_hess = fun(theta, *args, *constants)
        assert c_value == value and np.array_equal(c_grad, grad) and np.array_equal(c_hess, hess)


_extreme = st.one_of(st.sampled_from([-1e6, 0.0, 1e6]), st.floats(-1e6, 1e6))


@given(
    objective=st.sampled_from(["logistic", "zinb", "regression", "histogram", "histogram_truncated"]),
    theta=st.lists(_extreme, min_size=5, max_size=5),
    y=st.lists(st.integers(0, 10**6), min_size=1, max_size=20),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=300, deadline=None)
def test_objectives_stay_finite_at_extreme_parameters(objective, theta, y, seed):
    """The clips keep every objective, its gradient and its Hessian finite
    on finite data, wherever the optimizer steps; no fit needs a second
    start."""
    y = np.asarray(y, dtype=float)
    X = np.column_stack([np.ones(len(y)), np.random.default_rng(seed).normal(size=len(y))])
    theta = np.asarray(theta)
    fun, t, args = {
        "logistic": (_logistic_negll, theta[:2], ((y == 0).astype(float), X)),
        "zinb": (_zinb_negll, theta, (y, X, X)),
        "regression": (_nb_negll, theta[:3], (X, np.maximum(y, 1.0), 1.0, True)),
        "histogram": (_nb_negll, theta[:2], _histogram_shape(y, truncated=False)),
        "histogram_truncated": (_nb_negll, theta[:2], _histogram_shape(np.maximum(y, 1.0), truncated=True)),
    }[objective]
    # the regression fits' Hessians read the trigamma function once per
    # distinct count
    counts = {"zinb": args[0], "regression": args[1]}.get(objective)
    extra = {} if counts is None else dict(distinct=np.unique(counts, return_inverse=True))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        value, grad, hess = fun(t, *args, **extra)
    assert np.isfinite(value) and np.all(np.isfinite(grad)) and grad.shape == t.shape
    assert np.all(np.isfinite(hess)) and hess.shape == (len(t), len(t))

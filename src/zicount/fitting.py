"""Maximum-likelihood fitting of ZINB and hurdle-NB regressions.

Both regressions use a log link for the mean and a logit link for the zero
weight. ZINB is maximized jointly over (beta, gamma, log r). The hurdle
likelihood factorizes, so it is fitted as an independent logistic part
(zero indicator) and a zero-truncated NB part (positive counts).
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, logit

from .counts import Flavor, _log_nb_zero, _nb_logpmf
from .exceptions import (
    DegenerateDataError,
    IllConditionedDesignError,
    InitializationError,
    NonFiniteCoefficientsError,
)

__all__ = [
    "RegressionCoefficients",
    "RegressionFit",
    "FitOptions",
    "ZinbLoglikTerms",
    "zinb_loglik",
    "hnb_loglik",
    "fit_regression",
    "fit_intercept_only",
    "aic",
    "standard_errors",
]

# linear predictors are clipped here inside optimizer objectives only;
# e^30 ~ 1.07e13 sits far above any count in scope
_ETA_CLIP = 30.0
_LOG_R_CLIP = 15.0


@dataclass(frozen=True)
class RegressionCoefficients:
    """Mean-model coefficients (log link), zero-model coefficients (logit
    link), and unconstrained log dispersion."""

    beta: np.ndarray
    gamma: np.ndarray
    log_r: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float)) if np.size(self.gamma) else np.empty(0)
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma)) and np.isfinite(self.log_r)):
            raise NonFiniteCoefficientsError("coefficients must be finite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "log_r", float(self.log_r))

    @property
    def r(self) -> float:
        return float(np.exp(self.log_r))


@dataclass(frozen=True)
class RegressionFit:
    """A fitted regression: coefficients, attained log-likelihood, AIC."""

    coefficients: RegressionCoefficients
    loglik: float
    n_params: int
    aic: float
    flavor: Flavor
    converged: bool
    n_obs: int
    trace: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        expected = 2.0 * self.n_params - 2.0 * self.loglik
        if not np.isclose(self.aic, expected, rtol=0.0, atol=1e-9 * max(1.0, abs(expected))):
            raise ValueError("aic must equal 2*n_params - 2*loglik")


@dataclass(frozen=True)
class FitOptions:
    """Optimizer budget and tolerances (L-BFGS-B on analytic gradients)."""

    max_iter: int = 500
    ftol: float = 1e-9
    gtol: float = 1e-5
    restarts: int = 5
    seed: int = 0


class ZinbLoglikTerms(NamedTuple):
    """The four ZINB log-likelihood terms and their total (t1+t2+t3-t4)."""

    l1: float
    l2: float
    l3: float
    l4: float
    total: float


def _design(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _mu_or_raise(eta):
    if not np.all(np.isfinite(eta)):
        raise IllConditionedDesignError("non-finite linear predictor")
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if not np.all(np.isfinite(mu)):
        raise IllConditionedDesignError("exp(x'beta) overflowed")
    return mu


def zinb_loglik(y, X, Z, coef: RegressionCoefficients) -> ZinbLoglikTerms:
    """ZINB regression log-likelihood, split into its four terms.

    The total equals the sum of per-observation log zinb pmf values with
    mu_i = exp(x_i'beta), pi_i = expit(z_i'gamma) and shared dispersion.
    """
    y = np.asarray(y)
    X, Z = _design(X), _design(Z)
    r = coef.r
    eta_mu = X @ coef.beta
    eta_pi = Z @ coef.gamma
    mu = _mu_or_raise(eta_mu)

    zero = y == 0
    yp = y[~zero].astype(float)
    mup = mu[~zero]

    l1 = float(np.logaddexp(eta_pi[zero], _log_nb_zero(mu[zero], r)).sum())
    l2 = float((gammaln(yp + r) - gammaln(r)).sum())
    # l3 is the rest of the NB log pmf of the positives
    l3 = float(_nb_logpmf(yp, mup, r).sum()) - l2
    l4 = float(np.logaddexp(0.0, eta_pi).sum())
    return ZinbLoglikTerms(l1, l2, l3, l4, l1 + l2 + l3 - l4)


def hnb_loglik(y, X, coef: RegressionCoefficients) -> float:
    """Hurdle-NB regression log-likelihood (same design for both parts).

    Zeros contribute log pi_i; positives contribute the continuation
    probability plus the zero-truncated NB log pmf, whose zero term is
    (1 + mu/r)^(-r).
    """
    y = np.asarray(y)
    X = _design(X)
    r = coef.r
    eta_mu = X @ coef.beta
    eta_pi = X @ coef.gamma
    mu = _mu_or_raise(eta_mu)

    zero = y == 0
    # log pi and log(1-pi) through logaddexp for stability at extreme eta
    log_pi = -np.logaddexp(0.0, -eta_pi)
    log_1m_pi = -np.logaddexp(0.0, eta_pi)

    total = float(log_pi[zero].sum())
    yp = y[~zero].astype(float)
    if yp.size:
        mup = mu[~zero]
        log_nb0 = _log_nb_zero(mup, r)
        with np.errstate(divide="ignore"):
            log_denom = np.log(-np.expm1(log_nb0))
        if not np.all(np.isfinite(log_denom)):
            return -np.inf
        total += float((log_1m_pi[~zero] + _nb_logpmf(yp, mup, r) - log_denom).sum())
    return total


# Every objective returns (negative log-likelihood, gradient). The gradient
# is that of the clipped objective, so it is 0 in a coordinate whose clip
# is active.


def _clipped(v, bound):
    """``v`` clipped to [-bound, bound], and the clip's derivative (1 or 0)."""
    return np.clip(v, -bound, bound), np.abs(v) <= bound


def _clip_log_r(log_r) -> float:
    """The stored dispersion is the one the objective saw."""
    return float(np.clip(log_r, -_LOG_R_CLIP, _LOG_R_CLIP))


def _logistic_negll(gamma, b, Z):
    eta, inside = _clipped(Z @ gamma, _ETA_CLIP)
    value = -float((b * eta - np.logaddexp(0.0, eta)).sum())
    return value, -(Z.T @ ((b - expit(eta)) * inside))


def _zinb_negll(theta, y, X, Z):
    q1 = X.shape[1]
    eta_mu, in_mu = _clipped(X @ theta[:q1], _ETA_CLIP)
    eta_pi, in_pi = _clipped(Z @ theta[q1:-1], _ETA_CLIP)
    log_r, in_r = _clipped(theta[-1], _LOG_R_CLIP)
    log_nb, d_eta, d_log_r = _nb_logpmf(y, np.exp(eta_mu), np.exp(log_r), score=True)

    zero = y == 0
    # a zero is structural or an NB zero: log(e^eta_pi + NB(0)) - log(1 + e^eta_pi)
    mix = np.logaddexp(eta_pi, log_nb)
    ll = np.where(zero, mix, log_nb).sum() - np.logaddexp(0.0, eta_pi).sum()
    # share of each observation's likelihood that comes from the NB component
    nb_share = np.where(zero, np.exp(log_nb - mix), 1.0)
    g_mu = nb_share * d_eta * in_mu
    g_pi = (np.where(zero, np.exp(eta_pi - mix), 0.0) - expit(eta_pi)) * in_pi
    g_r = (nb_share * d_log_r).sum() * in_r
    return -float(ll), -np.concatenate([X.T @ g_mu, Z.T @ g_pi, [g_r]])


def _ztnb_negll(theta, y, X):
    eta, in_eta = _clipped(X @ theta[:-1], _ETA_CLIP)
    log_r, in_r = _clipped(theta[-1], _LOG_R_CLIP)
    mu, r = np.exp(eta), np.exp(log_r)
    log_nb, d_eta, d_log_r = _nb_logpmf(y, mu, r, score=True)
    log_nb0, d0_eta, d0_log_r = _nb_logpmf(0.0, mu, r, score=True)
    # the clips keep 1 - NB(0) >= ~e^-30, so log_denom is finite
    log_denom = np.log(-np.expm1(log_nb0))
    # d[-log(1 - NB(0))] = NB(0)/(1 - NB(0)) * d log NB(0)
    odds0 = np.exp(log_nb0 - log_denom)
    g_eta = (d_eta + odds0 * d0_eta) * in_eta
    g_r = (d_log_r + odds0 * d0_log_r).sum() * in_r
    return -float((log_nb - log_denom).sum()), -np.append(X.T @ g_eta, g_r)


def _minimize(fun, x0, args, options: FitOptions):
    """One L-BFGS-B run on an objective returning (value, gradient).

    Returns (x, negll, converged, trace), or None when the objective is not
    finite at ``x0`` or at the end; the trace holds the log-likelihood at
    the start and after every iteration.
    """
    f0 = fun(x0, *args)[0]
    if not np.isfinite(f0):
        return None
    trace = [-f0]

    def cb(intermediate_result):
        trace.append(-intermediate_result.fun)

    res = minimize(
        fun,
        x0,
        args=args,
        method="L-BFGS-B",
        jac=True,
        callback=cb,
        options=dict(maxiter=options.max_iter, ftol=options.ftol, gtol=options.gtol),
    )
    if not np.isfinite(res.fun):
        return None
    return res.x, float(res.fun), bool(res.success), np.asarray(trace)


def _minimize_with_restarts(fun, x0, args, options: FitOptions):
    rng = np.random.default_rng(options.seed)
    best = _minimize(fun, x0, args, options)
    attempt = 0
    while best is None and attempt < options.restarts:
        attempt += 1
        jitter = rng.normal(scale=0.5, size=len(x0))
        best = _minimize(fun, np.asarray(x0) + jitter, args, options)
    if best is None:
        raise InitializationError(
            f"objective non-finite at every start ({options.restarts} restarts)"
        )
    return best


def _init_beta(y, X):
    """Log-linear least squares on positive counts."""
    pos = y > 0
    if not pos.any():
        return np.zeros(X.shape[1])
    coef, *_ = np.linalg.lstsq(X[pos], np.log(y[pos].astype(float)), rcond=None)
    return np.clip(coef, -10.0, 10.0)


def _fit_logistic(b, Z, options: FitOptions):
    res = _minimize_with_restarts(_logistic_negll, np.zeros(Z.shape[1]), (b, Z), options)
    return res


def fit_regression(y, X, Z=None, flavor: Flavor = Flavor.ZINB, options: Optional[FitOptions] = None) -> RegressionFit:
    """Maximum-likelihood fit of a ZINB or hurdle-NB regression.

    Parameters
    ----------
    y : array of nonnegative integer counts
    X : design for the mean model (include an intercept column if wanted)
    Z : design for the zero model; defaults to ``X``. The hurdle model
        shares one design, so for HNB ``Z`` must be omitted or equal X.
    flavor : Flavor.ZINB or Flavor.HNB
    options : FitOptions

    Returns
    -------
    RegressionFit with ``converged`` False when the optimizer exhausted
    its budget before meeting the tolerances.
    """
    options = options or FitOptions()
    y = np.asarray(y)
    if np.any(y < 0):
        raise ValueError("counts must be nonnegative")
    X = _design(X)
    Z = X if Z is None else _design(Z)
    n = len(y)
    q1, q2 = X.shape[1], Z.shape[1]
    if n <= q1 + q2 + 1:
        raise DegenerateDataError(f"need n > q1+q2+1 = {q1 + q2 + 1}, got n = {n}")

    if flavor is Flavor.ZINB:
        if not (y == 0).any() or not (y > 0).any():
            raise DegenerateDataError("ZINB needs at least one zero and one positive count")
        g0 = _fit_logistic((y == 0).astype(float), Z, options)[0]
        theta0 = np.concatenate([_init_beta(y, X), g0, [0.0]])
        x, negll, ok, trace = _minimize_with_restarts(_zinb_negll, theta0, (y.astype(float), X, Z), options)
        coef = RegressionCoefficients(
            beta=x[:q1], gamma=x[q1 : q1 + q2], log_r=_clip_log_r(x[-1])
        )
        # report the unclipped likelihood at the optimum
        loglik = zinb_loglik(y, X, Z, coef).total
        traces = (trace,)
    elif flavor is Flavor.HNB:
        if not np.array_equal(Z, X):
            raise ValueError("the hurdle model uses one shared design; pass Z=None")
        if not (y > 0).any():
            raise DegenerateDataError("hurdle fit needs at least one positive count")
        g, negll_g, ok_g, trace_g = _fit_logistic((y == 0).astype(float), X, options)
        yp = y[y > 0].astype(float)
        Xp = X[y > 0]
        theta0 = np.concatenate([_init_beta(y, X), [0.0]])
        xb, negll_b, ok_b, trace_b = _minimize_with_restarts(_ztnb_negll, theta0, (yp, Xp), options)
        coef = RegressionCoefficients(
            beta=xb[:-1], gamma=g, log_r=_clip_log_r(xb[-1])
        )
        loglik = hnb_loglik(y, X, coef)
        ok = ok_g and ok_b
        traces = (trace_g, trace_b)
    else:
        raise ValueError("fit_regression supports ZINB and HNB; use fit_intercept_only for NB")

    k = q1 + q2 + 1
    return RegressionFit(
        coefficients=coef,
        loglik=float(loglik),
        n_params=k,
        aic=2.0 * k - 2.0 * float(loglik),
        flavor=flavor,
        converged=bool(ok) and np.isfinite(loglik),
        n_obs=n,
        trace=traces,
    )


def _nb_negll(theta, y):
    eta, in_eta = _clipped(theta[0], _ETA_CLIP)
    log_r, in_r = _clipped(theta[-1], _LOG_R_CLIP)
    log_nb, d_eta, d_log_r = _nb_logpmf(y, np.exp(eta), np.exp(log_r), score=True)
    return -float(log_nb.sum()), -np.array([d_eta.sum() * in_eta, d_log_r.sum() * in_r])


def _moment_nb_init(y):
    m = max(float(np.mean(y)), 1e-6)
    v = float(np.var(y))
    r = m * m / (v - m) if v > m else 100.0
    return np.array([np.log(m), np.log(np.clip(r, 1e-3, 1e3))])


def fit_intercept_only(y, flavor: Flavor, options: Optional[FitOptions] = None) -> RegressionFit:
    """Intercept-only reduction of :func:`fit_regression`.

    For HNB the zero part has the closed-form solution
    ``expit(gamma0) = mean(y == 0)``; the dispersion and mean still come
    from the truncated-NB optimization. NB (no zero model) is supported
    for baseline comparisons.
    """
    options = options or FitOptions()
    y = np.asarray(y)
    n = len(y)
    if n < 3:
        raise DegenerateDataError("need at least 3 observations")
    ones = np.ones((n, 1))

    if flavor is Flavor.ZINB:
        return fit_regression(y, ones, ones, Flavor.ZINB, options)

    if flavor is Flavor.HNB:
        if not (y > 0).any():
            raise DegenerateDataError("hurdle fit needs at least one positive count")
        pi_hat = float(np.mean(y == 0))
        # keep the logit finite when the sample has no zeros (or none positive)
        pi_clamped = min(max(pi_hat, 1.0 / (4.0 * n)), 1.0 - 1.0 / (4.0 * n))
        gamma0 = float(logit(pi_clamped))
        yp = y[y > 0].astype(float)
        theta0 = np.concatenate([_init_beta(y, ones), [0.0]])
        xb, _, ok, trace_b = _minimize_with_restarts(
            _ztnb_negll, theta0, (yp, np.ones((len(yp), 1))), options
        )
        coef = RegressionCoefficients(beta=xb[:-1], gamma=np.array([gamma0]), log_r=_clip_log_r(xb[-1]))
        loglik = hnb_loglik(y, ones, coef)
        k = 3
        return RegressionFit(coef, float(loglik), k, 2.0 * k - 2.0 * loglik, flavor, bool(ok), n, (trace_b,))

    # NB: moment initialization refined by MLE
    theta0 = _moment_nb_init(y)
    x, negll, ok, trace = _minimize_with_restarts(_nb_negll, theta0, (y.astype(float),), options)
    coef = RegressionCoefficients(beta=x[:1], gamma=np.empty(0), log_r=_clip_log_r(x[-1]))
    k = 2
    loglik = -negll
    return RegressionFit(coef, float(loglik), k, 2.0 * k - 2.0 * loglik, Flavor.NB, bool(ok), n, (trace,))


def aic(fit: RegressionFit) -> float:
    """Akaike information criterion, 2*k - 2*loglik."""
    return 2.0 * fit.n_params - 2.0 * fit.loglik


def _score(theta, y, X, Z, flavor):
    """Score of the log-likelihood in (beta, gamma, log_r)."""
    if flavor is Flavor.ZINB:
        return -_zinb_negll(theta, y.astype(float), X, Z)[1]
    # the hurdle likelihood factorizes: the logistic part scores gamma, the
    # zero-truncated NB part scores (beta, log r)
    q1 = X.shape[1]
    pos = y > 0
    d_b = -_ztnb_negll(np.append(theta[:q1], theta[-1]), y[pos].astype(float), X[pos])[1]
    d_g = -_logistic_negll(theta[q1:-1], (y == 0).astype(float), X)[1]
    return np.concatenate([d_b[:-1], d_g, d_b[-1:]])


def _observed_information(y, X, Z, fit: RegressionFit, step: float) -> np.ndarray:
    """Minus the Hessian of the log-likelihood, by central differences of the
    analytic score (2m score calls), symmetrized."""
    coef = fit.coefficients
    theta = np.concatenate([coef.beta, coef.gamma, [coef.log_r]])
    m = len(theta)
    hess = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        hess[:, i] = (_score(theta + e, y, X, Z, fit.flavor) - _score(theta - e, y, X, Z, fit.flavor)) / (2.0 * step)
    return -0.5 * (hess + hess.T)


def standard_errors(y, X, Z, fit: RegressionFit, step: float = 1e-4) -> np.ndarray:
    """Asymptotic standard errors of (beta, gamma, log_r).

    Observed information at the optimum, from central differences of the
    analytic score, inverted. The score is that of the clipped optimizer
    objectives, so the errors mean little for a fit whose dispersion sits
    at its clip (``|log r| = 15``). Intended for coefficient-recovery
    checks, not full inference.
    """
    y = np.asarray(y)
    X, Z = _design(X), _design(Z)
    info = _observed_information(y, X, Z, fit, step)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    var = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(var)

"""Maximum-likelihood fitting of ZINB and hurdle-NB regressions.

Both regressions use a log link for the mean and a logit link for the zero
weight. ZINB is maximized jointly over (beta, gamma, log r) by L-BFGS-B. The
hurdle likelihood factorizes, so it is fitted as an independent logistic part
(zero indicator) and a zero-truncated NB part (positive counts), the latter
by L-BFGS-B. One damped Newton loop, :func:`_newton`, fits every logistic
model (the hurdle's zero part and the start of the ZINB zero part; there it
is IRLS) and the intercept-only HNB and NB fits.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeResult, minimize
from scipy.special import expit, gammaln, logit

from .counts import Flavor, _check_counts, _log_nb_zero, _nb_logpmf, _nb_positive, _zero_share
from .exceptions import (
    DegenerateDataError,
    IllConditionedDesignError,
    InitializationError,
    NonFiniteCoefficientsError,
)

__all__ = [
    "RegressionCoefficients",
    "RegressionFit",
    "zinb_loglik",
    "hnb_loglik",
    "fit_regression",
    "fit_intercept_only",
    "standard_errors",
]

# linear predictors are clipped here inside optimizer objectives only;
# e^30 ~ 1.07e13 sits far above any count in scope
_ETA_CLIP = 30.0
_LOG_R_CLIP = 15.0
# the intercept-only fits' Newton runs stay in this box of (eta, log r)
_INTERCEPT_BOX = np.array([(-_ETA_CLIP, _ETA_CLIP), (-_LOG_R_CLIP, _LOG_R_CLIP)])
# every L-BFGS-B run (on analytic gradients): its budget and tolerances
_LBFGSB = dict(method="L-BFGS-B", jac=True, options=dict(maxiter=500, ftol=1e-9, gtol=1e-5))
# Newton (see _newton) stops once g'H^+g, the gradient of the clipped
# objective measured in its inverse Hessian, is at most _NEWTON_TOL per
# observation, or at most the objective's rounding where that is larger.
# Half of it is the decrease a step still promises, so a one-sided or
# separated zero indicator runs on to the eta clip, while an interior fit
# stops before that decrease sinks below the rounding (~1e-16 n for a
# logistic objective).
_NEWTON_TOL = 1e-14
_NEWTON_MAXITER = 100
_NEWTON_HALVINGS = 30
_EPS = np.finfo(float).eps
# central-difference step of the score in the observed information
_SE_STEP = 1e-4


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
    """A fitted regression: coefficients and attained log-likelihood."""

    coefficients: RegressionCoefficients
    loglik: float
    n_params: int
    flavor: Flavor
    converged: bool
    n_obs: int

    @property
    def aic(self) -> float:
        """Akaike information criterion, 2*n_params - 2*loglik."""
        return 2.0 * self.n_params - 2.0 * self.loglik


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


def zinb_loglik(y, X, Z, coef: RegressionCoefficients) -> float:
    """ZINB regression log-likelihood: the sum of per-observation log zinb
    pmf values with mu_i = exp(x_i'beta), pi_i = expit(z_i'gamma) and shared
    dispersion.
    """
    y = np.asarray(y)
    X, Z = _design(X), _design(Z)
    r = coef.r
    eta_mu = X @ coef.beta
    eta_pi = Z @ coef.gamma
    mu = _mu_or_raise(eta_mu)

    zero = y == 0
    # a zero is structural or an NB zero; every observation pays log(1 + e^eta_pi)
    zeros = np.logaddexp(eta_pi[zero], _log_nb_zero(mu[zero], r)).sum()
    positives = _nb_logpmf(y[~zero], mu[~zero], r).sum()
    return float(zeros + positives - np.logaddexp(0.0, eta_pi).sum())


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
        with np.errstate(divide="ignore"):
            log_denom = np.log(_nb_positive(_log_nb_zero(mup, r)))
        if not np.all(np.isfinite(log_denom)):
            return -np.inf
        total += float((log_1m_pi[~zero] + _nb_logpmf(yp, mup, r) - log_denom).sum())
    return total


# Every objective returns (negative log-likelihood, gradient). The gradient
# is that of the clipped objective, so it is 0 in a coordinate whose clip
# is active.


def _clipped(v, bound):
    """``v`` clipped to [-bound, bound], and the clip's derivative (1 or 0)."""
    # np.minimum/np.maximum give np.clip's values at half its call overhead
    return np.minimum(np.maximum(v, -bound), bound), np.abs(v) <= bound


def _clip_log_r(log_r) -> float:
    """log r clipped as the objectives clip it; the stored dispersion is the
    one the objective saw."""
    return min(max(float(log_r), -_LOG_R_CLIP), _LOG_R_CLIP)


def _logistic_negll(gamma, b, Z, hessian=False):
    """With ``hessian`` it also returns Z' diag(pi (1 - pi) inside) Z."""
    eta, inside = _clipped(Z @ gamma, _ETA_CLIP)
    pi = expit(eta)
    value = -float((b * eta - np.logaddexp(0.0, eta)).sum())
    grad = -(Z.T @ ((b - pi) * inside))
    if not hessian:
        return value, grad
    return value, grad, (Z.T * (pi * (1.0 - pi) * inside)) @ Z


def _zinb_negll(theta, y, X, Z):
    q1 = X.shape[1]
    eta_mu, in_mu = _clipped(X @ theta[:q1], _ETA_CLIP)
    eta_pi, in_pi = _clipped(Z @ theta[q1:-1], _ETA_CLIP)
    log_r, in_r = _clip_log_r(theta[-1]), abs(theta[-1]) <= _LOG_R_CLIP
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


def _nb_negll(theta, X, y, w, truncated, log_y_factorial=None, hessian=False):
    """NB objective in theta = (beta, log r). Row i has the count y_i, the
    weight w_i (the number of observations it stands for) and the mean
    exp(x_i'beta); ``X`` None is the intercept-only design, one mean
    exp(beta_0) for every row. With ``truncated`` each row is a
    zero-truncated NB. The hurdle regression passes one row per positive
    count and w = 1.0; the intercept-only fits pass the distinct counts and
    how often each occurs, and ``hessian`` (intercept-only design only)
    adds the Hessian. A fit passes gammaln(y + 1) once as
    ``log_y_factorial``."""
    log_r, in_r = _clip_log_r(theta[-1]), abs(theta[-1]) <= _LOG_R_CLIP
    if X is not None:
        eta, in_eta = _clipped(X @ theta[:-1], _ETA_CLIP)
        # the clips keep 1 - NB(0) >= ~e^-30, so a truncated log pmf is finite
        log_nb, d_eta, d_log_r = _nb_logpmf(y, np.exp(eta), np.exp(log_r), True, truncated, False, log_y_factorial)
        g_eta = w * d_eta * in_eta
        grad = np.concatenate([X.T @ g_eta, [(w * d_log_r).sum() * in_r]])
        return -float((w * log_nb).sum()), -grad
    # one mean for every row, kept a scalar: each sum over rows is a dot
    # product with the weights, and a column of ones would make a call about
    # a fifth dearer
    eta, in_eta = min(max(float(theta[0]), -_ETA_CLIP), _ETA_CLIP), abs(theta[0]) <= _ETA_CLIP
    rows = _nb_logpmf(y, math.exp(eta), math.exp(log_r), True, truncated, hessian, log_y_factorial)
    log_nb, d_eta, d_log_r, *second = (w @ row for row in rows)
    value, grad = -float(log_nb), np.array([-d_eta * in_eta, -d_log_r * in_r])
    if not hessian:
        return value, grad
    # a clip's derivative is 0 or 1, so each second derivative takes it once
    # per coordinate
    h_eta, h_cross, h_log_r = second
    h_cross = -h_cross * (in_eta and in_r)
    return value, grad, np.array([[-h_eta * in_eta, h_cross], [h_cross, -h_log_r * in_r]])


def _minimize(fun, x0, args, solver=_LBFGSB):
    """One ``scipy.optimize.minimize`` run: by default L-BFGS-B on an
    objective returning (value, gradient); ``solver`` holds the keywords of
    another method, such as :func:`_newton` on (value, gradient, Hessian).

    Returns (x, negll, converged). Raises InitializationError when the
    objective is not finite at ``x0`` or at the end (the clips keep it
    finite on finite data). The check at ``x0`` reads the run's own first
    evaluation: no call outside ``nfev``.
    """
    started = False

    def checked(x, *a):
        nonlocal started
        out = fun(x, *a)
        if not started:
            if not np.isfinite(out[0]):
                raise InitializationError("objective not finite at the starting point")
            started = True
        return out

    res = minimize(checked, x0, args=args, **solver)
    if not np.isfinite(res.fun):
        raise InitializationError("objective not finite at the optimizer's end point")
    return res.x, float(res.fun), bool(res.success)


def _newton(fun, x0, args=(), bounds=None, n_obs=1, size=None, callback=None, **unused):
    """Minimize ``fun(x, *args)``, which returns (value, gradient, Hessian),
    by damped Newton steps: Newton-Raphson on the observed information
    (Lawless 1987), which on a logistic objective is IRLS (McCullagh and
    Nelder 1989). It has the signature of a ``scipy.optimize.minimize``
    method.

    Each step is :func:`_newton_step`, or with ``bounds`` (one (lo, hi)
    pair for each of two coordinates) :func:`_step_in_box`'s, and is
    halved until the objective does not rise. The run stops once the
    decrement g's is at most ``_NEWTON_TOL * n_obs`` for an objective over
    ``n_obs`` observations, or at most eps * ``size(x)``, the rounding of
    an objective whose terms' magnitudes sum to ``size(x)``: below that no
    step can show a decrease. A step cut at the box is tried whatever its
    decrement, since it ends a walk along a ridge towards a bound.

    Returns an OptimizeResult with ``nfev`` and ``nit``; ``callback``
    receives each accepted iterate as ``intermediate_result``. ``success``
    is False when the budget ran out, or when no halving kept the objective
    from rising although the step promised more than the tolerance. Raises
    InitializationError when the objective is not finite at ``x0``.
    """
    x = np.asarray(x0, dtype=float)
    value, grad, hess = fun(x, *args)
    if not np.isfinite(value):
        raise InitializationError("objective not finite at the starting point")
    if bounds is not None:
        lo, hi = np.asarray(bounds, dtype=float).T
    nfev, nit, success = 1, 0, False
    for nit in range(_NEWTON_MAXITER):
        step, cut = (_newton_step(hess, grad), 1.0) if bounds is None else _step_in_box(x, grad, hess, lo, hi)
        decrement = grad @ step
        tol = _NEWTON_TOL * n_obs
        rounding = tol if size is None else max(tol, _EPS * size(x))
        if decrement <= (rounding if cut == 1.0 else tol):
            success = True
            break
        if cut < 1.0:
            step = cut * step
        for _ in range(_NEWTON_HALVINGS):
            # the clip only removes rounding past a bound
            trial_x = x - step if bounds is None else np.minimum(np.maximum(x - step, lo), hi)
            trial = fun(trial_x, *args)
            nfev += 1
            if trial[0] <= value:
                break
            step = 0.5 * step
        else:
            success = bool(cut * decrement <= rounding)
            break
        x = trial_x
        value, grad, hess = trial
        if callback is not None:
            callback(intermediate_result=OptimizeResult(x=x, fun=value))
    else:
        nit = _NEWTON_MAXITER
    return OptimizeResult(x=x, fun=value, nit=nit, nfev=nfev, success=success)


def _newton_step(hess, grad):
    """The minimum-norm solution s of H s = g, after a Levenberg shift
    H + 2|lambda_min| I where H has a negative eigenvalue beyond the solve's
    rounding cutoff (eps * dimension * largest |eigenvalue|)."""
    lam = np.linalg.eigvalsh(hess)
    if lam[0] < -len(lam) * _EPS * max(-lam[0], lam[-1]):
        hess = hess - 2.0 * lam[0] * np.eye(len(lam))
    return np.linalg.lstsq(hess, grad, rcond=None)[0]


def _step_in_box(x, grad, hess, lo, hi):
    """The Newton step of a two-parameter objective (the intercept-only
    fits' eta and log r) inside the box [lo, hi], and the fraction of it
    that stays in the box. It is :func:`_newton_step` in closed form, since
    numpy's LAPACK wrappers cost more than the rest of such an iteration.

    A coordinate on its bound whose descent leads out of the box is held
    (its row, column and gradient are zeroed) and the other takes the
    minimum-norm step; no coordinate steps out of the box from its bound
    (that component would only slow the descent).
    """
    x, g, lo, hi = x.tolist(), grad.tolist(), lo.tolist(), hi.tolist()
    (a, b), (_, c) = hess.tolist()
    if (x[0] <= lo[0] and g[0] > 0) or (x[0] >= hi[0] and g[0] < 0):
        a = b = g[0] = 0.0
    if (x[1] <= lo[1] and g[1] > 0) or (x[1] >= hi[1] and g[1] < 0):
        c = b = g[1] = 0.0
    # the eigenvalues m -/+ d of [[a, b], [b, c]], the one of larger
    # magnitude first and the other from the determinant; (cos, sin) spans
    # the eigenvector of the larger one
    m, d = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    big = m + math.copysign(d, m)
    small, large = sorted((big, (a * c - b * b) / big if big else 0.0))
    cutoff = 2.0 * _EPS * max(-small, large)
    if small < -cutoff:
        small, large = -small, large - 2.0 * small
    angle = 0.5 * math.atan2(2.0 * b, a - c)
    cos, sin = math.cos(angle), math.sin(angle)
    along = (cos * g[0] + sin * g[1]) / large if abs(large) > cutoff else 0.0
    across = (cos * g[1] - sin * g[0]) / small if abs(small) > cutoff else 0.0
    step = [cos * along - sin * across, sin * along + cos * across]
    cut = 1.0
    for i in (0, 1):
        if (x[i] <= lo[i] and step[i] > 0) or (x[i] >= hi[i] and step[i] < 0):
            step[i] = 0.0
        elif x[i] - step[i] < lo[i] or x[i] - step[i] > hi[i]:
            cut = min(cut, (x[i] - (lo[i] if step[i] > 0 else hi[i])) / step[i])
    return np.array(step), cut


def _fit_logistic(b, Z):
    """Logistic regression of the 0/1 vector ``b`` on Z by :func:`_newton`
    (IRLS) from gamma = 0 on the clipped objective.

    Returns (gamma, negll, converged); converged is False when the budget
    ran out or no halving of a step kept the objective from rising. Raises
    InitializationError when the objective is not finite at the start, as
    :func:`_minimize` does.
    """
    res = _newton(_logistic_negll, np.zeros(Z.shape[1]), (b, Z, True), n_obs=len(b))
    return res.x, res.fun, res.success


def _init_beta(y, X):
    """Log-linear least squares on positive counts."""
    pos = y > 0
    if not pos.any():
        return np.zeros(X.shape[1])
    coef, *_ = np.linalg.lstsq(X[pos], np.log(y[pos].astype(float)), rcond=None)
    return np.clip(coef, -10.0, 10.0)


def _result(coef: RegressionCoefficients, loglik, flavor: Flavor, ok, n: int) -> RegressionFit:
    """The fit at ``coef``; it counts as converged when every optimizer run
    met its tolerances and the log-likelihood is finite."""
    k = coef.beta.size + coef.gamma.size + 1
    return RegressionFit(coef, float(loglik), k, flavor, bool(ok and np.isfinite(loglik)), n)


def fit_regression(y, X, Z=None, flavor: Flavor = Flavor.ZINB) -> RegressionFit:
    """Maximum-likelihood fit of a ZINB or hurdle-NB regression.

    Parameters
    ----------
    y : array of nonnegative integer counts
    X : design for the mean model (include an intercept column if wanted)
    Z : design for the zero model; defaults to ``X``. The hurdle model
        shares one design, so for HNB ``Z`` must be omitted or equal X.
    flavor : Flavor.ZINB or Flavor.HNB

    Returns
    -------
    RegressionFit with ``converged`` False when the optimizer exhausted
    its budget before meeting the tolerances.
    """
    y = _check_counts(y)
    X = _design(X)
    Z = X if Z is None else _design(Z)
    n = len(y)
    q1, q2 = X.shape[1], Z.shape[1]
    if n <= q1 + q2 + 1:
        raise DegenerateDataError(f"need n > q1+q2+1 = {q1 + q2 + 1}, got n = {n}")

    if flavor is Flavor.ZINB:
        if not (y == 0).any() or not (y > 0).any():
            raise DegenerateDataError("ZINB needs at least one zero and one positive count")
        g0 = _fit_logistic((y == 0).astype(float), Z)[0]
        theta0 = np.concatenate([_init_beta(y, X), g0, [0.0]])
        x, _, ok = _minimize(_zinb_negll, theta0, (y.astype(float), X, Z))
        coef = RegressionCoefficients(beta=x[:q1], gamma=x[q1 : q1 + q2], log_r=_clip_log_r(x[-1]))
        # report the unclipped likelihood at the optimum
        return _result(coef, zinb_loglik(y, X, Z, coef), flavor, ok, n)
    if flavor is Flavor.HNB:
        if not np.array_equal(Z, X, equal_nan=True):
            raise ValueError("the hurdle model uses one shared design; pass Z=None")
        pos = y > 0
        if not pos.any():
            raise DegenerateDataError("hurdle fit needs at least one positive count")
        g, _, ok_g = _fit_logistic((y == 0).astype(float), X)
        # the zero-truncated NB part on the positive counts, same design
        theta0 = np.append(_init_beta(y, X), 0.0)
        yp = y[pos].astype(float)
        x, _, ok = _minimize(_nb_negll, theta0, (X[pos], yp, 1.0, True, gammaln(yp + 1)))
        coef = RegressionCoefficients(beta=x[:-1], gamma=g, log_r=_clip_log_r(x[-1]))
        return _result(coef, hnb_loglik(y, X, coef), flavor, ok_g and ok, n)
    raise ValueError("fit_regression supports ZINB and HNB; use fit_intercept_only for NB")


def fit_intercept_only(y, flavor: Flavor) -> RegressionFit:
    """Intercept-only reduction of :func:`fit_regression`.

    For HNB the zero part has the closed-form solution
    ``expit(gamma0) = mean(y == 0)``; the dispersion and mean still come
    from the truncated-NB optimization. NB (no zero model) is supported
    for baseline comparisons. HNB and NB are fitted on the histogram of
    ``y``, so an objective call costs O(distinct values), not O(n), by
    :func:`_newton` from the moment estimate of the counts they fit.
    """
    y = _check_counts(y)
    n = len(y)
    if n < 3:
        raise DegenerateDataError("need at least 3 observations")

    if flavor is Flavor.ZINB:
        return fit_regression(y, np.ones((n, 1)), None, Flavor.ZINB)

    values, counts = (a.astype(float) for a in np.unique(y, return_counts=True))
    truncated = flavor is Flavor.HNB
    if truncated:
        pos = values > 0
        values, counts = values[pos], counts[pos]
    n_fit = counts.sum()
    if not n_fit:
        raise DegenerateDataError("hurdle fit needs at least one positive count")
    # start at the moment estimate of the fitted counts (HNB: the positives)
    mean = counts @ values / n_fit
    m, var = max(mean, 1e-6), counts @ (values - mean) ** 2 / n_fit
    r = m * m / (var - m) if var > m else 100.0
    theta0 = np.array([math.log(m), math.log(min(max(r, 1e-3), 1e3))])
    log_y_factorial = gammaln(values + 1)
    # eps times this is about the objective's rounding: its largest terms
    # are the log-gammas that cancel in each log pmf, log y! for large
    # counts and log Gamma(r) as log r -> 15
    magnitude = n_fit + counts @ log_y_factorial

    def size(theta):
        return magnitude + n_fit * abs(math.lgamma(math.exp(_clip_log_r(theta[-1]))))

    # _newton runs as a custom method= of scipy.optimize.minimize (public
    # API; about 20 us a call), so nfev, nit, the callback and the one
    # minimize call per fit stay as they are for L-BFGS-B
    newton = dict(method=_newton, bounds=_INTERCEPT_BOX, options=dict(n_obs=n_fit, size=size))
    args = (None, values, counts, truncated, log_y_factorial, True)
    x, negll, ok = _minimize(_nb_negll, theta0, args, newton)
    if flavor is Flavor.NB:
        coef = RegressionCoefficients(beta=x[:1], gamma=np.empty(0), log_r=_clip_log_r(x[-1]))
        return _result(coef, -negll, flavor, ok, n)
    n_zero = n - n_fit
    # keep the logit finite when the sample has no zeros
    pi_hat = _zero_share(n_zero, n)
    coef = RegressionCoefficients(beta=x[:1], gamma=[logit(pi_hat)], log_r=_clip_log_r(x[-1]))
    return _result(coef, n_zero * np.log(pi_hat) + n_fit * np.log1p(-pi_hat) - negll, flavor, ok, n)


def _score(theta, y, X, Z, flavor):
    """Score of the log-likelihood in (beta, gamma, log_r)."""
    if flavor is Flavor.ZINB:
        return -_zinb_negll(theta, y.astype(float), X, Z)[1]
    # the hurdle likelihood factorizes: the logistic part scores gamma, the
    # zero-truncated NB part scores (beta, log r)
    q1 = X.shape[1]
    pos = y > 0
    d_b = -_nb_negll(np.append(theta[:q1], theta[-1]), X[pos], y[pos].astype(float), 1.0, True)[1]
    d_g = -_logistic_negll(theta[q1:-1], (y == 0).astype(float), X)[1]
    return np.concatenate([d_b[:-1], d_g, d_b[-1:]])


def _observed_information(y, X, Z, fit: RegressionFit) -> np.ndarray:
    """Minus the Hessian of the log-likelihood, by central differences of the
    analytic score (2m score calls), symmetrized."""
    coef = fit.coefficients
    theta = np.concatenate([coef.beta, coef.gamma, [coef.log_r]])
    m = len(theta)
    hess = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = _SE_STEP
        hess[:, i] = (_score(theta + e, y, X, Z, fit.flavor) - _score(theta - e, y, X, Z, fit.flavor)) / (2.0 * _SE_STEP)
    return -0.5 * (hess + hess.T)


def standard_errors(y, X, Z, fit: RegressionFit) -> np.ndarray:
    """Asymptotic standard errors of (beta, gamma, log_r).

    Observed information at the optimum, from central differences of the
    analytic score, inverted. The score is that of the clipped optimizer
    objectives, so the errors mean little for a fit whose dispersion sits
    at its clip (``|log r| = 15``). Intended for coefficient-recovery
    checks, not full inference.
    """
    y = np.asarray(y)
    X, Z = _design(X), _design(Z)
    info = _observed_information(y, X, Z, fit)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    var = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(var)

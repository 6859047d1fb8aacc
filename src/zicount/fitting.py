"""Maximum-likelihood fitting of ZINB and hurdle-NB regressions.

Both regressions use a log link for the mean and a logit link for the zero
weight. ZINB is maximized jointly over (beta, gamma, log r). The hurdle
likelihood factorizes, so it is fitted as an independent logistic part (zero
indicator) and a zero-truncated NB part (positive counts). One damped Newton
loop on analytic Hessians, :func:`_newton`, fits every model: the ZINB
regression, the hurdle's zero-truncated NB part, every logistic model (the
hurdle's zero part and the start of the ZINB zero part; there it is IRLS)
and the intercept-only HNB and NB fits. The same Hessians give the standard
errors.
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
# Newton (see _newton) stops once g'H^+g, the gradient of the clipped
# objective measured in its inverse Hessian, is at most _NEWTON_TOL per
# observation, or once half of it, the decrease a step still promises, is
# at most the objective's rounding where that is larger. So a one-sided or
# separated zero indicator runs on to the eta clip, while an interior fit
# stops before that decrease sinks below the rounding (~1e-16 n for a
# logistic objective).
_NEWTON_TOL = 1e-14
_NEWTON_MAXITER = 100
_NEWTON_HALVINGS = 30
_EPS = np.finfo(float).eps


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


# Every objective returns (negative log-likelihood, gradient, Hessian). The
# derivatives are those of the clipped objective, so they are 0 in a
# coordinate whose clip is active.


def _clipped(v, bound):
    """``v`` clipped to [-bound, bound], and the clip's derivative (1 or 0)."""
    # np.minimum/np.maximum give np.clip's values at half its call overhead
    return np.minimum(np.maximum(v, -bound), bound), np.abs(v) <= bound


def _clip_log_r(log_r) -> float:
    """log r clipped as the objectives clip it; the stored dispersion is the
    one the objective saw."""
    return min(max(float(log_r), -_LOG_R_CLIP), _LOG_R_CLIP)


def _logistic_negll(gamma, b, Z):
    """Logistic objective of the 0/1 vector ``b`` on Z; its Hessian is
    Z' diag(pi (1 - pi) inside) Z."""
    eta, inside = _clipped(Z @ gamma, _ETA_CLIP)
    pi = expit(eta)
    value = -float((b * eta - np.logaddexp(0.0, eta)).sum())
    grad = -(Z.T @ ((b - pi) * inside))
    return value, grad, (Z.T * (pi * (1.0 - pi) * inside)) @ Z


def _zinb_negll(theta, y, X, Z, log_y_factorial=None, distinct=None):
    """ZINB objective in theta = (beta, gamma, log r). A fit passes
    gammaln(y + 1) as ``log_y_factorial`` and the distinct counts as
    ``distinct`` (see :func:`counts._nb_logpmf`) once."""
    q1 = X.shape[1]
    eta_mu, in_mu = _clipped(X @ theta[:q1], _ETA_CLIP)
    eta_pi, in_pi = _clipped(Z @ theta[q1:-1], _ETA_CLIP)
    log_r, in_r = _clip_log_r(theta[-1]), abs(theta[-1]) <= _LOG_R_CLIP
    rows = _nb_logpmf(y, np.exp(eta_mu), np.exp(log_r), True, False, log_y_factorial, distinct)
    log_nb, d_eta, d_log_r, h_eta, h_cross, h_log_r = rows

    zero = y == 0
    # a zero is structural or an NB zero: log(e^eta_pi + NB(0)) - log(1 + e^eta_pi)
    mix = np.logaddexp(eta_pi, log_nb)
    ll = np.where(zero, mix, log_nb).sum() - np.logaddexp(0.0, eta_pi).sum()
    # the shares of each observation's likelihood that come from the NB
    # component (w) and from the structural zero (1 - w)
    nb_share = np.where(zero, np.exp(log_nb - mix), 1.0)
    zero_share = np.where(zero, np.exp(eta_pi - mix), 0.0)
    pi = expit(eta_pi)
    g_mu = nb_share * d_eta * in_mu
    g_pi = (zero_share - pi) * in_pi
    g_r = (nb_share * d_log_r).sum() * in_r
    grad = -np.concatenate([X.T @ g_mu, Z.T @ g_pi, [g_r]])
    # with a = eta_pi and b = log NB(0), a zero row's log(e^a + e^b) has the
    # second derivatives w(1 - w) in a and in b and -w(1 - w) across; b's
    # own derivatives in (eta_mu, log r) are the kernel's
    spread = nb_share * zero_share
    s_eta, s_log_r = spread * d_eta, spread * d_log_r
    second = (
        (
            (nb_share * h_eta + s_eta * d_eta) * in_mu,
            -s_eta * (in_mu * in_pi),
            (nb_share * h_cross + s_eta * d_log_r) * (in_mu * in_r),
        ),
        (None, (spread - pi * (1.0 - pi)) * in_pi, -s_log_r * (in_pi * in_r)),
        (None, None, (nb_share * h_log_r + s_log_r * d_log_r) * in_r),
    )
    return -float(ll), grad, -_chain_hessian((X, Z), second)


def _chain_hessian(designs, second):
    """The Hessian in theta = (theta_1, ..., theta_k, log r) of a sum over
    rows whose k linear predictors are eta_j = D_j theta_j and which share
    log r, from each row's second derivatives ``second[j][l]`` (j <= l) in
    (eta_1, ..., eta_k, log r): the blocks D_j' diag(h_jl) D_l, where log
    r's design is a column of ones. A clip's derivative is 0 or 1, so each
    h_jl carries the clips of its two coordinates once."""
    k = len(designs)
    edges = [0]
    for design in designs:
        edges.append(edges[-1] + design.shape[1])
    hess = np.empty((edges[-1] + 1, edges[-1] + 1))
    for j in range(k):
        rows, cols = slice(edges[j], edges[j + 1]), designs[j].T
        for l in range(j, k):
            block = (cols * second[j][l]) @ designs[l]
            hess[rows, edges[l] : edges[l + 1]] = block
            hess[edges[l] : edges[l + 1], rows] = block.T
        hess[rows, -1] = hess[-1, rows] = cols @ second[j][k]
    hess[-1, -1] = second[k][k].sum()
    return hess


def _nb_negll(theta, X, y, w, truncated, log_y_factorial=None, distinct=None):
    """NB objective in theta = (beta, log r). Row i has the count y_i, the
    weight w_i (the number of observations it stands for) and the mean
    exp(x_i'beta); ``X`` None is the intercept-only design, one mean
    exp(beta_0) for every row. With ``truncated`` each row is a
    zero-truncated NB. The hurdle regression passes one row per positive
    count and w = 1.0; the intercept-only fits pass the distinct counts and
    how often each occurs. A fit passes gammaln(y + 1) as
    ``log_y_factorial`` and, for the regression shape, the distinct counts
    as ``distinct`` (see :func:`counts._nb_logpmf`) once."""
    log_r, in_r = _clip_log_r(theta[-1]), abs(theta[-1]) <= _LOG_R_CLIP
    if X is not None:
        eta, in_eta = _clipped(X @ theta[:-1], _ETA_CLIP)
        # the clips keep 1 - NB(0) >= ~e^-30, so a truncated log pmf is finite
        rows = _nb_logpmf(y, np.exp(eta), np.exp(log_r), True, truncated, log_y_factorial, distinct)
        log_nb, d_eta, d_log_r = rows[:3]
        g_eta = w * d_eta * in_eta
        grad = -np.concatenate([X.T @ g_eta, [(w * d_log_r).sum() * in_r]])
        h_eta, h_cross, h_log_r = (w * row for row in rows[3:])
        second = ((h_eta * in_eta, h_cross * (in_eta * in_r)), (None, h_log_r * in_r))
        return -float((w * log_nb).sum()), grad, -_chain_hessian((X,), second)
    # one mean for every row, kept a scalar: each sum over rows is a dot
    # product with the weights, and a column of ones would make a call about
    # a fifth dearer
    eta, in_eta = min(max(float(theta[0]), -_ETA_CLIP), _ETA_CLIP), abs(theta[0]) <= _ETA_CLIP
    rows = _nb_logpmf(y, math.exp(eta), math.exp(log_r), True, truncated, log_y_factorial)
    log_nb, d_eta, d_log_r, h_eta, h_cross, h_log_r = (w @ row for row in rows)
    grad = np.array([-d_eta * in_eta, -d_log_r * in_r])
    # a clip's derivative is 0 or 1, so each second derivative takes it once
    # per coordinate
    h_cross = -h_cross * (in_eta and in_r)
    return -float(log_nb), grad, np.array([[-h_eta * in_eta, h_cross], [h_cross, -h_log_r * in_r]])


def _minimize(fun, x0, args, bounds=None, **options):
    """One ``scipy.optimize.minimize`` run of :func:`_newton`, as a custom
    ``method=``, on the objective ``fun`` itself, which returns (value,
    gradient, Hessian); ``bounds`` and ``options`` (``n_obs``, ``size``) go
    to :func:`_newton`. Going through ``minimize`` (public API; about 20 us
    a call) keeps one hookable call per fit, with its ``nfev``, ``nit`` and
    ``callback``.

    Returns (x, negll, converged). Raises InitializationError when the
    objective is not finite at ``x0``, which :func:`_newton` checks on its
    own first evaluation, or at the end (the clips keep it finite on finite
    data).
    """
    res = minimize(fun, x0, args=args, method=_newton, bounds=bounds, options=options)
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
    pair per coordinate) :func:`_step_in_box`'s, and is
    halved until the objective does not rise. The run stops once the
    decrement g's is at most ``_NEWTON_TOL * n_obs`` for an objective over
    ``n_obs`` observations, or once half of it, the decrease the step s
    promises, is at most eps * ``size(x, s)``, the rounding of the change
    along s of an objective whose changing terms' magnitudes sum to
    ``size(x, s)``: below that no step can show a decrease. A step cut at
    the box is tried whatever its decrement, since it ends a walk along a
    ridge towards a bound.

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
        rounding = tol if size is None else max(tol, 2.0 * _EPS * size(x, step))
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
    rounding cutoff (eps * dimension * largest |eigenvalue|): from one
    eigendecomposition, or for two coordinates in closed form, since
    numpy's LAPACK wrappers cost more than the rest of such an iteration.
    """
    if len(grad) == 2:
        return _step_2x2(hess, grad)
    lam, vec = np.linalg.eigh(hess)
    cutoff = len(lam) * _EPS
    if lam[0] < -cutoff * max(-lam[0], lam[-1]):
        lam = lam - 2.0 * lam[0]
    magnitude = np.abs(lam)
    kept = magnitude > cutoff * magnitude.max()
    return vec @ np.where(kept, (vec.T @ grad) / np.where(kept, lam, 1.0), 0.0)


def _step_2x2(hess, grad):
    """:func:`_newton_step` for two coordinates."""
    (a, b), (_, c) = hess.tolist()
    g = grad.tolist()
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
    return np.array([cos * along - sin * across, sin * along + cos * across])


def _step_in_box(x, grad, hess, lo, hi):
    """The Newton step inside the box [lo, hi] (a bound may be infinite),
    and the fraction of it that stays in the box.

    A coordinate on its bound whose descent leads out of the box is held
    (its row, column and gradient are zeroed) and the others take the
    minimum-norm step of :func:`_newton_step`; no coordinate steps out of
    the box from its bound (that component would only slow the descent).
    """
    x, lo, hi = x.tolist(), lo.tolist(), hi.tolist()
    g = grad.tolist()
    held = [i for i in range(len(x)) if (x[i] <= lo[i] and g[i] > 0) or (x[i] >= hi[i] and g[i] < 0)]
    if held:
        hess, grad = hess.copy(), grad.copy()
        hess[held], hess[:, held], grad[held] = 0.0, 0.0, 0.0
    step = _newton_step(hess, grad).tolist()
    for i in held:
        step[i] = 0.0
    cut = 1.0
    for i, (xi, si) in enumerate(zip(x, step)):
        if (xi <= lo[i] and si > 0) or (xi >= hi[i] and si < 0):
            step[i] = 0.0
        elif xi - si < lo[i] or xi - si > hi[i]:
            cut = min(cut, (xi - (lo[i] if si > 0 else hi[i])) / si)
    return np.array(step), cut


def _fit_logistic(b, Z):
    """Logistic regression of the 0/1 vector ``b`` on Z by :func:`_newton`
    (IRLS) from gamma = 0 on the clipped objective.

    Returns (gamma, negll, converged); converged is False when the budget
    ran out or no halving of a step kept the objective from rising. Raises
    InitializationError when the objective is not finite at the start, as
    :func:`_minimize` does.
    """
    res = _newton(_logistic_negll, np.zeros(Z.shape[1]), (b, Z), n_obs=len(b))
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


def _rounding_size(n, log_y_factorial_sum):
    """``size`` for :func:`_newton` on an NB objective over ``n``
    observations whose log y! sum to ``log_y_factorial_sum``. Its largest
    terms are the log-gammas that cancel in each log pmf, log y! for large
    counts and log Gamma(r) as log r -> 15, so eps times this sum is about
    the objective's rounding. A step that holds log r (the last
    coordinate) leaves the bits of log Gamma(y + r) - log Gamma(r) as they
    are, so along it that term rounds to nothing; this lets a ridge walk in
    the zero model with r at its clip run on to the eta clip."""
    magnitude = n + log_y_factorial_sum

    def size(theta, step):
        if step[-1] == 0.0:
            return magnitude
        return magnitude + n * abs(math.lgamma(math.exp(_clip_log_r(theta[-1]))))

    return size


def _counts_constants(y, dim):
    """A regression fit's constants of the counts ``y``: the objective's
    trailing arguments (gammaln(y + 1) and the distinct counts) and
    :func:`_newton`'s options (log r kept inside its clip, the rounding
    tolerance) for ``dim`` parameters. The objective's designs
    are passed in Fortran order: its Hessian reads their columns."""
    log_y_factorial = gammaln(y + 1)
    bounds = np.full((dim, 2), (-np.inf, np.inf))
    bounds[-1] = (-_LOG_R_CLIP, _LOG_R_CLIP)
    options = dict(bounds=bounds, n_obs=len(y), size=_rounding_size(len(y), log_y_factorial.sum()))
    return (log_y_factorial, np.unique(y, return_inverse=True)), options


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
        yf = y.astype(float)
        args, options = _counts_constants(yf, q1 + q2 + 1)
        x, _, ok = _minimize(_zinb_negll, theta0, (yf, np.asfortranarray(X), np.asfortranarray(Z), *args), **options)
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
        args, options = _counts_constants(yp, q1 + 1)
        x, _, ok = _minimize(_nb_negll, theta0, (np.asfortranarray(X[pos]), yp, 1.0, True, *args), **options)
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
    size = _rounding_size(n_fit, counts @ log_y_factorial)
    args = (None, values, counts, truncated, log_y_factorial)
    x, negll, ok = _minimize(_nb_negll, theta0, args, bounds=_INTERCEPT_BOX, n_obs=n_fit, size=size)
    if flavor is Flavor.NB:
        coef = RegressionCoefficients(beta=x[:1], gamma=np.empty(0), log_r=_clip_log_r(x[-1]))
        return _result(coef, -negll, flavor, ok, n)
    n_zero = n - n_fit
    # keep the logit finite when the sample has no zeros
    pi_hat = _zero_share(n_zero, n)
    coef = RegressionCoefficients(beta=x[:1], gamma=[logit(pi_hat)], log_r=_clip_log_r(x[-1]))
    return _result(coef, n_zero * np.log(pi_hat) + n_fit * np.log1p(-pi_hat) - negll, flavor, ok, n)


def _observed_information(y, X, Z, fit: RegressionFit) -> np.ndarray:
    """Minus the Hessian of the log-likelihood in (beta, gamma, log_r): the
    optimizer objectives' analytic Hessian at the fit."""
    coef = fit.coefficients
    if fit.flavor is Flavor.ZINB:
        theta = np.concatenate([coef.beta, coef.gamma, [coef.log_r]])
        return _zinb_negll(theta, y.astype(float), X, Z)[2]
    # the hurdle likelihood factorizes: the logistic part informs gamma, the
    # zero-truncated NB part (beta, log r)
    q1, q2 = X.shape[1], coef.gamma.size
    pos = y > 0
    nb = np.r_[0:q1, q1 + q2]
    info = np.zeros((q1 + q2 + 1, q1 + q2 + 1))
    theta = np.append(coef.beta, coef.log_r)
    info[np.ix_(nb, nb)] = _nb_negll(theta, X[pos], y[pos].astype(float), 1.0, True)[2]
    info[q1 : q1 + q2, q1 : q1 + q2] = _logistic_negll(coef.gamma, (y == 0).astype(float), X)[2]
    return info


def standard_errors(y, X, Z, fit: RegressionFit) -> np.ndarray:
    """Asymptotic standard errors of (beta, gamma, log_r).

    Observed information at the optimum, from the analytic Hessian,
    inverted. The Hessian is that of the clipped optimizer objectives, so
    the errors mean little for a fit whose dispersion sits at its clip
    (``|log r| = 15``). Intended for coefficient-recovery checks, not full
    inference.
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

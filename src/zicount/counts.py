"""Negative binomial, zero-inflated NB, and hurdle NB marginals.

Probability mass functions are evaluated in log space with log-gamma and
only exponentiated at the boundary, so small dispersion values and large
counts stay finite. Samplers are exact and deterministic given a seed.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import digamma, gammaln, zeta
from scipy.special._ufuncs import _nbinom_isf

from .exceptions import CountOverflowError, DegenerateTruncationError, InvalidParameterError

__all__ = [
    "Flavor",
    "CountParams",
    "nb_log_pmf",
    "nb_pmf",
    "zinb_pmf",
    "hnb_pmf",
    "sample_count",
]


class Flavor(Enum):
    """Marginal family: plain NB, zero-inflated NB, or hurdle NB."""

    NB = "nb"
    ZINB = "zinb"
    HNB = "hnb"


@dataclass(frozen=True)
class CountParams:
    """Parameters of one count marginal.

    Parameters
    ----------
    mu : float
        Mean of the NB component, > 0.
    r : float
        Dispersion, > 0 (smaller means heavier overdispersion).
    pi : float
        Zero weight in [0, 1]: extra-zero probability for ZINB, hurdle
        probability for HNB. Unused for NB and stored as 0.
    flavor : Flavor
    """

    mu: float
    r: float
    pi: float = 0.0
    flavor: Flavor = Flavor.NB

    def __post_init__(self):
        mu, r, pi = float(self.mu), float(self.r), float(self.pi)
        if not (np.isfinite(mu) and mu > 0):
            raise InvalidParameterError(f"mu must be finite and > 0, got {self.mu}")
        if not (np.isfinite(r) and r > 0):
            raise InvalidParameterError(f"r must be finite and > 0, got {self.r}")
        if self.flavor is Flavor.NB:
            pi = 0.0
        elif not (np.isfinite(pi) and 0.0 <= pi <= 1.0):
            raise InvalidParameterError(f"pi must lie in [0, 1], got {self.pi}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "pi", pi)


def _count_errors(values):
    """The one rule for what a count is: finite, nonnegative and whole, as
    (description, mask) pairs over ``values``; a bad value takes the
    description of the first mask that holds there. The CSV reader and
    :func:`_check_counts`, every other entry point's check, apply it."""
    return (
        ("negative or non-finite cell", ~np.isfinite(values) | (values < 0)),
        ("non-integer count", values != np.floor(values)),
    )


def _check_counts(y) -> np.ndarray:
    """``y`` as an array; InvalidParameterError, naming a value that breaks
    the rule of :func:`_count_errors`, if any does."""
    y = np.asarray(y)
    for _, mask in _count_errors(y):
        if mask.any():
            raise InvalidParameterError(f"counts must be nonnegative, finite and whole; got {y.flat[np.argmax(mask)]}")
    return y


def _zero_share(n_zero, n):
    """The zero fraction ``n_zero / n`` clamped to [1/(4n), 1 - 1/(4n)], so a
    sample with no zeros, or nothing but zeros, keeps a finite logit or
    Gaussian quantile."""
    lo = 1.0 / (4.0 * n)
    return np.clip(n_zero / n, lo, 1.0 - lo)


def _log_nb_zero(mu, r):
    """log NB(0; mu, r) = -r*log(1 + mu/r), via log1p so the mu -> 0 limit is exact."""
    return -r * np.log1p(np.asarray(mu, dtype=float) / r)


def _nb_positive(log_p0):
    """1 - NB(0) from log NB(0), to full relative precision as NB(0) -> 1."""
    return -np.expm1(log_p0)


def _nb_logpmf(y, mu, r, derivatives=False, truncated=False, log_y_factorial=None, distinct=None):
    """log NB(y; mu, r), vectorized over y, mu and r; with ``truncated`` the
    zero-truncated NB, log NB(y) - log(1 - NB(0)).

    With ``derivatives=True`` it returns ``(logpmf, d_eta, d_log_r,
    h_eta_eta, h_eta_log_r, h_log_r_log_r)``: the log pmf and its first and
    second derivatives in eta = log mu and log r. Every fitting objective
    and likelihood is built from this one kernel. ``log_y_factorial`` is
    gammaln(y + 1) when the caller holds it: a fit's counts do not change
    between calls. For a scalar ``r``, ``distinct`` is (values, index) with
    y = values[index]; the special functions of y + r (log-gamma, digamma
    and the trigamma, dearer than the rest of a call) are then evaluated
    once per distinct count, with the same bits as row by row.
    """
    y = np.asarray(y, dtype=float)
    log_p0 = _log_nb_zero(mu, r)
    mu_r = mu + r
    with np.errstate(divide="ignore", invalid="ignore"):
        count_term = y * (np.log(mu) - np.log(mu_r))
    # y = 0 contributes nothing, even where mu underflowed to 0; a
    # zero-truncated pmf is read at positive counts only
    if not truncated:
        count_term = np.where(y == 0, 0.0, count_term)
    y_r = y + r

    def at_y_r(f):
        return f(y_r) if distinct is None else f(distinct[0] + r)[distinct[1]]

    if log_y_factorial is None:
        log_y_factorial = gammaln(y + 1)
    logpmf = at_y_r(gammaln) - gammaln(r) - log_y_factorial + count_term + log_p0
    if truncated:
        log_pos = np.log(_nb_positive(log_p0))
        logpmf = logpmf - log_pos
    if not derivatives:
        return logpmf
    d_eta = r * (y - mu) / mu_r
    # r*[psi(y+r) - psi(r) - (y - mu)/(mu + r) - log1p(mu/r)]
    r_psi = r * (at_y_r(digamma) - digamma(r))
    d_log_r = r_psi - d_eta + log_p0
    # log NB(0) has the derivatives -r*mu/(mu + r) in eta and
    # log NB(0) + r*mu/(mu + r) in log r
    d0_eta = -r * mu / mu_r
    d0_log_r = log_p0 - d0_eta
    # the terms that do not depend on y are kept apart and added once at the
    # end: they are scalars for the intercept-only fits' one mu and r
    h_eta_eta = d0_eta / mu_r * y_r
    h_eta_log_r = mu / mu_r * d_eta
    # zeta(2, x) is the trigamma function psi'(x)
    h_log_r_log_r = r_psi - h_eta_log_r + r * r * at_y_r(lambda v: zeta(2, v))
    c_eta_eta, c_eta_log_r, c_log_r_log_r = 0.0, 0.0, d0_log_r - r * r * zeta(2, r)
    if truncated:
        # d[-log(1 - NB(0))] = NB(0)/(1 - NB(0)) * d log NB(0)
        odds0 = np.exp(log_p0 - log_pos)
        d_eta = d_eta + odds0 * d0_eta
        d_log_r = d_log_r + odds0 * d0_log_r
        # odds0 has the derivative odds0*(1 + odds0) in log NB(0), whose
        # second derivatives are -r^2*mu/(mu + r)^2 in eta, -r*mu^2/(mu + r)^2
        # across and d0_log_r + r*mu^2/(mu + r)^2 in log r
        slope = odds0 * (1.0 + odds0)
        cross0 = d0_eta * mu / mu_r
        c_eta_eta = odds0 * d0_eta * r / mu_r + slope * d0_eta * d0_eta
        c_eta_log_r = odds0 * cross0 + slope * d0_eta * d0_log_r
        c_log_r_log_r = c_log_r_log_r + odds0 * (d0_log_r - cross0) + slope * d0_log_r * d0_log_r
    return logpmf, d_eta, d_log_r, h_eta_eta + c_eta_eta, h_eta_log_r + c_eta_log_r, h_log_r_log_r + c_log_r_log_r


def nb_log_pmf(y, params: CountParams):
    """Log pmf of the negative binomial with mean ``mu`` and dispersion ``r``.

    ``y`` may be a scalar or array of counts; every pmf raises
    InvalidParameterError for a NaN, infinite, negative or fractional one.
    """
    if params.flavor is not Flavor.NB:
        raise InvalidParameterError("nb_log_pmf requires flavor NB")
    y = _check_counts(y)
    out = _nb_logpmf(y, params.mu, params.r)
    return float(out) if y.ndim == 0 else out


def nb_pmf(y, params: CountParams):
    """NB pmf; thin exponentiation of :func:`nb_log_pmf`."""
    return np.exp(nb_log_pmf(y, params))


def zinb_pmf(y, params: CountParams):
    """Zero-inflated NB pmf.

    P(0) = pi + (1-pi)*NB(0); P(y) = (1-pi)*NB(y) for y > 0.
    """
    if params.flavor is not Flavor.ZINB:
        raise InvalidParameterError("zinb_pmf requires flavor ZINB")
    y = _check_counts(y)
    pi = params.pi
    base = np.exp(_nb_logpmf(y, params.mu, params.r))
    out = np.where(y == 0, pi + (1.0 - pi) * base, (1.0 - pi) * base)
    return float(out) if y.ndim == 0 else out


def hnb_pmf(y, params: CountParams):
    """Hurdle NB pmf.

    P(0) = pi exactly; P(y) = (1-pi)*NB(y)/(1-NB(0)) for y > 0, i.e. the
    zero-truncated NB reweighted by the continuation probability. The zero
    weight may sit below NB(0), which is how zero deflation is expressed.
    """
    if params.flavor is not Flavor.HNB:
        raise InvalidParameterError("hnb_pmf requires flavor HNB")
    y = _check_counts(y)
    pi = params.pi
    if np.any(y > 0):
        denom = _nb_positive(_log_nb_zero(params.mu, params.r))
        if denom <= 0.0:
            raise DegenerateTruncationError(f"1 - NB(0) underflowed for mu={params.mu}, r={params.r}")
        positive = (1.0 - pi) * np.exp(_nb_logpmf(y, params.mu, params.r)) / denom
    else:
        positive = np.zeros_like(y, dtype=float)
    out = np.where(y == 0, pi, positive)
    return float(out) if y.ndim == 0 else out


def _sample_nb(rng: np.random.Generator, mu, r):
    """NB draws; mu may be scalar or per-draw vector."""
    mu = np.asarray(mu, dtype=float)
    return rng.negative_binomial(r, r / (r + mu), size=mu.shape)


def _sample_zero_truncated_nb(rng: np.random.Generator, mu, r):
    """Zero-truncated NB draws: one inverse CDF on the survival side.

    Each entry takes one uniform v on (0, 1 - NB(0)] and returns the NB
    survival quantile at v, the least k with P(X > k) <= v. So a draw is
    >= k with probability P(X >= k) / (1 - NB(0)) for every k >= 1, which
    is the zero-truncated law. Working in the upper tail keeps 1 - NB(0)
    to full relative precision as NB(0) -> 1, and the cost is one quantile
    per draw at any r. A uniform of exactly 0 gives v = 1 - NB(0) and
    k = 0, which is clamped to 1; a draw beyond int64 raises
    :class:`CountOverflowError`.

    The quantile is scipy's ``_nbinom_isf`` ufunc, the one that
    ``scipy.stats.nbinom.isf`` calls, under the same ``over="ignore"``
    (scipy gh-17432); its bits are therefore those of ``nbinom.isf``. The
    wrapper's other work never matters here: its argument checks always
    pass; at v = 1 it returns -1 where the ufunc returns 0, and the clamp
    turns both into 1; at v = 0 it returns inf where the ufunc raises
    ``OverflowError``, but v = (1 - NB(0)) * (1 - u) > 0 always. Calling
    the ufunc keeps ``scipy.stats`` out of ``import zicount``.
    """
    mu = np.asarray(mu, dtype=float)
    p_pos = _nb_positive(_log_nb_zero(mu, r))
    if np.any(p_pos <= 0.0):
        raise DegenerateTruncationError("1 - NB(0) underflowed; truncated NB undefined")
    with np.errstate(over="ignore"):
        y = _nbinom_isf(p_pos * (1.0 - rng.random(mu.shape)), r, r / (r + mu))
    if not np.all(y < 2.0**63):
        raise CountOverflowError(f"zero-truncated NB draw {np.max(y):.3g} exceeds int64 (r={r})")
    return np.maximum(y, 1).astype(np.int64)


def _finite_means(mu) -> np.ndarray:
    """``mu`` as a float array; CountOverflowError, naming a mean that is
    not finite, if any is: its draws would not fit in int64."""
    mu = np.asarray(mu, dtype=float)
    finite = np.isfinite(mu)
    if not finite.all():
        raise CountOverflowError(f"NB mean {mu.flat[np.argmin(finite)]} is not finite; its draws exceed int64")
    return mu


def _sample_zinb(rng: np.random.Generator, mu, r, pi):
    mu = _finite_means(mu)
    y = _sample_nb(rng, mu, r)
    if np.any(np.asarray(pi) > 0):
        y = np.where(rng.random(mu.shape) < pi, 0, y)
    return y


def _sample_hnb(rng: np.random.Generator, mu, r, pi):
    mu = _finite_means(mu)
    at_zero = rng.random(mu.shape) < pi
    y = np.zeros(mu.shape, dtype=np.int64)
    if not at_zero.all():
        y[~at_zero] = _sample_zero_truncated_nb(rng, mu[~at_zero], r)
    return y


def sample_count(n: int, params: CountParams, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. values from the flavored distribution.

    Deterministic given ``seed``; HNB positives come from the
    zero-truncated NB so ``pi`` is the exact zero probability.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    mu = np.full(n, params.mu)
    if params.flavor is Flavor.NB:
        return _sample_nb(rng, mu, params.r)
    if params.flavor is Flavor.ZINB:
        return _sample_zinb(rng, mu, params.r, params.pi)
    return _sample_hnb(rng, mu, params.r, params.pi)

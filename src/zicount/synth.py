"""Synthetic population generators for the benchmark scenarios.

Three scenario families are covered: a univariate regression comparison
(with a zero-deflation sweep variant), a multivariate hurdle-NB population
driven by correlated Gaussian covariates, and a truncated-copula
population built on empirical marginals taken from a source count table.
"""

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np
from scipy.special import expit, logit

from .copula import LatentCopulaModel, sample_mvn, sample_tlnpn
from .counts import Flavor, _log_nb_zero, _sample_hnb, _sample_zinb
from .exceptions import SelectionError

__all__ = [
    "CorrKind",
    "CorrelationSpec",
    "Setting",
    "SettingConfig",
    "LATENT_DIM",
    "scenario_config",
    "ar_correlation",
    "gd_covariance",
    "random_orthogonal",
    "gen_setting_one",
    "resolve_setting_one_gamma0",
    "gen_setting_two",
    "gen_setting_three",
    "select_columns_by_zero_fraction",
]


class CorrKind(Enum):
    AR = "AR"
    GD = "GD"


@dataclass(frozen=True)
class CorrelationSpec:
    """Dependence structure for covariates or latent variables.

    AR: entries rho^|j-j'| (|rho| < 1). GD: covariance with geometrically
    decaying eigenvalues summing to 5 (0 < rho < 1) in a Haar-random
    orthogonal eigenbasis drawn from ``orthogonal_seed``.
    """

    kind: CorrKind
    rho: float
    p: int
    orthogonal_seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.kind is CorrKind.AR and not abs(self.rho) < 1.0:
            raise ValueError("AR requires |rho| < 1")
        if self.kind is CorrKind.GD and not 0.0 < self.rho < 1.0:
            raise ValueError("GD requires 0 < rho < 1")


class Setting(Enum):
    ONE = "one"
    ONE_DEFLATION = "one-deflation"
    TWO = "two"
    THREE = "three"


@dataclass(frozen=True)
class SettingConfig:
    """Parameters of one scenario cell. A scenario reads only its fields in
    ``_READS``, each of them set; every other field keeps its default.

    ``marginal_source`` (scenario three) is an n x p count matrix whose
    empirical distributions seed the copula population; ``zero_target``
    is the requested per-column zero proportion used to pick source
    columns.
    """

    setting: Setting
    n: int
    p: int = 1
    beta0: float = 0.0
    beta1: float = 0.0
    gamma0: float = 0.0
    gamma1: float = 0.0
    r: float = 1.0
    corr: Optional[CorrelationSpec] = None
    flavor: Flavor = Flavor.HNB
    zero_target: Optional[float] = None
    transform: str = "none"
    marginal_source: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        reads = ("setting",) + _READS[self.setting]
        unread = [f.name for f in fields(self) if f.name not in reads and not _is_default(self, f)]
        if unread:
            raise ValueError(f"scenario {self.setting.value} does not read {unread}")
        missing = [key for key in reads if getattr(self, key) is None]
        if missing:
            raise ValueError(f"scenario {self.setting.value} needs {missing}")
        if self.n <= 0 or self.p <= 0 or self.r <= 0:
            raise ValueError("n, p and r must be positive")
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"transform must be one of {_TRANSFORMS}")
        if self.corr is not None and self.corr.p != self.p:
            raise ValueError(f"p = {self.p} but the CorrelationSpec has p = {self.corr.p}")


def _is_default(config: SettingConfig, f) -> bool:
    value = getattr(config, f.name)  # a count matrix does not compare to None with ==
    return value is f.default or (f.default is not None and value == f.default)


# the variables of the multivariate scenarios (two and three)
LATENT_DIM = 5
# scenario three's transforms of its source table
_TRANSFORMS = ("none", "sqrt")

# the SettingConfig fields that each scenario's generator reads
_UNIVARIATE = ("n", "beta0", "beta1", "gamma0", "gamma1", "r", "flavor")
_READS = {
    Setting.ONE: _UNIVARIATE,
    Setting.ONE_DEFLATION: _UNIVARIATE,
    Setting.TWO: ("n", "p", "beta0", "beta1", "gamma0", "gamma1", "r", "corr"),
    Setting.THREE: ("n", "p", "corr", "zero_target", "transform", "marginal_source"),
}

# the paper's value of each read field that a scenario fixes; a read field
# that is not here (a grid value) takes the SettingConfig default
_CONSTANTS = {
    Setting.ONE: dict(n=500, beta0=float(np.log(12.0)), beta1=2.0, gamma1=2.0, r=0.5),
    Setting.ONE_DEFLATION: dict(n=700, beta0=float(np.log(6.0 / 7.0)), beta1=0.1, gamma1=0.0, r=2.0, flavor=Flavor.HNB),
    Setting.TWO: dict(n=1200, p=LATENT_DIM, beta0=2.75, r=6.0),
    Setting.THREE: dict(n=1200, p=LATENT_DIM, zero_target=0.5),
}


def scenario_config(setting: Setting, **params) -> SettingConfig:
    """One ``setting`` cell: an omitted or None parameter takes the
    scenario's constant, or else the field default."""
    given = {key: value for key, value in params.items() if value is not None}
    return SettingConfig(setting=setting, **{**_CONSTANTS[setting], **given})


def setting_one_config(flavor: Flavor, gamma0: float, **overrides) -> SettingConfig:
    """A univariate comparison cell with the scenario's constants."""
    return scenario_config(Setting.ONE, flavor=flavor, gamma0=gamma0, **overrides)


def setting_one_deflation_config(gamma0: float, **overrides) -> SettingConfig:
    """A deflation sweep cell with the scenario's constants."""
    return scenario_config(Setting.ONE_DEFLATION, gamma0=gamma0, **overrides)


def setting_two_config(corr: CorrelationSpec, beta1: float, gamma0: float, gamma1: float, **overrides) -> SettingConfig:
    """A multivariate hurdle population cell with the scenario's constants and p = corr.p."""
    return scenario_config(Setting.TWO, corr=corr, beta1=beta1, gamma0=gamma0, gamma1=gamma1, **{"p": corr.p, **overrides})


def ar_correlation(spec: CorrelationSpec) -> np.ndarray:
    """AR correlation matrix: entry (j, j') = rho^|j-j'|."""
    if spec.kind is not CorrKind.AR:
        raise ValueError("spec.kind must be AR")
    idx = np.arange(spec.p)
    return spec.rho ** np.abs(idx[:, None] - idx[None, :])


def gd_covariance(spec: CorrelationSpec) -> np.ndarray:
    """Covariance with geometrically decaying eigenvalues that sum to 5."""
    if spec.kind is not CorrKind.GD:
        raise ValueError("spec.kind must be GD")
    j = np.arange(1, spec.p + 1)
    nu = 5.0 * (spec.rho ** (j - 1) - spec.rho**j) / (1.0 - spec.rho**spec.p)
    gamma = random_orthogonal(spec.p, spec.orthogonal_seed)
    return (gamma * nu) @ gamma.T


def realize_covariance(spec: CorrelationSpec) -> np.ndarray:
    """The covariance a spec describes (AR is already a correlation)."""
    return ar_correlation(spec) if spec.kind is CorrKind.AR else gd_covariance(spec)


def realize_correlation(spec: CorrelationSpec) -> np.ndarray:
    """Correlation version of :func:`realize_covariance` (GD gets rescaled);
    latent copula populations need unit variances."""
    cov = realize_covariance(spec)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def random_orthogonal(p: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-corrected QR."""
    if p < 1:
        raise ValueError("p must be positive")
    rng = np.random.default_rng(seed)
    q, rmat = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(rmat))


def gen_setting_one(config: SettingConfig, seed: int):
    """One covariate, one response: ln mu = b0 + b1 x, logit pi = g0 + g1 x.

    Returns (y, x).
    """
    if config.setting not in (Setting.ONE, Setting.ONE_DEFLATION):
        raise ValueError("config is not a univariate scenario")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(config.n)
    mu = np.exp(config.beta0 + config.beta1 * x)
    pi = expit(config.gamma0 + config.gamma1 * x)
    if config.flavor is Flavor.ZINB:
        y = _sample_zinb(rng, mu, config.r, pi)
    elif config.flavor is Flavor.HNB:
        y = _sample_hnb(rng, mu, config.r, pi)
    else:
        raise ValueError("setting one uses ZINB or HNB")
    return y, x


_CALIBRATION_DRAWS = 100_000
# gamma0 is searched in [-_CALIBRATION_BOUND, _CALIBRATION_BOUND]; the
# search stops once a step moves it by at most _CALIBRATION_XTOL * max(1, |gamma0|)
_CALIBRATION_BOUND = 40.0
_CALIBRATION_XTOL = 1e-12
_CALIBRATION_MAXITER = 100


def resolve_setting_one_gamma0(config: SettingConfig, target_zero: float, seed: int):
    """gamma0 whose Monte Carlo mean zero probability equals ``target_zero``.

    The mean runs over 1e5 covariate draws (common random numbers), so the
    root is found on a smooth deterministic curve. An HNB zero is always
    structural: its target is met by E[pi(x)]. A ZINB target is met by the
    total zero probability E[pi + (1 - pi) NB(0)], unless it lies at or
    below that curve's value at gamma0 = -40 (the NB zero floor); then by
    E[pi(x)]. On E[pi(x)] with gamma1 = 0 the answer is the exact logit.

    The curve rises in gamma0, so the root comes from a safeguarded Newton
    search on [-40, 40]: a step that leaves the bracket of the root is
    replaced by bisection.

    Returns (gamma0, mode), mode "structural" for a ZINB target below the
    floor and "total" otherwise.
    """
    if not 0.0 < target_zero < 1.0:
        raise ValueError("target_zero must lie in (0, 1)")
    x = np.random.default_rng(seed).standard_normal(_CALIBRATION_DRAWS)
    nb0 = np.exp(_log_nb_zero(np.exp(config.beta0 + config.beta1 * x), config.r))
    nb0_mean = float(nb0.mean())
    exp_slope = np.exp(-config.gamma1 * x)

    def zero_prob(gamma0, structural: bool):
        """The curve at gamma0 and its derivative E[pi (1 - pi) w], with
        w = 1 - NB(0) on the total curve and w = 1 on E[pi]."""
        # e^-gamma0 * e^(-gamma1 x) may overflow to inf, where pi = 0 is the limit
        with np.errstate(over="ignore"):
            pi = 1.0 / (1.0 + np.exp(-gamma0) * exp_slope)
        pi_w = pi if structural else pi * (1.0 - nb0)
        level = float(pi_w.mean()) + (0.0 if structural else nb0_mean)
        return level, float((pi_w * (1.0 - pi)).mean())

    below_floor = config.flavor is Flavor.ZINB and target_zero <= zero_prob(-_CALIBRATION_BOUND, False)[0]
    mode = "structural" if below_floor else "total"
    structural = below_floor or config.flavor is Flavor.HNB
    if structural and config.gamma1 == 0.0:
        return float(logit(target_zero)), mode
    # the exact root when gamma1 = 0, given E[pi (1 - NB(0))] = pi (1 - mean NB(0))
    start = target_zero if structural else (target_zero - nb0_mean) / (1.0 - nb0_mean)
    lo, hi = -_CALIBRATION_BOUND, _CALIBRATION_BOUND
    gamma0 = float(np.clip(logit(start), lo, hi))
    for _ in range(_CALIBRATION_MAXITER):
        level, slope = zero_prob(gamma0, structural)
        gap = level - target_zero
        if gap == 0.0:
            break
        if gap < 0.0:
            lo = gamma0
        else:
            hi = gamma0
        newton = gamma0 - gap / slope if slope > 0.0 else np.nan
        if not lo < newton < hi:  # also when the step is NaN
            newton = 0.5 * (lo + hi)
        done = abs(newton - gamma0) <= _CALIBRATION_XTOL * max(1.0, abs(gamma0))
        gamma0 = newton
        if done:
            break
    return float(gamma0), mode


def gen_setting_two(config: SettingConfig, seed: int):
    """Correlated covariates, independent hurdle-NB responses per column.

    Covariate rows are N(0, Sigma) with Sigma from the correlation spec;
    column j uses ln mu_ij = b0 + b1 x_ij, logit pi_ij = g0 + g1 x_ij.
    Returns (Y, X).
    """
    if config.setting is not Setting.TWO:
        raise ValueError("config is not scenario two")
    ss = np.random.SeedSequence([int(seed), 2])
    seed_x, seed_y = ss.spawn(2)
    X = sample_mvn(config.n, realize_covariance(config.corr), seed_x)
    rng = np.random.default_rng(seed_y)
    Y = np.empty((config.n, config.p), dtype=np.int64)
    for j in range(config.p):
        mu = np.exp(config.beta0 + config.beta1 * X[:, j])
        pi = expit(config.gamma0 + config.gamma1 * X[:, j])
        Y[:, j] = _sample_hnb(rng, mu, config.r, pi)
    return Y, X


def select_columns_by_zero_fraction(values: np.ndarray, targets) -> np.ndarray:
    """Indices of the columns whose zero fractions sit nearest the targets.

    Greedy in target order; ties broken by column order. Raises when there
    are fewer columns than targets.
    """
    values = np.asarray(values)
    targets = np.asarray(targets, dtype=float)
    if values.shape[1] < len(targets):
        raise SelectionError(f"need {len(targets)} columns, source has {values.shape[1]}")
    zf = np.mean(values == 0, axis=0)
    chosen = []
    available = np.ones(values.shape[1], dtype=bool)
    for t in targets:
        gaps = np.where(available, np.abs(zf - t), np.inf)
        pick = int(np.argmin(gaps))  # argmin takes the first, i.e. lowest index
        chosen.append(pick)
        available[pick] = False
    return np.asarray(chosen)


def gen_setting_three(config: SettingConfig, seed: int) -> np.ndarray:
    """Truncated-copula population built on empirical source marginals.

    The (optionally sqrt-and-round transformed) source columns closest to
    ``zero_target`` provide the marginals of a TLNPN model with the spec's
    latent correlation, which :func:`~zicount.copula.sample_tlnpn` draws.
    """
    if config.setting is not Setting.THREE:
        raise ValueError("config is not scenario three")
    source = np.asarray(config.marginal_source, dtype=float)
    if config.transform == "sqrt":
        source = np.round(np.sqrt(source))
    targets = np.full(config.p, config.zero_target)
    chosen = source[:, select_columns_by_zero_fraction(source, targets)]
    model = LatentCopulaModel(
        sigma_hat=realize_correlation(config.corr),
        marginals=tuple(np.sort(chosen[:, j]) for j in range(config.p)),
    )
    return sample_tlnpn(model, config.n, seed)

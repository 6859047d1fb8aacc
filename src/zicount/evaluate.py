"""Goodness-of-fit machinery: Wasserstein distances, AMC, cross-validation.

The sample Wasserstein distance between two equally sized point clouds is
the exact optimum of a linear assignment problem (Euclidean ground
metric). Model comparison uses the arithmetic mean change (AMC) of the
hurdle-model distance against the copula-model distance: negative values
mean the copula model fit better.

k-fold CV (one split of k folds) and repeated random splits (one held-out
fold per split) share one fit/score loop and one AMC rule: for each split
and hurdle model, the AMC compares the mean distances of that model and
of the copula model over the folds of the split where both fitted. A
split where they share no fold adds no value; a pair with no value has
no AMC key.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import expit

from .copula import _QMC_POINTS, LatentCopulaModel, fit_tlnpn, sample_tlnpn
from .counts import Flavor, _sample_hnb
from .exceptions import ShapeError, UndefinedComparisonError, ZicountError
from .fitting import fit_intercept_only, fit_regression

__all__ = [
    "wasserstein_1d",
    "wasserstein_pd",
    "amc",
    "HurdleModel",
    "TlnpnModel",
    "make_model",
    "EvalRecord",
    "EvalReport",
    "kfold_cv",
    "random_split_eval",
]


def _check_order(order):
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")


def wasserstein_1d(x, y, order: int = 1) -> float:
    """Order-1 or order-2 Wasserstein distance between equal-size samples.

    Sorting both samples realizes the optimal one-dimensional coupling.
    """
    _check_order(order)
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    diffs = np.abs(x - y)
    return float(np.mean(diffs**order) ** (1.0 / order))


def wasserstein_pd(X, Y, order: int = 1) -> float:
    """Exact sample Wasserstein distance between n x p point clouds.

    Minimizes the mean order-th power of Euclidean distances over row
    permutations (solved as a linear assignment problem) and takes the
    1/order root. ``scipy.optimize`` and ``scipy.spatial`` are imported
    here, so only a run that compares point clouds pays for them.
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    _check_order(order)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape != Y.shape:
        raise ShapeError(f"shape mismatch: {X.shape} vs {Y.shape}")
    cost = cdist(X, Y)
    if order == 2:
        cost = cost**2
    rows, cols = linear_sum_assignment(cost)
    return float(np.mean(cost[rows, cols]) ** (1.0 / order))


def amc(omega_hnb: float, omega_tlnpn: float) -> float:
    """Arithmetic mean change of two nonnegative distances.

    (omega_tlnpn - omega_hnb) / ((omega_tlnpn + omega_hnb) / 2); negative
    means the copula model produced the smaller distance.
    """
    if omega_hnb < 0 or omega_tlnpn < 0:
        raise ValueError("distances must be nonnegative")
    if omega_hnb == 0.0 and omega_tlnpn == 0.0:
        raise UndefinedComparisonError("AMC undefined when both distances are zero")
    return float((omega_tlnpn - omega_hnb) / ((omega_tlnpn + omega_hnb) / 2.0))


# ---------------------------------------------------------------------------
# model adapters


@dataclass(frozen=True)
class _FittedHurdle:
    fits: tuple
    use_covariates: bool

    def simulate(self, n: int, seed, X=None) -> np.ndarray:
        if self.use_covariates:
            if X is None:
                raise ValueError("covariate-based simulation needs X")
            if len(X) != n:
                raise ShapeError("X must have n rows")
        rng = np.random.default_rng(seed)
        p = len(self.fits)
        out = np.empty((n, p), dtype=np.int64)
        for j, fit in enumerate(self.fits):
            coef = fit.coefficients
            if self.use_covariates:
                design = np.column_stack([np.ones(n), X[:, j]])
            else:
                design = np.ones((n, 1))
            mu = np.exp(design @ coef.beta)
            pi = expit(design @ coef.gamma)
            out[:, j] = _sample_hnb(rng, mu, coef.r, pi)
        return out


@dataclass(frozen=True)
class _FittedTlnpn:
    model: LatentCopulaModel

    def simulate(self, n: int, seed, X=None) -> np.ndarray:
        return sample_tlnpn(self.model, n, seed)


class HurdleModel:
    """Per-column hurdle-NB model; optionally regressed on one covariate
    per column (column j of the covariate matrix)."""

    def __init__(self, use_covariates: bool = False):
        self.use_covariates = use_covariates

    @property
    def name(self) -> str:
        return "hnb_cv" if self.use_covariates else "hnb"

    @property
    def requires_covariates(self) -> bool:
        return self.use_covariates

    def fit(self, Y, X=None) -> _FittedHurdle:
        Y = np.asarray(Y)
        if self.use_covariates:
            if X is None:
                raise ValueError(f"model {self.name} needs covariates")
            fits = tuple(
                fit_regression(
                    Y[:, j],
                    np.column_stack([np.ones(len(Y)), np.asarray(X)[:, j]]),
                    None,
                    Flavor.HNB,
                )
                for j in range(Y.shape[1])
            )
        else:
            fits = tuple(fit_intercept_only(Y[:, j], Flavor.HNB) for j in range(Y.shape[1]))
        return _FittedHurdle(fits=fits, use_covariates=self.use_covariates)


class TlnpnModel:
    """Truncated latent Gaussian copula model (covariate-free).

    ``qmc_points`` is the Sobol stream of the bridge roots that
    :func:`fit_tlnpn` cannot read off the packaged table (levels off its
    grid, tau near or beyond the bridge's range, sigma above 0.9568); it
    does not change the other roots.
    """

    def __init__(self, qmc_points: int = _QMC_POINTS):
        self.qmc_points = qmc_points

    @property
    def name(self) -> str:
        return "tlnpn"

    @property
    def requires_covariates(self) -> bool:
        return False

    def fit(self, Y, X=None) -> _FittedTlnpn:
        return _FittedTlnpn(model=fit_tlnpn(np.asarray(Y), qmc_points=self.qmc_points))


# report tag -> model adapter, given the copula's qmc_points
_MODEL_TAGS = {
    "hnb": lambda qmc_points: HurdleModel(use_covariates=False),
    "hnb_cv": lambda qmc_points: HurdleModel(use_covariates=True),
    "tlnpn": lambda qmc_points: TlnpnModel(qmc_points=qmc_points),
}
# the models that a run compares when it names none
_DEFAULT_MODELS = ("hnb", "tlnpn")


def make_model(tag: str, qmc_points: int = _QMC_POINTS):
    """Model adapter from its report tag."""
    if tag not in _MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}; expected one of {sorted(_MODEL_TAGS)}")
    return _MODEL_TAGS[tag](qmc_points)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class EvalRecord:
    """One (split, fold, model) evaluation outcome."""

    split: int
    fold: int
    model: str
    distance: float
    failed: bool = False
    error: str = ""
    marginal: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    corr_gap: Optional[float] = None
    residuals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class EvalReport:
    """Per-(split, fold, model) records and the per-pair AMC values."""

    records: tuple
    amc: dict

    def __post_init__(self):
        for rec in self.records:
            if not rec.failed and not rec.distance >= 0.0:
                raise ValueError("distances must be nonnegative")
        for values in self.amc.values():
            for v in values:
                if not -2.0 <= v <= 2.0:
                    raise ValueError("AMC must lie in [-2, 2]")


def _checked_models(models, order) -> list:
    """The models to evaluate (those of ``_DEFAULT_MODELS`` by default);
    tags must be unique."""
    _check_order(order)
    if models is None:
        models = [make_model(tag) for tag in _DEFAULT_MODELS]
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model tags")
    return models


def _corr_gap(test: np.ndarray, sim: np.ndarray) -> float:
    """Mean absolute off-diagonal gap between Pearson correlation matrices."""
    p = test.shape[1]
    if p < 2:
        return 0.0
    with np.errstate(invalid="ignore"):
        ct = np.corrcoef(test, rowvar=False)
        cs = np.corrcoef(sim, rowvar=False)
    mask = ~np.eye(p, dtype=bool)
    gap = np.abs(np.nan_to_num(ct) - np.nan_to_num(cs))[mask]
    return float(gap.mean())


def _evaluate_fold(models, Y, X, train_idx, test_idx, split, fold, seed_seq, order, collect_extras):
    """Fit every model on the training rows and score it on the test rows."""
    Y_train, Y_test = Y[train_idx], Y[test_idx]
    X_train, X_test = (None, None) if X is None else (X[train_idx], X[test_idx])
    records = []
    n_test = len(Y_test)
    seeds = seed_seq.spawn(len(models))
    for model, sim_seed in zip(models, seeds):
        try:
            fitted = model.fit(Y_train, X_train)
            sim = fitted.simulate(n_test, sim_seed, X_test)
            dist = wasserstein_pd(Y_test, sim, order=order)
            marginal = np.array(
                [wasserstein_1d(Y_test[:, j], sim[:, j], order=order) for j in range(Y_test.shape[1])]
            )
            extras = {}
            if collect_extras:
                extras["corr_gap"] = _corr_gap(Y_test, sim)
                extras["residuals"] = np.sort(sim, axis=0) - np.sort(Y_test, axis=0)
            records.append(
                EvalRecord(split=split, fold=fold, model=model.name, distance=dist, marginal=marginal, **extras)
            )
        except (ZicountError, np.linalg.LinAlgError) as exc:
            records.append(
                EvalRecord(
                    split=split, fold=fold, model=model.name, distance=float("nan"), failed=True, error=str(exc)
                )
            )
    return records


def _cross_validate(Y, X, models, splits, order, collect_extras) -> EvalReport:
    """The fit/score loop of both protocols, with the module's AMC rule.

    ``splits`` yields ``(split, fold, train_idx, test_idx, seed_seq)``;
    the models' simulation seeds are spawned from ``seed_seq``.
    """
    records = []
    distances = {}  # split -> model name -> {fold: distance}
    for split, fold, train_idx, test_idx, seed_seq in splits:
        recs = _evaluate_fold(models, Y, X, train_idx, test_idx, split, fold, seed_seq, order, collect_extras)
        records.extend(recs)
        for rec in recs:
            if not rec.failed:
                distances.setdefault(split, {}).setdefault(rec.model, {})[fold] = rec.distance

    amc_out = {}
    for name in [m.name for m in models if m.name != "tlnpn"]:
        for by_model in distances.values():
            h, t = by_model.get(name, {}), by_model.get("tlnpn", {})
            common = sorted(set(h) & set(t))
            if common:
                value = amc(float(np.mean([h[f] for f in common])), float(np.mean([t[f] for f in common])))
                amc_out.setdefault(f"{name}_vs_tlnpn", []).append(value)
    return EvalReport(records=tuple(records), amc=amc_out)


def _kfold_indices(n: int, k: int, seed: int):
    """Shuffled fold index arrays; together they cover range(n) exactly once."""
    master = np.random.SeedSequence([int(seed), 0xCF])
    perm = np.random.default_rng(master.spawn(1)[0]).permutation(n)
    return perm, np.array_split(perm, k)


def kfold_cv(data, covariates=None, k: int = 5, models=None, seed: int = 0, order: int = 1, collect_extras: bool = False) -> EvalReport:
    """k-fold cross-validated prediction error for each model.

    Each fold: fit on the remaining k-1 folds, simulate a dataset of the
    held-out fold's size (covariate-based hurdle simulation uses the test
    fold's covariates; the rest simulate unconditionally), and record the
    Wasserstein distance to the held-out fold. Failed fits are recorded.
    The run is split 0, so a hurdle model has at most one AMC value: its
    mean distance against the copula model's, both over the folds where
    the two fitted. A pair with no such fold has no AMC key.
    """
    models = _checked_models(models, order)
    Y = np.asarray(data)
    n = len(Y)
    if not 2 <= k <= n:
        raise ValueError("k must lie in [2, n]")
    if any(m.requires_covariates for m in models) and covariates is None:
        raise ValueError("a requested model needs covariates")
    X = None if covariates is None else np.asarray(covariates, dtype=float)
    perm, folds = _kfold_indices(n, k, seed)
    splits = (
        (0, i, np.setdiff1d(perm, test, assume_unique=True), test, np.random.SeedSequence([int(seed), 0xCF, 1 + i]))
        for i, test in enumerate(folds)
    )
    return _cross_validate(Y, X, models, splits, order, collect_extras)


def random_split_eval(data, folds: int, n_splits: int, models=None, seed: int = 0, order: int = 1, collect_extras: bool = False) -> EvalReport:
    """Repeated random-split validation (covariate-free protocols).

    Per split: shuffle the rows, train every model on all but the last
    fold, simulate the held-out fold's size, and record joint and
    per-variable distances. Failed fits are recorded. A split holds out
    one fold, so a hurdle model has one AMC value per split where both it
    and the copula model fitted. A pair with no such split has no AMC key.
    """
    models = _checked_models(models, order)
    Y = np.asarray(data)
    if any(m.requires_covariates for m in models):
        raise ValueError("random-split evaluation is covariate-free")
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    n = len(Y)
    if not 2 <= folds <= n:
        raise ValueError("folds must lie in [2, n]")

    def splits():
        for split in range(n_splits):
            seq = np.random.SeedSequence([int(seed), 0x5B, split])
            # the permutation takes the first child; the models spawn theirs after it
            parts = np.array_split(np.random.default_rng(seq.spawn(1)[0]).permutation(n), folds)
            yield split, folds - 1, np.concatenate(parts[:-1]), parts[-1], seq

    return _cross_validate(Y, None, models, splits(), order, collect_extras)

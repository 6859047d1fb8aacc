"""Configuration-driven experiment runner, dataset ingestion, persistence.

Configs are flat JSON (scalars and arrays only). Every run writes a
results directory containing deterministic CSV tables plus a manifest
with the config hash and master seed; re-running an already completed
config is a no-op unless forced.
"""

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .counts import Flavor
from .evaluate import EvalReport, kfold_cv, make_model, random_split_eval
from .exceptions import ParseError, SelectionError
from .fitting import fit_regression
from .synth import (
    CorrKind,
    CorrelationSpec,
    Setting,
    SettingConfig,
    gen_setting_one,
    gen_setting_three,
    gen_setting_two,
    resolve_setting_one_gamma0,
    select_columns_by_zero_fraction,
    setting_one_config,
    setting_one_deflation_config,
    setting_two_config,
)

__all__ = [
    "Dataset",
    "Experiment",
    "ExperimentConfig",
    "load_counts_csv",
    "rescale_power",
    "select_by_zero_proportion",
    "make_qmp_standin",
    "run_experiment",
    "emit_report",
]


@dataclass(frozen=True)
class Dataset:
    """A count table: values (n x p), one name per column, provenance log."""

    values: np.ndarray
    variable_names: tuple
    provenance: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("values must be 2-d")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("count values must be finite and nonnegative")
        if len(self.variable_names) != v.shape[1]:
            raise ValueError("one name per column required")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def zero_fractions(self) -> np.ndarray:
        return np.mean(self.values == 0, axis=0)


def load_counts_csv(path) -> Dataset:
    """Read a count table: header row of names, numeric rows after.

    Rejects negative, non-numeric, and non-integral cells with the exact
    (row, column) location; rows are numbered from 1 including the header.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        rows = []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise ParseError(f"{path}: row {row_num} has {len(row)} cells, expected {len(names)}")
            parsed = []
            for col_num, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"{path}: row {row_num}, column {col_num}: non-numeric cell {cell!r}") from None
                if not np.isfinite(value) or value < 0:
                    raise ParseError(f"{path}: row {row_num}, column {col_num}: negative or non-finite cell {cell!r}")
                if value != int(value):
                    raise ParseError(f"{path}: row {row_num}, column {col_num}: non-integer count {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return Dataset(values=np.asarray(rows, dtype=float), variable_names=names, provenance=(f"load({path.name})",))


def rescale_power(data: Dataset, exponent: float) -> Dataset:
    """Replace every entry by round(entry ** exponent)."""
    if not 0.0 < exponent <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    values = np.round(np.power(data.values, exponent))
    return Dataset(values=values, variable_names=data.variable_names, provenance=data.provenance + (f"power({exponent})",))


def select_by_zero_proportion(data: Dataset, targets, p_out: int) -> Dataset:
    """Keep the p_out columns whose zero fractions sit nearest the targets."""
    targets = np.asarray(targets, dtype=float)
    if len(targets) != p_out:
        raise ValueError("need exactly one target per selected column")
    if p_out > data.p:
        raise SelectionError(f"cannot select {p_out} of {data.p} columns")
    cols = select_columns_by_zero_fraction(data.values, targets)
    return Dataset(
        values=data.values[:, cols],
        variable_names=tuple(data.variable_names[c] for c in cols),
        provenance=data.provenance + (f"select_zero_proportion({list(np.round(targets, 4))})",),
    )


# ---------------------------------------------------------------------------
# bundled stand-in for the public gut-bacteria count table (not
# redistributable here); matches its zero-proportion quartiles exactly: with n = 135 the quartile zero counts 5/39/78/107 give
# 3.7% / 28.9% / 57.8% / 79.3%.

_STANDIN_N = 135
_STANDIN_P = 101
_STANDIN_QUARTILE_ZEROS = (5, 39, 78, 107)


def make_qmp_standin(seed: int = 7) -> Dataset:
    """Synthetic heavy-tailed count table shaped like absolute-abundance
    microbiome data: 135 x 101, zero-proportion quartiles 3.7/28.9/57.8/79.3%
    as in the public table this stands in for.

    Built from correlated latent Gaussians; each column zeroes exactly its
    prescribed number of rows (the smallest latent values), so the
    quartiles of the zero fractions are reproduced exactly.
    """
    n, p = _STANDIN_N, _STANDIN_P
    q = _STANDIN_QUARTILE_ZEROS
    # per-column zero counts, linear between the quartile anchors at
    # column ranks 0, 25, 50, 75, 100
    ranks = np.arange(p)
    zero_counts = np.round(
        np.interp(ranks, [0, 25, 50, 75, 100], [0, q[0], q[1], q[2], q[3]])
    ).astype(int)

    rng = np.random.default_rng(seed)
    order = rng.permutation(p)  # decouple zero level from column position
    zero_counts = zero_counts[order]

    idx = np.arange(p)
    latent_corr = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    z = rng.standard_normal((n, p)) @ np.linalg.cholesky(latent_corr).T

    scale = np.exp(rng.uniform(0.0, 6.0, size=p))  # column scales: 1 .. ~400
    values = np.empty((n, p))
    for j in range(p):
        zj = z[:, j]
        cut = np.sort(zj)[zero_counts[j] - 1] if zero_counts[j] > 0 else -np.inf
        body = np.floor(scale[j] * np.exp(1.1 * zj)) + 1.0
        values[:, j] = np.where(zj <= cut, 0.0, body)
    names = tuple(f"v{j:03d}" for j in range(p))
    return Dataset(values=values, variable_names=names, provenance=(f"standin(seed={seed})",))


# ---------------------------------------------------------------------------
# experiment configuration


class Experiment(Enum):
    SETTING_ONE = "setting-one"
    SETTING_ONE_DEFLATION = "setting-one-deflation"
    SETTING_TWO = "setting-two"
    SETTING_THREE = "setting-three"
    REAL_DATA = "real-data"


_GRID_KEYS = {
    Experiment.SETTING_ONE: {"zero_target", "flavor"},
    Experiment.SETTING_ONE_DEFLATION: {"pi_h"},
    Experiment.SETTING_TWO: {"beta1", "gamma0", "gamma1", "rho", "corr"},
    Experiment.SETTING_THREE: {"rho", "zero_target", "transform", "corr"},
    Experiment.REAL_DATA: set(),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a grid, a replication budget, and run options."""

    experiment: Experiment
    grids: dict = field(default_factory=dict)
    replications: int = 1
    folds: int = 5
    n_splits: int = 50
    seed: int = 0
    out: str = "results"
    order: int = 1
    threads: int = 1
    models: tuple = ("hnb", "tlnpn")
    dataset: Optional[str] = None
    rescale_exponent: Optional[float] = None
    n: Optional[int] = None
    qmc_points: int = 4096
    collect_extras: bool = False
    allow_partial: bool = False
    force: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        allowed = _GRID_KEYS[self.experiment]
        extra = set(self.grids) - allowed
        if extra:
            raise ValueError(f"grid keys {sorted(extra)} not valid for {self.experiment.value}")
        for key in allowed:
            if key not in self.grids or not list(self.grids[key]):
                raise ValueError(f"{self.experiment.value} needs a nonempty grid for {key!r}")
        _validate_grid_ranges(self.experiment, self.grids)
        if self.experiment in (Experiment.SETTING_THREE, Experiment.REAL_DATA) and not self.dataset:
            raise ValueError(f"{self.experiment.value} needs a dataset path (or 'standin')")
        object.__setattr__(self, "grids", {k: list(v) for k, v in self.grids.items()})
        object.__setattr__(self, "models", tuple(self.models))

    def canonical(self) -> dict:
        payload = {
            "experiment": self.experiment.value,
            "grids": {k: list(self.grids[k]) for k in sorted(self.grids)},
            "replications": self.replications,
            "folds": self.folds,
            "n_splits": self.n_splits,
            "seed": self.seed,
            "order": self.order,
            "models": list(self.models),
            "dataset": self.dataset,
            "rescale_exponent": self.rescale_exponent,
            "n": self.n,
            "qmc_points": self.qmc_points,
            "collect_extras": self.collect_extras,
        }
        return payload

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()


def _validate_grid_ranges(experiment: Experiment, grids: dict):
    checks = {
        "zero_target": lambda v: 0.0 < float(v) < 1.0,
        "pi_h": lambda v: 0.0 < float(v) < 1.0,
        "rho": lambda v: -1.0 < float(v) < 1.0,
        "beta1": lambda v: np.isfinite(float(v)),
        "gamma0": lambda v: np.isfinite(float(v)),
        "gamma1": lambda v: np.isfinite(float(v)),
        "flavor": lambda v: str(v).lower() in ("zinb", "hnb"),
        "transform": lambda v: str(v) in ("none", "sqrt"),
        "corr": lambda v: str(v).upper() in ("AR", "GD"),
    }
    for key, values in grids.items():
        for v in values:
            if not checks[key](v):
                raise ValueError(f"grid value {v!r} out of range for {key!r}")


def config_from_json(path, **overrides) -> ExperimentConfig:
    """Build a config from a flat JSON file; keyword overrides win."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "experiment" not in raw:
        raise ParseError(f"{path}: config needs an 'experiment' key")
    experiment = Experiment(raw.pop("experiment"))
    grids = raw.pop("grids", {})
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
    if "models" in raw:
        raw["models"] = tuple(raw["models"])
    return ExperimentConfig(experiment=experiment, grids=grids, **raw)


# ---------------------------------------------------------------------------
# cell execution (module-level functions so a process pool can pickle them)


def _load_source(config: ExperimentConfig) -> Dataset:
    if config.dataset == "standin":
        data = make_qmp_standin()
    else:
        data = load_counts_csv(config.dataset)
    if config.rescale_exponent is not None:
        data = rescale_power(data, config.rescale_exponent)
    return data


def _amc_rows_from_report(report: EvalReport, cell_key: dict, replication: int):
    dist_rows = []
    for rec in report.records:
        dist_rows.append(
            dict(
                cell_key,
                replication=replication,
                split=rec.split,
                fold=rec.fold,
                model=rec.model,
                distance="" if rec.failed else rec.distance,
                failed=int(rec.failed),
            )
        )
    amc_rows = [
        dict(cell_key, replication=replication, pair=pair, index=i, amc=value)
        for pair, values in report.amc.items()
        for i, value in enumerate(values)
    ]
    marg_rows = []
    for rec in report.records:
        if rec.marginal is None:
            continue
        for j, d in enumerate(rec.marginal):
            marg_rows.append(
                dict(cell_key, replication=replication, split=rec.split, fold=rec.fold, model=rec.model, variable=j, distance=d)
            )
    extra_rows = []
    for rec in report.records:
        if rec.corr_gap is not None:
            extra_rows.append(
                dict(cell_key, replication=replication, split=rec.split, fold=rec.fold, model=rec.model, corr_gap=rec.corr_gap)
            )
    resid_rows = []
    for rec in report.records:
        if rec.residuals is None:
            continue
        for j in range(rec.residuals.shape[1]):
            for rank, value in enumerate(rec.residuals[:, j]):
                resid_rows.append(
                    dict(cell_key, replication=replication, split=rec.split, fold=rec.fold, model=rec.model, variable=j, rank=rank, residual=value)
                )
    return dist_rows, amc_rows, marg_rows, extra_rows, resid_rows


def _setting_one_flavor(flavor_name: str) -> Flavor:
    return Flavor.ZINB if flavor_name.lower() == "zinb" else Flavor.HNB


def _calibrate_setting_one(config: ExperimentConfig, zero_target: float, flavor_name: str):
    """(gamma0, mode) of one setting-one grid point, or the exception that
    calibrating it raised. It depends on the config seed, n, flavor and
    zero target only, so every replication of the point shares it."""
    base = setting_one_config(_setting_one_flavor(flavor_name), gamma0=0.0, n=config.n or 500)
    cal_seed = int(np.random.SeedSequence([config.seed, 11]).generate_state(1)[0])
    try:
        return resolve_setting_one_gamma0(base, zero_target, cal_seed)
    except Exception as exc:  # noqa: BLE001 - the point's cells record it
        return exc


def _run_setting_one_cell(args):
    config, zero_target, flavor_name, replication, calibration = args
    if isinstance(calibration, Exception):
        raise calibration
    gamma0, mode = calibration
    flavor = _setting_one_flavor(flavor_name)
    cfg = setting_one_config(flavor, gamma0=gamma0, n=config.n or 500)
    data_seed = int(
        np.random.SeedSequence(
            [config.seed, 12, replication, int(round(zero_target * 1000)), int(flavor is Flavor.ZINB)]
        ).generate_state(1)[0]
    )
    y, x = gen_setting_one(cfg, data_seed)
    X = np.column_stack([np.ones(len(y)), x])
    rows = []
    for model_flavor in (Flavor.ZINB, Flavor.HNB):
        fit = fit_regression(y, X, X if model_flavor is Flavor.ZINB else None, model_flavor)
        rows.append(
            dict(
                zero_target=zero_target,
                true_flavor=flavor.value,
                calibration=mode,
                gamma0=gamma0,
                replication=replication,
                model=model_flavor.value,
                loglik=fit.loglik,
                aic=fit.aic,
                converged=int(fit.converged),
                zero_fraction=float(np.mean(y == 0)),
            )
        )
    return {"aic": rows}


def _run_deflation_cell(args):
    config, pi_h, replication = args
    from scipy.special import logit as _logit

    n = config.n or 700
    cfg = setting_one_deflation_config(gamma0=float(_logit(pi_h)), n=n)
    data_seed = int(
        np.random.SeedSequence([config.seed, 21, replication, int(round(pi_h * 1000))]).generate_state(1)[0]
    )
    y, x = gen_setting_one(cfg, data_seed)
    X = np.column_stack([np.ones(len(y)), x])
    fit_z = fit_regression(y, X, X, Flavor.ZINB)
    fit_h = fit_regression(y, X, None, Flavor.HNB)
    return {
        "aic": [
            dict(
                pi_h=pi_h,
                replication=replication,
                aic_zinb=fit_z.aic,
                aic_hnb=fit_h.aic,
                gap=fit_z.aic - fit_h.aic,
                zero_fraction=float(np.mean(y == 0)),
            )
        ]
    }


def _run_setting_two_cell(args):
    config, corr_kind, rho, beta1, gamma0, gamma1, replication = args
    spec = CorrelationSpec(kind=CorrKind(corr_kind), rho=float(rho), p=5, orthogonal_seed=config.seed)
    cfg = setting_two_config(spec, beta1=float(beta1), gamma0=float(gamma0), gamma1=float(gamma1), n=config.n or 1200)
    data_seed = int(
        np.random.SeedSequence(
            [config.seed, 31, replication, hash_cell(corr_kind, rho, beta1, gamma0, gamma1)]
        ).generate_state(1)[0]
    )
    Y, X = gen_setting_two(cfg, data_seed)
    eval_seed = int(np.random.SeedSequence([config.seed, 32, replication]).generate_state(1)[0])
    report = kfold_cv(
        Y,
        covariates=X,
        k=config.folds,
        models=[make_model(tag, config.qmc_points) for tag in config.models],
        seed=eval_seed,
        order=config.order,
        collect_extras=config.collect_extras,
    )
    cell_key = dict(corr=corr_kind, rho=rho, beta1=beta1, gamma0=gamma0, gamma1=gamma1)
    dist_rows, amc_rows, marg_rows, extra_rows, resid_rows = _amc_rows_from_report(report, cell_key, replication)
    return {"distances": dist_rows, "amc": amc_rows, "marginal": marg_rows, "corr_gap": extra_rows, "residuals": resid_rows}


def _run_setting_three_cell(args):
    config, corr_kind, rho, zero_target, transform, replication, source_values = args
    spec = CorrelationSpec(kind=CorrKind(corr_kind), rho=float(rho), p=5, orthogonal_seed=config.seed)
    cfg = SettingConfig(
        setting=Setting.THREE,
        n=config.n or 1200,
        p=5,
        corr=spec,
        zero_target=float(zero_target),
        transform=str(transform),
        marginal_source=source_values,
    )
    data_seed = int(
        np.random.SeedSequence(
            [config.seed, 41, replication, hash_cell(corr_kind, rho, zero_target, transform)]
        ).generate_state(1)[0]
    )
    Y = gen_setting_three(cfg, data_seed)
    eval_seed = int(np.random.SeedSequence([config.seed, 42, replication]).generate_state(1)[0])
    report = kfold_cv(
        Y,
        covariates=None,
        k=config.folds,
        models=[make_model(tag, config.qmc_points) for tag in config.models if tag != "hnb_cv"],
        seed=eval_seed,
        order=config.order,
        collect_extras=config.collect_extras,
    )
    cell_key = dict(corr=corr_kind, rho=rho, zero_target=zero_target, transform=transform)
    dist_rows, amc_rows, marg_rows, extra_rows, resid_rows = _amc_rows_from_report(report, cell_key, replication)
    return {"distances": dist_rows, "amc": amc_rows, "marginal": marg_rows, "corr_gap": extra_rows, "residuals": resid_rows}


def hash_cell(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _cells(config: ExperimentConfig, source: Optional[Dataset]):
    """Expand the config grid into (worker, args) cell descriptors."""
    cells = []
    if config.experiment is Experiment.SETTING_ONE:
        for zt in config.grids["zero_target"]:
            for fl in config.grids["flavor"]:
                calibration = _calibrate_setting_one(config, float(zt), str(fl))
                for rep in range(config.replications):
                    cells.append((_run_setting_one_cell, (config, float(zt), str(fl), rep, calibration)))
    elif config.experiment is Experiment.SETTING_ONE_DEFLATION:
        for ph in config.grids["pi_h"]:
            for rep in range(config.replications):
                cells.append((_run_deflation_cell, (config, float(ph), rep)))
    elif config.experiment is Experiment.SETTING_TWO:
        for corr in config.grids["corr"]:
            for rho in config.grids["rho"]:
                for b1 in config.grids["beta1"]:
                    for g0 in config.grids["gamma0"]:
                        for g1 in config.grids["gamma1"]:
                            for rep in range(config.replications):
                                cells.append(
                                    (_run_setting_two_cell, (config, str(corr).upper(), float(rho), float(b1), float(g0), float(g1), rep))
                                )
    elif config.experiment is Experiment.SETTING_THREE:
        for corr in config.grids["corr"]:
            for rho in config.grids["rho"]:
                for zt in config.grids["zero_target"]:
                    for tr in config.grids["transform"]:
                        for rep in range(config.replications):
                            cells.append(
                                (
                                    _run_setting_three_cell,
                                    (config, str(corr).upper(), float(rho), float(zt), str(tr), rep, source.values),
                                )
                            )
    else:  # real data: one cell, the split loop lives inside random_split_eval
        cells.append((_run_real_data_cell, (config, source.values)))
    return cells


def _run_real_data_cell(args):
    config, values = args
    report = random_split_eval(
        values,
        folds=config.folds,
        n_splits=config.n_splits,
        models=[make_model(tag, config.qmc_points) for tag in config.models if tag != "hnb_cv"],
        seed=config.seed,
        order=config.order,
        collect_extras=config.collect_extras,
    )
    dist_rows, amc_rows, marg_rows, extra_rows, resid_rows = _amc_rows_from_report(report, {}, 0)
    return {"distances": dist_rows, "amc": amc_rows, "marginal": marg_rows, "corr_gap": extra_rows, "residuals": resid_rows}


def _run_cell_guarded(item):
    worker, args = item
    try:
        return worker(args), None
    except Exception as exc:  # noqa: BLE001 - failures become manifest entries
        return None, f"{type(exc).__name__}: {exc}"


def _write_csv(path: Path, rows, fieldnames=None):
    if not rows:
        return
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _sort_key(row: dict):
    return tuple(str(row.get(k, "")) for k in sorted(row))


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute the grid x replications and persist deterministic tables.

    Returns the results directory. Output files: one CSV per table kind,
    plus manifest.json carrying the config hash, master seed, package
    version, and any failed cells. A completed manifest with the same
    hash short-circuits the run unless ``config.force``.
    """
    out = Path(config.out)
    manifest_path = out / "manifest.json"
    if manifest_path.exists() and not config.force:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("config_hash") == config.fingerprint() and manifest.get("complete"):
            return out
    out.mkdir(parents=True, exist_ok=True)

    source = None
    if config.experiment in (Experiment.SETTING_THREE, Experiment.REAL_DATA):
        source = _load_source(config)

    cells = _cells(config, source)
    if not cells:
        raise ValueError("the config expands to an empty grid")

    results = []
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_run_cell_guarded, cells))
    else:
        results = [_run_cell_guarded(c) for c in cells]

    tables: dict = {}
    failures = []
    for (worker, args), (payload, error) in zip(cells, results):
        if error is not None:
            key = [str(a) for a in args[1:] if isinstance(a, (str, int, float))]
            failures.append({"worker": worker.__name__, "args": key, "error": error})
            continue
        for name, rows in payload.items():
            tables.setdefault(name, []).extend(rows)

    for name, rows in tables.items():
        rows.sort(key=_sort_key)
        _write_csv(out / f"{name}.csv", rows)

    manifest = {
        "config": config.canonical(),
        "config_hash": config.fingerprint(),
        "seed": config.seed,
        "version": __version__,
        "tables": sorted(tables),
        "n_cells": len(cells),
        "failures": failures,
        "complete": True,
    }
    if source is not None:
        manifest["source_provenance"] = list(source.provenance)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return out


def read_results(results_dir) -> dict:
    """Load every CSV table of a results directory into lists of dicts."""
    results_dir = Path(results_dir)
    out = {}
    for csv_path in sorted(results_dir.glob("*.csv")):
        with open(csv_path, newline="") as fh:
            out[csv_path.stem] = list(csv.DictReader(fh))
    manifest_path = results_dir / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path) as fh:
            out["manifest"] = json.load(fh)
    return out


def _median_amc_summary(amc_rows):
    """Median AMC per grid cell (the heatmap-backing table)."""
    groups: dict = {}
    for row in amc_rows:
        key = tuple((k, row[k]) for k in sorted(row) if k not in ("replication", "index", "amc", "pair"))
        pair = row.get("pair", "amc")
        groups.setdefault((key, pair), []).append(float(row["amc"]))
    summary = []
    for (key, pair), values in sorted(groups.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        entry = dict(key)
        entry["pair"] = pair
        entry["n"] = len(values)
        entry["median_amc"] = float(np.median(values))
        summary.append(entry)
    return summary


def emit_report(results_dir, format: str = "csv") -> list:
    """Derive flat report tables from a results directory.

    csv: writes a median-AMC summary (heatmap data) next to the raw
    tables. json: additionally bundles every table plus the config
    fingerprint into report.json. Returns the written paths.
    """
    if format not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    results_dir = Path(results_dir)
    tables = read_results(results_dir)
    written = []
    if "amc" in tables and tables["amc"]:
        summary = _median_amc_summary(tables["amc"])
        path = results_dir / "amc_summary.csv"
        _write_csv(path, summary)
        written.append(path)
    if format == "json":
        payload = {
            "config_hash": tables.get("manifest", {}).get("config_hash"),
            "seed": tables.get("manifest", {}).get("seed"),
            "tables": {k: v for k, v in tables.items() if k != "manifest"},
        }
        path = results_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        written.append(path)
    return written

"""Configuration-driven experiment runner, dataset ingestion, persistence.

Configs are flat JSON (scalars and arrays only). Every run writes a
results directory containing deterministic CSV tables plus a manifest
with the config hash, the digest of the library's sources and the master
seed; re-running an already completed config on the same sources is a
no-op unless forced.
"""

import csv
import functools
import hashlib
import itertools
import json
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import logit

from . import __version__
from .bridge_table import TABLE_FILE
from .copula import _QMC_POINTS
from .counts import Flavor, _check_counts, _count_errors
from .evaluate import _DEFAULT_MODELS, _MODEL_TAGS, EvalReport, kfold_cv, make_model, random_split_eval
from .exceptions import ParseError
from .fitting import fit_regression
from .synth import (
    _TRANSFORMS,
    LATENT_DIM,
    CorrKind,
    CorrelationSpec,
    Setting,
    ar_correlation,
    gen_setting_one,
    gen_setting_three,
    gen_setting_two,
    resolve_setting_one_gamma0,
    scenario_config,
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
        _check_counts(v)
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


def load_counts_csv(path) -> Dataset:
    """Read a count table: header row of names, numeric rows after.

    Rejects negative, non-numeric, and non-integral cells with the exact
    (row, column) location; rows are numbered from 1 including the header.
    """
    names, values = _read_csv(path, _count_errors)
    return Dataset(values=values, variable_names=names, provenance=(f"load({Path(path).name})",))


def _read_csv(path, cell_errors, columns=None):
    """(column names, n x k float array) of the k columns of a CSV table
    whose header row names its columns: every column, or the indices that
    ``columns(names)`` returns; the cells of the other columns are not
    read. Blank rows are skipped; a ragged row, a non-numeric cell or a
    number that ``cell_errors`` names raises ParseError with the location
    of the first such cell in the file. ``cell_errors(values)`` checks a
    whole array at once: it returns (description, mask) pairs, and a cell
    takes the description of the first mask that holds there."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        read = range(len(names)) if columns is None else columns(names)
        rows, row_nums, failure, numbers_before = [], [], None, []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                failure = f"row {row_num} has {len(row)} cells, expected {len(names)}"
                break
            cells = row if columns is None else [row[col] for col in read]
            try:
                rows.append(list(map(float, cells)))
            except ValueError:
                at = _first_non_numeric(cells)
                failure = f"row {row_num}, column {read[at] + 1}: non-numeric cell {cells[at]!r}"
                numbers_before = list(map(float, cells[:at]))
                break
            row_nums.append(row_num)
    values = np.array(rows, dtype=float).reshape(len(rows), len(read))
    # a bad number above the cell that stopped the reading comes first in the file
    _check_cells(path, values, row_nums, read, cell_errors)
    if failure is not None:
        _check_cells(path, np.array([numbers_before]), [row_num], read, cell_errors)
        raise ParseError(f"{path}: {failure}")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return [names[col] for col in read], values


def _first_non_numeric(cells):
    for at, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return at


def _check_cells(path, values, row_nums, columns, cell_errors):
    """Raise ParseError naming the first cell, in row-major order, of
    ``values`` (rows ``row_nums`` and columns ``columns`` of the file) that
    ``cell_errors`` rejects. Only that cell's text is read back."""
    errors = cell_errors(values)
    bad = functools.reduce(operator.or_, (mask for _, mask in errors))
    if bad.any():
        at, col = divmod(int(np.argmax(bad)), values.shape[1])
        error = next(description for description, mask in errors if mask[at, col])
        row_num, col = row_nums[at], columns[col]
        with open(path, newline="") as fh:
            cell = next(itertools.islice(csv.reader(fh), row_num - 1, None))[col]
        raise ParseError(f"{path}: row {row_num}, column {col + 1}: {error} {cell!r}")


def rescale_power(data: Dataset, exponent: float) -> Dataset:
    """Replace every entry by round(entry ** exponent)."""
    if not 0.0 < exponent <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    values = np.round(np.power(data.values, exponent))
    return Dataset(values=values, variable_names=data.variable_names, provenance=data.provenance + (f"power({exponent})",))


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

    latent_corr = ar_correlation(CorrelationSpec(CorrKind.AR, 0.6, p))
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a grid, a replication budget, and run options.

    A field that the experiment does not read (see ``_Spec.keys``) may only
    hold its default, so a setting that does nothing cannot enter the
    fingerprint.
    """

    experiment: Experiment
    grids: dict = field(default_factory=dict)
    replications: int = 1
    folds: int = 5
    n_splits: int = 50
    seed: int = 0
    out: str = "results"
    order: int = 1
    threads: int = 1
    models: tuple = _DEFAULT_MODELS
    dataset: Optional[str] = None
    rescale_exponent: Optional[float] = None
    n: Optional[int] = None
    qmc_points: int = _QMC_POINTS
    collect_extras: bool = False
    force: bool = False

    def __post_init__(self):
        for key, coerce, valid in _SCALARS:
            object.__setattr__(self, key, _checked(key, coerce, valid, getattr(self, key), "config value"))
        spec = _SPECS[self.experiment]
        extra = set(self.grids) - {key for key, _, _ in spec.grid}
        if extra:
            raise ValueError(f"grid keys {sorted(extra)} not valid for {self.experiment.value}")
        grid = {}
        for key, coerce, valid in spec.grid:
            values = list(self.grids.get(key, ()))
            if not values:
                raise ValueError(f"{self.experiment.value} needs a nonempty grid for {key!r}")
            grid[key] = [_checked(key, coerce, valid, v, "grid value") for v in values]
        if "corr" in grid:  # the rho range of each corr lives in CorrelationSpec
            for corr, rho in itertools.product(grid["corr"], grid["rho"]):
                try:
                    _corr_spec(self, {"corr": corr, "rho": rho})
                except ValueError as exc:
                    raise ValueError(f"grid pair corr={corr!r}, rho={rho!r}: {exc}") from None
        read = spec.keys + _ALWAYS_READ
        unread = [f.name for f in fields(self) if f.name not in read and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.experiment.value} does not read config keys {unread}")
        if "dataset" in spec.keys and "hnb_cv" in self.models:  # a source table has no covariates
            raise ValueError(f"model 'hnb_cv' needs covariates, which {self.experiment.value} does not have")
        if "dataset" in spec.keys and not self.dataset:
            raise ValueError(f"{self.experiment.value} needs a dataset path (or 'standin')")
        object.__setattr__(self, "grids", grid)  # coerced once, in cell order

    def canonical(self) -> dict:
        """The fingerprinted payload: every field but the run-only ones."""
        payload = asdict(self)
        for key in _RUN_ONLY:
            del payload[key]
        payload.update(experiment=self.experiment.value)
        return payload

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()


def _checked(key, coerce, valid, value, what: str):
    """``coerce(value)`` if ``valid`` accepts it; ValueError otherwise."""
    try:
        value_out = coerce(value)
        ok = valid(value_out)
    except (TypeError, ValueError):  # e.g. a JSON null or a non-numeric string
        ok = False
    if not ok:
        raise ValueError(f"{what} {value!r} out of range for {key!r}")
    return value_out


def _count(value) -> int:
    """An integer config value: a JSON string, float, bool or null is not one."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a count")
    return operator.index(value)


# ExperimentConfig fields that change how a run is done, not its numbers
_RUN_ONLY = ("out", "threads", "force")

# fields every experiment reads; each _Spec lists the others it reads
_ALWAYS_READ = ("experiment", "grids", "seed") + _RUN_ONLY

# (key, coerce, valid) of each checked ExperimentConfig field, as for the grids
_SCALARS = (
    ("replications", _count, lambda v: v >= 1),
    ("folds", _count, lambda v: v >= 2),
    ("n_splits", _count, lambda v: v >= 1),
    ("seed", _count, lambda v: v >= 0),
    ("order", _count, lambda v: v in (1, 2)),
    ("threads", _count, lambda v: v >= 1),
    ("n", lambda v: v if v is None else _count(v), lambda v: v is None or v >= 1),
    ("qmc_points", _count, lambda v: v >= 1),
    ("rescale_exponent", lambda v: v if v is None else float(v), lambda v: v is None or 0.0 < v <= 1.0),
    ("dataset", lambda v: v, lambda v: v is None or (isinstance(v, str) and v != "")),
    # switches are JSON true or false: a string such as "no" would be truthy
    ("collect_extras", lambda v: v, lambda v: isinstance(v, bool)),
    ("force", lambda v: v, lambda v: isinstance(v, bool)),
    # a nonempty list of unique tags that make_model knows
    ("models", tuple, lambda v: v and len(set(v)) == len(v) and set(v) <= set(_MODEL_TAGS)),
)


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
    return ExperimentConfig(experiment=experiment, grids=grids, **raw)


# ---------------------------------------------------------------------------
# cell execution (module-level functions so a process pool can pickle them)


def _load_source(dataset: str, rescale_exponent: Optional[float] = None) -> Dataset:
    """The bundled stand-in (``"standin"``) or a counts CSV, optionally
    rescaled by :func:`rescale_power`."""
    data = make_qmp_standin() if dataset == "standin" else load_counts_csv(dataset)
    if rescale_exponent is not None:
        data = rescale_power(data, rescale_exponent)
    return data


def _report_tables(report: EvalReport, key: dict) -> dict:
    """The six row tables of one evaluated cell, by table name.

    ``key`` (the grid point and replication) leads every row; a table the
    report has nothing for is an empty list. ``failed_records`` holds the
    error of each failed record, so a clean run writes no file for it.
    """
    tables = {"distances": [], "amc": [], "marginal": [], "corr_gap": [], "residuals": [], "failed_records": []}
    for rec in report.records:
        rec_key = dict(key, split=rec.split, fold=rec.fold, model=rec.model)
        tables["distances"].append(dict(rec_key, distance="" if rec.failed else rec.distance, failed=int(rec.failed)))
        if rec.failed:
            tables["failed_records"].append(dict(rec_key, error=rec.error))
        if rec.marginal is not None:
            tables["marginal"] += [dict(rec_key, variable=j, distance=d) for j, d in enumerate(rec.marginal)]
        if rec.corr_gap is not None:
            tables["corr_gap"].append(dict(rec_key, corr_gap=rec.corr_gap))
        if rec.residuals is not None:
            tables["residuals"] += [
                dict(rec_key, variable=j, rank=rank, residual=value)
                for j, column in enumerate(rec.residuals.T)
                for rank, value in enumerate(column)
            ]
    tables["amc"] = [
        dict(key, pair=pair, index=i, amc=value) for pair, values in report.amc.items() for i, value in enumerate(values)
    ]
    return tables


def _seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _models(config: ExperimentConfig) -> list:
    """The config's model adapters."""
    return [make_model(tag, config.qmc_points) for tag in config.models]


def _calibrate_setting_one(config: ExperimentConfig, point: dict, source):
    """(gamma0, mode) of one setting-one grid point, or the exception that
    calibrating it raised. It depends on the config seed, n, flavor and
    zero target only, so every replication of the point shares it."""
    base = setting_one_config(Flavor(point["flavor"]), gamma0=0.0, n=config.n)
    cal_seed = _seed(config.seed, 11)
    try:
        return resolve_setting_one_gamma0(base, point["zero_target"], cal_seed)
    except Exception as exc:  # noqa: BLE001 - the point's cells record it
        return exc


def _source_values(config: ExperimentConfig, point: dict, source: Dataset):
    return source.values


def _run_setting_one_cell(config, point, replication, calibration):
    if isinstance(calibration, Exception):
        raise calibration
    gamma0, mode = calibration
    zero_target = point["zero_target"]
    flavor = Flavor(point["flavor"])
    cfg = setting_one_config(flavor, gamma0=gamma0, n=config.n)
    y, x = gen_setting_one(
        cfg, _seed(config.seed, 12, replication, int(round(zero_target * 1000)), int(flavor is Flavor.ZINB))
    )
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


def _run_deflation_cell(config, point, replication, _):
    pi_h = point["pi_h"]
    cfg = setting_one_deflation_config(gamma0=float(logit(pi_h)), n=config.n)
    y, x = gen_setting_one(cfg, _seed(config.seed, 21, replication, int(round(pi_h * 1000))))
    X = np.column_stack([np.ones(len(y)), x])
    fit_z = fit_regression(y, X, X, Flavor.ZINB)
    fit_h = fit_regression(y, X, None, Flavor.HNB)
    return {
        "aic": [
            dict(
                point,
                replication=replication,
                aic_zinb=fit_z.aic,
                aic_hnb=fit_h.aic,
                gap=fit_z.aic - fit_h.aic,
                zero_fraction=float(np.mean(y == 0)),
            )
        ]
    }


def _corr_spec(config: ExperimentConfig, point: dict) -> CorrelationSpec:
    return CorrelationSpec(kind=CorrKind(point["corr"]), rho=point["rho"], p=LATENT_DIM, orthogonal_seed=config.seed)


def _cv_tables(config: ExperimentConfig, point: dict, replication: int, Y, X, eval_tag: int) -> dict:
    """Tables of a k-fold CV of the config's models on one generated dataset."""
    report = kfold_cv(
        Y,
        covariates=X,
        k=config.folds,
        models=_models(config),
        seed=_seed(config.seed, eval_tag, replication),
        order=config.order,
        collect_extras=config.collect_extras,
    )
    return _report_tables(report, dict(point, replication=replication))


def _run_setting_two_cell(config, point, replication, _):
    cfg = setting_two_config(
        _corr_spec(config, point),
        beta1=point["beta1"],
        gamma0=point["gamma0"],
        gamma1=point["gamma1"],
        n=config.n,
    )
    Y, X = gen_setting_two(cfg, _seed(config.seed, 31, replication, hash_cell(*point.values())))
    return _cv_tables(config, point, replication, Y, X, eval_tag=32)


def _run_setting_three_cell(config, point, replication, source_values):
    cfg = scenario_config(
        Setting.THREE,
        n=config.n,
        corr=_corr_spec(config, point),
        zero_target=point["zero_target"],
        transform=point["transform"],
        marginal_source=source_values,
    )
    Y = gen_setting_three(cfg, _seed(config.seed, 41, replication, hash_cell(*point.values())))
    return _cv_tables(config, point, replication, Y, None, eval_tag=42)


def _run_real_data_cell(config, point, replication, source_values):
    # one cell: the split loop lives inside random_split_eval
    report = random_split_eval(
        source_values,
        folds=config.folds,
        n_splits=config.n_splits,
        models=_models(config),
        seed=config.seed,
        order=config.order,
        collect_extras=config.collect_extras,
    )
    return _report_tables(report, dict(point, replication=replication))


def hash_cell(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


class _Spec(NamedTuple):
    """How one experiment expands into cells and runs each of them.

    ``grid`` holds one (key, coerce, valid) entry per grid key, in cell
    order: the nesting of the expansion, the cell key that leads the rows,
    the ``hash_cell`` arguments and a failed cell's manifest ``args`` all
    follow it. ``context(config, point, source)`` is computed once per grid
    point and shared by its replications. ``keys`` names the config fields
    the experiment reads besides ``_ALWAYS_READ``; a config that sets any
    other field is refused. An experiment that reads ``dataset`` runs on a
    source table, and one that does not read ``replications`` runs one cell
    per grid point.
    """

    worker: Callable
    grid: tuple = ()
    context: Optional[Callable] = None
    keys: tuple = ()


_CORR = ("corr", lambda v: str(v).upper(), lambda v: v in ("AR", "GD"))
_RHO = ("rho", float, np.isfinite)  # its range per corr is checked by CorrelationSpec
_ZERO_TARGET = ("zero_target", float, lambda v: 0.0 < v < 1.0)
_SIMULATED = ("replications", "n")  # keys of the experiments that generate data
_CV = ("folds", "models", "qmc_points", "order", "collect_extras")
_SOURCE = ("dataset", "rescale_exponent")


_SPECS = {
    Experiment.SETTING_ONE: _Spec(
        _run_setting_one_cell,
        (_ZERO_TARGET, ("flavor", lambda v: str(v).lower(), lambda v: v in ("zinb", "hnb"))),
        context=_calibrate_setting_one,
        keys=_SIMULATED,
    ),
    Experiment.SETTING_ONE_DEFLATION: _Spec(_run_deflation_cell, (("pi_h", float, lambda v: 0.0 < v < 1.0),), keys=_SIMULATED),
    Experiment.SETTING_TWO: _Spec(
        _run_setting_two_cell,
        (_CORR, _RHO, ("beta1", float, np.isfinite), ("gamma0", float, np.isfinite), ("gamma1", float, np.isfinite)),
        keys=_SIMULATED + _CV,
    ),
    Experiment.SETTING_THREE: _Spec(
        _run_setting_three_cell,
        (_CORR, _RHO, _ZERO_TARGET, ("transform", str, lambda v: v in _TRANSFORMS)),
        context=_source_values,
        keys=_SIMULATED + _CV + _SOURCE,
    ),
    Experiment.REAL_DATA: _Spec(_run_real_data_cell, context=_source_values, keys=("n_splits",) + _CV + _SOURCE),
}


def _cells(config: ExperimentConfig, source: Optional[Dataset]):
    """Expand the config grid into (worker, args, labels) cells, one per grid
    point and replication; ``labels`` name a failed cell in the manifest."""
    spec = _SPECS[config.experiment]
    keys = [key for key, _, _ in spec.grid]
    replicated = "replications" in spec.keys
    cells = []
    for values in itertools.product(*(config.grids[key] for key in keys)):
        point = dict(zip(keys, values))
        context = spec.context(config, point, source) if spec.context else None
        for rep in range(config.replications if replicated else 1):
            labels = [str(v) for v in values] + ([str(rep)] if replicated else [])
            cells.append((spec.worker, (config, point, rep, context), labels))
    return cells


def _run_cell_guarded(item):
    worker, args, _ = item
    try:
        return worker(*args), None
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


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the name and bytes of each of the package's ``.py``
    sources and of its bridge table, in name order: results written by other
    code carry another digest. Read once per process, at the first
    :func:`run_experiment`."""
    digest = hashlib.sha256()
    files = (f for f in resources.files(__package__).iterdir() if f.name.endswith(".py") or f.name == TABLE_FILE)
    for source in sorted(files, key=lambda f: f.name):
        data = source.read_bytes()
        digest.update(f"{source.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute the grid x replications and persist deterministic tables.

    Returns the results directory. Output files: one CSV per table kind,
    its rows in the cell order of ``_cells`` at any ``threads``, plus
    manifest.json carrying the config hash, the source digest (see
    :func:`_source_digest`), master seed, package version, the names of
    the tables written, and any failed cells. A completed manifest with
    the same hash and source digest short-circuits the run unless
    ``config.force``.
    """
    out = Path(config.out)
    manifest_path = out / "manifest.json"
    if manifest_path.exists() and not config.force:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        same_code = manifest.get("source_digest") == _source_digest()
        if manifest.get("config_hash") == config.fingerprint() and same_code and manifest.get("complete"):
            return out
    out.mkdir(parents=True, exist_ok=True)

    source = _load_source(config.dataset, config.rescale_exponent) if "dataset" in _SPECS[config.experiment].keys else None

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
    for (worker, _, labels), (payload, error) in zip(cells, results):
        if error is not None:
            failures.append({"worker": worker.__name__, "args": labels, "error": error})
            continue
        for name, rows in payload.items():
            if rows:
                tables.setdefault(name, []).extend(rows)

    for name, rows in tables.items():
        _write_csv(out / f"{name}.csv", rows)

    manifest = {
        "config": config.canonical(),
        "config_hash": config.fingerprint(),
        "source_digest": _source_digest(),
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
    """Median AMC per grid cell and pair (the heatmap-backing table), its
    rows and key columns in their order in ``amc_rows``."""
    groups: dict = {}
    for row in amc_rows:
        key = tuple((k, row[k]) for k in row if k not in ("replication", "index", "amc", "pair"))
        pair = row.get("pair", "amc")
        groups.setdefault((key, pair), []).append(float(row["amc"]))
    summary = []
    for (key, pair), values in groups.items():
        entry = dict(key)
        entry["pair"] = pair
        entry["n"] = len(values)
        entry["median_amc"] = float(np.median(values))
        summary.append(entry)
    return summary


def emit_report(results_dir, format: str = "csv") -> list:
    """Derive flat report tables from a results directory.

    csv: writes a median-AMC summary (heatmap data) next to the raw
    tables. json: additionally bundles the manifest's tables plus the
    config fingerprint into report.json. Returns the written paths. Raises
    FileNotFoundError when ``results_dir`` holds no manifest.json.
    """
    if format not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    results_dir = Path(results_dir)
    if not (results_dir / "manifest.json").is_file():
        raise FileNotFoundError(f"{results_dir / 'manifest.json'} does not exist: not a results directory")
    tables = read_results(results_dir)
    written = []
    if "amc" in tables and tables["amc"]:
        summary = _median_amc_summary(tables["amc"])
        path = results_dir / "amc_summary.csv"
        _write_csv(path, summary)
        written.append(path)
    if format == "json":
        payload = {
            "config_hash": tables["manifest"]["config_hash"],
            "seed": tables["manifest"]["seed"],
            "tables": {name: tables[name] for name in tables["manifest"]["tables"]},
        }
        path = results_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        written.append(path)
    return written

"""Command-line interface.

One subcommand per experiment plus `fit`, `simulate`, `distance`, and
`report` utilities. Experiment subcommands read a flat JSON config and
accept overriding flags; the exit code is nonzero when any grid cell
failed, unless --allow-partial is given.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import (
    Experiment,
    _checked,
    _count,
    _count_cell_errors,
    _load_source,
    _read_csv,
    _write_csv,
    config_from_json,
    emit_report,
    load_counts_csv,
    make_qmp_standin,
    run_experiment,
)
from .counts import Flavor
from .evaluate import wasserstein_pd
from .exceptions import ZicountError
from .fitting import fit_intercept_only, fit_regression
from .synth import (
    _READS,
    LATENT_DIM,
    CorrKind,
    CorrelationSpec,
    Setting,
    SettingConfig,
    gen_setting_one,
    gen_setting_three,
    gen_setting_two,
    scenario_config,
)


def _add_run_flags(parser):
    parser.add_argument("--config", required=True, help="path to a flat JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config master seed")
    parser.add_argument("--out", default=None, help="override the results directory")
    parser.add_argument("--force", action="store_true", help="re-run even if the manifest is complete")
    parser.add_argument("--threads", type=int, default=None, help="worker processes for grid cells")
    parser.add_argument("--allow-partial", action="store_true", help="exit 0 even when cells failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zicount", description="Zero-inflated count model benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    for experiment in Experiment:
        sp = sub.add_parser(experiment.value, help=f"run the {experiment.value} experiment grid")
        _add_run_flags(sp)
        sp.set_defaults(handler=_cmd_experiment)

    fp = sub.add_parser("fit", help="fit one model to a count table")
    fp.add_argument("--data", required=True, help="CSV (header + rows) whose --column holds the counts")
    fp.add_argument("--model", choices=["zinb", "hnb", "nb"], required=True)
    fp.add_argument("--column", type=int, default=0, help="response column index")
    fp.add_argument("--covariates", default=None, help="optional CSV of real covariates (same row count)")
    fp.add_argument("--out", default=None, help="write the JSON fit summary here instead of stdout")
    fp.set_defaults(handler=_cmd_fit)

    sp = sub.add_parser("simulate", help="generate a synthetic dataset from a scenario")
    sp.add_argument("--scenario", choices=[setting.value for setting in Setting], required=True)
    sp.add_argument("--params", required=True, help="JSON file of scenario parameters")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(handler=_cmd_simulate)

    dp = sub.add_parser("distance", help="Wasserstein distance between two count tables")
    dp.add_argument("--a", required=True)
    dp.add_argument("--b", required=True)
    dp.add_argument("--order", type=int, choices=[1, 2], default=1)
    dp.set_defaults(handler=_cmd_distance)

    rp = sub.add_parser("report", help="derive summary tables from a results directory")
    rp.add_argument("--results", required=True)
    rp.add_argument("--format", choices=["csv", "json"], default="csv")
    rp.set_defaults(handler=_cmd_report)

    st = sub.add_parser("standin", help="write the bundled synthetic microbiome-like table")
    st.add_argument("--out", required=True)
    st.add_argument("--seed", type=int, default=7)
    st.set_defaults(handler=_cmd_standin)
    return parser


def _write_dataset_csv(path, values, names):
    rows = [dict(zip(names, row)) for row in np.asarray(values).tolist()]
    _write_csv(path, rows, fieldnames=list(names))


def _cmd_experiment(args) -> int:
    config = config_from_json(
        args.config,
        seed=args.seed,
        out=args.out,
        threads=args.threads,
    )
    if config.experiment is not Experiment(args.command):
        print(
            f"error: config is for {config.experiment.value!r}, not {args.command!r}",
            file=sys.stderr,
        )
        return 2
    if args.force:
        config = dataclasses.replace(config, force=True)
    out = run_experiment(config)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    failures = manifest.get("failures", [])
    print(f"results: {out} ({manifest['n_cells']} cells, {len(failures)} failed)")
    if failures and not args.allow_partial:
        for f in failures[:10]:
            print(f"failed cell: {f}", file=sys.stderr)
        return 3
    return 0


def _cmd_fit(args) -> int:
    def response(names):
        if not 0 <= args.column < len(names):
            raise ValueError(f"--column {args.column} is outside [0, {len(names)}) for {args.data}")
        return [args.column]

    # only the response column must hold counts
    y = _read_csv(args.data, _count_cell_errors, response)[1][:, 0].astype(np.int64)
    flavor = Flavor(args.model)
    if args.covariates is not None:
        cov = _read_csv(args.covariates, lambda v: (("non-finite cell", ~np.isfinite(v)),))[1]
        if len(cov) != len(y):
            raise ValueError(f"--covariates {args.covariates} has {len(cov)} rows, --data has {len(y)}")
        X = np.column_stack([np.ones(len(y)), cov])
        if flavor is Flavor.NB:
            print("error: NB fits are intercept-only", file=sys.stderr)
            return 2
        fit = fit_regression(y, X, X if flavor is Flavor.ZINB else None, flavor)
    else:
        fit = fit_intercept_only(y, flavor)
    payload = {
        "model": args.model,
        "n_obs": fit.n_obs,
        "beta": fit.coefficients.beta.tolist(),
        "gamma": fit.coefficients.gamma.tolist(),
        "log_r": fit.coefficients.log_r,
        "loglik": fit.loglik,
        "n_params": fit.n_params,
        "aic": fit.aic,
        "converged": fit.converged,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# (coerce, valid) of each simulate parameter, as bench._SCALARS checks the config's
_PARAMETER_CHECKS = {
    **dict.fromkeys(("n", "p"), (_count, lambda v: v >= 1)),
    **dict.fromkeys(("beta0", "beta1", "gamma0", "gamma1", "rho"), (float, np.isfinite)),
    "r": (float, lambda v: v > 0.0 and np.isfinite(v)),
    "flavor": (lambda v: Flavor(str(v).lower()), lambda v: v is not Flavor.NB),
    "corr": (lambda v: CorrKind(str(v).upper()), lambda v: True),
    "orthogonal_seed": (_count, lambda v: v >= 0),
    "zero_target": (float, lambda v: 0.0 < v < 1.0),
    "transform": (str, lambda v: v in ("none", "sqrt")),
    "dataset": (lambda v: v, lambda v: isinstance(v, str) and v != ""),
    "rescale_exponent": (float, lambda v: 0.0 < v <= 1.0),
}
# the parameters that stand for a SettingConfig field; every other field is its own
_PARAMETERS_OF = {"corr": ("corr", "rho", "orthogonal_seed"), "marginal_source": ("dataset", "rescale_exponent")}


def scenario_parameters(setting: Setting) -> tuple:
    """The simulate parameters of ``setting``: those of each field it reads."""
    return tuple(key for name in _READS[setting] for key in _PARAMETERS_OF.get(name, (name,)))


def _scenario_config(scenario: str, params) -> SettingConfig:
    """The SettingConfig of a simulate params object; an omitted parameter
    takes the scenario's constant."""
    if not isinstance(params, dict):
        raise ValueError("scenario parameters must be a JSON object")
    setting = Setting(scenario)
    keys = scenario_parameters(setting)
    unread = [key for key in params if key not in keys]
    if unread:
        raise ValueError(f"scenario {scenario} does not read parameters {unread}")
    missing = [key for key in ("corr", "rho") if key in keys and key not in params]
    if missing:
        raise ValueError(f"scenario {scenario} needs parameters {missing}")
    v = {key: _checked(key, *_PARAMETER_CHECKS[key], value, "scenario parameter") for key, value in params.items()}
    if "corr" in v:
        spec = {key: v.pop(key) for key in ("rho", "orthogonal_seed") if key in v}
        v["corr"] = CorrelationSpec(v["corr"], p=v.get("p", LATENT_DIM), **spec)
    if "marginal_source" in _READS[setting]:
        v["marginal_source"] = _load_source(v.pop("dataset", "standin"), v.pop("rescale_exponent", None)).values
    return scenario_config(setting, **v)


def _cmd_simulate(args) -> int:
    with open(args.params) as fh:
        params = json.load(fh)
    config = _scenario_config(args.scenario, params)
    if config.setting in (Setting.ONE, Setting.ONE_DEFLATION):
        y, x = gen_setting_one(config, args.seed)
        _write_dataset_csv(args.out, np.column_stack([y, x]), ["y", "x"])
    elif config.setting is Setting.TWO:
        Y, X = gen_setting_two(config, args.seed)
        names = [f"y{j}" for j in range(Y.shape[1])] + [f"x{j}" for j in range(X.shape[1])]
        _write_dataset_csv(args.out, np.column_stack([Y, X]), names)
    else:
        Y = gen_setting_three(config, args.seed)
        _write_dataset_csv(args.out, Y, [f"y{j}" for j in range(Y.shape[1])])
    print(f"wrote {args.out}")
    return 0


def _cmd_distance(args) -> int:
    a = load_counts_csv(args.a).values
    b = load_counts_csv(args.b).values
    print(f"{wasserstein_pd(a, b, order=args.order):.10g}")
    return 0


def _cmd_report(args) -> int:
    written = emit_report(args.results, format=args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_standin(args) -> int:
    data = make_qmp_standin(seed=args.seed)
    _write_dataset_csv(args.out, data.values.astype(np.int64), data.variable_names)
    print(f"wrote {args.out} ({data.n} x {data.p})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
    except (ZicountError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

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
    _write_csv,
    config_from_json,
    emit_report,
    load_counts_csv,
    make_qmp_standin,
    read_results,
    rescale_power,
    run_experiment,
)
from .counts import Flavor
from .evaluate import wasserstein_pd
from .exceptions import ZicountError
from .fitting import fit_intercept_only, fit_regression
from .synth import (
    CorrKind,
    CorrelationSpec,
    Setting,
    SettingConfig,
    gen_setting_one,
    gen_setting_three,
    gen_setting_two,
)

_EXPERIMENT_COMMANDS = {
    "setting-one": Experiment.SETTING_ONE,
    "setting-one-deflation": Experiment.SETTING_ONE_DEFLATION,
    "setting-two": Experiment.SETTING_TWO,
    "setting-three": Experiment.SETTING_THREE,
    "real-data": Experiment.REAL_DATA,
}


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

    for command in _EXPERIMENT_COMMANDS:
        sp = sub.add_parser(command, help=f"run the {command} experiment grid")
        _add_run_flags(sp)

    fp = sub.add_parser("fit", help="fit one model to a count table")
    fp.add_argument("--data", required=True, help="counts CSV (header + numeric rows)")
    fp.add_argument("--model", choices=["zinb", "hnb", "nb"], required=True)
    fp.add_argument("--column", type=int, default=0, help="response column index")
    fp.add_argument("--covariates", default=None, help="optional covariate CSV (same row count)")
    fp.add_argument("--out", default=None, help="write the JSON fit summary here instead of stdout")

    sp = sub.add_parser("simulate", help="generate a synthetic dataset from a scenario")
    sp.add_argument("--scenario", choices=["one", "one-deflation", "two", "three"], required=True)
    sp.add_argument("--params", required=True, help="JSON file of scenario parameters")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")

    dp = sub.add_parser("distance", help="Wasserstein distance between two count tables")
    dp.add_argument("--a", required=True)
    dp.add_argument("--b", required=True)
    dp.add_argument("--order", type=int, choices=[1, 2], default=1)

    rp = sub.add_parser("report", help="derive summary tables from a results directory")
    rp.add_argument("--results", required=True)
    rp.add_argument("--format", choices=["csv", "json"], default="csv")

    st = sub.add_parser("standin", help="write the bundled synthetic microbiome-like table")
    st.add_argument("--out", required=True)
    st.add_argument("--seed", type=int, default=7)
    return parser


def _write_dataset_csv(path, values, names):
    rows = [dict(zip(names, row)) for row in np.asarray(values).tolist()]
    _write_csv(path, rows, fieldnames=list(names))


def _cmd_experiment(command: str, args) -> int:
    config = config_from_json(
        args.config,
        seed=args.seed,
        out=args.out,
        threads=args.threads,
    )
    if config.experiment is not _EXPERIMENT_COMMANDS[command]:
        print(
            f"error: config is for {config.experiment.value!r}, not {command!r}",
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
    data = load_counts_csv(args.data)
    y = data.values[:, args.column].astype(np.int64)
    flavor = Flavor(args.model)
    if args.covariates is not None:
        cov = load_counts_csv(args.covariates).values
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


def _scenario_config(scenario: str, params: dict) -> SettingConfig:
    corr = None
    if "corr" in params:
        corr = CorrelationSpec(
            kind=CorrKind(str(params["corr"]).upper()),
            rho=float(params["rho"]),
            p=int(params.get("p", 5)),
            orthogonal_seed=int(params.get("orthogonal_seed", 0)),
        )
    setting = {
        "one": Setting.ONE,
        "one-deflation": Setting.ONE_DEFLATION,
        "two": Setting.TWO,
        "three": Setting.THREE,
    }[scenario]
    marginal_source = None
    if setting is Setting.THREE:
        src = params.get("dataset", "standin")
        data = make_qmp_standin() if src == "standin" else load_counts_csv(src)
        if "rescale_exponent" in params:
            data = rescale_power(data, float(params["rescale_exponent"]))
        marginal_source = data.values
    return SettingConfig(
        setting=setting,
        n=int(params.get("n", 500)),
        p=int(params.get("p", 5 if corr is not None else 1)),
        beta0=float(params.get("beta0", 0.0)),
        beta1=float(params.get("beta1", 0.0)),
        gamma0=float(params.get("gamma0", 0.0)),
        gamma1=float(params.get("gamma1", 0.0)),
        r=float(params.get("r", 1.0)),
        corr=corr,
        flavor=Flavor(str(params.get("flavor", "hnb")).lower()),
        zero_target=params.get("zero_target"),
        transform=str(params.get("transform", "none")),
        marginal_source=marginal_source,
    )


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
        if args.command in _EXPERIMENT_COMMANDS:
            code = _cmd_experiment(args.command, args)
        elif args.command == "fit":
            code = _cmd_fit(args)
        elif args.command == "simulate":
            code = _cmd_simulate(args)
        elif args.command == "distance":
            code = _cmd_distance(args)
        elif args.command == "report":
            code = _cmd_report(args)
        else:
            code = _cmd_standin(args)
    except (ZicountError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

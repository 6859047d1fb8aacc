import csv
import dataclasses
import json

import numpy as np
import pytest

from zicount import CorrelationSpec, CorrKind, Flavor, bench
from zicount.bench import _CHECKS, ExperimentConfig
from zicount.cli import main, scenario_parameters
from zicount.evaluate import wasserstein_pd
from zicount.fitting import fit_intercept_only, fit_regression
from zicount.exceptions import InvalidParameterError
from zicount.synth import Setting, gen_setting_one, gen_setting_two, scenario_config


def write_counts(path, values, names=None):
    values = np.asarray(values)
    names = names or [f"c{j}" for j in range(values.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(values.tolist())
    return path


@pytest.fixture()
def counts_csv(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((50, 3))
    vals = np.where(z > -0.5, np.round(np.exp(1.5 + z)), 0.0)
    return write_counts(tmp_path / "counts.csv", vals)


class TestDistanceCommand:
    def test_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.poisson(3.0, size=(12, 2))
        b = rng.poisson(3.0, size=(12, 2))
        pa = write_counts(tmp_path / "a.csv", a)
        pb = write_counts(tmp_path / "b.csv", b)
        assert main(["distance", "--a", str(pa), "--b", str(pb), "--order", "2"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(wasserstein_pd(a, b, 2), rel=1e-9)

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["distance", "--a", str(tmp_path / "nope.csv"), "--b", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_hnb_json(self, counts_csv, capsys):
        assert main(["fit", "--data", str(counts_csv), "--model", "hnb", "--column", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "hnb"
        assert payload["aic"] == pytest.approx(2 * payload["n_params"] - 2 * payload["loglik"])

    @pytest.mark.parametrize("model, covariates", [("hnb", True), ("zinb", True), ("zinb", False)])
    def test_fit_zero_model_json(self, counts_csv, tmp_path, capsys, model, covariates):
        cov = write_counts(tmp_path / "cov.csv", np.arange(50)[:, None] % 7, ["x"])
        flags = ["--covariates", str(cov)] if covariates else []
        assert main(["fit", "--data", str(counts_csv), "--model", model, *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["beta"]) == 1 + covariates and payload["n_params"] == 3 + 2 * covariates
        assert payload["converged"] is True
        assert payload["aic"] == 2 * payload["n_params"] - 2 * payload["loglik"]

    def test_fit_simulated_setting_one_on_its_real_covariate(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text("{}")
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", "one", "--params", str(params), "--seed", "4", "--out", str(sim)]) == 0
        with open(sim, newline="") as fh:
            rows = list(csv.DictReader(fh))
        y = np.array([float(row["y"]) for row in rows]).astype(np.int64)
        x = np.array([float(row["x"]) for row in rows])
        assert np.any(x != np.round(x)) and np.any(x < 0)
        cov = write_counts(tmp_path / "x.csv", x[:, None], ["x"])
        capsys.readouterr()
        # the simulated y,x table itself is the data: only its column 0 holds counts
        assert main(["fit", "--data", str(sim), "--model", "zinb", "--covariates", str(cov)]) == 0
        payload = json.loads(capsys.readouterr().out)
        X = np.column_stack([np.ones(len(y)), x])
        fit = fit_regression(y, X, X, Flavor.ZINB)
        assert payload["converged"] is True and payload["n_params"] == 5
        assert payload["loglik"] == fit.loglik and payload["beta"] == fit.coefficients.beta.tolist()
        assert main(["fit", "--data", str(sim), "--model", "hnb", "--column", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["loglik"] == fit_intercept_only(y, Flavor.HNB).loglik

    @pytest.mark.parametrize(
        "column, message",
        [(0, "row 3, column 1: non-integer count '2.5'"), (2, "row 2, column 3: negative or non-finite cell '-1'")],
    )
    def test_bad_cell_of_the_response_column_is_an_error_line(self, tmp_path, capsys, column, message):
        data = tmp_path / "data.csv"
        data.write_text("y,x,z\n1,-0.5,-1\n2.5,0.25,3\n" + "4,1e9,2\n" * 10)
        assert main(["fit", "--data", str(data), "--model", "nb", "--column", str(column)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "cells, message",
        [
            (["0.5", "x1"] + ["1.5"] * 48, "row 3, column 1: non-numeric cell 'x1'"),
            (["-0.5", "inf"] + ["1.5"] * 48, "row 3, column 1: non-finite cell 'inf'"),
            (["-0.5"] * 49, "has 49 rows, --data has 50"),
        ],
    )
    def test_bad_covariates_are_an_error_line(self, counts_csv, tmp_path, capsys, cells, message):
        cov = tmp_path / "cov.csv"
        cov.write_text("x\n" + "\n".join(cells) + "\n")
        assert main(["fit", "--data", str(counts_csv), "--model", "zinb", "--covariates", str(cov)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("column", [3, -1])
    def test_column_outside_the_table_is_error(self, counts_csv, capsys, column):
        assert main(["fit", "--data", str(counts_csv), "--model", "hnb", "--column", str(column)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --column {column} is outside [0, 3)")
        assert len(captured.err.splitlines()) == 1

    def test_fit_writes_file(self, counts_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(counts_csv), "--model", "nb", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_params"] == 2


class TestSimulateCommand:
    def test_scenario_two_writes_csv(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"corr": "AR", "rho": 0.5, "p": 3, "n": 80, "beta0": 2.0, "beta1": 1.0, "gamma0": -2.0, "r": 6.0}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", "two", "--params", str(params), "--seed", "1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 80
        assert set(rows[0]) == {"y0", "y1", "y2", "x0", "x1", "x2"}

    @pytest.mark.parametrize(
        "key, value, shown", [("n", None, "None"), ("rho", "high", "'high'"), ("orthogonal_seed", 1.5, "1.5")]
    )
    def test_malformed_parameter_is_error(self, tmp_path, capsys, key, value, shown):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"corr": "AR", "rho": 0.5, "p": 3, "n": 80, key: value}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", "two", "--params", str(params), "--out", str(out)]) == 1
        assert f"error: scenario parameter {shown} out of range for {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def simulate(self, tmp_path, scenario, params, seed=0):
        """(exit code, output path) of one ``zicount simulate`` run."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "sim.csv"
        return main(["simulate", "--scenario", scenario, "--params", str(path), "--seed", str(seed), "--out", str(out)]), out

    @pytest.mark.parametrize(
        "scenario, params, named",
        [
            ("one", {"beta_0": 2, "zero_target": 0.4, "p": 4}, "['beta_0', 'zero_target', 'p']"),
            ("one", {"zero_target": 0.4}, "['zero_target']"),
            ("one", {"p": 4}, "['p']"),
            ("one-deflation", {"dataset": "nope.csv", "transform": "sqrt"}, "['dataset', 'transform']"),
            ("two", {"corr": "AR", "rho": 0.5, "flavor": "zinb"}, "['flavor']"),
            ("three", {"corr": "AR", "rho": 0.5, "beta0": 1.0}, "['beta0']"),
        ],
    )
    def test_unknown_or_unread_parameter_is_error(self, tmp_path, capsys, scenario, params, named):
        code, out = self.simulate(tmp_path, scenario, params)
        assert code == 1
        assert capsys.readouterr().err == f"error: scenario {scenario} does not read parameters {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["two", "three"])
    def test_corr_scenario_without_rho_is_error(self, tmp_path, capsys, scenario):
        code, out = self.simulate(tmp_path, scenario, {"corr": "GD"})
        assert code == 1
        assert capsys.readouterr().err == f"error: scenario {scenario} needs parameters ['rho']\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, key", [(setting.value, key) for setting in Setting for key in scenario_parameters(setting)]
    )
    def test_null_parameter_names_its_key(self, tmp_path, capsys, scenario, key):
        required = {"corr": "AR", "rho": 0.5} if "corr" in scenario_parameters(Setting(scenario)) else {}
        code, out = self.simulate(tmp_path, scenario, dict(required, **{key: None}))
        assert code == 1
        assert capsys.readouterr().err == f"error: scenario parameter None out of range for {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("one", {"beta0": 800}),
            ("one", {"beta0": 800, "flavor": "zinb"}),
            ("one-deflation", {"beta0": 800}),
            ("two", {"corr": "AR", "rho": 0.5, "beta0": 800}),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_infinite_mean_is_an_error_line(self, tmp_path, capsys, scenario, params):
        code, out = self.simulate(tmp_path, scenario, params)
        assert code == 1
        assert capsys.readouterr().err == "error: NB mean inf is not finite; its draws exceed int64\n"
        assert not out.exists()

    def test_scenario_one_omitted_parameters_are_the_papers(self, tmp_path):
        code, out = self.simulate(tmp_path, "one", {}, seed=3)
        assert code == 0
        y, x = gen_setting_one(scenario_config(Setting.ONE, flavor=Flavor.HNB, gamma0=0.0), 3)
        assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1), np.column_stack([y, x]))

    def test_scenario_two_omitted_parameters_are_the_papers(self, tmp_path):
        code, out = self.simulate(tmp_path, "two", {"corr": "AR", "rho": 0.5}, seed=3)
        assert code == 0
        config = scenario_config(Setting.TWO, corr=CorrelationSpec(CorrKind.AR, 0.5, 5), beta1=0.0, gamma0=0.0, gamma1=0.0)
        Y, X = gen_setting_two(config, 3)
        written = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(written, np.column_stack([Y, X]))
        assert written.shape == (1200, 10) and 7.0 < Y.mean() < 9.0

    def test_scenario_three_standin(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"corr": "AR", "rho": 0.7, "p": 5, "n": 60, "zero_target": 0.4, "dataset": "standin"}))
        out = tmp_path / "sim3.csv"
        assert main(["simulate", "--scenario", "three", "--params", str(params), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60


def test_each_key_from_outside_has_one_check():
    """bench._CHECKS holds exactly the checked config fields, the grid keys
    and the simulate parameters."""
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment", "grids", "out"}
    grid_keys = {key for spec in bench._SPECS.values() for key in spec.grid}
    parameters = {key for setting in Setting for key in scenario_parameters(setting)}
    assert set(_CHECKS) == config_fields | grid_keys | parameters


class TestStandinCommand:
    def test_writes_loadable_table(self, tmp_path):
        out = tmp_path / "standin.csv"
        assert main(["standin", "--out", str(out)]) == 0
        from zicount.bench import load_counts_csv

        data = load_counts_csv(out)
        assert (data.n, data.p) == (135, 101)


class TestExperimentCommands:
    def test_deflation_run_and_report(self, tmp_path, capsys):
        cfg = {
            "experiment": "setting-one-deflation",
            "grids": {"pi_h": [0.3, 0.6]},
            "replications": 1,
            "seed": 2,
            "out": str(tmp_path / "res"),
            "n": 150,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one-deflation", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "res" / "manifest.json").exists()
        assert main(["report", "--results", str(tmp_path / "res"), "--format", "json"]) == 0
        assert (tmp_path / "res" / "report.json").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_outside_a_results_directory_is_error(self, tmp_path, capsys, fmt):
        for results in (tmp_path / "missing", tmp_path):
            assert main(["report", "--results", str(results), "--format", fmt]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {results / 'manifest.json'} does not exist: not a results directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_wrong_subcommand_for_config(self, tmp_path, capsys):
        cfg = {
            "experiment": "setting-one-deflation",
            "grids": {"pi_h": [0.3]},
            "out": str(tmp_path / "res2"),
            "n": 150,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one", "--config", str(cfg_path)]) == 2

    def test_seed_override_changes_fingerprint(self, tmp_path):
        cfg = {
            "experiment": "setting-one-deflation",
            "grids": {"pi_h": [0.4]},
            "seed": 1,
            "out": str(tmp_path / "res3"),
            "n": 150,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one-deflation", "--config", str(cfg_path), "--seed", "9"]) == 0
        with open(tmp_path / "res3" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 9

    def test_invalid_config_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "setting-one", "grids": {}}))
        assert main(["setting-one", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_null_grid_value_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "setting-one-deflation", "grids": {"pi_h": [None]}, "out": str(tmp_path / "res")}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one-deflation", "--config", str(cfg_path)]) == 1
        assert "error: grid value None out of range for 'pi_h'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, shown",
        [("replications", None, "None"), ("threads", "2", "'2'"), ("n", 0, "0")],
    )
    def test_malformed_scalar_is_error(self, tmp_path, capsys, key, value, shown):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "setting-one-deflation", "grids": {"pi_h": [0.3]}, "out": str(tmp_path / "res"), key: value}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one-deflation", "--config", str(cfg_path)]) == 1
        assert f"error: config value {shown} out of range for {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "key, value, shown",
        [
            ("dataset", 5, "5"),
            ("dataset", "", "''"),
            ("collect_extras", "no", "'no'"),
            ("collect_extras", 1, "1"),
            ("force", "no", "'no'"),
        ],
    )
    def test_malformed_flag_or_dataset_is_error(self, tmp_path, capsys, key, value, shown):
        """Switches are JSON true or false, and a dataset is a nonempty path."""
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "real-data", "dataset": "standin", "n_splits": 1, "out": str(tmp_path / "res"), key: value}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["real-data", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: config value {shown} out of range for {key!r}\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "models", [None, [], "hnb", ["hnb", "zip"], ["hnb", "hnb", "tlnpn"]], ids=repr
    )
    def test_malformed_models_is_error(self, tmp_path, capsys, models):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "real-data", "dataset": "standin", "n_splits": 1, "out": str(tmp_path / "res"), "models": models}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["real-data", "--config", str(cfg_path)]) == 1
        assert f"error: config value {models!r} out of range for 'models'" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("models", [["hnb_cv"], ["hnb_cv", "tlnpn"]], ids=repr)
    def test_hnb_cv_without_covariates_is_error(self, tmp_path, capsys, models):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "real-data", "dataset": "standin", "n_splits": 1, "out": str(tmp_path / "res"), "models": models}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["real-data", "--config", str(cfg_path)]) == 1
        assert "error: model 'hnb_cv' needs covariates" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "experiment, grids",
        [
            ("setting-two", {"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5, -0.5], "corr": ["AR", "GD"]}),
            ("setting-three", {"rho": [-0.5], "zero_target": [0.4], "transform": ["none"], "corr": ["GD"]}),
        ],
    )
    def test_corr_rho_pair_out_of_range_is_error(self, tmp_path, capsys, experiment, grids):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": experiment, "grids": grids, "n": 60, "out": str(tmp_path / "res")}
        if experiment == "setting-three":
            cfg["dataset"] = "standin"
        cfg_path.write_text(json.dumps(cfg))
        assert main([experiment, "--config", str(cfg_path)]) == 1
        assert "error: grid pair corr='GD', rho=-0.5: GD requires 0 < rho < 1" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("flags, code", [([], 3), (["--allow-partial"], 0)])
    def test_failed_cell_exit_code(self, tmp_path, monkeypatch, capsys, flags, code):
        def failing_at_04(config, zero_target, seed):
            if zero_target == 0.4:
                raise InvalidParameterError("no gamma0 reaches the target")
            return resolve(config, zero_target, seed)

        resolve = bench.resolve_setting_one_gamma0
        monkeypatch.setattr(bench, "resolve_setting_one_gamma0", failing_at_04)
        cfg = {
            "experiment": "setting-one",
            "grids": {"zero_target": [0.2, 0.4], "flavor": ["zinb"]},
            "seed": 3,
            "out": str(tmp_path / "res"),
            "n": 120,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one", "--config", str(cfg_path), *flags]) == code
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert ("failed cell" in captured.err) == (code == 3)

    def test_key_the_experiment_does_not_read_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "experiment": "setting-one",
            "grids": {"zero_target": [0.4], "flavor": ["zinb"]},
            "folds": 3,
            "out": str(tmp_path / "res"),
        }
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: setting-one does not read config keys ['folds']\n"
        assert not (tmp_path / "res").exists()

    def test_allow_partial_is_not_a_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"experiment": "setting-one-deflation", "grids": {"pi_h": [0.3]}, "out": str(tmp_path / "res"), "allow_partial": True}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["setting-one-deflation", "--config", str(cfg_path)]) == 1
        assert "allow_partial" in capsys.readouterr().err

import csv
import json

import numpy as np
import pytest

from zicount import bench
from zicount.cli import main
from zicount.evaluate import wasserstein_pd
from zicount.exceptions import InvalidParameterError


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

    def test_scenario_three_standin(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"corr": "AR", "rho": 0.7, "p": 5, "n": 60, "zero_target": 0.4, "dataset": "standin"}))
        out = tmp_path / "sim3.csv"
        assert main(["simulate", "--scenario", "three", "--params", str(params), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60


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

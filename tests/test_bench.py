import csv
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zicount import bench
from zicount.bench import (
    _SPECS,
    Dataset,
    Experiment,
    ExperimentConfig,
    config_from_json,
    emit_report,
    load_counts_csv,
    make_qmp_standin,
    read_results,
    rescale_power,
    run_experiment,
)
from zicount.counts import Flavor
from zicount.evaluate import EvalRecord, EvalReport
from zicount.exceptions import InvalidParameterError, ParseError
from zicount.synth import Setting, resolve_setting_one_gamma0, scenario_config

mpmath.mp.dps = 50


class TestLoadCountsCsv:
    def test_small_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0,1\n2,3\n")
        data = load_counts_csv(path)
        assert np.array_equal(data.values, [[0, 1], [2, 3]])
        assert data.variable_names == ("a", "b")

    def test_negative_entry_names_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0,1\n2,-3\n")
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            load_counts_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_entry_names_cell(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b,c\n0,1,2\n3,4,5\n6,7,{cell}\n")
        with pytest.raises(ParseError, match=rf"row 4, column 3: negative or non-finite cell '{cell}'"):
            load_counts_csv(path)

    def test_non_numeric_names_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0,x\n")
        with pytest.raises(ParseError, match=r"row 2, column 2"):
            load_counts_csv(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n2.5\n")
        with pytest.raises(ParseError, match="non-integer"):
            load_counts_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2\n3,x,5\n", "row 3, column 2: non-numeric cell 'x'"),
            ("0,1,2\n3,4,-5\n", "row 3, column 3: negative or non-finite cell '-5'"),
            ("0,1,2\n3, 4.5,5\n", "row 3, column 2: non-integer count ' 4.5'"),
            ("0,nan,2\n", "row 2, column 2: negative or non-finite cell 'nan'"),
            ("0,1,2\n-inf,4,5\n", "row 3, column 1: negative or non-finite cell '-inf'"),
            ("0,1,2\n3,4\n", "row 3 has 2 cells, expected 3"),
            ("0,1,2\n\n,,\n3,4,5.5\n", "row 5, column 3: non-integer count '5.5'"),
            # the first bad cell in the file is named, whatever its kind
            ("0,1.5,-2\n", "row 2, column 2: non-integer count '1.5'"),
            ("0,-1,2\n3,4\n", "row 2, column 2: negative or non-finite cell '-1'"),
            ("0,-1,x\n", "row 2, column 2: negative or non-finite cell '-1'"),
            ("0,1,x\n3,4,-5\n", "row 2, column 3: non-numeric cell 'x'"),
        ],
        ids=["non-numeric", "negative", "non-integer", "nan", "inf", "ragged", "after-blank-rows", "first-of-a-row", "before-a-ragged-row", "before-a-non-numeric-cell", "non-numeric-first"],
    )
    def test_first_bad_cell_is_named(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n" + body)
        with pytest.raises(ParseError) as caught:
            load_counts_csv(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_counts_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_counts_csv(path)


class TestRescalePower:
    def test_fixed_points(self):
        data = Dataset(np.array([[0.0, 1.0]]), ("a", "b"))
        out = rescale_power(data, 0.851)
        assert np.array_equal(out.values, [[0.0, 1.0]])

    def test_large_value_against_high_precision_oracle(self):
        data = Dataset(np.array([[1000.0]]), ("a",))
        out = rescale_power(data, 0.851)
        oracle = float(mpmath.nint(mpmath.mpf(1000) ** mpmath.mpf("0.851")))
        assert out.values[0, 0] == oracle

    def test_provenance_recorded(self):
        data = Dataset(np.array([[4.0]]), ("a",))
        out = rescale_power(data, 0.5)
        assert any("power(0.5)" in p for p in out.provenance)

    def test_validates_exponent(self):
        data = Dataset(np.array([[4.0]]), ("a",))
        with pytest.raises(ValueError):
            rescale_power(data, 1.5)

    def test_pipeline_provenance_is_ordered(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n0,1,4\n2,0,9\n0,3,16\n")
        data = load_counts_csv(path)
        data = rescale_power(data, 0.5)
        kinds = [p.split("(")[0] for p in data.provenance]
        assert kinds == ["load", "power"]


class TestStandin:
    def test_shape_matches_protocol(self):
        data = make_qmp_standin()
        assert (data.n, data.p) == (135, 101)

    def test_zero_fraction_quartiles_match_reference_values(self):
        data = make_qmp_standin()
        zf = np.sort(np.mean(data.values == 0, axis=0))
        quartiles = np.quantile(zf, [0.25, 0.5, 0.75, 1.0])
        assert quartiles == pytest.approx([0.037, 0.289, 0.578, 0.793], abs=5e-4)

    def test_counts_are_nonnegative_integers(self):
        data = make_qmp_standin()
        assert (data.values >= 0).all()
        assert np.array_equal(data.values, np.round(data.values))

    def test_heavy_skew(self):
        data = make_qmp_standin()
        pos = data.values[data.values > 0]
        assert np.mean(pos) > 3 * np.median(pos)


# (grid, a change of that grid, the non-grid keys read) of each experiment
READ_KEYS = {
    Experiment.SETTING_ONE: ({"zero_target": [0.4], "flavor": ["zinb"]}, {"zero_target": [0.5]}, ("replications", "n")),
    Experiment.SETTING_ONE_DEFLATION: ({"pi_h": [0.3]}, {"pi_h": [0.4]}, ("replications", "n")),
    Experiment.SETTING_TWO: (
        {"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]},
        {"rho": [0.6]},
        ("replications", "n", "folds", "models", "qmc_points", "order", "collect_extras"),
    ),
    Experiment.SETTING_THREE: (
        {"rho": [0.5], "zero_target": [0.4], "transform": ["none"], "corr": ["AR"]},
        {"rho": [0.6]},
        ("replications", "n", "folds", "models", "qmc_points", "order", "collect_extras", "dataset", "rescale_exponent"),
    ),
    Experiment.REAL_DATA: (
        {},
        None,
        ("n_splits", "folds", "models", "qmc_points", "order", "collect_extras", "dataset", "rescale_exponent"),
    ),
}


class TestExperimentConfig:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty grid"):
            ExperimentConfig(experiment=Experiment.SETTING_ONE, grids={"zero_target": [], "flavor": ["zinb"]})

    def test_rejects_unknown_grid_key(self):
        with pytest.raises(ValueError, match="not valid"):
            ExperimentConfig(
                experiment=Experiment.SETTING_ONE,
                grids={"zero_target": [0.4], "flavor": ["zinb"], "rho": [0.5]},
            )

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="out of range"):
            ExperimentConfig(
                experiment=Experiment.SETTING_ONE,
                grids={"zero_target": [1.4], "flavor": ["zinb"]},
            )

    def test_fingerprint_stable_under_grid_order(self):
        a = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.4], "flavor": ["zinb"]},
        )
        b = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"flavor": ["zinb"], "zero_target": [0.4]},
        )
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("experiment", list(Experiment))
    def test_fingerprint_covers_the_keys_each_experiment_reads(self, experiment):
        grids, moved_grid, reads = READ_KEYS[experiment]
        source = {"dataset": "standin"} if "dataset" in reads else {}
        base = ExperimentConfig(experiment=experiment, grids=grids, **source)
        run_only = {"out": "elsewhere", "threads": 2, "force": True}
        changes = {
            "replications": 2,
            "folds": 3,
            "n_splits": 7,
            "order": 2,
            "models": ("hnb",),
            "dataset": "other.csv",
            "rescale_exponent": 0.5,
            "n": 100,
            "qmc_points": 512,
            "collect_extras": True,
        }
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(changes) == names - set(run_only) - {"experiment", "grids", "seed"}
        assert set(base.canonical()) == names - set(run_only)
        moves = {"seed": 1, **{key: changes[key] for key in reads}}
        if moved_grid:
            moves["grids"] = dict(grids, **moved_grid)
        for key, value in moves.items():
            assert dataclasses.replace(base, **{key: value}).fingerprint() != base.fingerprint(), key
        for key in set(changes) - set(reads):
            with pytest.raises(ValueError, match=rf"{experiment.value} does not read config keys \['{key}'\]"):
                dataclasses.replace(base, **{key: changes[key]})
        for key, value in run_only.items():
            assert dataclasses.replace(base, **{key: value}).fingerprint() == base.fingerprint(), key

    def test_unread_keys_are_named_together(self):
        with pytest.raises(ValueError, match=r"setting-one-deflation does not read config keys \['folds', 'dataset'\]"):
            ExperimentConfig(experiment=Experiment.SETTING_ONE_DEFLATION, grids={"pi_h": [0.3]}, folds=3, dataset="nope.csv")

    @pytest.mark.parametrize("exponent", [5.0, -1])
    def test_rejects_rescale_exponent_outside_unit_interval(self, exponent):
        with pytest.raises(ValueError, match=rf"config value {exponent} out of range for 'rescale_exponent'"):
            ExperimentConfig(experiment=Experiment.REAL_DATA, dataset="standin", rescale_exponent=exponent)

    def test_grid_values_are_stored_coerced(self):
        config = ExperimentConfig(experiment=Experiment.SETTING_ONE, grids={"zero_target": ["0.5"], "flavor": ["ZINB"]})
        assert config.grids == {"zero_target": [0.5], "flavor": ["zinb"]}
        shipped = ExperimentConfig(experiment=Experiment.SETTING_ONE, grids={"zero_target": [0.5], "flavor": ["zinb"]})
        assert config.fingerprint() == shipped.fingerprint()

    @pytest.mark.parametrize(
        "experiment, grids, key, pair",
        [
            (Experiment.SETTING_ONE_DEFLATION, {"pi_h": [0.6, 0.3, 0.3004]}, "pi_h", "0.3 and 0.3004"),
            (Experiment.SETTING_ONE, {"zero_target": [0.4, 0.5, 0.4], "flavor": ["zinb"]}, "zero_target", "0.4 and 0.4"),
        ],
    )
    def test_rejects_grid_values_that_share_a_random_stream(self, experiment, grids, key, pair):
        with pytest.raises(ValueError, match=re.escape(f"grid values {pair} of {key!r} share one random stream")):
            ExperimentConfig(experiment=experiment, grids=grids)

    def test_values_one_stream_tag_apart_are_accepted(self):
        config = ExperimentConfig(experiment=Experiment.SETTING_ONE_DEFLATION, grids={"pi_h": [0.3, 0.3006]})
        assert config.grids == {"pi_h": [0.3, 0.3006]}
        three = {"rho": [0.5], "zero_target": [0.4, 0.4001], "transform": ["none"], "corr": ["AR"]}
        assert ExperimentConfig(experiment=Experiment.SETTING_THREE, grids=three, dataset="standin").grids == three

    @pytest.mark.parametrize(
        "experiment, key",
        [
            pytest.param(experiment, key, id=f"{experiment.value}-{key}")
            for experiment in Experiment
            for key in _SPECS[experiment].grid
        ],
    )
    def test_null_grid_value_names_its_key(self, experiment, key):
        grids, _, reads = READ_KEYS[experiment]
        source = {"dataset": "standin"} if "dataset" in reads else {}
        with pytest.raises(ValueError, match=rf"^grid value None out of range for '{key}'$"):
            ExperimentConfig(experiment=experiment, grids=dict(grids, **{key: [None]}), **source)

    def test_real_data_needs_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig(experiment=Experiment.REAL_DATA, grids={})

    @pytest.mark.parametrize(
        "experiment, grids",
        [
            (Experiment.SETTING_THREE, {"rho": [0.5], "zero_target": [0.4], "transform": ["none"], "corr": ["AR"]}),
            (Experiment.REAL_DATA, {}),
        ],
    )
    def test_rejects_hnb_cv_without_covariates(self, experiment, grids):
        with pytest.raises(ValueError, match="'hnb_cv' needs covariates"):
            ExperimentConfig(experiment=experiment, grids=grids, dataset="standin", models=("hnb", "hnb_cv"))

    def test_accepts_hnb_cv_with_covariates(self):
        grids = {"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]}
        config = ExperimentConfig(experiment=Experiment.SETTING_TWO, grids=grids, models=("hnb", "hnb_cv"))
        assert config.models == ("hnb", "hnb_cv")

    @pytest.mark.parametrize(
        "experiment, grids",
        [
            (Experiment.SETTING_TWO, {"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [-0.5], "corr": ["GD"]}),
            (Experiment.SETTING_THREE, {"rho": [0.5, 0.0], "zero_target": [0.4], "transform": ["none"], "corr": ["gd"]}),
            (Experiment.SETTING_THREE, {"rho": [1.5], "zero_target": [0.4], "transform": ["none"], "corr": ["AR"]}),
        ],
    )
    def test_rejects_corr_rho_pair_outside_the_spec_range(self, experiment, grids):
        source = "standin" if experiment is Experiment.SETTING_THREE else None
        with pytest.raises(ValueError, match="grid pair corr="):
            ExperimentConfig(experiment=experiment, grids=grids, dataset=source)


def deflation_config(tmp_path, **kw):
    base = dict(
        experiment=Experiment.SETTING_ONE_DEFLATION,
        grids={"pi_h": [0.3, 0.6]},
        replications=1,
        seed=3,
        out=str(tmp_path / "res"),
        n=200,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_setting_one_produces_aic_table(self, tmp_path):
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.4], "flavor": ["zinb", "hnb"]},
            replications=2,
            seed=1,
            out=str(tmp_path / "s1"),
            n=200,
        )
        out = run_experiment(config)
        tables = read_results(out)
        assert len(tables["aic"]) == 2 * 2 * 2  # flavor x repl x fitted model
        manifest = tables["manifest"]
        assert manifest["config_hash"] == config.fingerprint()
        assert manifest["failures"] == []

    def test_setting_one_rows_follow_cell_order(self, tmp_path):
        """aic.csv runs zero_target, flavor, replication and model in the
        order the config lists them, not sorted by any column."""
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.4, 0.2], "flavor": ["hnb", "zinb"]},
            replications=2,
            seed=3,
            out=str(tmp_path / "s1"),
            n=120,
        )
        rows = read_results(run_experiment(config))["aic"]
        cells = [(row["zero_target"], row["true_flavor"], row["replication"], row["model"]) for row in rows]
        assert cells == list(itertools.product(["0.4", "0.2"], ["hnb", "zinb"], ["0", "1"], ["zinb", "hnb"]))

    def test_setting_one_calibrates_each_grid_point_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(config, zero_target, seed):
            calls.append((config.flavor, zero_target, seed))
            return resolve_setting_one_gamma0(config, zero_target, seed)

        monkeypatch.setattr(bench, "resolve_setting_one_gamma0", counting)
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.2, 0.4, 0.6], "flavor": ["zinb", "hnb"]},
            replications=2,
            seed=3,
            out=str(tmp_path / "s1"),
            n=120,
        )
        rows = read_results(run_experiment(config))["aic"]
        assert len(calls) == 6 and len(set(calls)) == 6
        cal_seed = int(np.random.SeedSequence([config.seed, 11]).generate_state(1)[0])
        for row in rows:
            flavor = Flavor(row["true_flavor"])
            base = scenario_config(Setting.ONE, flavor=flavor, gamma0=0.0, n=config.n)
            gamma0, mode = resolve_setting_one_gamma0(base, float(row["zero_target"]), cal_seed)
            assert (row["gamma0"], row["calibration"]) == (str(gamma0), mode)

    def test_setting_one_calibration_failure_is_recorded_per_cell(self, tmp_path, monkeypatch):
        def failing_at_04(config, zero_target, seed):
            if zero_target == 0.4:
                raise InvalidParameterError("no gamma0 reaches the target")
            return resolve_setting_one_gamma0(config, zero_target, seed)

        monkeypatch.setattr(bench, "resolve_setting_one_gamma0", failing_at_04)
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.2, 0.4], "flavor": ["zinb", "hnb"]},
            replications=2,
            seed=3,
            out=str(tmp_path / "s1"),
            n=120,
        )
        tables = read_results(run_experiment(config))
        failures = tables["manifest"]["failures"]
        assert len(failures) == 2 * 2  # flavor x replication at the failing zero target
        assert all(f["args"][0] == "0.4" and f["error"].startswith("InvalidParameterError") for f in failures)
        assert {row["zero_target"] for row in tables["aic"]} == {"0.2"}
        assert len(tables["aic"]) == 2 * 2 * 2  # flavor x replication x fitted model

    def test_rerun_is_noop_and_force_reruns(self, tmp_path):
        config = deflation_config(tmp_path)
        out = run_experiment(config)
        stamp = (out / "aic.csv").stat().st_mtime_ns
        out2 = run_experiment(config)
        assert (out2 / "aic.csv").stat().st_mtime_ns == stamp
        forced = ExperimentConfig(**{**config.__dict__, "force": True})
        run_experiment(forced)
        assert (out / "aic.csv").stat().st_mtime_ns != stamp

    def test_results_written_by_other_code_are_recomputed(self, tmp_path):
        # a completed directory of the same config, written by another tree
        # of the library (or before manifests carried a source digest)
        counts = tmp_path / "counts.csv"
        rows = np.random.default_rng(0).poisson(1.0, (40, 3))
        counts.write_text("a,b,c\n" + "\n".join(",".join(map(str, row)) for row in rows) + "\n")
        config = tiny_config(Experiment.REAL_DATA, tmp_path / "res", counts)
        out = tmp_path / "res"
        out.mkdir()
        for other in ({"source_digest": "0" * 64}, {}):
            manifest = {"config_hash": config.fingerprint(), "complete": True, **other}
            (out / "manifest.json").write_text(json.dumps(manifest))
            run_experiment(config)
            tables = read_results(out)
            assert tables["manifest"]["config_hash"] == config.fingerprint()
            assert tables["manifest"]["source_digest"] == bench._source_digest() != other.get("source_digest")
            assert {r["model"] for r in tables["distances"]} == {"hnb", "tlnpn"}
        # the same tree reuses what it wrote
        stamp = (out / "distances.csv").stat().st_mtime_ns
        run_experiment(config)
        assert (out / "distances.csv").stat().st_mtime_ns == stamp

    def test_source_digest_follows_the_sources_and_the_bridge_table(self, tmp_path):
        """A copy of the package carries this tree's digest, which no import
        computes; appending to a module or to the bridge table changes it."""
        shutil.copytree(Path(bench.__file__).parent, tmp_path / "zicount", ignore=shutil.ignore_patterns("__pycache__"))
        code = """
from pathlib import Path
import zicount.bench as b
assert b._source_digest.cache_info().currsize == 0
digests = [b._source_digest()]
for name in ("fitting.py", "bridge_tt_table.npy"):
    with open(Path(b.__file__).parent / name, "ab") as fh:
        fh.write(b"\\n")
    digests.append(b._source_digest.__wrapped__())
print(" ".join(digests))
"""
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        proc = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True, timeout=60)
        digests = proc.stdout.split()
        assert digests[0] == bench._source_digest()
        assert len(set(digests)) == 3

    def test_identical_config_gives_byte_identical_tables(self, tmp_path):
        a = run_experiment(deflation_config(tmp_path, out=str(tmp_path / "a")))
        b = run_experiment(deflation_config(tmp_path, out=str(tmp_path / "b")))
        assert (a / "aic.csv").read_bytes() == (b / "aic.csv").read_bytes()

    def test_threads_match_sequential(self, tmp_path):
        seq = run_experiment(deflation_config(tmp_path, out=str(tmp_path / "seq")))
        par = run_experiment(deflation_config(tmp_path, out=str(tmp_path / "par"), threads=2))
        assert (seq / "aic.csv").read_bytes() == (par / "aic.csv").read_bytes()

    def test_setting_two_small_run(self, tmp_path):
        config = ExperimentConfig(
            experiment=Experiment.SETTING_TWO,
            grids={"beta1": [0.0], "gamma0": [float(np.log(1 / 9))], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]},
            replications=1,
            folds=3,
            seed=2,
            out=str(tmp_path / "s2"),
            n=150,
            models=("hnb", "tlnpn"),
        )
        out = run_experiment(config)
        tables = read_results(out)
        assert {r["model"] for r in tables["distances"]} == {"hnb", "tlnpn"}
        assert len(tables["amc"]) == 1
        amc_val = float(tables["amc"][0]["amc"])
        assert -2.0 <= amc_val <= 2.0
        assert len(tables["marginal"]) == 2 * 3 * 5  # model x fold x variable

    def test_real_data_run_on_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((60, 4))
        vals = np.where(z > -0.3, np.round(np.exp(2 + z)), 0.0)
        path = tmp_path / "counts.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"c{j}" for j in range(4)])
            w.writerows(vals.tolist())
        config = ExperimentConfig(
            experiment=Experiment.REAL_DATA,
            grids={},
            folds=3,
            n_splits=2,
            seed=4,
            out=str(tmp_path / "rd"),
            dataset=str(path),
            models=("tlnpn", "hnb"),
        )
        out = run_experiment(config)
        tables = read_results(out)
        assert len(tables["amc"]) == 2  # one AMC per split
        assert all(r["pair"] == "hnb_vs_tlnpn" for r in tables["amc"])
        # split, then its held-out fold, then model as the config lists them
        cells = [(int(r["split"]), int(r["fold"]), r["model"]) for r in tables["distances"]]
        assert [(split, model) for split, _, model in cells] == [(0, "tlnpn"), (0, "hnb"), (1, "tlnpn"), (1, "hnb")]
        assert cells[0][1] == cells[1][1] and cells[2][1] == cells[3][1]


    def test_failed_records_name_their_error(self, tmp_path):
        # one column is below the copula's p >= 2, so every TLNPN record fails
        path = tmp_path / "counts.csv"
        path.write_text("a\n" + "\n".join(str(v) for v in np.random.default_rng(3).poisson(2.0, 40)) + "\n")
        config = ExperimentConfig(
            experiment=Experiment.REAL_DATA, folds=3, n_splits=1, seed=5, out=str(tmp_path / "rd"), dataset=str(path)
        )
        tables = read_results(run_experiment(config))
        assert tables["manifest"]["failures"] == [] and "failed_records" in tables["manifest"]["tables"]
        failed = [(r["model"], r["fold"]) for r in tables["distances"] if r["failed"] == "1"]
        assert failed and all(model == "tlnpn" for model, _ in failed)
        assert [(r["model"], r["fold"]) for r in tables["failed_records"]] == failed
        assert all("need n >= 10 and p >= 2" in r["error"] for r in tables["failed_records"])


def tiny_config(experiment, out, counts_path):
    """The smallest config of each experiment kind that still runs every
    stage; each gets only the keys it reads."""
    base = dict(out=str(out), seed=2)
    cv = dict(base, folds=3, qmc_points=256)
    return ExperimentConfig(
        experiment=experiment,
        **{
            Experiment.SETTING_ONE: dict(base, grids={"zero_target": [0.4], "flavor": ["zinb"]}, n=90),
            Experiment.SETTING_ONE_DEFLATION: dict(base, grids={"pi_h": [0.3]}, n=150),
            Experiment.SETTING_TWO: dict(
                cv, grids={"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]}, n=90
            ),
            Experiment.SETTING_THREE: dict(
                cv,
                grids={"rho": [0.5], "zero_target": [0.4], "transform": ["none"], "corr": ["AR"]},
                n=90,
                dataset="standin",
            ),
            Experiment.REAL_DATA: dict(cv, n_splits=1, dataset=str(counts_path)),
        }[experiment],
    )


class TestManifestTables:
    @pytest.mark.parametrize("experiment", list(Experiment))
    def test_tables_are_exactly_the_written_csvs(self, tmp_path, experiment):
        rng = np.random.default_rng(0)
        counts = tmp_path / "counts.csv"
        counts.write_text("a,b,c\n" + "\n".join(",".join(map(str, row)) for row in rng.poisson(1.0, (40, 3))) + "\n")
        out = run_experiment(tiny_config(experiment, tmp_path / "res", counts))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["tables"] == sorted(path.stem for path in out.glob("*.csv"))


class TestReportTables:
    def test_rows_and_column_order(self):
        records = (
            EvalRecord(
                split=1,
                fold=0,
                model="hnb",
                distance=1.5,
                marginal=np.array([0.25, 0.5]),
                corr_gap=0.125,
                residuals=np.array([[1.0, -1.0], [2.0, 0.0]]),  # rank x variable
            ),
            EvalRecord(split=1, fold=0, model="tlnpn", distance=0.75),
            EvalRecord(split=1, fold=1, model="tlnpn", distance=float("nan"), failed=True, error="boom"),
        )
        report = EvalReport(records=records, amc={"hnb_vs_tlnpn": [0.5, -0.25]})
        tables = bench._report_tables(report, {"corr": "AR", "rho": 0.5, "replication": 2})

        lead = ["corr", "rho", "replication"]
        rec_cols = lead + ["split", "fold", "model"]
        expected = {
            "distances": (
                rec_cols + ["distance", "failed"],
                [
                    ("AR", 0.5, 2, 1, 0, "hnb", 1.5, 0),
                    ("AR", 0.5, 2, 1, 0, "tlnpn", 0.75, 0),
                    ("AR", 0.5, 2, 1, 1, "tlnpn", "", 1),
                ],
            ),
            "amc": (
                lead + ["pair", "index", "amc"],
                [("AR", 0.5, 2, "hnb_vs_tlnpn", 0, 0.5), ("AR", 0.5, 2, "hnb_vs_tlnpn", 1, -0.25)],
            ),
            "marginal": (
                rec_cols + ["variable", "distance"],
                [("AR", 0.5, 2, 1, 0, "hnb", 0, 0.25), ("AR", 0.5, 2, 1, 0, "hnb", 1, 0.5)],
            ),
            "corr_gap": (rec_cols + ["corr_gap"], [("AR", 0.5, 2, 1, 0, "hnb", 0.125)]),
            "failed_records": (rec_cols + ["error"], [("AR", 0.5, 2, 1, 1, "tlnpn", "boom")]),
            "residuals": (
                rec_cols + ["variable", "rank", "residual"],
                [
                    ("AR", 0.5, 2, 1, 0, "hnb", 0, 0, 1.0),
                    ("AR", 0.5, 2, 1, 0, "hnb", 0, 1, 2.0),
                    ("AR", 0.5, 2, 1, 0, "hnb", 1, 0, -1.0),
                    ("AR", 0.5, 2, 1, 0, "hnb", 1, 1, 0.0),
                ],
            ),
        }
        assert set(tables) == set(expected)
        for name, (columns, rows) in expected.items():
            assert [list(row) for row in tables[name]] == [columns] * len(rows), name
            assert [tuple(row.values()) for row in tables[name]] == rows, name


class TestEmitReport:
    def test_csv_summary_and_json_fingerprint(self, tmp_path):
        config = ExperimentConfig(
            experiment=Experiment.SETTING_TWO,
            grids={"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.6, 0.3], "corr": ["AR"]},
            replications=2,
            folds=3,
            seed=5,
            out=str(tmp_path / "r"),
            n=120,
        )
        out = run_experiment(config)
        written = emit_report(out, format="json")
        summary_path = out / "amc_summary.csv"
        assert summary_path.exists()
        with open(summary_path, newline="") as fh:
            summary = list(csv.DictReader(fh))
        # one row per (rho, pair), in the cell order of the grid
        assert [row["rho"] for row in summary] == ["0.6", "0.3"]
        for row in summary:
            assert int(row["n"]) == 2
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["config_hash"] == config.fingerprint()
        # median in the summary must equal a direct recomputation
        raw = read_results(out)["amc"]
        for row in summary:
            vals = [float(r["amc"]) for r in raw if r["rho"] == row["rho"]]
            assert float(row["median_amc"]) == pytest.approx(float(np.median(vals)))

    @staticmethod
    def small_setting_two_run(tmp_path):
        return run_experiment(
            ExperimentConfig(
                experiment=Experiment.SETTING_TWO,
                grids={"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]},
                folds=3,
                seed=1,
                out=str(tmp_path / "r"),
                n=90,
            )
        )

    def test_every_json_report_is_the_same(self, tmp_path):
        out = self.small_setting_two_run(tmp_path)
        emit_report(out, format="json")
        first = (out / "report.json").read_bytes()
        emit_report(out, format="json")
        assert (out / "report.json").read_bytes() == first
        with open(out / "manifest.json") as fh:
            assert sorted(json.loads(first)["tables"]) == json.load(fh)["tables"] == ["amc", "distances", "marginal"]

    def test_summary_keeps_the_key_order_of_the_amc_rows(self, tmp_path):
        out = self.small_setting_two_run(tmp_path)
        emit_report(out)
        with open(out / "amc.csv", newline="") as fh:
            assert next(csv.reader(fh))[:6] == ["corr", "rho", "beta1", "gamma0", "gamma1", "replication"]
        with open(out / "amc_summary.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["corr", "rho", "beta1", "gamma0", "gamma1", "pair", "n", "median_amc"]

    def test_csv_roundtrip_numeric_identity(self, tmp_path):
        out = run_experiment(deflation_config(tmp_path))
        rows = read_results(out)["aic"]
        again = read_results(out)["aic"]
        for a, b in zip(rows, again):
            assert float(a["gap"]) == float(b["gap"])

    def test_residual_table_matches_recomputation(self, tmp_path):
        config = ExperimentConfig(
            experiment=Experiment.SETTING_TWO,
            grids={"beta1": [0.0], "gamma0": [-2.0], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]},
            replications=1,
            folds=3,
            seed=6,
            out=str(tmp_path / "rr"),
            n=90,
            collect_extras=True,
        )
        out = run_experiment(config)
        tables = read_results(out)
        assert "residuals" in tables and tables["residuals"]
        assert "corr_gap" in tables and tables["corr_gap"]
        # the sorted-difference definition: residual ranks are monotone in rank
        # for a fixed (model, fold, variable) the count equals the fold size
        by_key = {}
        for row in tables["residuals"]:
            key = (row["model"], row["fold"], row["variable"])
            by_key.setdefault(key, []).append(float(row["residual"]))
        fold_size = 30
        assert all(len(v) == fold_size for v in by_key.values())

"""Golden outputs: one tiny seed-1 run of each experiment kind, pinned by a
SHA-256 over its CSV tables and the latent correlation of its TLNPN fits on
five variables, and the fingerprints of the shipped configs.

The CSVs follow from simulated counts, which a last-bit change in an
estimate seldom moves in a run this small: under a bridge root tolerance of
1.1e-6 instead of 1e-6 no CSV of 24 setting-three cells at rho = 0.999999
changed. The fitted correlations move with every such change. The 101 x 101
real-data correlation is left out, because its last bits depend on the
number of BLAS threads.

A change that moves a random stream or the last bit of an estimate moves a
digest here. Such a change updates the digest in the same commit and says
which experiment kinds moved and why. The digests were recorded on the
numpy and scipy versions below; other versions may differ in the last bits
of ``eigh`` or ``gammaln``, so there the digest checks are skipped.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

from zicount import evaluate
from zicount.bench import Experiment, ExperimentConfig, config_from_json, run_experiment

RECORDED_ON = {"numpy": "2.4.6", "scipy": "1.17.1"}

# one grid point each for settings two and three; the setting-three rho of
# 0.999999 has latent roots above the bridge table's ROOT_SIGMA_MAX, so its
# pairs go to the root finder
GOLDEN_CONFIGS = {
    "setting_one": dict(
        experiment=Experiment.SETTING_ONE,
        grids={"zero_target": [0.4], "flavor": ["zinb", "hnb"]},
        replications=2,
        n=200,
    ),
    "setting_one_deflation": dict(
        experiment=Experiment.SETTING_ONE_DEFLATION,
        grids={"pi_h": [0.3]},
        replications=2,
        n=200,
    ),
    "setting_two": dict(
        experiment=Experiment.SETTING_TWO,
        grids={"beta1": [1.0], "gamma0": [math.log(1.0 / 9.0)], "gamma1": [0.0], "rho": [0.5], "corr": ["AR"]},
        n=300,
        folds=3,
        models=("hnb", "hnb_cv", "tlnpn"),
    ),
    "setting_three": dict(
        experiment=Experiment.SETTING_THREE,
        grids={"rho": [0.999999], "zero_target": [0.4], "transform": ["none"], "corr": ["AR"]},
        n=300,
        folds=3,
        dataset="standin",
    ),
    "real_data": dict(experiment=Experiment.REAL_DATA, folds=3, n_splits=2, dataset="standin"),
}

GOLDEN_DIGESTS = {
    "setting_one": "000ad3e025ba90d27c86b46e1859a102e981a296e85d9f853c204f1e7036eab4",
    "setting_one_deflation": "9654643c674c168327ba07aaaca34633cccb431bba5a74b76ffbc3d4873d0263",
    "setting_two": "6d7ff0aaed9cb1903771932890b32fd8b2ef03f325df84625a3d22f5882f156f",
    "setting_three": "285945bc85937a166e6eb0d53a52787ce3fb656af920de0d0afb7ad780dabf2e",
    "real_data": "1e99ef295e3fcf7554a3104e84b224ab195f566c3d80b7bbafeff374e2cf3e1d",
}

CONFIG_FINGERPRINTS = {
    "real_data_standin": "2dc28ffd6a6b45c2",
    "setting_one": "033f16a7043a902a",
    "setting_one_deflation": "871f1fa8c2b62673",
    "setting_three_desk": "70c8f4211200cb0e",
    "setting_two_desk": "8549e0df8e4b64fe",
}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def golden_digest(config: ExperimentConfig, monkeypatch) -> str:
    """Run the config; SHA-256 over the name and bytes of every CSV it
    writes, then the fitted ``sigma_hat`` of each TLNPN fit on five
    variables, in call order."""
    sigmas = []
    fit_tlnpn = evaluate.fit_tlnpn

    def recording_fit(*args, **kwargs):
        model = fit_tlnpn(*args, **kwargs)
        if model.sigma_hat.shape[0] == 5:
            sigmas.append(model.sigma_hat.tobytes())
        return model

    monkeypatch.setattr(evaluate, "fit_tlnpn", recording_fit)
    out = run_experiment(config)
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    for sigma in sigmas:
        digest.update(sigma)
    return digest.hexdigest()


@pytest.mark.filterwarnings("ignore::zicount.exceptions.ClampedCorrelationWarning")
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_tiny_run_matches_its_golden_digest(tmp_path, monkeypatch, name):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != RECORDED_ON:
        pytest.skip(
            f"digests recorded on numpy {RECORDED_ON['numpy']}, scipy {RECORDED_ON['scipy']}; "
            f"this is numpy {versions['numpy']}, scipy {versions['scipy']}"
        )
    config = ExperimentConfig(seed=1, out=str(tmp_path / name), **GOLDEN_CONFIGS[name])
    assert golden_digest(config, monkeypatch) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIG_FINGERPRINTS))
def test_shipped_config_fingerprint_is_unchanged(name):
    config = config_from_json(CONFIG_DIR / f"{name}.json")
    assert config.fingerprint()[:16] == CONFIG_FINGERPRINTS[name]

"""Golden outputs: one tiny seed-1 run of each experiment kind, pinned by a
SHA-256 over its CSV tables and the latent correlation of its TLNPN fits on
five variables, the bits of a set of ZINB, HNB and NB fits, and the
fingerprints of the shipped configs.

The CSVs follow from simulated counts, which a last-bit change in an
estimate seldom moves in a run this small: under a bridge root tolerance of
1.1e-6 instead of 1e-6 no CSV of 24 setting-three cells at rho = 0.999999
changed. The fitted correlations and the fits' coefficients move with every
such change. The 101 x 101
real-data correlation is left out, because its last bits depend on the
number of BLAS threads.

A change that moves a random stream, the last bit of an estimate or the
order of a table's rows moves a digest here. Such a change updates the
digest in the same commit and says which experiment kinds moved and why.
Run as a script (``python tests/test_golden.py`` from a checkout), this
file prints every golden config's current digest in the form of
``GOLDEN_DIGESTS``, each marked ``same`` or ``moved`` against the committed
digest, and exits 1 when any kind moved. The digests were recorded on the
numpy and scipy versions below; other versions may differ in the last bits
of ``eigh`` or ``gammaln``, so there the digest checks are skipped.
"""

import hashlib
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

if __name__ == "__main__":  # run as a script: import the package from the checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zicount import bench, evaluate
from zicount.bench import Experiment, ExperimentConfig, config_from_json, make_qmp_standin, rescale_power, run_experiment
from zicount.counts import Flavor
from zicount.exceptions import ClampedCorrelationWarning
from zicount.fitting import fit_intercept_only

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
    "setting_one": "46f6c628140d5ff9ae766908df36a988dfab4311c5c51547897e4913e17fc2e5",
    "setting_one_deflation": "66c17a2288fcdfed1a44b687d66c17b57b60cd512c02fe1566192d5bd5ab3ff4",
    "setting_two": "7a2c31de53ee23b2ced6fe0933b0243517a369a5b5d09688ccd5a96edb1119c9",
    "setting_three": "10c7131b123196cda13a0a7e1d70aa35b5a79c3d2e9423d997d5be2ff963af51",
    "real_data": "200cc6089e50c2e795ba5e9c0b693ff7d7f88687cb453d9d92465978880ad4a6",
    # the fits of fit_digest, not a config
    "fits": "8006eb8913cd297bbf5af4708d4d36986e443432ce89764c645adae5b8708981",
}

CONFIG_FINGERPRINTS = {
    "real_data_standin": "614a7cc80db54189",
    "setting_one": "4fd2a140f26d4dc2",
    "setting_one_deflation": "1f8fd5533086ff47",
    "setting_three_desk": "b8d2da5d086739b1",
    "setting_two_desk": "adaa30908d686215",
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


def fit_digest(out: Path, monkeypatch) -> str:
    """SHA-256 over beta, gamma, log r, the log-likelihood and the
    convergence flag of each fit, in call order: the ZINB and HNB
    regressions of the ``setting_one`` golden run (written to ``out``), then
    the intercept-only HNB and NB fits of every column of the seed-1
    stand-in's rows 0-89, rescaled by the power 0.851. The digest is the
    same under one and two BLAS threads."""
    fits = []
    fit_regression = bench.fit_regression

    def recording_fit(*args, **kwargs):
        fits.append(fit_regression(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(bench, "fit_regression", recording_fit)
    run_experiment(ExperimentConfig(seed=1, out=str(out), **GOLDEN_CONFIGS["setting_one"]))
    standin = rescale_power(make_qmp_standin(1), 0.851).values[:90]
    fits += [fit_intercept_only(column, flavor) for flavor in (Flavor.HNB, Flavor.NB) for column in standin.T]
    digest = hashlib.sha256()
    for fit in fits:
        coef = fit.coefficients
        digest.update(coef.beta.tobytes() + coef.gamma.tobytes() + np.array([coef.log_r, fit.loglik]).tobytes())
        digest.update(bytes([fit.converged]))
    return digest.hexdigest()


def skip_unless_recorded_versions():
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != RECORDED_ON:
        pytest.skip(
            f"digests recorded on numpy {RECORDED_ON['numpy']}, scipy {RECORDED_ON['scipy']}; "
            f"this is numpy {versions['numpy']}, scipy {versions['scipy']}"
        )


@pytest.mark.filterwarnings("ignore::zicount.exceptions.ClampedCorrelationWarning")
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_tiny_run_matches_its_golden_digest(tmp_path, monkeypatch, name):
    skip_unless_recorded_versions()
    config = ExperimentConfig(seed=1, out=str(tmp_path / name), **GOLDEN_CONFIGS[name])
    assert golden_digest(config, monkeypatch) == GOLDEN_DIGESTS[name]


def test_fits_match_their_golden_digest(tmp_path, monkeypatch):
    skip_unless_recorded_versions()
    assert fit_digest(tmp_path, monkeypatch) == GOLDEN_DIGESTS["fits"]


@pytest.mark.parametrize("name", sorted(CONFIG_FINGERPRINTS))
def test_shipped_config_fingerprint_is_unchanged(name):
    config = config_from_json(CONFIG_DIR / f"{name}.json")
    assert config.fingerprint()[:16] == CONFIG_FINGERPRINTS[name]


def print_golden_digests() -> bool:
    """Print each golden config's digest and the fits' digest on this tree,
    as the body of ``GOLDEN_DIGESTS`` with each kind marked ``same`` or
    ``moved``, and the numpy and scipy versions they hold for. Returns
    whether every kind is the same."""
    print(f"# numpy {np.__version__}, scipy {scipy.__version__}")
    moved = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_DIGESTS:
            out = Path(tmp) / name
            with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampedCorrelationWarning)
                if name == "fits":
                    digest = fit_digest(out, monkeypatch)
                else:
                    digest = golden_digest(ExperimentConfig(seed=1, out=str(out), **GOLDEN_CONFIGS[name]), monkeypatch)
                if digest != GOLDEN_DIGESTS[name]:
                    moved.append(name)
                print(f'    "{name}": "{digest}",  # {"moved" if name in moved else "same"}')
    return not moved


if __name__ == "__main__":
    sys.exit(0 if print_golden_digests() else 1)

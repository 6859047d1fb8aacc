"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive criteria
(4 and 9) take several minutes apiece at desk scale.
"""

import itertools
import os
import tempfile

import numpy as np
from scipy.stats import spearmanr

from zicount import (
    CorrKind,
    CorrelationSpec,
    CountParams,
    Flavor,
    HurdleModel,
    RegressionCoefficients,
    TlnpnModel,
    bridge_tt,
    fit_tlnpn,
    hnb_loglik,
    hnb_pmf,
    invert_bridge,
    kfold_cv,
    nb_pmf,
    random_orthogonal,
    wasserstein_pd,
    zinb_loglik,
    zinb_pmf,
)
from zicount.bench import Experiment, ExperimentConfig, read_results, run_experiment
from zicount.synth import (
    ar_correlation,
    gd_covariance,
    Setting,
    gen_setting_two,
    scenario_config,
)

from test_copula import make_tlnpn_sample, simulate_truncated_pair_tau
from test_evaluate import brute_force_wasserstein
from test_fitting import pmf_sum_oracle


def _report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {num:02d} {status} - {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_01_figure_constants():
    nb = nb_pmf(0, CountParams(mu=2.5, r=5, flavor=Flavor.NB))
    zi = zinb_pmf(0, CountParams(mu=2.5, r=5, pi=0.25, flavor=Flavor.ZINB))
    h25 = hnb_pmf(0, CountParams(mu=2.5, r=5, pi=0.25, flavor=Flavor.HNB))
    h05 = hnb_pmf(0, CountParams(mu=2.5, r=5, pi=0.05, flavor=Flavor.HNB))
    gaps = (abs(nb - 0.1317), abs(zi - 0.3487), abs(h25 - 0.25), abs(h05 - 0.05))
    _report(
        1,
        "zero-probability constants",
        all(g <= 1e-4 for g in gaps),
        f"NB={nb:.5f} ZINB={zi:.5f} HNB={h25:.3f}/{h05:.3f}",
    )


def test_criterion_02_univariate_aic_comparison():
    """True-model AIC wins in >= 90% of 10 replications per zero level and
    population flavor; infeasible total-zero ZINB targets fall back to the
    structural weight."""
    with tempfile.TemporaryDirectory() as td:
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE,
            grids={"zero_target": [0.2, 0.4, 0.6], "flavor": ["zinb", "hnb"]},
            replications=10,
            seed=1234,
            out=os.path.join(td, "s1"),
        )
        rows = read_results(run_experiment(config))["aic"]
    aic = {}
    for r in rows:
        aic.setdefault((r["zero_target"], r["true_flavor"], r["replication"]), {})[r["model"]] = float(r["aic"])
    wins = {}
    for (zt, fl, _), models in aic.items():
        other = "hnb" if fl == "zinb" else "zinb"
        wins.setdefault((zt, fl), []).append(models[fl] < models[other])
    ok = all(sum(v) >= 9 for v in wins.values())
    detail = "; ".join(f"{fl}@{zt}: {sum(v)}/10" for (zt, fl), v in sorted(wins.items()))
    _report(2, "univariate AIC comparison", ok, detail)


def test_criterion_03_zero_deflation_sweep():
    grid = [0.08, 0.15, 0.22, 0.29, 0.36, 0.43, 0.5, 0.6, 0.7]
    with tempfile.TemporaryDirectory() as td:
        config = ExperimentConfig(
            experiment=Experiment.SETTING_ONE_DEFLATION,
            grids={"pi_h": grid},
            replications=5,
            seed=77,
            out=os.path.join(td, "defl"),
        )
        rows = read_results(run_experiment(config))["aic"]
    gaps = {}
    for r in rows:
        gaps.setdefault(float(r["pi_h"]), []).append(float(r["gap"]))
    medians = {k: float(np.median(v)) for k, v in gaps.items()}
    sub = sorted(k for k in medians if k < 0.5)
    rho = float(spearmanr(sub, [medians[k] for k in sub]).statistic)
    ok = all(medians[k] > 0 for k in sub) and rho < -0.8
    _report(
        3,
        "zero-deflation AIC gap",
        ok,
        f"spearman={rho:+.2f}, min sub-0.5 median={min(medians[k] for k in sub):+.2f}",
    )


def test_criterion_04_setting_two_desk_scale():
    """AR structure, 10 replications per cell, gamma0=ln(1/9), gamma1=0:
    (a) beta1=0 gives |median AMC| < 0.05 for every rho with and without
    covariates; (b) beta1=2, rho=0.9 favors the copula against the
    covariate-free hurdle and (c) the covariate hurdle against the copula."""
    gamma0 = float(np.log(1.0 / 9.0))
    models = lambda: [HurdleModel(False), HurdleModel(True), TlnpnModel()]
    reps = 10

    def run_cell(beta1, rho):
        spec = CorrelationSpec(CorrKind.AR, rho, 5)
        cfg = scenario_config(Setting.TWO, corr=spec, beta1=beta1, gamma0=gamma0, gamma1=0.0)
        out = {"hnb_vs_tlnpn": [], "hnb_cv_vs_tlnpn": []}
        for rep in range(reps):
            data_seed = int(
                np.random.SeedSequence([4, int(beta1 * 10), int(rho * 100), rep]).generate_state(1)[0]
            )
            Y, X = gen_setting_two(cfg, data_seed)
            report = kfold_cv(Y, covariates=X, k=5, models=models(), seed=rep)
            for key in out:
                out[key].append(report.amc[key][0])
        return {k: float(np.median(v)) for k, v in out.items()}

    null_cells = {rho: run_cell(0.0, rho) for rho in (0.01, 0.3, 0.7, 0.9)}
    ok_a = all(abs(m) < 0.05 for cell in null_cells.values() for m in cell.values())
    strong = run_cell(2.0, 0.9)
    ok_b = strong["hnb_vs_tlnpn"] < 0.0
    ok_c = strong["hnb_cv_vs_tlnpn"] > 0.0
    worst_null = max(abs(m) for cell in null_cells.values() for m in cell.values())
    _report(
        4,
        "multivariate CV sign pattern",
        ok_a and ok_b and ok_c,
        f"max |null AMC|={worst_null:.3f}, strong cell: hnb={strong['hnb_vs_tlnpn']:+.3f}, "
        f"hnb_cv={strong['hnb_cv_vs_tlnpn']:+.3f}",
    )


def test_criterion_05_bridge_function_suite():
    zero_ok = all(bridge_tt(0.0, d, d) == 0.0 for d in (-1.0, 0.0, 1.0))

    mono_ok = True
    grid37 = np.linspace(-0.9, 0.9, 37)
    for delta in (-1.0, 0.0, 1.0):
        vals = [bridge_tt(s, delta, delta) for s in grid37]
        mono_ok &= bool(np.all(np.diff(vals) > 0))

    round_ok = True
    worst = 0.0
    for delta in (-1.0, 0.0, 1.0):
        for s in np.arange(-0.9, 0.95, 0.1):
            err = abs(invert_bridge(bridge_tt(s, delta, delta), delta, delta) - s)
            worst = max(worst, err)
            round_ok &= err <= 1e-5

    g = bridge_tt(0.5, 0.0, 0.0)
    tau_mc, se = simulate_truncated_pair_tau(0.5, 0.0, 0.0, m=1_000_000, seed=99)
    mc_ok = abs(g - tau_mc) <= 3 * se

    _report(
        5,
        "bridge-function suite",
        zero_ok and mono_ok and round_ok and mc_ok,
        f"roundtrip max err={worst:.2e}, MC z={(g - tau_mc) / se:+.2f}",
    )


def test_criterion_06_wasserstein_oracle_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=(n, p))
        for order in (1, 2):
            got = wasserstein_pd(X, Y, order)
            want = brute_force_wasserstein(X, Y, order)
            worst = max(worst, abs(got - want))
    _report(6, "assignment equals brute-force optimum", worst <= 1e-12, f"max gap={worst:.2e}")


def test_criterion_07_copula_consistency():
    sigma = ar_correlation(CorrelationSpec(CorrKind.AR, 0.7, 5))
    errs = []
    for rep in range(10):
        data = make_tlnpn_sample(sigma, np.full(5, -0.2), n=1200, seed=700 + rep)
        model = fit_tlnpn(data)
        errs.append(float(np.max(np.abs(model.sigma_hat - sigma))))
    med = float(np.median(errs))
    _report(7, "latent correlation recovery", med < 0.15, f"median max-error={med:.3f}")


def test_criterion_08_gd_structure_properties():
    trace_ok = True
    worst_trace = 0.0
    for rho, p in itertools.product((0.05, 0.3, 0.7, 0.9), (2, 5, 20)):
        m = gd_covariance(CorrelationSpec(CorrKind.GD, rho, p, orthogonal_seed=8))
        gap = abs(np.trace(m) - 5.0)
        worst_trace = max(worst_trace, gap)
        trace_ok &= gap <= 1e-10
    ortho = max(
        float(np.max(np.abs(random_orthogonal(p, seed=8).T @ random_orthogonal(p, seed=8) - np.eye(p))))
        for p in (2, 5, 20)
    )
    _report(
        8,
        "geometric-decay covariance properties",
        trace_ok and ortho <= 1e-12,
        f"max |trace-5|={worst_trace:.1e}, max orthogonality gap={ortho:.1e}",
    )


def test_criterion_09_real_data_protocol_standin():
    """3-fold, 10-split protocol end to end on the bundled synthetic
    stand-in (the public count tables are not available here; with them,
    the additional median-AMC < 0 check applies)."""
    with tempfile.TemporaryDirectory() as td:
        config = ExperimentConfig(
            experiment=Experiment.REAL_DATA,
            grids={},
            folds=3,
            n_splits=10,
            seed=31,
            out=os.path.join(td, "qmp"),
            dataset="standin",
            rescale_exponent=0.851,
            qmc_points=1024,
        )
        out = run_experiment(config)
        tables = read_results(out)
        amc_rows = tables["amc"]
        manifest = tables["manifest"]
    values = [float(r["amc"]) for r in amc_rows]
    ok = (
        manifest["failures"] == []
        and len(values) == 10
        and all(-2.0 <= v <= 2.0 for v in values)
        and len(tables["marginal"]) > 0
    )
    _report(
        9,
        "real-data protocol (stand-in)",
        ok,
        f"median AMC={np.median(values):+.3f}, splits={len(values)}",
    )


def test_criterion_10_likelihood_equivalence_fuzz():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        beta = rng.uniform(-1.0, 2.0, size=2)
        gamma = rng.uniform(-2.0, 2.0, size=2)
        log_r = rng.uniform(-1.5, 1.5)
        y = rng.poisson(np.exp(np.clip(X @ beta, -10, 3)))
        coef = RegressionCoefficients(beta=beta, gamma=gamma, log_r=float(log_r))
        gap_z = abs(zinb_loglik(y, X, X, coef) - pmf_sum_oracle(y, X, X, coef, Flavor.ZINB))
        gap_h = abs(hnb_loglik(y, X, coef) - pmf_sum_oracle(y, X, None, coef, Flavor.HNB))
        worst = max(worst, gap_z, gap_h)
    _report(10, "likelihood equals pmf-log sums", worst <= 1e-8, f"max gap={worst:.2e}")

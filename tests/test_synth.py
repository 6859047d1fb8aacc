import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit, logit
from scipy.stats import spearmanr

from zicount import CorrKind, CorrelationSpec, Flavor
from zicount.exceptions import SelectionError
from zicount.synth import (
    _READS,
    LATENT_DIM,
    Setting,
    SettingConfig,
    ar_correlation,
    gd_covariance,
    gen_setting_one,
    gen_setting_three,
    gen_setting_two,
    random_orthogonal,
    realize_correlation,
    resolve_setting_one_gamma0,
    sample_mvn,
    scenario_config,
    select_columns_by_zero_fraction,
    setting_one_config,
    setting_one_deflation_config,
    setting_two_config,
)


class TestArCorrelation:
    def test_rho_zero_identity(self):
        assert np.array_equal(ar_correlation(CorrelationSpec(CorrKind.AR, 0.0, 4)), np.eye(4))

    def test_entries(self):
        m = ar_correlation(CorrelationSpec(CorrKind.AR, 0.5, 3))
        assert m[0, 1] == 0.5 and m[1, 2] == 0.5 and m[0, 2] == 0.25
        assert np.allclose(np.diag(m), 1.0)

    def test_positive_definite_at_high_rho(self):
        m = ar_correlation(CorrelationSpec(CorrKind.AR, 0.9, 5))
        assert np.linalg.eigvalsh(m).min() > 0

    def test_validates_range(self):
        with pytest.raises(ValueError):
            CorrelationSpec(CorrKind.AR, 1.0, 3)


class TestGdCovariance:
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("p", [2, 5, 20])
    def test_trace_is_five(self, rho, p):
        m = gd_covariance(CorrelationSpec(CorrKind.GD, rho, p, orthogonal_seed=1))
        assert np.trace(m) == pytest.approx(5.0, abs=1e-10)

    def test_two_dim_eigenvalues(self):
        m = gd_covariance(CorrelationSpec(CorrKind.GD, 0.5, 2, orthogonal_seed=0))
        vals = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert vals == pytest.approx([10.0 / 3.0, 5.0 / 3.0], abs=1e-12)

    def test_eigenbasis_orthogonal(self):
        spec = CorrelationSpec(CorrKind.GD, 0.3, 6, orthogonal_seed=5)
        gamma = random_orthogonal(spec.p, spec.orthogonal_seed)
        assert np.max(np.abs(gamma @ gamma.T - np.eye(6))) < 1e-12

    def test_validates_range(self):
        with pytest.raises(ValueError):
            CorrelationSpec(CorrKind.GD, 0.0, 3)


class TestRandomOrthogonal:
    def test_one_dim_is_sign(self):
        vals = {float(random_orthogonal(1, s)[0, 0]) for s in range(40)}
        assert vals <= {-1.0, 1.0}
        assert len(vals) == 2

    def test_orthogonality(self):
        g = random_orthogonal(7, seed=3)
        assert np.max(np.abs(g.T @ g - np.eye(7))) < 1e-12

    def test_first_column_uniform_on_sphere(self):
        p = 3
        draws = np.array([random_orthogonal(p, seed=s)[:, 0] for s in range(10_000)])
        se = np.sqrt(1.0 / p / len(draws))
        assert np.max(np.abs(draws.mean(axis=0))) <= 3 * se


class TestSampleMvn:
    def test_identity_covariance(self):
        x = sample_mvn(20_000, np.eye(3), seed=0)
        cov = np.cov(x, rowvar=False)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_reproducible(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(sample_mvn(1, s, seed=5), sample_mvn(1, s, seed=5))

    def test_ar_lag_one(self):
        sigma = ar_correlation(CorrelationSpec(CorrKind.AR, 0.9, 4))
        x = sample_mvn(10_000, sigma, seed=1)
        lag1 = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(lag1 - 0.9) <= 3.0 * (1 - 0.9**2) / np.sqrt(len(x))

    def test_not_pd_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            sample_mvn(5, np.array([[1.0, 2.0], [2.0, 1.0]]), seed=0)


class TestGenSettingOne:
    def test_constant_hurdle_zero_fraction(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=float(logit(0.3)), gamma1=0.0, n=20_000)
        y, _ = gen_setting_one(cfg, seed=0)
        se = math.sqrt(0.3 * 0.7 / len(y))
        assert abs(np.mean(y == 0) - 0.3) <= 3 * se

    def test_no_covariate_effect_mean(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=float(logit(0.25)), beta1=0.0, gamma1=0.0, n=50_000)
        y, _ = gen_setting_one(cfg, seed=1)
        mu, r, pi = 12.0, 0.5, 0.25
        mean = (1 - pi) * mu
        var = (1 - pi) * mu * (1 + mu / r + pi * mu)
        assert abs(y.mean() - mean) <= 3 * math.sqrt(var / len(y))

    def test_heavy_overdispersion_with_default_r(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=-2.0)
        y, _ = gen_setting_one(cfg, seed=2)
        assert np.var(y) > 5.0 * np.mean(y)

    def test_bit_reproducible(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=-1.0, n=300)
        ya, xa = gen_setting_one(cfg, seed=17)
        yb, xb = gen_setting_one(cfg, seed=17)
        assert np.array_equal(ya, yb) and np.array_equal(xa, xb)

    def test_deflation_defaults(self):
        cfg = setting_one_deflation_config(gamma0=float(logit(0.2)))
        assert cfg.n == 700 and cfg.r == 2.0 and cfg.gamma1 == 0.0
        assert cfg.beta0 == pytest.approx(math.log(6.0 / 7.0))
        y, _ = gen_setting_one(cfg, seed=3)
        assert abs(np.mean(y == 0) - 0.2) < 0.06


class TestCalibrateGamma0:
    def test_hnb_no_covariate_effect_is_exact_logit(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=0.0, gamma1=0.0)
        assert resolve_setting_one_gamma0(cfg, 0.4, seed=0) == (float(logit(0.4)), "total")

    def test_zinb_structural_no_covariate_effect_is_exact_logit(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=0.0, gamma1=0.0)
        # 0.2 lies below the NB zero floor (~0.27), so only E[pi] can reach it
        assert resolve_setting_one_gamma0(cfg, 0.2, seed=0) == (float(logit(0.2)), "structural")

    def test_hnb_calibration_hits_target_on_fresh_data(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=0.0, n=100_000)
        g0, mode = resolve_setting_one_gamma0(cfg, 0.40, seed=11)
        assert mode == "total"
        y, _ = gen_setting_one(SettingConfig(**{**cfg.__dict__, "gamma0": g0}), seed=12)
        assert abs(np.mean(y == 0) - 0.40) <= 0.01

    def test_zinb_calibration_hits_feasible_target(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=0.0, n=100_000)
        g0, mode = resolve_setting_one_gamma0(cfg, 0.40, seed=13)
        assert mode == "total"
        y, _ = gen_setting_one(SettingConfig(**{**cfg.__dict__, "gamma0": g0}), seed=14)
        assert abs(np.mean(y == 0) - 0.40) <= 0.01

    def test_structural_fallback_resolution(self):
        cfg = setting_one_config(Flavor.ZINB, gamma0=0.0)
        # the NB zero floor for these parameters is ~0.266
        g0, mode = resolve_setting_one_gamma0(cfg, 0.2, seed=0)
        assert mode == "structural"
        x = np.random.default_rng(99).standard_normal(200_000)
        assert abs(np.mean(expit(g0 + cfg.gamma1 * x)) - 0.2) <= 0.005
        g0, mode = resolve_setting_one_gamma0(cfg, 0.4, seed=0)
        assert mode == "total"

    def test_validates_target(self):
        cfg = setting_one_config(Flavor.HNB, gamma0=0.0)
        with pytest.raises(ValueError):
            resolve_setting_one_gamma0(cfg, 1.2, seed=0)

    @pytest.mark.parametrize("seed", [0, 11, 13])
    @pytest.mark.parametrize("flavor", [Flavor.ZINB, Flavor.HNB])
    def test_newton_root_matches_a_brentq_reference(self, seed, flavor):
        """On criterion 2's grid: the same mode, and the root of a tight
        bracketing search on the same 1e5-draw curve."""
        cfg = setting_one_config(flavor, gamma0=0.0)
        x = np.random.default_rng(seed).standard_normal(100_000)
        mu = np.exp(cfg.beta0 + cfg.beta1 * x)
        nb0 = np.exp(-cfg.r * np.log1p(mu / cfg.r))

        def zero_prob(gamma0, structural):
            pi = expit(gamma0 + cfg.gamma1 * x)
            return (pi if structural else pi + (1.0 - pi) * nb0).mean()

        for target in (0.2, 0.4, 0.6):
            below_floor = flavor is Flavor.ZINB and target <= zero_prob(-40.0, False)
            structural = below_floor or flavor is Flavor.HNB
            reference = brentq(lambda g: zero_prob(g, structural) - target, -40.0, 40.0, xtol=1e-14)
            gamma0, mode = resolve_setting_one_gamma0(cfg, target, seed)
            assert mode == ("structural" if below_floor else "total")
            assert abs(gamma0 - reference) <= 1e-10


class TestGenSettingTwo:
    def test_independent_when_no_covariate_effect(self):
        spec = CorrelationSpec(CorrKind.AR, 0.9, 5)
        cfg = setting_two_config(spec, beta1=0.0, gamma0=float(np.log(1 / 9)), gamma1=0.0)
        Y, _ = gen_setting_two(cfg, seed=0)
        from zicount import kendall_tau_matrix

        tau = kendall_tau_matrix(Y).tau
        off = np.abs(tau[~np.eye(5, dtype=bool)])
        assert off.mean() < 0.03

    def test_zero_fraction_from_logistic_intercept(self):
        spec = CorrelationSpec(CorrKind.AR, 0.3, 5)
        cfg = setting_two_config(spec, beta1=0.0, gamma0=float(np.log(1 / 9)), gamma1=0.0)
        Y, _ = gen_setting_two(cfg, seed=1)
        zf = np.mean(Y == 0, axis=0)
        se = math.sqrt(0.1 * 0.9 / len(Y))
        assert np.all(np.abs(zf - 0.1) <= 4 * se)

    @pytest.mark.parametrize("gamma0", [np.log(1 / 20), np.log(1 / 9), np.log(1 / 3)])
    def test_zero_fraction_grid(self, gamma0):
        spec = CorrelationSpec(CorrKind.AR, 0.01, 5)
        cfg = setting_two_config(spec, beta1=0.0, gamma0=float(gamma0), gamma1=0.0, n=4000)
        Y, _ = gen_setting_two(cfg, seed=2)
        target = float(expit(gamma0))
        se = math.sqrt(target * (1 - target) / (len(Y) * 5))
        assert abs(np.mean(Y == 0) - target) <= 4 * se

    def test_adjacent_columns_dependent_when_beta1_high(self):
        spec = CorrelationSpec(CorrKind.AR, 0.9, 5)
        cfg = setting_two_config(spec, beta1=2.0, gamma0=float(np.log(1 / 9)), gamma1=0.0)
        Y, _ = gen_setting_two(cfg, seed=3)
        rho, pval = spearmanr(Y[:, 0], Y[:, 1])
        assert rho > 0.2 and pval < 1e-6

    def test_covariates_follow_spec_covariance(self):
        spec = CorrelationSpec(CorrKind.GD, 0.5, 5, orthogonal_seed=2)
        cfg = setting_two_config(spec, beta1=1.0, gamma0=-2.0, gamma1=0.0, n=20_000)
        _, X = gen_setting_two(cfg, seed=4)
        from zicount.synth import realize_covariance

        target = realize_covariance(spec)
        assert np.max(np.abs(np.cov(X, rowvar=False) - target)) < 0.15


def heavy_tailed_source(seed=0, n=400, p=12):
    """Skewed count table with zero fractions spread over [0.05, 0.8]:
    each column zeroes its lowest-quantile latent values."""
    rng = np.random.default_rng(seed)
    zf = np.linspace(0.05, 0.8, p)
    z = rng.standard_normal((n, p))
    out = np.empty((n, p))
    for j in range(p):
        cut = np.quantile(z[:, j], zf[j])
        out[:, j] = np.where(z[:, j] <= cut, 0.0, np.round(np.exp(2.0 + z[:, j])))
    return out


class TestSelectColumns:
    def test_exact_targets_pick_those_columns(self):
        src = heavy_tailed_source()
        zf = np.mean(src == 0, axis=0)
        targets = [zf[3], zf[7], zf[10]]
        cols = select_columns_by_zero_fraction(src, targets)
        assert list(cols) == [3, 7, 10]

    def test_ties_break_by_column_order(self):
        src = np.zeros((10, 3))
        src[5:, :] = 1.0  # all columns have 50% zeros
        cols = select_columns_by_zero_fraction(src, [0.5, 0.5])
        assert list(cols) == [0, 1]

    def test_too_few_columns(self):
        with pytest.raises(SelectionError):
            select_columns_by_zero_fraction(np.zeros((5, 2)), [0.1, 0.2, 0.3])


class TestGenSettingThree:
    def make_config(self, transform="none", rho=0.7, zero_target=0.4, n=1200):
        return SettingConfig(
            setting=Setting.THREE,
            n=n,
            p=5,
            corr=CorrelationSpec(CorrKind.AR, rho, 5),
            zero_target=zero_target,
            transform=transform,
            marginal_source=heavy_tailed_source(),
        )

    def test_zero_fractions_match_selected_sources(self):
        cfg = self.make_config()
        Y = gen_setting_three(cfg, seed=0)
        src = heavy_tailed_source()
        cols = select_columns_by_zero_fraction(src, np.full(5, 0.4))
        src_zf = np.mean(src[:, cols] == 0, axis=0)
        zf = np.mean(Y == 0, axis=0)
        se = np.sqrt(src_zf * (1 - src_zf) / len(Y))
        assert np.all(np.abs(zf - src_zf) <= 3 * np.maximum(se, 1e-3))

    def test_identity_latents_give_uncorrelated_columns(self):
        cfg = self.make_config(rho=0.0, n=2000)
        Y = gen_setting_three(cfg, seed=1)
        rho01 = spearmanr(Y[:, 0], Y[:, 1]).statistic
        assert abs(rho01) < 0.06

    def test_sqrt_transform_support(self):
        cfg = self.make_config(transform="sqrt", n=3000)
        Y = gen_setting_three(cfg, seed=2)
        src = heavy_tailed_source()
        cols = select_columns_by_zero_fraction(np.round(np.sqrt(src)), np.full(5, 0.4))
        expected_max = np.round(np.sqrt(src[:, cols].max(axis=0)))
        assert np.all(Y.max(axis=0) == expected_max)

    def test_values_live_on_source_support(self):
        cfg = self.make_config()
        Y = gen_setting_three(cfg, seed=3)
        src = heavy_tailed_source()
        cols = select_columns_by_zero_fraction(src, np.full(5, 0.4))
        for j in range(5):
            assert np.isin(Y[:, j], src[:, cols[j]]).all()

    def test_reproducible(self):
        cfg = self.make_config()
        assert np.array_equal(gen_setting_three(cfg, seed=4), gen_setting_three(cfg, seed=4))

    def test_gd_latents_are_rescaled_to_correlation(self):
        spec = CorrelationSpec(CorrKind.GD, 0.5, 5, orthogonal_seed=1)
        corr = realize_correlation(spec)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.linalg.eigvalsh(corr).min() > 0


# one small cell of each scenario, and its population as one array
SMALL_CELLS = {
    Setting.ONE: setting_one_config(Flavor.HNB, gamma0=0.0, n=60),
    Setting.ONE_DEFLATION: setting_one_deflation_config(gamma0=0.0, n=60),
    Setting.TWO: setting_two_config(CorrelationSpec(CorrKind.AR, 0.5, 5), 0.0, 0.0, 0.0, n=60),
    Setting.THREE: scenario_config(
        Setting.THREE, n=60, corr=CorrelationSpec(CorrKind.AR, 0.5, 5), marginal_source=heavy_tailed_source()
    ),
}
GENERATORS = {
    Setting.ONE: gen_setting_one,
    Setting.ONE_DEFLATION: gen_setting_one,
    Setting.TWO: gen_setting_two,
    Setting.THREE: gen_setting_three,
}


def population(cfg):
    out = GENERATORS[cfg.setting](cfg, 5)
    return np.column_stack(out) if isinstance(out, tuple) else out


class TestSettingConfig:
    # a valid value other than every scenario's own for each field but ``setting``
    CHANGES = dict(
        n=80,
        p=3,
        beta0=1.0,
        beta1=1.0,
        gamma0=1.0,
        gamma1=1.0,
        r=3.0,
        corr=CorrelationSpec(CorrKind.AR, 0.3, 5),
        flavor=Flavor.ZINB,
        zero_target=0.3,
        transform="sqrt",
        marginal_source=heavy_tailed_source(seed=1),
    )

    @pytest.mark.parametrize("setting", list(Setting))
    def test_refuses_each_field_its_scenario_does_not_read(self, setting):
        base = SMALL_CELLS[setting]
        reads = _READS[setting]
        assert set(self.CHANGES) == {f.name for f in dataclasses.fields(SettingConfig)} - {"setting"}
        for key in reads:  # each read field moves the population
            change = {key: self.CHANGES[key]}
            if key == "p":  # with corr.p
                change["corr"] = dataclasses.replace(base.corr, p=3)
            assert not np.array_equal(population(dataclasses.replace(base, **change)), population(base)), key
        for key in set(self.CHANGES) - set(reads):
            with pytest.raises(ValueError, match=rf"scenario {setting.value} does not read \['{key}'\]"):
                dataclasses.replace(base, **{key: self.CHANGES[key]})

    def test_unread_fields_are_named_together(self):
        with pytest.raises(ValueError, match=r"scenario one does not read \['p', 'zero_target'\]"):
            setting_one_config(Flavor.HNB, gamma0=0.0, p=3, zero_target=0.4)

    @pytest.mark.parametrize(
        "setting, missing", [(Setting.TWO, "corr"), (Setting.THREE, "corr"), (Setting.THREE, "marginal_source")]
    )
    def test_a_read_field_must_be_set(self, setting, missing):
        params = dict(corr=CorrelationSpec(CorrKind.AR, 0.5, 5), marginal_source=heavy_tailed_source())
        params = {key: value for key, value in params.items() if key in _READS[setting] and key != missing}
        with pytest.raises(ValueError, match=rf"scenario {setting.value} needs \['{missing}'\]"):
            scenario_config(setting, **params)

    def test_p_must_match_the_correlation_spec(self):
        with pytest.raises(ValueError, match="p = 5 but the CorrelationSpec has p = 3"):
            scenario_config(Setting.TWO, corr=CorrelationSpec(CorrKind.AR, 0.5, 3))

    def test_none_takes_the_scenario_constant(self):
        one = setting_one_config(Flavor.ZINB, gamma0=-1.0, n=None, r=None)
        assert (one.n, one.beta0, one.beta1, one.gamma1, one.r) == (500, pytest.approx(math.log(12.0)), 2.0, 2.0, 0.5)
        two = setting_two_config(CorrelationSpec(CorrKind.AR, 0.5, LATENT_DIM), 1.0, -2.0, 0.0, n=None)
        assert (two.n, two.p, two.beta0, two.r, LATENT_DIM) == (1200, 5, 2.75, 6.0, 5)
        three = scenario_config(Setting.THREE, corr=two.corr, marginal_source=heavy_tailed_source(), n=None)
        assert (three.n, three.p, three.zero_target, three.transform) == (1200, 5, 0.5, "none")

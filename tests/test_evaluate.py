import itertools
import math

import numpy as np
import pytest

from zicount import (
    CorrKind,
    CorrelationSpec,
    HurdleModel,
    TlnpnModel,
    amc,
    kfold_cv,
    random_split_eval,
    wasserstein_1d,
    wasserstein_pd,
)
from zicount.evaluate import make_model
from zicount.exceptions import ShapeError, UndefinedComparisonError, ZicountError
from zicount.synth import Setting, gen_setting_two, scenario_config


def brute_force_wasserstein(X, Y, order):
    """Exact minimum over all n! permutations."""
    n = len(X)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(X - Y[list(perm)], axis=1) ** order)
        best = min(best, cost)
    return best ** (1.0 / order)


class TestWasserstein1d:
    def test_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        assert wasserstein_1d(x, x) == 0.0

    def test_constant_shift(self):
        assert wasserstein_1d([0.0, 0.0], [1.0, 1.0], order=1) == 1.0

    def test_sorted_matching(self):
        assert wasserstein_1d([0, 1, 2], [1, 2, 4], order=1) == pytest.approx(4.0 / 3.0)

    def test_order_two(self):
        assert wasserstein_1d([0.0, 0.0], [0.0, 2.0], order=2) == pytest.approx(math.sqrt(2.0))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            wasserstein_1d([1.0], [1.0, 2.0])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            wasserstein_1d([1.0], [1.0], order=3)


class TestWassersteinPd:
    def test_identity(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        assert wasserstein_pd(X, X) == 0.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_brute_force_small(self, order):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = rng.integers(2, 7)
            p = rng.integers(1, 4)
            X = rng.normal(size=(n, p))
            Y = rng.normal(size=(n, p))
            assert wasserstein_pd(X, Y, order) == pytest.approx(
                brute_force_wasserstein(X, Y, order), abs=1e-12
            )

    def test_one_dim_reduces(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        for order in (1, 2):
            assert wasserstein_pd(x[:, None], y[:, None], order) == pytest.approx(
                wasserstein_1d(x, y, order), abs=1e-12
            )

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        for order in (1, 2):
            X, Y, Z = (rng.normal(size=(8, 2)) for _ in range(3))
            dxy = wasserstein_pd(X, Y, order)
            dyx = wasserstein_pd(Y, X, order)
            assert dxy == pytest.approx(dyx, abs=1e-12)
            assert dxy <= wasserstein_pd(X, Z, order) + wasserstein_pd(Z, Y, order) + 1e-12

    def test_assignment_beats_identity_pairing(self):
        rng = np.random.default_rng(4)
        for order in (1, 2):
            X = rng.normal(size=(30, 3))
            Y = rng.normal(size=(30, 3))
            identity_cost = np.mean(np.linalg.norm(X - Y, axis=1) ** order) ** (1.0 / order)
            assert wasserstein_pd(X, Y, order) <= identity_cost + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 2))
        Y = rng.normal(size=(15, 2))
        perm = rng.permutation(15)
        assert wasserstein_pd(X[perm], Y[perm]) == pytest.approx(wasserstein_pd(X, Y), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            wasserstein_pd(np.zeros((3, 2)), np.zeros((4, 2)))


class TestAmc:
    def test_equal_inputs(self):
        assert amc(1.7, 1.7) == 0.0

    def test_boundary(self):
        assert amc(2.0, 0.0) == -2.0
        assert amc(0.0, 2.0) == 2.0

    def test_direct_formula(self):
        assert amc(2.0, 1.0) == pytest.approx(-2.0 / 3.0)

    def test_antisymmetric(self):
        assert amc(1.3, 0.4) == pytest.approx(-amc(0.4, 1.3))

    def test_both_zero_undefined(self):
        with pytest.raises(UndefinedComparisonError):
            amc(0.0, 0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            amc(-1.0, 1.0)


@pytest.fixture(scope="module")
def small_setting_two():
    spec = CorrelationSpec(CorrKind.AR, 0.5, 3)
    cfg = scenario_config(Setting.TWO, corr=spec, beta1=1.0, gamma0=float(np.log(1 / 9)), gamma1=0.0, n=150, p=3)
    return gen_setting_two(cfg, seed=0)


class TestKfoldCv:
    def test_fold_sizes_and_partition(self, small_setting_two):
        Y, X = small_setting_two
        report = kfold_cv(Y, covariates=X, k=5, seed=1)
        folds = {r.fold for r in report.records}
        assert folds == set(range(5))
        # every model distance present per fold
        assert len(report.records) == 10

    @pytest.mark.parametrize("n,k", [(150, 5), (100, 3), (17, 4)])
    def test_partition_covers_every_row_once(self, n, k):
        from zicount.evaluate import _kfold_indices

        _, folds = _kfold_indices(n, k, seed=2)
        joined = np.concatenate(folds)
        assert len(joined) == n
        assert np.array_equal(np.sort(joined), np.arange(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, small_setting_two):
        Y, X = small_setting_two
        models = lambda: [HurdleModel(False), TlnpnModel()]
        a = kfold_cv(Y, covariates=X, k=3, models=models(), seed=9)
        b = kfold_cv(Y, covariates=X, k=3, models=models(), seed=9)
        assert a == b

    def test_seed_changes_results(self, small_setting_two):
        Y, X = small_setting_two
        a = kfold_cv(Y, k=3, seed=1)
        b = kfold_cv(Y, k=3, seed=2)
        assert a.records != b.records

    def test_requires_covariates_when_model_needs_them(self, small_setting_two):
        Y, _ = small_setting_two
        with pytest.raises(ValueError):
            kfold_cv(Y, covariates=None, models=[HurdleModel(True), TlnpnModel()], seed=0)

    def test_amc_present_for_each_hurdle_variant(self, small_setting_two):
        Y, X = small_setting_two
        report = kfold_cv(
            Y, covariates=X, k=3, models=[HurdleModel(False), HurdleModel(True), TlnpnModel()], seed=3
        )
        assert set(report.amc) == {"hnb_vs_tlnpn", "hnb_cv_vs_tlnpn"}
        for values in report.amc.values():
            assert len(values) == 1 and -2.0 <= values[0] <= 2.0

    def test_records_carry_marginals(self, small_setting_two):
        Y, X = small_setting_two
        report = kfold_cv(Y, covariates=X, k=3, seed=4)
        for rec in report.records:
            if not rec.failed:
                assert rec.marginal.shape == (Y.shape[1],)
                assert (rec.marginal >= 0).all()

    def test_collect_extras(self, small_setting_two):
        Y, X = small_setting_two
        report = kfold_cv(Y, covariates=X, k=3, seed=5, collect_extras=True)
        for rec in report.records:
            if not rec.failed:
                assert rec.corr_gap is not None and rec.corr_gap >= 0.0
                assert rec.residuals.shape[1] == Y.shape[1]

    def test_failed_fit_recorded_not_fatal(self):
        rng = np.random.default_rng(6)
        Y = rng.poisson(3.0, size=(60, 3))
        Y[:, 2] = 5  # constant column sinks the copula fit, hurdle still works
        report = kfold_cv(Y, k=3, seed=7)
        tl = [r for r in report.records if r.model == "tlnpn"]
        hn = [r for r in report.records if r.model == "hnb"]
        assert all(r.failed for r in tl)
        assert all(not r.failed for r in hn)
        assert report.amc == {}

    def test_non_finite_coefficients_recorded_not_fatal(self, monkeypatch):
        import zicount.evaluate as evaluate
        from zicount.fitting import RegressionCoefficients

        def diverged_fit(y, flavor):
            return RegressionCoefficients(beta=[np.nan], gamma=[0.0], log_r=0.0)

        monkeypatch.setattr(evaluate, "fit_intercept_only", diverged_fit)
        Y = np.random.default_rng(6).poisson(3.0, size=(60, 3))
        report = kfold_cv(Y, k=3, seed=7)
        hn = [r for r in report.records if r.model == "hnb"]
        assert len(hn) == 3 and all(r.failed and "finite" in r.error for r in hn)
        assert all(not r.failed for r in report.records if r.model == "tlnpn")
        assert report.amc == {}


class TestRandomSplitEval:
    def test_single_split_is_single_evaluation(self, small_setting_two):
        Y, _ = small_setting_two
        report = random_split_eval(Y, folds=3, n_splits=1, seed=0)
        assert {r.split for r in report.records} == {0}
        assert len(report.amc["hnb_vs_tlnpn"]) == 1

    def test_deterministic_split_sequence(self, small_setting_two):
        Y, _ = small_setting_two
        a = random_split_eval(Y, folds=3, n_splits=3, seed=5)
        b = random_split_eval(Y, folds=3, n_splits=3, seed=5)
        assert a == b

    def test_amc_per_split(self, small_setting_two):
        Y, _ = small_setting_two
        report = random_split_eval(Y, folds=3, n_splits=4, seed=1)
        assert len(report.amc["hnb_vs_tlnpn"]) == 4

    def test_covariate_models_rejected(self, small_setting_two):
        Y, _ = small_setting_two
        with pytest.raises(ValueError):
            random_split_eval(Y, folds=3, n_splits=1, models=[HurdleModel(True), TlnpnModel()], seed=0)


def _fail_copula_fits(monkeypatch, failing_calls):
    """Make the copula fit raise on the given calls, counted from 0 in
    (split, fold) order."""
    real_fit = TlnpnModel.fit
    calls = itertools.count()

    def fit(self, Y, X=None):
        if next(calls) in failing_calls:
            raise ZicountError("injected copula failure")
        return real_fit(self, Y, X)

    monkeypatch.setattr(TlnpnModel, "fit", fit)


def _distances(report, model, split):
    return {r.fold: r.distance for r in report.records if r.model == model and r.split == split and not r.failed}


class TestAmcUnderPartialFailure:
    """One AMC rule for both protocols: per split, the fold means over the
    folds where the hurdle and the copula model both fitted."""

    def test_kfold_uses_only_folds_where_copula_fitted(self, small_setting_two, monkeypatch):
        Y, _ = small_setting_two
        _fail_copula_fits(monkeypatch, {1})
        report = kfold_cv(Y, k=3, seed=21)
        h, t = _distances(report, "hnb", 0), _distances(report, "tlnpn", 0)
        assert sorted(h) == [0, 1, 2] and sorted(t) == [0, 2]
        expected = amc(np.mean([h[0], h[2]]), np.mean([t[0], t[2]]))
        assert report.amc == {"hnb_vs_tlnpn": [expected]}

    def test_random_split_drops_the_failed_split(self, small_setting_two, monkeypatch):
        Y, _ = small_setting_two
        _fail_copula_fits(monkeypatch, {1})
        report = random_split_eval(Y, folds=3, n_splits=3, seed=22)
        expected = [
            amc(_distances(report, "hnb", s)[2], _distances(report, "tlnpn", s)[2]) for s in (0, 2)
        ]
        assert _distances(report, "tlnpn", 1) == {}
        assert report.amc == {"hnb_vs_tlnpn": expected}

    def test_random_split_with_every_split_failed_has_no_key(self, small_setting_two, monkeypatch):
        Y, _ = small_setting_two
        _fail_copula_fits(monkeypatch, {0, 1, 2})
        report = random_split_eval(Y, folds=3, n_splits=3, seed=23)
        assert all(r.failed for r in report.records if r.model == "tlnpn")
        assert report.amc == {}

    @pytest.mark.parametrize(
        "shape, protocol",
        [
            # 7 training rows, below the copula's 10
            ((14, 3), lambda Y: random_split_eval(Y, folds=2, n_splits=2, seed=24)),
            # one column, below the copula's 2
            ((60, 1), lambda Y: kfold_cv(Y, k=3, seed=25)),
        ],
    )
    def test_too_small_training_block_fails_only_the_copula(self, shape, protocol):
        Y = np.random.default_rng(26).poisson(3.0, size=shape) + np.arange(shape[0])[:, None] % 2
        report = protocol(Y)
        hn = [r for r in report.records if r.model == "hnb"]
        tl = [r for r in report.records if r.model == "tlnpn"]
        assert hn and not any(r.failed for r in hn)
        assert tl and all(r.failed and "need n >= 10 and p >= 2" in r.error for r in tl)
        assert report.amc == {}


class TestMakeModel:
    def test_tags(self):
        assert make_model("hnb").name == "hnb"
        assert make_model("hnb_cv").name == "hnb_cv"
        assert make_model("tlnpn").name == "tlnpn"

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_model("zip")


class _Recorder:
    """Wraps a model spec and captures what its fits simulate."""

    def __init__(self, inner):
        self.inner = inner
        self.sims = []

    @property
    def name(self):
        return self.inner.name

    @property
    def requires_covariates(self):
        return self.inner.requires_covariates

    def fit(self, Y, X=None):
        recorder, fitted = self, self.inner.fit(Y, X)

        class _Fitted:
            def simulate(self, n, seed, X=None):
                sim = fitted.simulate(n, seed, X)
                recorder.sims.append(sim)
                return sim

        return _Fitted()


class TestExtrasAgainstIndependentRecomputation:
    def test_residuals_and_corr_gap_recomputed_from_captured_sims(self, small_setting_two):
        """The persisted extras must equal quantities recomputed directly
        from the simulated and held-out matrices."""
        Y, _ = small_setting_two
        from zicount.evaluate import _kfold_indices

        recorder = _Recorder(HurdleModel(False))
        report = kfold_cv(Y, k=3, models=[recorder, TlnpnModel()], seed=13, collect_extras=True)
        _, folds = _kfold_indices(len(Y), 3, seed=13)
        recs = [r for r in report.records if r.model == "hnb"]
        assert len(recs) == len(recorder.sims) == 3
        for rec, sim in zip(sorted(recs, key=lambda r: r.fold), recorder.sims):
            test = Y[folds[rec.fold]]
            expected = np.sort(sim, axis=0) - np.sort(test, axis=0)
            assert np.allclose(rec.residuals, expected)
            ct = np.corrcoef(test, rowvar=False)
            cs = np.corrcoef(sim, rowvar=False)
            mask = ~np.eye(test.shape[1], dtype=bool)
            assert rec.corr_gap == pytest.approx(np.abs(ct - cs)[mask].mean())
            assert rec.distance == pytest.approx(wasserstein_pd(test, sim, order=1), abs=1e-12)


class TestSimulators:
    def test_hurdle_simulation_uses_test_covariates(self, small_setting_two):
        Y, X = small_setting_two
        fitted = HurdleModel(True).fit(Y, X)
        strong = np.full((40, Y.shape[1]), 3.0)
        weak = np.full((40, Y.shape[1]), -3.0)
        hi = fitted.simulate(40, seed=0, X=strong)
        lo = fitted.simulate(40, seed=0, X=weak)
        assert hi.mean() > lo.mean()

    def test_unconditional_hurdle_columns_independent(self, small_setting_two):
        Y, _ = small_setting_two
        fitted = HurdleModel(False).fit(Y)
        sim = fitted.simulate(3000, seed=1)
        c = np.corrcoef(sim, rowvar=False)
        assert np.max(np.abs(c[~np.eye(Y.shape[1], dtype=bool)])) < 0.08

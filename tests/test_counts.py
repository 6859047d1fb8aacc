import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from zicount import (
    CountParams,
    Dataset,
    Flavor,
    fit_intercept_only,
    fit_regression,
    hnb_pmf,
    nb_log_pmf,
    nb_pmf,
    sample_count,
    zinb_pmf,
)
from zicount.counts import _log_nb_zero, _nb_logpmf, _nb_positive, _sample_zero_truncated_nb
from zicount.exceptions import DegenerateTruncationError, InvalidParameterError, ZicountError

mpmath.mp.dps = 50


def nb_pmf_oracle(y, mu, r):
    """Extended-precision NB pmf via the rising-factorial product (no loggamma)."""
    mu, r = mpmath.mpf(mu), mpmath.mpf(r)
    ratio = mpmath.mpf(1)
    for t in range(y):
        ratio *= (t + r) / (t + 1)
    return float(ratio * (mu / (mu + r)) ** y * (r / (mu + r)) ** r)


class TestNbLogPmf:
    def test_figure_constant_zero_prob(self):
        params = CountParams(mu=2.5, r=5, flavor=Flavor.NB)
        assert nb_log_pmf(0, params) == pytest.approx(math.log(0.1317), abs=1e-3)

    def test_mu_to_zero_limit(self):
        params = CountParams(mu=1e-12, r=5, flavor=Flavor.NB)
        assert nb_log_pmf(0, params) == pytest.approx(0.0, abs=1e-9)

    def test_against_product_oracle(self):
        params = CountParams(mu=2.5, r=5, flavor=Flavor.NB)
        assert math.exp(nb_log_pmf(3, params)) == pytest.approx(
            nb_pmf_oracle(3, 2.5, 5), rel=1e-12
        )

    @pytest.mark.parametrize("mu,r", [(2.5, 5.0), (0.3, 0.5), (40.0, 2.0), (800.0, 6.0)])
    def test_extended_precision_up_to_1000(self, mu, r):
        params = CountParams(mu=mu, r=r, flavor=Flavor.NB)
        ys = np.unique(np.geomspace(1, 1000, 40).astype(int))
        ys = np.concatenate([[0], ys])
        ours = np.exp(nb_log_pmf(ys, params))
        for y, v in zip(ys, ours):
            assert v == pytest.approx(nb_pmf_oracle(int(y), mu, r), rel=1e-10)

    @given(
        y=st.integers(0, 5000),
        log_mu=st.floats(-8.0, 10.0),
        log_r=st.floats(-8.0, 12.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_scipy_nbinom(self, y, log_mu, log_r):
        mu, r = math.exp(log_mu), math.exp(log_r)
        expected = nbinom.logpmf(y, r, r / (r + mu))
        # scipy gets p = r/(r + mu) rounded, so its y*log(1 - p) is off by
        # up to ~1e-16 * y * r/mu
        assert _nb_logpmf(y, mu, r) == pytest.approx(expected, rel=1e-9, abs=1e-9 + 1e-15 * y * r / mu)
        assert _nb_logpmf(y, mu, r, derivatives=True)[0] == _nb_logpmf(y, mu, r)

    @given(
        y=st.integers(0, 500),
        log_mu=st.floats(-30.0, 30.0),
        log_r=st.floats(-15.0, 15.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_score_against_extended_precision(self, y, log_mu, log_r):
        def log_pmf(eta, lr):
            mu, r = mpmath.exp(eta), mpmath.exp(lr)
            return (
                mpmath.loggamma(y + r) - mpmath.loggamma(r) - mpmath.loggamma(y + 1)
                + y * (eta - mpmath.log(mu + r)) - r * mpmath.log1p(mu / r)
            )

        eta, lr = mpmath.mpf(log_mu), mpmath.mpf(log_r)
        d_eta = float(mpmath.diff(lambda e: log_pmf(e, lr), eta))
        d_log_r = float(mpmath.diff(lambda v: log_pmf(eta, v), lr))
        _, ours_eta, ours_log_r = _nb_logpmf(y, math.exp(log_mu), math.exp(log_r), derivatives=True)[:3]
        r = math.exp(log_r)
        assert ours_eta == pytest.approx(d_eta, rel=1e-10, abs=1e-12)
        # r*(psi(y+r) - psi(r)) cancels to O(y^2/r): its rounding is ~1e-16 * r*log(r)
        assert ours_log_r == pytest.approx(d_log_r, rel=1e-8, abs=1e-12 * (1.0 + r * abs(log_r)))

    @given(
        y=st.lists(st.integers(0, 500), min_size=1, max_size=30),
        log_mu=st.floats(-30.0, 30.0),
        log_r=st.floats(-15.0, 15.0),
        truncated=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_derivatives_and_distinct_counts_keep_the_bits(self, y, log_mu, log_r, truncated):
        """The log pmf is the same with its derivatives as without them, and
        each of the six outputs is the same per distinct count as row by
        row, truncated or not, over the fits' clipped (log mu, log r)."""
        y = np.array(y, dtype=float) + truncated
        mu, r = math.exp(log_mu), math.exp(log_r)
        rows = _nb_logpmf(y, mu, r, derivatives=True, truncated=truncated)
        assert len(rows) == 6
        np.testing.assert_array_equal(rows[0], _nb_logpmf(y, mu, r, truncated=truncated))
        distinct = np.unique(y, return_inverse=True)
        per_distinct = _nb_logpmf(y, mu, r, derivatives=True, truncated=truncated, distinct=distinct)
        for row, other in zip(rows, per_distinct, strict=True):
            np.testing.assert_array_equal(other, row)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            CountParams(mu=float("nan"), r=5)
        with pytest.raises(InvalidParameterError):
            CountParams(mu=2.0, r=float("inf"))
        with pytest.raises(InvalidParameterError):
            CountParams(mu=-1.0, r=5)

    def test_rejects_wrong_flavor_and_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            nb_log_pmf(0, CountParams(mu=1.0, r=1.0, pi=0.5, flavor=Flavor.ZINB))
        with pytest.raises(ValueError):
            nb_log_pmf(-1, CountParams(mu=1.0, r=1.0))


class TestZinbPmf:
    def test_figure_constant(self):
        params = CountParams(mu=2.5, r=5, pi=0.25, flavor=Flavor.ZINB)
        assert zinb_pmf(0, params) == pytest.approx(0.3487, abs=1e-4)

    def test_zero_weight_collapses_to_nb(self):
        pz = CountParams(mu=3.2, r=1.5, pi=0.0, flavor=Flavor.ZINB)
        pn = CountParams(mu=3.2, r=1.5, flavor=Flavor.NB)
        ys = np.arange(30)
        assert zinb_pmf(ys, pz) == pytest.approx(nb_pmf(ys, pn), rel=1e-14)

    def test_direct_formula_point(self):
        # mu=1, r=2: NB(2) = 4/27, so the mixed pmf halves it
        params = CountParams(mu=1.0, r=2.0, pi=0.5, flavor=Flavor.ZINB)
        assert zinb_pmf(2, params) == pytest.approx(2.0 / 27.0, rel=1e-12)
        oracle = 0.5 * nb_pmf_oracle(2, 1.0, 2.0)
        assert zinb_pmf(2, params) == pytest.approx(oracle, rel=1e-12)

    @given(
        mu=st.floats(0.01, 50.0),
        r=st.floats(0.1, 20.0),
        pi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_inflation_lower_bound(self, mu, r, pi):
        pz = CountParams(mu=mu, r=r, pi=pi, flavor=Flavor.ZINB)
        pn = CountParams(mu=mu, r=r, flavor=Flavor.NB)
        assert zinb_pmf(0, pz) >= nb_pmf(0, pn) - 1e-15


class TestHnbPmf:
    @pytest.mark.parametrize("pi,expected", [(0.25, 0.25), (0.05, 0.05)])
    def test_figure_constants(self, pi, expected):
        params = CountParams(mu=2.5, r=5, pi=pi, flavor=Flavor.HNB)
        assert hnb_pmf(0, params) == expected

    def test_zero_weight_equal_to_nb_zero_mass_collapses(self):
        pn = CountParams(mu=2.5, r=5, flavor=Flavor.NB)
        pi = nb_pmf(0, pn)
        ph = CountParams(mu=2.5, r=5, pi=pi, flavor=Flavor.HNB)
        ys = np.arange(40)
        assert hnb_pmf(ys, ph) == pytest.approx(nb_pmf(ys, pn), rel=1e-12)

    def test_zero_deflation_allowed(self):
        pn = CountParams(mu=2.5, r=5, flavor=Flavor.NB)
        ph = CountParams(mu=2.5, r=5, pi=0.01, flavor=Flavor.HNB)
        assert hnb_pmf(0, ph) == 0.01 < nb_pmf(0, pn)

    def test_degenerate_truncation(self):
        # mu/r underflows to 0, so NB(0) rounds to 1 and the truncation
        # denominator vanishes
        params = CountParams(mu=1e-320, r=1e6, pi=0.5, flavor=Flavor.HNB)
        with pytest.raises(DegenerateTruncationError):
            hnb_pmf(1, params)
        with pytest.raises(DegenerateTruncationError):
            sample_count(10, CountParams(mu=1e-320, r=1e6, pi=0.5, flavor=Flavor.HNB), seed=0)


@given(
    mu=st.floats(0.01, 50.0),
    r=st.floats(0.1, 20.0),
    pi=st.floats(0.0, 1.0),
    flavor=st.sampled_from([Flavor.NB, Flavor.ZINB, Flavor.HNB]),
)
@settings(max_examples=60, deadline=None)
def test_normalization_property(mu, r, pi, flavor):
    """Cumulative pmf reaches 1 - 1e-8 on an adaptively extended support."""
    params = CountParams(mu=mu, r=r, pi=pi, flavor=flavor)
    pmf = {Flavor.NB: nb_pmf, Flavor.ZINB: zinb_pmf, Flavor.HNB: hnb_pmf}[flavor]
    total = 0.0
    upper = 64
    while upper <= 2**22:
        total = float(np.sum(pmf(np.arange(upper), params)))
        if total >= 1.0 - 1e-8:
            break
        upper *= 4
    assert total >= 1.0 - 1e-8


class StubGenerator:
    """Stands in for ``np.random.Generator``: every uniform it returns is
    ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def assert_positive_frequencies(y, pmf):
    """Sampled frequencies of k = 1..len(pmf) within 5 standard errors of
    ``pmf``."""
    ks = np.arange(1, len(pmf) + 1)
    freq = (y[:, None] == ks).mean(axis=0)
    se = np.sqrt(pmf * (1.0 - pmf) / len(y))
    assert np.all(np.abs(freq - pmf) <= 5.0 * se), (freq, pmf)


class TestZeroTruncatedSampler:
    @given(log_r=st.floats(-15.0, 3.0), mu=st.floats(0.05, 300.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_frequencies_match_hnb_pmf(self, log_r, mu):
        params = CountParams(mu=mu, r=math.exp(log_r), pi=0.0, flavor=Flavor.HNB)
        y = sample_count(4000, params, seed=5)
        assert y.min() >= 1
        assert_positive_frequencies(y, hnb_pmf(np.arange(1, 9), params))

    @pytest.mark.parametrize("mu", [0.5, 3.0, 30.0, 300.0])
    def test_tiny_r_matches_logarithmic_series(self, mu):
        # as r -> 0 the zero-truncated NB tends to the logarithmic series
        # -p^k / (k log(1 - p)) with p = mu / (mu + r)
        r = math.exp(-15.0)
        p = mu / (mu + r)
        ks = np.arange(1, 11)
        pmf = -(p**ks) / (ks * math.log(r / (mu + r)))
        y = sample_count(20_000, CountParams(mu=mu, r=r, pi=0.0, flavor=Flavor.HNB), seed=6)
        assert_positive_frequencies(y, pmf)

    @given(log_r=st.floats(-15.0, 15.0), log_mu=st.floats(-30.0, 30.0), u=st.floats(0.0, 1.0, exclude_max=True))
    # 1 - NB(0) rounds to 1 at r = 10, mu = 1e3, so a zero uniform gives
    # v = 1, where nbinom.isf returns -1 and its ufunc returns 0
    @example(log_r=math.log(10.0), log_mu=math.log(1e3), u=0.0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_quantile_equals_scipy_stats_nbinom_isf(self, log_r, log_mu, u):
        # the sampler calls the ufunc behind nbinom.isf, at
        # v = (1 - NB(0))(1 - u), and clamps to >= 1; a scipy release that
        # renames or changes that ufunc fails here
        r, mu = math.exp(log_r), np.array([math.exp(log_mu)])
        v = _nb_positive(_log_nb_zero(mu, r)) * (1.0 - u)
        expected = np.maximum(nbinom.isf(v, r, r / (r + mu)), 1.0)
        if not expected[0] < 2.0**63:
            with pytest.raises(ZicountError, match="int64"):
                _sample_zero_truncated_nb(StubGenerator(u), mu, r)
            return
        y = _sample_zero_truncated_nb(StubGenerator(u), mu, r)
        assert y.tolist() == expected.astype(np.int64).tolist()

    def test_zero_uniform_gives_one(self):
        y = _sample_zero_truncated_nb(StubGenerator(0.0), np.array([0.05, 3.0, 300.0]), 0.5)
        assert y.tolist() == [1, 1, 1]

    def test_draw_beyond_int64_is_typed_error(self):
        # mu = e^30 and r = e^-15 are inside the fit's clips; the upper tail
        # passes 2^63 in about 2% of draws
        params = CountParams(mu=math.exp(30.0), r=math.exp(-15.0), pi=0.0, flavor=Flavor.HNB)
        with pytest.raises(ZicountError, match="int64"):
            sample_count(1000, params, seed=0)
        with pytest.raises(ZicountError, match="int64"):
            _sample_zero_truncated_nb(StubGenerator(1.0 - 2.0**-53), np.array([params.mu]), params.r)


class TestSampleCount:
    def test_hurdle_always_fires(self):
        params = CountParams(mu=3.0, r=1.0, pi=1.0, flavor=Flavor.HNB)
        assert not sample_count(500, params, seed=0).any()

    def test_truncated_support_excludes_zero(self):
        params = CountParams(mu=0.05, r=0.5, pi=0.0, flavor=Flavor.HNB)
        y = sample_count(2000, params, seed=1)
        assert (y >= 1).all()

    def test_zinb_zero_probability_monte_carlo(self):
        params = CountParams(mu=2.5, r=5, pi=0.25, flavor=Flavor.ZINB)
        n = 100_000
        y = sample_count(n, params, seed=2)
        p0 = zinb_pmf(0, params)
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(np.mean(y == 0) - p0) <= 3 * se

    def test_zinb_mean_monte_carlo(self):
        params = CountParams(mu=4.0, r=2.0, pi=0.3, flavor=Flavor.ZINB)
        n = 200_000
        y = sample_count(n, params, seed=3)
        target = (1 - params.pi) * params.mu
        # var of ZINB = (1-pi)*mu*(1 + mu/r + pi*mu)
        var = (1 - params.pi) * params.mu * (1 + params.mu / params.r + params.pi * params.mu)
        assert abs(y.mean() - target) <= 3 * math.sqrt(var / n)

    def test_deterministic_given_seed(self):
        params = CountParams(mu=2.0, r=1.0, pi=0.4, flavor=Flavor.HNB)
        assert np.array_equal(sample_count(100, params, seed=42), sample_count(100, params, seed=42))

    def test_empirical_matches_pmf(self):
        params = CountParams(mu=1.5, r=0.8, pi=0.2, flavor=Flavor.HNB)
        y = sample_count(100_000, params, seed=4)
        for k in range(4):
            p = hnb_pmf(k, params)
            se = math.sqrt(p * (1 - p) / len(y))
            assert abs(np.mean(y == k) - p) <= 4 * se

    def test_nb_flavor_pi_reported_as_zero(self):
        params = CountParams(mu=2.0, r=1.0, pi=0.7, flavor=Flavor.NB)
        assert params.pi == 0.0


# every entry point that takes counts, each given one table of six counts
ENTRY_POINTS = {
    "fit_intercept_only HNB": lambda y: fit_intercept_only(y, Flavor.HNB),
    "fit_intercept_only NB": lambda y: fit_intercept_only(y, Flavor.NB),
    "fit_intercept_only ZINB": lambda y: fit_intercept_only(y, Flavor.ZINB),
    "fit_regression ZINB": lambda y: fit_regression(y, np.column_stack([np.ones(6), np.arange(6.0)]), None, Flavor.ZINB),
    "fit_regression HNB": lambda y: fit_regression(y, np.ones((6, 1)), None, Flavor.HNB),
    "nb_log_pmf": lambda y: nb_log_pmf(y, CountParams(mu=2.0, r=1.0, flavor=Flavor.NB)),
    "zinb_pmf": lambda y: zinb_pmf(y, CountParams(mu=2.0, r=1.0, pi=0.3, flavor=Flavor.ZINB)),
    "hnb_pmf": lambda y: hnb_pmf(y, CountParams(mu=2.0, r=1.0, pi=0.3, flavor=Flavor.HNB)),
    "Dataset": lambda y: Dataset(np.reshape(y, (3, 2)), ("a", "b")),
}


class TestCountRule:
    """A count is finite, nonnegative and whole at every entry point; a bad
    one raises an error that the package's callers catch (a ZicountError)
    and that plain callers catch (a ValueError)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 2.5], ids=["nan", "inf", "negative", "fractional"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_count_is_rejected(self, entry, bad):
        with pytest.raises(InvalidParameterError, match="counts must be nonnegative") as caught:
            ENTRY_POINTS[entry]([0.0, 1.0, 3.0, bad, 2.0, 7.0])
        assert isinstance(caught.value, ZicountError) and isinstance(caught.value, ValueError)
        assert caught.value.args[0].endswith(f"got {bad}")

    @pytest.mark.parametrize("y", [2.5, -1, np.nan])
    def test_scalar_count_is_checked(self, y):
        with pytest.raises(InvalidParameterError):
            nb_log_pmf(y, CountParams(mu=2.0, r=1.0, flavor=Flavor.NB))

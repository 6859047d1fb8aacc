import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import qmc, spearmanr

from zicount import (
    bridge_tt,
    fit_tlnpn,
    invert_bridge,
    kendall_tau_matrix,
    nearest_correlation,
    sample_tlnpn,
    zero_truncation_levels,
)
import zicount.copula as copula
from zicount import bridge_table
from zicount.bench import make_qmp_standin
from zicount.copula import _bridge_batch, _invert_bridge_batch, _sobol_points
from zicount.exceptions import (
    ClampedCorrelationWarning,
    ConstantColumnError,
    InvalidCorrelationError,
    NonFiniteDataError,
)
from zicount.synth import ar_correlation, CorrelationSpec, CorrKind


def sigma4_pair(s):
    """The two 4x4 correlation matrices of the truncated/truncated bridge,
    -2 Phi4(l; Sigma4a) + 2 Phi4(l; Sigma4b) at l = (-dj, -dk, 0, 0).

    An array ``s`` gives two ``s.shape + (4, 4)`` stacks.
    """
    s = np.asarray(s, dtype=float)
    one, zero = np.ones_like(s), np.zeros_like(s)
    c, h = one / np.sqrt(2.0), s / np.sqrt(2.0)

    def build(rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    s4a = build([[one, zero, c, -h], [zero, one, -h, c], [c, -h, one, -s], [-h, c, -s, one]])
    s4b = build([[one, s, c, h], [s, one, h, c], [c, h, one, s], [h, c, s, one]])
    return s4a, s4b


def genz_means(a, chol, w):
    """Genz's recursion for P(X <= a), X ~ N(0, chol chol^T), at each row
    of the uniforms ``w``.

    a : (d,) finite upper limits, chol : (d, d), w : (n, d-1).
    """
    d = len(a)
    e = ndtr(a[0] / chol[0, 0])
    prod = np.full(w.shape[0], e)
    y = np.empty((w.shape[0], d - 1))
    for i in range(1, d):
        y[:, i - 1] = ndtri(np.clip(w[:, i - 1] * e, 1e-300, 1.0 - 1e-16))
        e = ndtr((a[i] - y[:, :i] @ chol[i, :i]) / chol[i, i])
        prod *= e
    return prod


def phi4_reference(a, sigma):
    """CDF at ``a`` of a zero-mean 4-d Gaussian with correlation ``sigma``:
    :func:`genz_means` on a LAPACK Cholesky factor, most restrictive limit
    first, averaged over 8 scrambled Sobol streams (seeds 1-8) of 32768
    points each, none of them the bridge kernel's stream."""
    a = np.asarray(a, dtype=float)
    order = np.argsort(a)
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float)[np.ix_(order, order)])
    streams = (qmc.Sobol(3, scramble=True, seed=seed).random(1 << 15) for seed in range(1, 9))
    return float(np.mean([genz_means(a[order], chol, w).mean() for w in streams]))


def phi4_quadrature_oracle(a, sigma, nodes=48, lo=-8.5):
    """Dense tensor-grid Gauss-Legendre integration of the 4-d density."""
    from numpy.polynomial.legendre import leggauss

    xs, ws = [], []
    for ai in a:
        hi = min(float(ai), 8.5)
        x, w = leggauss(nodes)
        xs.append(0.5 * (x + 1) * (hi - lo) + lo)
        ws.append(w * 0.5 * (hi - lo))
    grids = np.meshgrid(*xs, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*ws, indexing="ij")
    wt = (wgrids[0] * wgrids[1] * wgrids[2] * wgrids[3]).ravel()
    inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    q = np.einsum("ij,jk,ik->i", pts, inv, pts)
    dens = np.exp(-0.5 * q) / ((2 * np.pi) ** 2 * np.exp(0.5 * logdet))
    return float((dens * wt).sum())


def simulate_truncated_pair_tau(sigma, dj, dk, m, seed):
    """Monte Carlo Kendall's tau of a truncated latent Gaussian pair.

    Positives come from a strictly increasing positive transform of the
    latent value, so zeros sit below every positive observation.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.array([[1.0, sigma], [sigma, 1.0]]))
    z1 = rng.standard_normal((m, 2)) @ chol.T
    z2 = rng.standard_normal((m, 2)) @ chol.T
    y1 = np.where(z1 > [dj, dk], np.exp(z1), 0.0)
    y2 = np.where(z2 > [dj, dk], np.exp(z2), 0.0)
    vals = np.sign(y1 - y2)[:, 0] * np.sign(y1 - y2)[:, 1]
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(m))


class TestKendallTauMatrix:
    def test_perfect_concordance(self):
        data = np.column_stack([[1, 2, 3], [1, 2, 3]])
        assert kendall_tau_matrix(data).tau[0, 1] == 1.0

    def test_perfect_discordance(self):
        data = np.column_stack([[1, 2, 3], [3, 2, 1]])
        assert kendall_tau_matrix(data).tau[0, 1] == -1.0

    def test_hand_enumerated_ties(self):
        data = np.column_stack([[0, 0, 1, 2], [0, 1, 0, 2]])
        assert kendall_tau_matrix(data).tau[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_constant_column(self):
        data = np.column_stack([[1.0, 1.0, 1.0], [1, 2, 3]])
        with pytest.raises(ConstantColumnError):
            kendall_tau_matrix(data)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        Y = rng.poisson(2.0, size=(40, 3)).astype(float)
        tau = kendall_tau_matrix(Y).tau
        assert np.allclose(tau, naive_tau(Y), rtol=0.0, atol=1e-12)

    def test_row_blocks_with_ties_match_naive_double_loop(self, monkeypatch):
        # 7-row blocks: 41 rows end in a partial block
        monkeypatch.setattr(copula, "_KENDALL_CHUNK", 7 * 41 * 3)
        Y = np.random.default_rng(3).poisson(1.0, size=(41, 3)).astype(float)
        assert np.allclose(kendall_tau_matrix(Y).tau, naive_tau(Y), rtol=0.0, atol=1e-12)

    def test_bit_identical_to_single_float32_product(self):
        # the whole-matrix float32 product is exact for n <= 4096
        Y = np.random.default_rng(5).poisson(3.0, size=(300, 4)).astype(float)
        n, p = Y.shape
        S = np.sign(Y.T[:, :, None] - Y.T[:, None, :]).reshape(p, n * n).astype(np.float32)
        ref = (S @ S.T).astype(np.float64) / (n * (n - 1))
        np.fill_diagonal(ref, 1.0)
        assert np.array_equal(kendall_tau_matrix(Y).tau, ref)

    def test_exact_beyond_float32_range(self):
        # one discordant pair among n(n-1)/2: tau = 1 - 4 / (n(n-1))
        n = 5000
        x = np.arange(n, dtype=float)
        y = x.copy()
        y[[0, 1]] = y[[1, 0]]
        tau = kendall_tau_matrix(np.column_stack([x, y])).tau
        assert tau[0, 1] == (n * (n - 1) - 4) / (n * (n - 1))


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 50),
        p=st.integers(1, 4),
        levels=st.integers(2, 5),
        block=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, p=3, levels=2, block=1, seed=0)
    @example(n=41, p=3, levels=2, block=7, seed=1)  # ends in a partial block
    def test_bit_identical_to_the_sign_block_reference(self, n, p, levels, block, seed):
        # heavy ties: at most `levels` values per column, and the first row
        # above all of them so no column is constant
        Y = np.random.default_rng(seed).integers(0, levels, size=(n, p)).astype(float)
        Y[0] = levels
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(copula, "_KENDALL_CHUNK", block * n * p)
            tau = kendall_tau_matrix(Y).tau
        assert np.array_equal(tau, sign_block_tau(Y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_column(self, bad):
        Y = np.random.default_rng(2).poisson(2.0, size=(20, 4)).astype(float)
        Y[7, 2] = bad
        with pytest.raises(NonFiniteDataError, match=r"^column 2 "):
            kendall_tau_matrix(Y)
        with pytest.raises(NonFiniteDataError, match=r"^column 2 "):
            fit_tlnpn(Y)

    @pytest.mark.parametrize("shape", [(135, 101), (960, 5)], ids=["standin", "960x5"])
    def test_memory_is_bounded(self, shape):
        # the signs of one block of rows against the rows after it: today's
        # float64 blocks of every ordered pair took 14-16 MB on these tables
        if shape == (135, 101):
            Y = make_qmp_standin().values
        else:
            Y = np.random.default_rng(6).negative_binomial(2, 0.3, size=shape).astype(float)
        tracemalloc.start()
        try:
            tau = kendall_tau_matrix(Y).tau
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(tau, sign_block_tau(Y))


def sign_block_tau(Y, chunk=1 << 20):
    """Kendall's tau as the library computed it before it ranked: float64
    signs of the differences of every ordered pair (i, i'), one block of
    rows i at a time, the block sums totalled in int64."""
    n, p = Y.shape
    rows = max(1, chunk // (n * p))
    total = np.zeros((p, p), dtype=np.int64)
    for start in range(0, n, rows):
        S = Y[start : start + rows, None, :] - Y[None, :, :]
        S = np.sign(S, out=S).reshape(-1, p)
        total += (S.T @ S).astype(np.int64)
    tau = total / (n * (n - 1))
    np.fill_diagonal(tau, 1.0)
    return tau


def naive_tau(Y):
    """Kendall's tau matrix by a double loop over the pairs i < i'."""
    n, p = Y.shape
    tau = np.eye(p)
    for j in range(p):
        for k in range(j + 1, p):
            acc = 0.0
            for i in range(n):
                for i2 in range(i + 1, n):
                    acc += np.sign(Y[i, j] - Y[i2, j]) * np.sign(Y[i, k] - Y[i2, k])
            tau[j, k] = tau[k, j] = 2.0 * acc / (n * (n - 1))
    return tau


class TestZeroTruncationLevels:
    def test_median_zero_rate(self):
        data = np.array([[0.0, 1], [0, 2], [3, 0], [4, 0]])
        assert zero_truncation_levels(data) == pytest.approx([0.0, 0.0])

    def test_no_zero_clamp(self):
        data = np.ones((100, 1))
        data[:, 0] = np.arange(1, 101)
        assert zero_truncation_levels(data)[0] == pytest.approx(ndtri(1.0 / 400.0))

    def test_quantile_oracle(self):
        data = np.ones((10, 1))
        data[:3, 0] = 0.0
        assert zero_truncation_levels(data)[0] == pytest.approx(ndtri(0.3), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_column(self, bad):
        # a NaN is neither a zero nor a positive count
        data = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 3.0]])
        data[0, 1] = bad
        with pytest.raises(NonFiniteDataError, match=r"^column 1 holds a NaN or infinite value"):
            zero_truncation_levels(data)


class TestPhi4:
    """The Phi4 reference of the bridge tests against exact values and
    dense quadrature."""

    def test_independence_at_origin(self):
        assert phi4_reference(np.zeros(4), np.eye(4)) == pytest.approx(0.0625, abs=1e-6)

    def test_equicorrelated_against_quadrature(self):
        sigma = np.full((4, 4), 0.5)
        np.fill_diagonal(sigma, 1.0)
        oracle = phi4_quadrature_oracle(np.zeros(4), sigma)
        assert phi4_reference(np.zeros(4), sigma) == pytest.approx(oracle, abs=1e-4)

    def test_random_cases_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = rng.normal(size=(4, 6))
            s = m @ m.T
            d = np.sqrt(np.diag(s))
            s = s / np.outer(d, d)
            a = rng.normal(size=4)
            assert phi4_reference(a, s) == pytest.approx(phi4_quadrature_oracle(a, s), abs=2e-4)

    def test_diagonal_factorizes(self):
        a = np.array([-0.7, 0.2, 1.1, -1.5])
        assert phi4_reference(a, np.eye(4)) == pytest.approx(float(np.prod(ndtr(a))), abs=1e-6)


class TestBridge:
    def test_zero_latent_correlation_is_exactly_zero(self):
        for dj, dk in [(0.0, 0.0), (1.0, -0.5), (-1.2, 0.7)]:
            assert bridge_tt(0.0, dj, dk) == 0.0

    def test_sigma4_pair_stacks_match_scalar_calls(self):
        sig = np.array([-0.9, 0.0, 0.35])
        s4a, s4b = sigma4_pair(sig)
        assert s4a.shape == s4b.shape == (3, 4, 4)
        for i, s in enumerate(sig):
            a, b = sigma4_pair(s)
            assert np.array_equal(s4a[i], a) and np.array_equal(s4b[i], b)

    def test_batch_bridge_is_exactly_zero_at_zero(self):
        dj = np.linspace(-1.5, 1.5, 7)
        assert np.all(_bridge_batch(np.zeros(7), dj, dj[::-1], n_points=1024) == 0.0)

    def test_closed_form_cholesky_factors(self):
        # the factors written out in the _tt_bridge docstring
        s = np.linspace(-0.9999, 0.9999, 2001)
        c, q = np.sqrt(0.5), np.sqrt((1.0 - s) * (1.0 + s))
        one, zero = np.ones_like(s), np.zeros_like(s)

        def stack(rows):
            return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

        la = stack([[one, zero, zero, zero], [zero, one, zero, zero], [c * one, -s * c, q * c, zero], [-s * c, c * one, zero, q * c]])
        lb = stack([[one, zero, zero, zero], [s, q, zero, zero], [c * one, zero, c * one, zero], [s * c, q * c, s * c, q * c]])
        for closed, sigma4 in zip((la, lb), sigma4_pair(s)):
            assert np.max(np.abs(closed @ np.swapaxes(closed, -1, -2) - sigma4)) <= 1e-15
            # LAPACK's own factor of Sigma4a(-0.9999) has 1.1e-14 where the exact one has 0
            assert np.max(np.abs(closed - np.linalg.cholesky(sigma4))) <= 2e-14

    def test_kernel_matches_generic_genz_recursion(self):
        rng = np.random.default_rng(3)
        sig = np.concatenate([rng.uniform(-0.9999, 0.9999, 40), [-0.9999, 0.0, 0.9999]])
        dj, dk = rng.uniform(-4.5, 4.5, (2, sig.size))
        want = genz_bridge_reference(sig, np.maximum(dj, dk), np.minimum(dj, dk), 1024)
        assert np.max(np.abs(_bridge_batch(sig, dj, dk, n_points=1024) - want)) <= 1e-14

    def test_batch_is_symmetric_in_deltas(self):
        rng = np.random.default_rng(11)
        sig = rng.uniform(-0.9999, 0.9999, 50)
        dj, dk = rng.uniform(-4.5, 4.5, (2, sig.size))
        assert np.array_equal(_bridge_batch(sig, dj, dk, 1024), _bridge_batch(sig, dk, dj, 1024))
        # with the less restrictive level first the recursion gives 3.6e-68 here
        assert _bridge_batch([0.9999], [-4.0], [4.0], 4096)[0] == pytest.approx(6.334e-5, abs=1e-6)

    @pytest.mark.parametrize("sigma, dj, dk", [(0.9999, -4.0, 4.0), (0.6, 1.0, -0.5), (-0.7, -0.3, 0.5), (0.3, 2.5, -1.0)])
    def test_scalar_matches_phi4_oracle(self, sigma, dj, dk):
        # Over 16 scrambles of the 16384-point stream the kernel's standard
        # deviation on these pairs is at most 2.4e-6, and the reference's
        # 8 x 32768 points put it within 1.2e-6 of the kernel on all four.
        s4a, s4b = sigma4_pair(sigma)
        limits = np.array([-dj, -dk, 0.0, 0.0])
        oracle = -2.0 * phi4_reference(limits, s4a) + 2.0 * phi4_reference(limits, s4b)
        assert bridge_tt(sigma, dj, dk) == pytest.approx(oracle, abs=1e-5)

    def test_sigma4_matrices_are_pd(self):
        for s in np.linspace(-0.999, 0.999, 41):
            s4a, s4b = sigma4_pair(s)
            assert np.linalg.eigvalsh(s4a).min() > 0
            assert np.linalg.eigvalsh(s4b).min() > 0
            assert np.allclose(s4a, s4a.T) and np.allclose(s4b, s4b.T)

    @pytest.mark.parametrize("sigma", [-0.8, -0.5, -0.2, 0.2, 0.5, 0.8])
    def test_sign_matches_monte_carlo(self, sigma):
        g = bridge_tt(sigma, 0.5, -0.3)
        tau, se = simulate_truncated_pair_tau(sigma, 0.5, -0.3, m=100_000, seed=42)
        assert np.sign(g) == np.sign(sigma)
        assert abs(g - tau) <= 4 * se

    def test_monotone_in_sigma(self):
        for delta in (-1.0, 0.0, 1.0):
            grid = np.linspace(-0.95, 0.95, 21)
            vals = [bridge_tt(s, delta, delta) for s in grid]
            assert np.all(np.diff(vals) > 0)

    def test_symmetric_in_deltas(self):
        assert bridge_tt(0.6, 1.0, -0.5) == bridge_tt(0.6, -0.5, 1.0)

    def test_range(self):
        for s in (-0.95, -0.4, 0.4, 0.95):
            assert abs(bridge_tt(s, 0.3, 0.3)) <= 1.0

    def test_rejects_unit_correlation(self):
        with pytest.raises(InvalidCorrelationError):
            bridge_tt(1.0, 0.0, 0.0)

    def test_sobol_stream_is_built_once_and_read_only(self):
        first, second = _sobol_points(1024), _sobol_points(1024)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.5
        fresh = qmc.Sobol(3, scramble=True, seed=copula._QMC_SEED).random(1024)
        np.testing.assert_array_equal(first, fresh)


class TestInvertBridge:
    def test_zero_tau(self):
        assert invert_bridge(0.0, 0.5, 0.5) == 0.0

    def test_round_trip_grid(self):
        for sigma in (-0.6, 0.3, 0.8):
            tau = bridge_tt(sigma, 0.0, 1.0)
            assert invert_bridge(tau, 0.0, 1.0) == pytest.approx(sigma, abs=1e-5)

    def test_clamp_with_warning(self):
        with pytest.warns(ClampedCorrelationWarning):
            assert invert_bridge(0.999, 1.5, 1.5) == pytest.approx(0.9999)
        with pytest.warns(ClampedCorrelationWarning):
            assert invert_bridge(-0.999, 1.5, 1.5) == pytest.approx(-0.9999)

    def test_requires_finite_deltas(self):
        with pytest.raises(ValueError):
            invert_bridge(0.2, np.inf, 0.0)

    def test_batch_agrees_with_scalar(self):
        sig = np.array([-0.7, -0.2, 0.4, 0.75])
        dj = np.array([0.0, -1.0, 0.5, 1.0])
        dk = np.array([0.0, 0.5, -0.5, 1.0])
        taus = _bridge_batch(sig, dj, dk, n_points=8192)
        for i in range(len(sig)):
            scalar = bridge_tt(sig[i], dj[i], dk[i])
            assert taus[i] == pytest.approx(scalar, abs=5e-4)
            inv = _invert_bridge_batch(np.array([scalar]), dj[i : i + 1], dk[i : i + 1], n_points=8192)[0]
            assert inv == pytest.approx(sig[i], abs=2e-3)


def genz_bridge_reference(sig, dj, dk, n_points):
    """The bridge by the generic Genz recursion (:func:`genz_means`) on
    LAPACK Cholesky factors of Sigma4a and Sigma4b, one pair at a time, on
    the batch's QMC stream, with the levels in the order given."""
    w = _sobol_points(n_points)
    out = np.empty(len(sig))
    for i in range(len(sig)):
        limits = np.array([-dj[i], -dk[i], 0.0, 0.0])
        means = [genz_means(limits, chol, w).mean() for chol in np.linalg.cholesky(np.stack(sigma4_pair(sig[i])))]
        out[i] = -2.0 * means[0] + 2.0 * means[1]
    return out


def reference_bisection(tau, dj, dk, n_points, halvings=40):
    """Root of the batched bridge by plain bisection on [-0.9999, 0.9999]."""
    lo = np.full(len(tau), -0.9999)
    hi = np.full(len(tau), 0.9999)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        below = _bridge_batch(mid, dj, dk, n_points) < tau
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestInvertBridgeBatch:
    N_POINTS = 1024

    @pytest.fixture(scope="class")
    def pairs(self):
        """Kendall's tau and truncation levels of every pair of a simulated
        truncated copula sample, as a fit sees them."""
        sigma = ar_correlation(CorrelationSpec(CorrKind.AR, 0.6, 12))
        data = make_tlnpn_sample(sigma, np.linspace(-1.0, 1.0, 12), n=300, seed=12)
        tau = kendall_tau_matrix(data).tau
        delta = zero_truncation_levels(data)
        ju, ku = np.triu_indices(12, k=1)
        return tau[ju, ku], delta[ju], delta[ku]

    def test_agrees_with_reference_bisection(self, pairs):
        tau, dj, dk = pairs
        got = _invert_bridge_batch(tau, dj, dk, n_points=self.N_POINTS)
        want = reference_bisection(tau, dj, dk, self.N_POINTS)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_mean_kernel_evaluations_per_pair(self, pairs, monkeypatch):
        tau, dj, dk = pairs
        evaluated = []
        kernel = copula._tt_bridge

        def counting(block, sig, w):
            evaluated.append(len(sig))
            return kernel(block, sig, w)

        monkeypatch.setattr(copula, "_tt_bridge", counting)
        _invert_bridge_batch(tau, dj, dk, n_points=self.N_POINTS)
        assert sum(evaluated) / len(tau) <= 4.0

    def test_pairs_near_the_edge_take_the_anchored_path(self, monkeypatch):
        # tau within the table's last sigma interval (sigma > 0.9951) skips
        # the seeded points: the endpoint on tau's side comes first
        tau = _bridge_batch(np.array([0.998, -0.997]), np.zeros(2), np.array([0.5, -0.5]), self.N_POINTS)
        seen = []
        kernel = copula._tt_bridge

        def recording(block, sig, w):
            seen.append(np.array(sig))
            return kernel(block, sig, w)

        monkeypatch.setattr(copula, "_tt_bridge", recording)
        out = _invert_bridge_batch(tau, np.zeros(2), np.array([0.5, -0.5]), n_points=self.N_POINTS)
        assert [list(x) for x in seen if x.size][0] == [0.9999, -0.9999]
        assert np.max(np.abs(out - [0.998, -0.997])) <= 1e-6

    def test_clamp_count_and_values(self):
        tau = np.array([0.999, -0.999, 0.05, 0.0, 0.2])
        d = np.full(5, 1.5)  # bridge range about [-0.009, 0.128]
        with pytest.warns(ClampedCorrelationWarning, match=r"^3 pair\(s\)"):
            out = _invert_bridge_batch(tau, d, d, n_points=self.N_POINTS)
        assert out[0] == out[4] == 0.9999 and out[1] == -0.9999
        assert out[3] == 0.0 and 0.0 < out[2] < 0.9999

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            _invert_bridge_batch(np.array([np.nan]), np.zeros(1), np.zeros(1), n_points=self.N_POINTS)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-0.95, 0.95),
                st.floats(-1.5, 1.5),
                st.floats(-1.5, 1.5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, cases):
        sig, dj, dk = (np.array(v) for v in zip(*cases))
        tau = _bridge_batch(sig, dj, dk, self.N_POINTS)
        back = _invert_bridge_batch(tau, dj, dk, n_points=self.N_POINTS)
        assert np.max(np.abs(back - sig)) <= 1e-6


class TestSeededInversion:
    """The table-seeded inversion against the bisection reference and the
    clamp rule of the unseeded path, on the fit's own stream."""

    N_POINTS = 1024
    # Inside the grid, levels above 1.5 (more than 93% zeros) are left out:
    # from about 1.7 the bridge at negative sigma is flat to float
    # resolution, so no inverter fixes its root to 1e-6. Below the grid,
    # -6 to -4 is a column with (almost) no zeros.
    DELTA = st.one_of(st.floats(-4.0, 1.5), st.floats(-6.0, -4.0, exclude_max=True))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-0.95, 0.95),
                DELTA,
                DELTA,
                st.one_of(st.none(), st.floats(-1.0, 1.0)),  # a free tau, often beyond the clamp
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_properties(self, cases):
        sig, dj, dk = (np.array(v, dtype=float) for v in list(zip(*cases))[:3])
        free = np.array([np.nan if c[3] is None else c[3] for c in cases])
        tau = np.where(np.isnan(free), _bridge_batch(sig, dj, dk, self.N_POINTS), free)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedCorrelationWarning)
            got = _invert_bridge_batch(tau, dj, dk, n_points=self.N_POINTS)
        want = reference_bisection(tau, dj, dk, self.N_POINTS)
        assert np.max(np.abs(got - want)) <= 1e-6

        # the unseeded path's clamp rule: tau at or beyond the endpoint's value
        edge = np.copysign(0.9999, tau)
        f_edge = _bridge_batch(edge, dj, dk, self.N_POINTS) - tau
        clamp = (tau != 0.0) & np.where(tau > 0.0, f_edge <= 0.0, f_edge >= 0.0)
        assert np.array_equal(np.abs(got) == 0.9999, clamp)

        # the start, where the root is well conditioned: with a slope of at
        # least 0.05, the ~1e-4 by which the table's tau and the stream's
        # can differ moves sigma by at most 2e-3
        sigma0, _, seeded = bridge_table.seed_roots(tau, dj, dk)
        inside = (np.abs(dj) <= 4.0) & (np.abs(dk) <= 4.0)
        h = 1e-3
        up, down = np.minimum(want + h, 0.9999), np.maximum(want - h, -0.9999)
        slope = (_bridge_batch(up, dj, dk, self.N_POINTS) - _bridge_batch(down, dj, dk, self.N_POINTS)) / (up - down)
        check = inside & seeded & ~clamp & (slope >= 0.05)
        assert np.all(np.abs(sigma0 - want)[check] <= 2e-3)

    # Measured on 15000 random pairs over this range (sigma uniform in
    # theta or in sigma, half of the pairs with |dj - dk| < 0.3): the
    # table-rooted tau was off by at most 7.0e-4 (99th percentile at most
    # 3.2e-4), and where the slope was at least 0.05, sigma by at most
    # 2.8e-3 (99th percentile at most 5.8e-4).
    TAU_BOUND = 1e-3
    SIGMA_BOUND = 4e-3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.floats(-0.9999, 0.9999), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
            min_size=1,
            max_size=8,
        )
    )
    def test_table_roots_over_the_whole_grid(self, cases):
        # Every level of the grid: above about 1.7 the bridge at negative
        # sigma is flat, so sigma is checked only where the slope is at
        # least 0.05 and tau everywhere, on the table's own stream.
        sig, dj, dk = (np.array(v, dtype=float) for v in zip(*cases))
        n = bridge_table.POINTS
        tau = _bridge_batch(sig, dj, dk, n)
        sigma0, _, seeded = bridge_table.seed_roots(tau, dj, dk)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedCorrelationWarning)
            got = copula._bridge_roots(tau, dj, dk, self.N_POINTS)
            exact = _invert_bridge_batch(tau, dj, dk, n)
        rooted = seeded & (tau != 0.0) & (sigma0 <= bridge_table.ROOT_SIGMA_MAX)
        assert np.array_equal(got[rooted], sigma0[rooted])
        assert np.all(np.abs(_bridge_batch(got, dj, dk, n) - tau)[rooted] <= self.TAU_BOUND)
        h = 1e-3
        up, down = np.minimum(exact + h, 0.9999), np.maximum(exact - h, -0.9999)
        slope = (_bridge_batch(up, dj, dk, n) - _bridge_batch(down, dj, dk, n)) / (up - down)
        check = rooted & (slope >= 0.05)
        assert np.all(np.abs(got - exact)[check] <= self.SIGMA_BOUND)


class TestNearestCorrelation:
    def test_pd_input_unchanged(self):
        m = ar_correlation(CorrelationSpec(CorrKind.AR, 0.6, 4))
        assert np.allclose(nearest_correlation(m), m, atol=1e-12)

    def test_offdiag_above_one_clipped(self):
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        out = nearest_correlation(m)
        assert -1.0 < out[0, 1] < 1.0
        assert np.linalg.eigvalsh(out).min() > 0

    def test_identity(self):
        assert np.array_equal(nearest_correlation(np.eye(3)), np.eye(3))

    def test_indefinite_becomes_pd_with_unit_diagonal(self):
        m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        out = nearest_correlation(m)
        assert np.linalg.eigvalsh(out).min() > 0
        assert np.allclose(np.diag(out), 1.0)

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            nearest_correlation(np.array([[1.0, 0.5], [0.2, 1.0]]))


def make_tlnpn_sample(sigma, deltas, n, seed):
    """Draw from the truncated copula with continuous positive parts."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((n, len(deltas))) @ chol.T
    return np.where(z > deltas, np.exp(z), 0.0)


class TestFitTlnpn:
    def test_independent_columns_near_identity(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((2000, 3))
        data = np.where(z > -0.3, np.exp(z), 0.0)
        model = fit_tlnpn(data)
        off = model.sigma_hat[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_ar_consistency_single_run(self):
        sigma = ar_correlation(CorrelationSpec(CorrKind.AR, 0.7, 5))
        data = make_tlnpn_sample(sigma, np.full(5, -0.2), n=1200, seed=3)
        model = fit_tlnpn(data)
        assert np.max(np.abs(model.sigma_hat - sigma)) < 0.15

    def test_identical_columns_hit_clamp(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(60)
        col = np.where(z > -0.5, np.exp(z), 0.0)
        data = np.column_stack([col, col])
        with pytest.warns(ClampedCorrelationWarning):
            model = fit_tlnpn(data)
        assert model.sigma_hat[0, 1] == pytest.approx(0.9999, abs=1e-6)

    def test_output_is_pd_correlation(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((80, 4))
        data = np.where(z > 0.3, np.exp(z), 0.0)
        model = fit_tlnpn(data)
        assert np.allclose(model.sigma_hat, model.sigma_hat.T)
        assert np.allclose(np.diag(model.sigma_hat), 1.0)
        assert np.linalg.eigvalsh(model.sigma_hat).min() > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_tlnpn(np.ones((5, 2)))
        with pytest.raises(ValueError):
            fit_tlnpn(np.ones((50, 1)))

    @pytest.fixture
    def exact_pairs(self, monkeypatch):
        """The (tau, dj, dk) rows that reach the exact root finder."""
        calls = []
        finder = copula._invert_bridge_batch

        def spy(tau, dj, dk, n_points):
            calls.append(np.column_stack([tau, dj, dk]))
            return finder(tau, dj, dk, n_points)

        monkeypatch.setattr(copula, "_invert_bridge_batch", spy)
        return lambda: np.concatenate(calls) if calls else np.empty((0, 3))

    def test_only_pairs_the_table_does_not_cover_take_the_exact_path(self, exact_pairs):
        n = bridge_table.POINTS
        on_table = _bridge_batch([0.4, -0.3], [0.3, -2.0], [-0.6, 1.1], n)
        cases = [
            (on_table[0], 0.3, -0.6),
            (on_table[1], -2.0, 1.1),
            (_bridge_batch([0.4], [-4.5], [0.2], n)[0], -4.5, 0.2),  # a level off the grid
            (_bridge_batch([0.998], [0.0], [0.5], n)[0], 0.0, 0.5),  # tau in the last table interval
            (0.999, 1.5, 1.5),  # beyond the bridge range: clamped
            (bridge_table.load_table()[1, 32, 1], -3.75, 4.0),  # the local cubic does not increase
            (_bridge_batch([0.97], [0.0], [0.5], n)[0], 0.0, 0.5),  # above ROOT_SIGMA_MAX
            (0.0, 0.3, -0.6),
            (0.0, -5.0, 0.2),
        ]
        tau, dj, dk = (np.array(v) for v in zip(*cases))
        sigma0, _, seeded = bridge_table.seed_roots(tau, dj, dk)
        assert list(seeded[[2, 5]]) == [True, False]  # the off-grid level is seeded, the cubic is not
        with pytest.warns(ClampedCorrelationWarning, match=r"^1 pair\(s\)"):
            sigma = copula._bridge_roots(tau, dj, dk, 1024)
        assert np.array_equal(exact_pairs(), np.column_stack([tau, dj, dk])[2:7])
        assert np.array_equal(sigma[:2], sigma0[:2])
        assert sigma[4] == 0.9999 and np.all(sigma[7:] == 0.0)

    def test_zero_tau_gives_exactly_zero(self, exact_pairs):
        # a palindromic column against an increasing one has tau = 0 exactly
        data = np.column_stack([np.arange(1.0, 13.0), [0.0, 1, 2, 3, 0, 5, 5, 0, 3, 2, 1, 0]])
        assert kendall_tau_matrix(data).tau[0, 1] == 0.0
        model = fit_tlnpn(data)
        assert model.sigma_hat[0, 1] == 0.0 and model.sigma_hat[1, 0] == 0.0
        assert exact_pairs().shape == (0, 3)

    def test_clamped_pairs_warn_once(self):
        col = np.where(np.arange(60) % 3 == 0, 0.0, np.arange(60.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_tlnpn(np.column_stack([col, col, col]))
        clamped = [w for w in caught if issubclass(w.category, ClampedCorrelationWarning)]
        assert len(clamped) == 1 and str(clamped[0].message).startswith("3 pair(s)")

    def test_standin_fit_takes_every_root_from_the_table(self, exact_pairs):
        model = fit_tlnpn(make_qmp_standin().values)
        assert model.sigma_hat.shape == (101, 101)
        assert exact_pairs().shape == (0, 3)

    def test_table_lookup_memory_is_bounded(self):
        # the stand-in's 5050 pairs, looked up in blocks of _LOOKUP_CHUNK
        data = make_qmp_standin().values
        tau, delta = kendall_tau_matrix(data).tau, zero_truncation_levels(data)
        ju, ku = np.triu_indices(data.shape[1], k=1)
        pairs = tau[ju, ku], delta[ju], delta[ku]
        bridge_table.load_table()
        tracemalloc.start()
        try:
            copula._bridge_roots(*pairs, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@pytest.fixture(scope="module")
def model():
    sigma = ar_correlation(CorrelationSpec(CorrKind.AR, 0.5, 3))
    data = make_tlnpn_sample(sigma, np.array([-0.5, 0.0, 0.5]), n=400, seed=8)
    return fit_tlnpn(data)


class TestSampleTlnpn:
    def test_values_come_from_training_support(self, model):
        sampled = sample_tlnpn(model, 500, seed=0)
        for j in range(3):
            assert np.isin(sampled[:, j], model.marginals[j]).all()

    def test_zero_fraction_matches_training(self, model):
        n = 4000
        sampled = sample_tlnpn(model, n, seed=1)
        for j in range(3):
            pi = float(np.mean(model.marginals[j] == 0))
            se = np.sqrt(pi * (1 - pi) / n)
            assert abs(np.mean(sampled[:, j] == 0) - pi) <= 3 * se

    def test_identity_correlation_gives_independent_columns(self, model):
        from zicount.copula import LatentCopulaModel

        iid = LatentCopulaModel(sigma_hat=np.eye(3), marginals=model.marginals)
        passes = 0
        runs = 40
        for run in range(runs):
            sampled = sample_tlnpn(iid, 300, seed=100 + run)
            p01 = spearmanr(sampled[:, 0], sampled[:, 1]).pvalue
            passes += p01 > 0.01
        assert passes >= int(0.95 * runs)

    def test_deterministic(self, model):
        assert np.array_equal(sample_tlnpn(model, 50, seed=9), sample_tlnpn(model, 50, seed=9))

"""Truncated latent Gaussian copula: estimation and sampling.

Observed vectors are modeled as coordinatewise monotone transforms of a
latent standard Gaussian vector, zeroed below per-variable truncation
levels. The latent correlation is recovered by inverting the bridge
function that maps a latent correlation (plus the two truncation levels)
to the population Kendall's tau of the observed pair.

The bridge of a truncated pair is a difference of two 4-d Gaussian
CDFs (Yoon, Carroll & Gaynanova 2020). Its one kernel, :func:`_tt_bridge`,
runs Genz's separation-of-variables reduction to a 3-d integral over the
unit cube on closed-form Cholesky factors of the bridge's two
correlation matrices, by randomized quasi-Monte Carlo with a fixed
internal seed, so every function here is deterministic. It has one root
finder, :func:`_invert_bridge_batch`. :func:`bridge_tt` and
:func:`invert_bridge` evaluate and invert one pair exactly;
:func:`fit_tlnpn` reads most roots off the packaged bridge table
(:mod:`zicount.bridge_table`) and sends the rest to the root finder.
"""

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from . import bridge_table
from .counts import _zero_share
from .exceptions import (
    ClampedCorrelationWarning,
    ConstantColumnError,
    DegenerateDataError,
    InvalidCorrelationError,
    NonFiniteDataError,
)

__all__ = [
    "KendallMatrix",
    "LatentCopulaModel",
    "kendall_tau_matrix",
    "zero_truncation_levels",
    "bridge_tt",
    "invert_bridge",
    "fit_tlnpn",
    "sample_mvn",
    "sample_tlnpn",
    "nearest_correlation",
]

_QMC_SEED = 202406
_SIGMA_BRACKET = 0.9999
_TINY = 1e-300
_UEPS = 1e-16
_ROOT_TOL = 1e-6  # final bracket width of every batched bridge root
_PAIR_CHUNK = 32  # pairs per block of the batched bridge; bounds its (block, n_points) arrays
_KENDALL_CHUNK = 1 << 19  # float32 signs per row block of kendall_tau_matrix (2 MB)


@dataclass(frozen=True)
class KendallMatrix:
    """Pairwise Kendall's tau (ties count as zero), symmetric, unit diagonal."""

    tau: np.ndarray


@dataclass(frozen=True)
class LatentCopulaModel:
    """Fitted truncated latent Gaussian copula.

    sigma_hat : latent correlation matrix (positive definite)
    marginals : sorted training values per variable, used as empirical
        quantile tables when sampling; they carry each variable's zero
        level
    """

    sigma_hat: np.ndarray
    marginals: tuple


def kendall_tau_matrix(data) -> KendallMatrix:
    """Pairwise-definition Kendall's tau matrix of an n x p data matrix.

    tau_jk = 2/(n(n-1)) * sum_{i<i'} sign(Y_ij - Y_i'j) sign(Y_ik - Y_i'k);
    tied pairs contribute zero. Raises ``NonFiniteDataError`` for a NaN or
    infinite value and ``ConstantColumnError`` for a constant column.

    The signs are those of the differences of each column's dense ranks,
    whole numbers below n, so float32 holds them exactly (n < 2**24) and
    clipping a difference to [-1, 1] gives its sign. Each block of rows
    [s, e) is compared with the rows at or after s only: its pairs with the
    rows after e count once and its pairs within the block twice, so twice
    the first sum plus the second is its share of the sum over all ordered
    pairs (i, i'). The sign products are summed in float32 matrix products
    whose every partial sum is a whole number below 2**24 (a block holds at
    most ``_KENDALL_CHUNK`` signs, or one row against n), so each block sum
    is exact, and their int64 total and tau do not depend on the block size
    or on the summation order.
    """
    Y = np.asarray(data, dtype=float)
    if Y.ndim != 2:
        raise ValueError("data must be 2-d")
    n, p = Y.shape
    if n < 2:
        raise ValueError("need at least 2 observations")
    finite = np.isfinite(Y).all(axis=0)
    if not finite.all():
        raise NonFiniteDataError(f"column {np.argmin(finite)} holds a NaN or infinite value; tau is undefined")
    ranks = _dense_ranks(Y)
    constant = ranks.max(axis=0) == 0.0
    if constant.any():
        raise ConstantColumnError(f"column {np.argmax(constant)} is constant; tau is undefined")
    rows = max(1, _KENDALL_CHUNK // (n * p))
    signs = np.empty(min(rows, n) * n * p, dtype=np.float32)
    total = np.zeros((p, p), dtype=np.int64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = signs[: (n - start) * (stop - start) * p].reshape(n - start, stop - start, p)
        np.subtract(ranks[start:, None, :], ranks[None, start:stop, :], out=block)
        np.clip(block, -1.0, 1.0, out=block)
        within = block[: stop - start].reshape(-1, p)
        after = block[stop - start :].reshape(-1, p)
        total += 2 * (after.T @ after).astype(np.int64) + (within.T @ within).astype(np.int64)
    tau = total / (n * (n - 1))
    np.fill_diagonal(tau, 1.0)
    return KendallMatrix(tau=tau)


def _dense_ranks(Y) -> np.ndarray:
    """Dense ranks 0, 1, ... of each column of a finite matrix, as float32
    (exact below 2**24): equal values share a rank, and a rank counts the
    distinct smaller values."""
    order = np.argsort(Y, axis=0)
    ordered = np.take_along_axis(Y, order, axis=0)
    steps = np.zeros(Y.shape, dtype=np.float32)
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0, out=steps), axis=0)
    return ranks


def zero_truncation_levels(data) -> np.ndarray:
    """Moment estimate of the truncation levels from per-column zero rates.

    The zero fraction is clamped to [1/(4n), 1 - 1/(4n)] so columns with
    no zeros (or only zeros) still map to finite Gaussian quantiles.
    """
    Y = np.asarray(data, dtype=float)
    n = Y.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    return ndtri(_zero_share((Y == 0).sum(axis=0), n))


def bridge_tt(sigma_jk: float, delta_j: float, delta_k: float) -> float:
    """Population Kendall's tau of a truncated pair with latent correlation
    ``sigma_jk`` and truncation levels ``delta_j``, ``delta_k``.

    Strictly increasing in ``sigma_jk``; zero at zero; symmetric in the two
    levels. One pair of :func:`_bridge_batch` on the fixed stream of
    ``bridge_table.POINTS`` Sobol points that the packaged table is built on.
    """
    if not abs(sigma_jk) < 1.0:
        raise InvalidCorrelationError("|sigma_jk| must be < 1")
    return float(_bridge_batch([sigma_jk], [delta_j], [delta_k], bridge_table.POINTS)[0])


def invert_bridge(tau_hat: float, delta_j: float, delta_k: float) -> float:
    """Latent correlation whose :func:`bridge_tt` value equals ``tau_hat``.

    One pair of :func:`_invert_bridge_batch` on the stream of
    :func:`bridge_tt`, solved to a bracket of 1e-6. A ``tau_hat`` at or
    beyond the bridge value of the endpoint +-0.9999 on its side is clamped
    to that endpoint with a ``ClampedCorrelationWarning``.
    """
    return float(_invert_bridge_batch([tau_hat], [delta_j], [delta_k], bridge_table.POINTS)[0])


# ---------------------------------------------------------------------------
# batched bridge on one shared QMC stream


class _TTBlock(NamedTuple):
    """The sigma-free part of the bridge's Genz recursion for a block of pairs.

    Both 4-d CDFs of the bridge have limits (-dj, -dk, 0, 0), dj >= dk,
    and the same first Cholesky row, rows 0 and 1 of Sigma4a carry no
    sigma, and row 2 of Sigma4b depends on row 0 alone (see
    :func:`_tt_bridge`), so these values serve every evaluation of the
    block. Arrays are (b, 1) or (b, n_points).
    """

    ndk: np.ndarray  # -dk, the limit of row 1
    e0: np.ndarray  # Phi(-dj)
    y0: np.ndarray  # Phi^-1(w0 Phi(-dj)), shared by Sigma4a and Sigma4b
    e1a: np.ndarray  # Phi(-dk), row 1 of Sigma4a
    y1a: np.ndarray  # Phi^-1(w1 Phi(-dk))
    e2b: np.ndarray  # Phi(-y0), row 2 of Sigma4b
    y02b: np.ndarray  # y0 + Phi^-1(w2 Phi(-y0))

    def take(self, keep) -> "_TTBlock":
        return _TTBlock(*(x[keep] for x in self))


@functools.lru_cache(maxsize=4)
def _sobol_points(n_points: int) -> np.ndarray:
    """The shared scrambled Sobol stream of ``n_points`` points, built once
    per size and returned read-only. ``scipy.stats`` is imported here, so
    only a run that evaluates the bridge kernel pays for it."""
    from scipy.stats import qmc

    w = qmc.Sobol(3, scramble=True, seed=_QMC_SEED).random(n_points)
    w.flags.writeable = False
    return w


def _genz_quantile(w_col, e):
    """Conditional Genz draw Phi^-1(w e), kept off 0 and 1."""
    return ndtri(np.clip(w_col * e, _TINY, 1.0 - _UEPS))


def _tt_block(dj, dk, w) -> _TTBlock:
    # The bridge is symmetric in (dj, dk), but the Genz recursion is accurate
    # only with its most restrictive limit, -max(dj, dk), first: at sigma =
    # 0.9999 and levels (-4, 4) the other order gives 3.6e-68 for 6.3e-5.
    dj, dk = (np.asarray(x, dtype=float) for x in (dj, dk))
    dj, dk = np.maximum(dj, dk), np.minimum(dj, dk)
    ndk = -dk[:, None]
    e0 = ndtr(-dj[:, None])
    e1a = ndtr(ndk)
    y0 = _genz_quantile(w[:, 0], e0)
    e2b = ndtr(-y0)
    return _TTBlock(ndk, e0, y0, e1a, _genz_quantile(w[:, 1], e1a), e2b, y0 + _genz_quantile(w[:, 2], e2b))


def _tt_bridge(block: _TTBlock, sig, w) -> np.ndarray:
    """Bridge value of every pair of ``block`` at its latent correlation
    in ``sig``: one kernel evaluation per pair.

    With c = 1/sqrt(2), the bridge is -2 Phi4(l; Sigma4a) + 2 Phi4(l; Sigma4b)
    at the limits l = (-dj, -dk, 0, 0), where

        Sigma4a = [[1, 0, c, -sc], [0, 1, -sc, c], [c, -sc, 1, -s], [-sc, c, -s, 1]]
        Sigma4b = [[1, s, c, sc], [s, 1, sc, c], [c, sc, 1, s], [sc, c, s, 1]]

    With q = sqrt(1 - s^2), their Cholesky factors are, in closed form,

        La = [[1, 0, 0, 0], [0, 1, 0, 0], [c, -sc, qc, 0], [-sc, c, 0, qc]]
        Lb = [[1, 0, 0, 0], [s, q, 0, 0], [c, 0, c, 0], [sc, qc, sc, qc]]

    and each Genz argument (limit - sum_k L_ik y_k) / L_ii reduces to the
    expressions below: row 3 of La needs no y2, and row 2 of Lb, Phi(-y0),
    is sigma-free. At s = 0 both CDFs take bit-identical steps, so the
    value is exactly 0.
    """
    s = np.asarray(sig, dtype=float)[:, None]
    q = np.sqrt((1.0 - s) * (1.0 + s))
    y0, y1a = block.y0, block.y1a
    pa = block.e0 * block.e1a * ndtr((s * y1a - y0) / q) * ndtr((s * y0 - y1a) / q)
    e1b = ndtr((block.ndk - s * y0) / q)
    y1b = _genz_quantile(w[:, 1], e1b)
    pb = block.e0 * e1b * block.e2b * ndtr(-y1b - s * block.y02b / q)
    return -2.0 * pa.mean(axis=1) + 2.0 * pb.mean(axis=1)


def _bridge_batch(sig, dj, dk, n_points: int) -> np.ndarray:
    """Vectorized bridge values for per-pair (sigma, delta_j, delta_k) on
    the stream of ``n_points`` Sobol points; bit for bit symmetric in
    (delta_j, delta_k)."""
    sig, dj, dk = (np.asarray(x, dtype=float) for x in (sig, dj, dk))
    w = _sobol_points(n_points)
    out = np.empty(sig.shape[0])
    for start in range(0, sig.shape[0], _PAIR_CHUNK):
        sl = slice(start, start + _PAIR_CHUNK)
        out[sl] = _tt_bridge(_tt_block(dj[sl], dk[sl], w), sig[sl], w)
    return out


def _invert_bridge_batch(tau, dj, dk, n_points: int) -> np.ndarray:
    """Latent correlations whose bridge values on one shared stream of
    ``n_points`` Sobol points equal ``tau``: the one bridge root finder,
    behind :func:`invert_bridge` and the pairs of :func:`fit_tlnpn` that
    the table does not root (:func:`_bridge_roots`).

    Each pair starts from the packaged bridge table
    (:func:`_seeded_brackets`). A pair whose tau lies within one table
    interval of the edge value, or whose two seeded points do not bracket
    the root, is bracketed by 0 and the endpoint +-0.9999 on tau's side
    (:func:`_anchored_brackets`); tau at or beyond the endpoint's bridge
    value is clamped to it, with one warning for the batch. Every bracket
    is closed to at most ``_ROOT_TOL`` on the fit's own stream by
    :func:`_falsi_roots`, so the table shortens the search but never
    decides a root. Pairs go in blocks of ``_PAIR_CHUNK``: each block
    computes its sigma-free Genz values once and runs its whole search
    before the next. A pair costs about 3 kernel evaluations on typical
    data (6 without the table).
    """
    tau, dj, dk = (np.asarray(x, dtype=float) for x in (tau, dj, dk))
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(dj)) and np.all(np.isfinite(dk))):
        raise ValueError("tau and truncation levels must be finite")
    out = np.zeros(tau.shape[0])
    w = _sobol_points(n_points)
    n_clamped = 0
    pairs = np.flatnonzero(tau != 0.0)
    for start in range(0, len(pairs), _PAIR_CHUNK):
        idx = pairs[start : start + _PAIR_CHUNK]
        block = _tt_block(dj[idx], dk[idx], w)
        t = tau[idx]
        seeded = _seeded_brackets(block, t, dj[idx], dk[idx], w)
        rest = np.setdiff1d(np.arange(idx.size), seeded[0])
        clamp, anchored = _anchored_brackets(block.take(rest), t[rest], w)
        out[idx[rest[clamp]]] = np.copysign(_SIGMA_BRACKET, t[rest[clamp]])
        n_clamped += int(np.count_nonzero(clamp))
        rows, lo, hi, f_lo, f_hi, last = (np.concatenate(v) for v in zip(seeded, (rest[~clamp],) + anchored))
        out[idx[rows]] = _falsi_roots(block.take(rows), t[rows], lo, hi, f_lo, f_hi, last, w)
    if n_clamped:
        warnings.warn(
            f"{n_clamped} pair(s) outside the invertible range; clamped to +-{_SIGMA_BRACKET}",
            ClampedCorrelationWarning,
            stacklevel=2,
        )
    return out


def _seeded_brackets(block: _TTBlock, tau, dj, dk, w):
    """Brackets from the table: the kernel at the starting sigma x0 and
    after one Newton step with the table's slope, aimed half of
    ``_ROOT_TOL`` past the root, so that a good start closes its bracket
    with one more evaluation. Returns the block rows whose two points
    bracket the root, and their ``lo, hi, f_lo, f_hi, last`` as
    :func:`_falsi_roots` takes them (x1 moved last)."""
    x0, slope, seeded = bridge_table.seed_roots(tau, dj, dk)
    rows = np.flatnonzero(seeded)
    x0, slope, tau, block = x0[rows], slope[rows], tau[rows], block.take(rows)
    f0 = _tt_bridge(block, x0, w) - tau
    step = -f0 / slope
    x1 = np.clip(x0 + step + np.copysign(0.5 * _ROOT_TOL, step), -_SIGMA_BRACKET, _SIGMA_BRACKET)
    f1 = _tt_bridge(block, x1, w) - tau
    up = f0 < 0.0  # x1 is the upper end
    lo, hi, f_lo, f_hi = np.where(up, x0, x1), np.where(up, x1, x0), np.where(up, f0, f1), np.where(up, f1, f0)
    ok = (f_lo < 0.0) & (f_hi >= 0.0) & (lo < hi)
    return rows[ok], lo[ok], hi[ok], f_lo[ok], f_hi[ok], np.where(up, 1.0, -1.0)[ok]


def _anchored_brackets(block: _TTBlock, tau, w):
    """Brackets between 0, where the bridge on a fixed stream is exactly 0,
    and the endpoint +-0.9999 on tau's side, the only point evaluated.
    Returns the mask of pairs to clamp (tau at or beyond the endpoint's
    value) and, for the others, ``lo, hi, f_lo, f_hi, last`` as
    :func:`_falsi_roots` takes them."""
    pos = tau > 0.0
    edge = np.copysign(_SIGMA_BRACKET, tau)
    f_edge = _tt_bridge(block, edge, w) - tau
    clamp = np.where(pos, f_edge <= 0.0, f_edge >= 0.0)
    pos, edge, f_edge, tau = pos[~clamp], edge[~clamp], f_edge[~clamp], tau[~clamp]
    # The bridge is mostly convex on tau's side, so the first step tends to
    # land on the anchor's side: counting the anchor as the end moved last
    # lets that step already halve f at the edge.
    last = np.where(pos, -1.0, 1.0)
    return clamp, (np.where(pos, 0.0, edge), np.where(pos, edge, 0.0), np.where(pos, -tau, f_edge), np.where(pos, f_edge, -tau), last)


def _falsi_roots(block: _TTBlock, tau, lo, hi, f_lo, f_hi, last, w) -> np.ndarray:
    """Roots of bridge - tau for every pair of a block, from brackets
    [lo, hi] with f(lo) < 0 <= f(hi), by Illinois regula falsi with a
    bisection step whenever a bracket has not halved in two evaluations,
    until every bracket is at most ``_ROOT_TOL`` wide; returns the
    midpoints. ``last`` is -1 where lo moved last and +1 where hi did.
    """
    rows = np.arange(tau.shape[0])
    # bracket width now, one and two evaluations ago
    width, width_prev, width_back = hi - lo, np.full(tau.shape[0], np.inf), np.full(tau.shape[0], np.inf)
    out = np.empty(tau.shape[0])
    while rows.size:
        falsi = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        # a step keeps half the tolerance away from the end that moved last,
        # so a converged estimate closes the bracket with its next evaluation
        falsi = np.where(last < 0, np.maximum(falsi, lo + 0.5 * _ROOT_TOL), np.minimum(falsi, hi - 0.5 * _ROOT_TOL))
        bisect = width > 0.5 * width_back
        x = np.where(bisect, 0.5 * (lo + hi), np.clip(falsi, lo, hi))
        fx = _tt_bridge(block, x, w) - tau
        below = fx < 0.0
        # Illinois: an end kept by two false-position steps in a row has its
        # stored value halved; bisection steps do not count as such steps
        f_hi = np.where(~bisect & below & (last < 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~bisect & ~below & (last > 0), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(fx <= 0.0, x, lo), np.where(below, fx, f_lo)
        hi, f_hi = np.where(below, hi, x), np.where(below, f_hi, fx)
        last = np.where(bisect, last, np.where(below, -1.0, 1.0))
        width, width_prev, width_back = hi - lo, width, width_prev
        done = width <= _ROOT_TOL
        out[rows[done]] = 0.5 * (lo[done] + hi[done])
        if done.any():
            keep = ~done
            rows, tau, lo, hi, f_lo, f_hi, last, width, width_prev, width_back = (
                v[keep] for v in (rows, tau, lo, hi, f_lo, f_hi, last, width, width_prev, width_back)
            )
            block = block.take(keep)
    return out


def nearest_correlation(m, eig_floor: float = 1e-8) -> np.ndarray:
    """Project a symmetric matrix to a positive-definite correlation matrix.

    Eigenvalues are clipped at ``eig_floor``, the matrix is reconstructed
    and rescaled back to a unit diagonal.
    """
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError("input must be symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    rebuilt = (vecs * np.clip(vals, eig_floor, None)) @ vecs.T
    d = np.sqrt(np.diag(rebuilt))
    out = rebuilt / np.outer(d, d)
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out


def fit_tlnpn(data, *, qmc_points: int = 4096) -> LatentCopulaModel:
    """Fit the truncated latent Gaussian copula to an n x p count matrix.

    Pairwise bridge inversion of the Kendall's tau matrix
    (:func:`_bridge_roots`), projection to the nearest positive-definite
    correlation, and storage of the empirical marginals. Most roots are
    read off the packaged bridge table; ``qmc_points`` sets the Sobol
    stream of the pairs the table does not cover, which are solved to a
    bracket of 1e-6 by :func:`_invert_bridge_batch`. Pairs whose tau lies
    beyond the bridge range are clamped to +-0.9999 with one
    ``ClampedCorrelationWarning``.
    """
    Y = np.asarray(data, dtype=float)
    if Y.ndim != 2:
        raise ValueError("data must be 2-d")
    n, p = Y.shape
    if n < 10 or p < 2:
        raise DegenerateDataError("need n >= 10 and p >= 2")
    tau = kendall_tau_matrix(Y).tau
    delta = zero_truncation_levels(Y)

    ju, ku = np.triu_indices(p, k=1)
    sig_flat = _bridge_roots(tau[ju, ku], delta[ju], delta[ku], qmc_points)
    sigma = np.eye(p)
    sigma[ju, ku] = sig_flat
    sigma[ku, ju] = sig_flat
    sigma = nearest_correlation(sigma)

    marginals = tuple(np.sort(Y[:, j]) for j in range(p))
    return LatentCopulaModel(sigma_hat=sigma, marginals=marginals)


def _bridge_roots(tau, dj, dk, n_points: int) -> np.ndarray:
    """Latent correlation of every pair, from the table where it holds one.

    A pair whose levels both lie on the table's grid (|delta| <= 4) and
    whose tau the table inverts (:func:`bridge_table.seed_roots`) to at
    most ``bridge_table.ROOT_SIGMA_MAX`` takes the table's root, as
    latentcor does with its interpolated bridges (Yoon, Mueller &
    Gaynanova 2021); its interpolation error is well below the sampling
    error of tau. tau = 0 gives sigma = 0 exactly. The remaining pairs
    (levels off the grid, tau within one table interval of the bridge's
    edge value or beyond it, a local cubic that does not increase, a
    root above ``ROOT_SIGMA_MAX``) are solved by
    :func:`_invert_bridge_batch` on the stream of ``n_points`` points,
    which clamps and warns.
    """
    sigma0, _, seeded = bridge_table.seed_roots(tau, dj, dk)
    edge = bridge_table.DELTA_NODES[-1]
    table = seeded & (tau != 0.0) & (np.abs(dj) <= edge) & (np.abs(dk) <= edge) & (sigma0 <= bridge_table.ROOT_SIGMA_MAX)
    out = np.where(table, sigma0, 0.0)
    exact = np.flatnonzero(~table & (tau != 0.0))
    if exact.size:
        out[exact] = _invert_bridge_batch(tau[exact], dj[exact], dk[exact], n_points)
    return out


def _empirical_quantile(sorted_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest order statistic whose empirical CDF reaches u."""
    m = len(sorted_values)
    idx = np.ceil(u * m).astype(np.int64) - 1
    return sorted_values[np.clip(idx, 0, m - 1)]


def sample_mvn(n: int, sigma: np.ndarray, seed: int) -> np.ndarray:
    """n i.i.d. rows from N(0, sigma) via the lower-triangular factor."""
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, chol.shape[0])) @ chol.T


def sample_tlnpn(model: LatentCopulaModel, n: int, seed: int) -> np.ndarray:
    """Draw n rows: latent Gaussian with the fitted correlation, mapped
    through the normal CDF and each variable's empirical quantile table."""
    if n <= 0:
        raise ValueError("n must be positive")
    u = ndtr(sample_mvn(n, model.sigma_hat, seed))
    out = np.empty_like(u)
    for j in range(u.shape[1]):
        out[:, j] = _empirical_quantile(model.marginals[j], u[:, j])
    return out

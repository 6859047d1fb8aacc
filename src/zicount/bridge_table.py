"""Tabulated truncated/truncated (TT) Kendall's-tau bridge: the source of
most latent correlations that :func:`zicount.copula.fit_tlnpn` fits, and
the start of every other bridge root.

The table holds bridge_TT(sigma, dj, dk) on a grid: the truncation levels
``DELTA_NODES`` (-4 to 4 in steps of 0.25) for both variables, and the
latent correlations ``SIGMA_NODES``, 33 arcsine-spaced nodes over
+-0.9999 (uniform in theta = arcsin(sigma / 0.9999), in which the bridge
is nearly linear). Each value is :func:`tabulate`, the batched kernel
``copula._bridge_batch`` on the Sobol stream of ``POINTS`` points that
the scalar ``copula.bridge_tt`` also uses, so the table is exactly
symmetric in (dj, dk). It is stored next to this module
as a float64 ``.npy`` array of shape (delta, delta, sigma) and read on
first use. Regenerate it with ``python scripts/make_bridge_table.py``.

:func:`seed_roots` interpolates a pair's sigma line cubically in (dj, dk)
and solves the cubic in theta around tau. A fit takes that root as its
sigma when both levels lie on the grid and the root is at most
``ROOT_SIGMA_MAX``, as latentcor does with its interpolated bridges (Yoon,
Mueller & Gaynanova 2021). There the table's tau is within about 7e-4 of
the kernel's on the ``POINTS`` stream, far below the sampling error of a
Kendall's tau. Every other pair is solved by ``copula._invert_bridge_batch``,
which starts from the same lookup and finishes the root on the fit's own
stream.
"""

import functools
from importlib import resources

import numpy as np

__all__ = ["DELTA_NODES", "SIGMA_NODES", "POINTS", "TABLE_FILE", "ROOT_SIGMA_MAX", "tabulate", "load_table", "save_table", "seed_roots"]

TABLE_FILE = "bridge_tt_table.npy"
POINTS = 16384
DELTA_STEP = 0.25
DELTA_NODES = DELTA_STEP * np.arange(-16, 17)
_THETA_STEP = np.pi / 32
_SIGMA_EDGE = 0.9999  # the table's sigma range, and the root finder's clamp (copula._SIGMA_BRACKET)
SIGMA_NODES = _SIGMA_EDGE * np.sin(_THETA_STEP * np.arange(-16, 17))
_LOOKUP_CHUNK = 1024  # pairs per block of seed_roots
# The largest sigma that a fit takes from the table. Closer to +1 the bridge
# bends too sharply in the levels for a bicubic on this grid: above it the
# table's tau was off by up to 3.5e-3, below it by at most 7e-4.
ROOT_SIGMA_MAX = SIGMA_NODES[-4]
TABLE_SHAPE = (DELTA_NODES.size, DELTA_NODES.size, SIGMA_NODES.size)


def tabulate(s, j, k) -> np.ndarray:
    """Table values at sigma node ``s`` and delta nodes ``j``, ``k`` (index
    arrays): the bridge kernel on the stream of ``POINTS`` points, which is
    also the stream of the scalar ``copula.bridge_tt``. The kernel puts the
    larger truncation level first, so the values are symmetric in (j, k)."""
    from .copula import _bridge_batch  # copula imports this module

    return _bridge_batch(SIGMA_NODES[s], DELTA_NODES[j], DELTA_NODES[k], POINTS)


def save_table(values, path) -> None:
    """Write a table of shape ``TABLE_SHAPE`` in the stored format."""
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.shape != TABLE_SHAPE:
        raise ValueError(f"bridge table must have shape {TABLE_SHAPE}, got {values.shape}")
    np.save(path, values, allow_pickle=False)


@functools.cache
def load_table() -> np.ndarray:
    """The packaged table, read once per process and returned read-only."""
    with resources.files(__package__).joinpath(TABLE_FILE).open("rb") as fh:
        values = np.load(fh, allow_pickle=False)
    if values.shape != TABLE_SHAPE or values.dtype != np.float64:
        raise ValueError(f"{TABLE_FILE} has shape {values.shape} and dtype {values.dtype}, expected {TABLE_SHAPE} float64")
    values.setflags(write=False)
    return values


def _cubic_stencil(x, n):
    """First node and 4-point Lagrange weights interpolating at grid
    coordinate ``x`` (clamped to [0, n - 1]) on nodes 0..n-1."""
    x = np.clip(x, 0.0, n - 1.0)
    first = np.clip(np.floor(x).astype(np.intp) - 1, 0, n - 4)
    t = (x - first)[:, None]
    a, b, c, d = t, t - 1.0, t - 2.0, t - 3.0
    weights = np.concatenate([-b * c * d / 6.0, a * c * d / 2.0, -a * b * d / 2.0, a * b * c / 6.0], axis=1)
    return first, weights


def seed_roots(tau, dj, dk):
    """Latent correlation and bridge slope d tau / d sigma for each pair,
    from the table.

    The sigma line of each pair is interpolated cubically in (dj, dk),
    each clamped to the grid, and inverted by :func:`_invert_lines`. The
    interpolation adds the 16 weighted table lines around the pair one at
    a time, j's node outer and k's inner, each as (wj * wk) * line: that is
    the order and the rounding of ``np.einsum("pa,pb,pabs->ps")`` over the
    (pairs, 4, 4, sigma) patch, so the lines and the roots are einsum's bit
    for bit without gathering the patch. Pairs go in blocks of
    ``_LOOKUP_CHUNK``, each holding two (block, sigma) arrays, about 0.5 MB.
    Returns ``(sigma0, slope, seeded)``; ``seeded`` is False where no
    root is given.
    """
    tau, dj, dk = (np.asarray(x, dtype=float) for x in (tau, dj, dk))
    out = np.empty(tau.shape[0]), np.empty(tau.shape[0]), np.empty(tau.shape[0], dtype=bool)
    for start in range(0, tau.shape[0], _LOOKUP_CHUNK):
        sl = slice(start, start + _LOOKUP_CHUNK)
        for column, values in zip(out, _invert_lines(_lines(dj[sl], dk[sl]), tau[sl])):
            column[sl] = values
    return out


def _lines(dj, dk):
    """The table's sigma line at each pair's (dj, dk): bicubic in the two
    levels, each clamped to the grid, summed in einsum's order (see
    :func:`seed_roots`)."""
    first_j, wj = _cubic_stencil((dj - DELTA_NODES[0]) / DELTA_STEP, DELTA_NODES.size)
    first_k, wk = _cubic_stencil((dk - DELTA_NODES[0]) / DELTA_STEP, DELTA_NODES.size)
    table = load_table().reshape(-1, SIGMA_NODES.size)  # row j * 33 + k is the line at (j, k)
    lines = np.zeros((dj.shape[0], SIGMA_NODES.size))
    line = np.empty_like(lines)
    for a in range(4):
        for b in range(4):
            table.take((first_j + a) * DELTA_NODES.size + first_k + b, axis=0, out=line)
            lines += np.multiply((wj[:, a] * wk[:, b])[:, None], line, out=line)
    return lines


def _invert_lines(lines, tau):
    """Solve each row of ``lines`` (bridge values at ``SIGMA_NODES``) for
    ``tau`` with the cubic through the four nodes around it, in theta.
    No root is given where tau is not inside the line's inner nodes
    (within one sigma interval of the edge value or beyond), or where the
    local cubic does not increase."""
    n = SIGMA_NODES.size
    rows = np.arange(tau.size)
    k = np.count_nonzero(lines <= tau[:, None], axis=1) - 1  # tau in [line[k], line[k + 1])
    inner = (k >= 1) & (k <= n - 3)
    first = np.clip(k - 1, 0, n - 4)
    v0, v1, v2, v3 = lines[rows[:, None], first[:, None] + np.arange(4)].T
    # Newton form of the cubic through (u, v_u), u = 0..3, in node units
    d1, d2, d3 = v1 - v0, 0.5 * (v2 - 2.0 * v1 + v0), (v3 - 3.0 * v2 + 3.0 * v1 - v0) / 6.0
    a = (k - first).astype(float)
    lo_v, hi_v = lines[rows, np.clip(k, 0, n - 2)], lines[rows, np.clip(k + 1, 1, n - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = a + np.clip((tau - lo_v) / (hi_v - lo_v), 0.0, 1.0)
        for _ in range(3):
            value = v0 + u * (d1 + (u - 1.0) * (d2 + (u - 2.0) * d3))
            deriv = d1 + d2 * (2.0 * u - 1.0) + d3 * (3.0 * u * u - 6.0 * u + 2.0)
            u = np.clip(u - (value - tau) / deriv, a, a + 1.0)
        deriv = d1 + d2 * (2.0 * u - 1.0) + d3 * (3.0 * u * u - 6.0 * u + 2.0)
        theta = _THETA_STEP * (first + u - (n - 1) / 2)
        sigma0 = _SIGMA_EDGE * np.sin(theta)
        slope = deriv / (_SIGMA_EDGE * _THETA_STEP * np.cos(theta))
    seeded = inner & (deriv > 0.0) & np.isfinite(slope)
    return sigma0, slope, seeded

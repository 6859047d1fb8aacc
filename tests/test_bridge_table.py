import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import zicount.copula as copula
from zicount import bridge_table, zero_truncation_levels
from zicount.bench import make_qmp_standin
from zicount.bridge_table import DELTA_NODES, SIGMA_NODES, TABLE_SHAPE, load_table, tabulate

TABLE_SHA256 = "456490b04b4d790b30b91b5654c969b3a96d65a640513785010631b5bd7cc3ce"


def test_shape_and_grid():
    table = load_table()
    assert table.shape == TABLE_SHAPE == (33, 33, 33)
    assert table.dtype == np.float64 and not table.flags.writeable
    assert DELTA_NODES[0] == -4.0 and DELTA_NODES[-1] == 4.0 and np.allclose(np.diff(DELTA_NODES), 0.25)
    assert SIGMA_NODES[0] == -copula._SIGMA_BRACKET and SIGMA_NODES[-1] == copula._SIGMA_BRACKET
    assert np.all(np.diff(SIGMA_NODES) > 0.0) and SIGMA_NODES[16] == 0.0
    assert np.all(table[:, :, 16] == 0.0)  # the bridge is exactly 0 at sigma = 0


def test_symmetric_in_deltas():
    table = load_table()
    assert np.array_equal(table, table.transpose(1, 0, 2))


def test_increasing_in_sigma():
    """Every line is strictly increasing in sigma after an initial plateau.

    The plateau is where the bridge's slope is below float resolution:
    sigma near -1 with both variables mostly zero, e.g. -2.006e-9 at
    every sigma <= -0.77 when both truncation levels are 4.
    """
    steps = np.diff(load_table(), axis=2)
    assert np.all(steps >= 0.0)
    plateau = np.cumprod(steps == 0.0, axis=2).astype(bool)
    assert np.all((steps > 0.0) | plateau)
    assert not plateau[:, :, 15:].any()  # the plateau ends before sigma = 0


def test_reproduces_from_the_generator():
    """A stale or hand-edited table fails: eight seeded sigma lines (264
    nodes) recomputed by the generator's function at its point count
    match the stored values."""
    rng = np.random.default_rng(20240612)
    j, k = rng.integers(0, DELTA_NODES.size, (2, 8))
    s = np.arange(SIGMA_NODES.size)
    j, k, s = np.repeat(j, s.size), np.repeat(k, s.size), np.tile(s, 8)
    assert np.max(np.abs(tabulate(s, j, k) - load_table()[j, k, s])) <= 1e-12


def test_file_is_unedited():
    """The file's digest as ``scripts/make_bridge_table.py`` printed it;
    with the test above, an edited node or a stale table fails."""
    data = (Path(bridge_table.__file__).parent / bridge_table.TABLE_FILE).read_bytes()
    assert hashlib.sha256(data).hexdigest() == TABLE_SHA256


def einsum_lines(dj, dk):
    """The table's sigma lines as the library read them before it took one
    table line at a time: the (pairs, 4, 4, sigma) patch around each pair,
    contracted with both stencils' weights by one einsum."""
    first_j, wj = bridge_table._cubic_stencil((dj - DELTA_NODES[0]) / bridge_table.DELTA_STEP, DELTA_NODES.size)
    first_k, wk = bridge_table._cubic_stencil((dk - DELTA_NODES[0]) / bridge_table.DELTA_STEP, DELTA_NODES.size)
    patch = load_table()[(first_j[:, None] + np.arange(4))[:, :, None], (first_k[:, None] + np.arange(4))[:, None, :]]
    return np.einsum("pa,pb,pabs->ps", wj, wk, patch)


# levels anywhere (clamped to the grid beyond +-4), exactly on a node, or at an edge
LEVELS = st.floats(-6.0, 6.0) | st.sampled_from(list(DELTA_NODES)) | st.sampled_from([-4.0, 4.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(LEVELS, LEVELS), min_size=1, max_size=40))
def test_lines_are_the_einsum_reference_bit_for_bit(pairs):
    dj, dk = (np.array(v) for v in zip(*pairs))
    assert np.array_equal(bridge_table._lines(dj, dk), einsum_lines(dj, dk))


def test_standin_lines_are_the_einsum_reference_bit_for_bit():
    data = make_qmp_standin().values
    delta = zero_truncation_levels(data)
    ju, ku = np.triu_indices(data.shape[1], k=1)
    dj, dk = delta[ju], delta[ku]
    assert np.array_equal(bridge_table._lines(dj, dk), einsum_lines(dj, dk))


def test_loaded_on_first_use_not_at_import():
    code = "import zicount, zicount.bridge_table as b; assert b.load_table.cache_info().currsize == 0"
    src = Path(bridge_table.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)


def test_scipy_stats_not_loaded_without_the_bridge_kernel():
    """``import zicount``, a tiny setting-one run and a stand-in real-data
    split whose pairs the table roots all leave ``scipy.stats`` unloaded:
    only the bridge kernel's Sobol stream imports it."""
    code = """
import json, sys, tempfile
from pathlib import Path

def assert_no_stats(step):
    assert "scipy.stats" not in sys.modules, f"scipy.stats loaded by {step}"

import zicount
assert_no_stats("import zicount")
from zicount import copula
from zicount.bench import Experiment, ExperimentConfig, run_experiment

pairs = {"_bridge_roots": [], "_invert_bridge_batch": []}
def counting(name):
    inner = getattr(copula, name)
    def wrapper(tau, *args):
        pairs[name].append(len(tau))
        return inner(tau, *args)
    setattr(copula, name, wrapper)
counting("_bridge_roots")
counting("_invert_bridge_batch")

configs = {
    "setting_one": dict(experiment=Experiment.SETTING_ONE, grids={"zero_target": [0.4], "flavor": ["zinb", "hnb"]}, replications=2, n=200),
    "real_data": dict(experiment=Experiment.REAL_DATA, folds=3, n_splits=1, dataset="standin"),
}
with tempfile.TemporaryDirectory() as tmp:
    for name, kwargs in configs.items():
        out = run_experiment(ExperimentConfig(seed=1, out=str(Path(tmp) / name), **kwargs))
        assert json.loads((out / "manifest.json").read_text())["failures"] == [], name
        assert_no_stats(name)
# the split fits TLNPN, and the table roots every pair
assert sum(pairs["_bridge_roots"]) > 0 and pairs["_invert_bridge_batch"] == [], pairs
"""
    src = Path(bridge_table.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)


def test_scipy_optimize_and_spatial_load_with_the_first_point_cloud_distance():
    """``import zicount``, a tiny setting-one run and the intercept-only
    fits leave ``scipy.optimize``, ``scipy.spatial`` and ``scipy.stats``
    unloaded: every fit runs the library's own Newton loop. The first
    ``wasserstein_pd`` call loads the assignment solver and ``cdist``."""
    code = """
import sys, tempfile
import numpy as np

def loaded():
    return [m for m in ("scipy.optimize", "scipy.spatial", "scipy.stats") if m in sys.modules]

import zicount
assert loaded() == [], ("import zicount", loaded())
from zicount import Flavor, fit_intercept_only, wasserstein_pd
from zicount.bench import Experiment, ExperimentConfig, run_experiment

grids = {"zero_target": [0.4], "flavor": ["zinb", "hnb"]}
with tempfile.TemporaryDirectory() as tmp:
    run_experiment(ExperimentConfig(experiment=Experiment.SETTING_ONE, grids=grids, replications=2, n=200, seed=1, out=tmp))
y = np.random.default_rng(0).poisson(2.0, 100)
for flavor in Flavor:
    fit_intercept_only(y, flavor)
assert loaded() == [], ("setting one and the fits", loaded())
wasserstein_pd(np.eye(3), np.eye(3)[::-1])
assert loaded() == ["scipy.optimize", "scipy.spatial"], ("wasserstein_pd", loaded())
"""
    src = Path(bridge_table.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)

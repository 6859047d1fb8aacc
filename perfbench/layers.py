"""zicount layer hooks for the traced run, and the per-layer metrics.

The layers are the library's modules: counts, fitting, copula, evaluate,
synth and bench (``cli`` is an argparse shell over ``bench`` and is not
measured). Each hook wraps the module-level reference that one call site
looks up at call time, e.g. ``zicount.evaluate._sample_hnb`` is the
reference the hurdle simulator calls. A hook whose target is missing
fails the traced run, and so does a hook that never fires on a workload
listed for it below; a rename inside the library therefore breaks the
trace loudly instead of reporting zeros.
"""

import importlib
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np

from tracing import HookError, Tracer, self_times

ALL = frozenset({"s1_aic", "s2_strong", "standin_split"})
MULTIVARIATE = frozenset({"s2_strong", "standin_split"})

# (module, attribute, span name, workloads on which the hook must fire)
HOOKS = (
    ("zicount.bench", "run_experiment", "bench.run", ALL),
    ("zicount.bench", "load_counts_csv", "bench.load", frozenset({"standin_split"})),
    ("zicount.bench", "_write_csv", "bench.write", ALL),
    ("zicount.bench", "resolve_setting_one_gamma0", "synth.calibrate", frozenset({"s1_aic"})),
    ("zicount.bench", "gen_setting_one", "synth.gen", frozenset({"s1_aic"})),
    ("zicount.bench", "gen_setting_two", "synth.gen", frozenset({"s2_strong"})),
    ("zicount.bench", "fit_regression", "fitting.fit", frozenset({"s1_aic"})),
    ("zicount.bench", "kfold_cv", "evaluate.cv", frozenset({"s2_strong"})),
    ("zicount.bench", "random_split_eval", "evaluate.cv", frozenset({"standin_split"})),
    ("zicount.evaluate", "fit_regression", "fitting.fit", frozenset({"s2_strong"})),
    ("zicount.evaluate", "fit_intercept_only", "fitting.fit", MULTIVARIATE),
    ("zicount.fitting", "minimize", "fitting.minimize", ALL),
    ("zicount.evaluate", "_sample_hnb", "counts.sample", MULTIVARIATE),
    ("zicount.evaluate", "fit_tlnpn", "copula.fit", MULTIVARIATE),
    ("zicount.copula", "kendall_tau_matrix", "copula.kendall", MULTIVARIATE),
    ("zicount.copula", "nearest_correlation", "copula.nearest", MULTIVARIATE),
    ("zicount.evaluate", "sample_tlnpn", "copula.sample", MULTIVARIATE),
    ("zicount.evaluate", "wasserstein_pd", "evaluate.wasserstein", MULTIVARIATE),
    ("zicount.evaluate", "wasserstein_1d", "evaluate.marginal", MULTIVARIATE),
)

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = (
    ("counts.sample_s", "s", "lower"),
    ("counts.sample_calls", "count", "higher"),
    ("counts.draws", "count", "higher"),
    ("counts.tiny_r_frac", "frac", "lower"),
    ("fitting.fit_s", "s", "lower"),
    ("fitting.zinb_fit_s", "s", "lower"),
    ("fitting.hnb_fit_s", "s", "lower"),
    ("fitting.fits", "count", "higher"),
    ("fitting.nfev", "count", "lower"),
    ("fitting.nit", "count", "lower"),
    ("fitting.nonconverged", "count", "lower"),
    ("fitting.tiny_r_fits", "count", "lower"),
    ("fitting.fit_ms_p50", "ms", "lower"),
    ("fitting.fit_ms_tail", "ms", "lower"),
    ("fitting.failed", "count", "lower"),
    ("copula.bridge_s", "s", "lower"),
    ("copula.pairs", "count", "higher"),
    ("copula.clamped_pairs", "count", "lower"),
    ("copula.bridge_err_max", "1", "lower"),
    ("copula.kendall_s", "s", "lower"),
    ("copula.kendall_calls", "count", "higher"),
    ("copula.kendall_peak_mb", "MB", "lower"),
    ("copula.nearest_s", "s", "lower"),
    ("copula.eig_floor_hits", "count", "lower"),
    ("copula.sample_s", "s", "lower"),
    ("evaluate.wasserstein_s", "s", "lower"),
    ("evaluate.wasserstein_calls", "count", "higher"),
    ("evaluate.marginal_s", "s", "lower"),
    ("evaluate.self_s", "s", "lower"),
    ("evaluate.records", "count", "higher"),
    ("evaluate.records_failed", "count", "lower"),
    ("synth.calibrate_s", "s", "lower"),
    ("synth.calibrate_calls", "count", "lower"),
    ("synth.calibrate_distinct", "count", "higher"),
    ("synth.gen_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.load_s", "s", "lower"),
    ("bench.write_s", "s", "lower"),
    ("bench.bytes_written", "bytes", "lower"),
    ("bench.cells", "count", "higher"),
    ("bench.cells_failed", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

LOG_TINY_R = -8.0
BRIDGE_ERR_PAIRS = 12
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_level(samples_per_call: int) -> float:
    """Highest percentile that leaves at least ten samples beyond it."""
    for q in _TAIL_LEVELS:
        if samples_per_call * (100.0 - q) >= 1000.0:
            return q
    return 50.0


class ZicountTrace:
    """Installs every hook on one Tracer and turns its spans into metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.tracer = Tracer()
        self.first_fit = None  # (training block, raw pairwise sigma) of the first copula fit
        self._raw_sigma = None
        copula = importlib.import_module("zicount.copula")
        self._sigma_bracket = getattr(copula, "_SIGMA_BRACKET", None)
        if self._sigma_bracket is None:
            raise HookError("zicount.copula._SIGMA_BRACKET (the bridge clamp) does not exist")
        recorders = {
            "bench.run": (None, self._after_run),
            "synth.calibrate": (None, self._after_calibrate),
            "fitting.fit": (None, self._after_fit),
            "fitting.minimize": (None, self._after_minimize),
            "counts.sample": (None, self._after_sample),
            "evaluate.cv": (None, self._after_cv),
            "copula.fit": (None, self._after_copula_fit),
            "copula.kendall": (self._before_kendall, self._after_kendall),
            "copula.nearest": (self._before_nearest, self._after_nearest),
        }
        try:
            for module_name, attr, span_name, _ in HOOKS:
                module = importlib.import_module(module_name)
                if span_name == "copula.nearest":
                    self._eig_floor = _default_of(module, attr, "eig_floor")
                before, after = recorders.get(span_name, (None, None))
                self.tracer.wrap(module, attr, span_name, before, after)
        except BaseException:
            self.tracer.unwrap_all()
            raise

    # -- recorders: they run outside the span's clock ---------------------

    @staticmethod
    def _after_run(span, args, kwargs, result, token):
        if result is None:
            return
        files = [f for f in result.iterdir() if f.is_file()]
        span.attrs["bytes"] = sum(f.stat().st_size for f in files)
        manifest = json.loads((result / "manifest.json").read_text())
        span.attrs["cells"] = manifest["n_cells"]
        span.attrs["cells_failed"] = len(manifest["failures"])

    @staticmethod
    def _after_calibrate(span, args, kwargs, result, token):
        span.attrs["key"] = repr((args, sorted(kwargs.items())))

    @staticmethod
    def _after_fit(span, args, kwargs, result, token):
        if result is None:
            return
        span.attrs["flavor"] = result.flavor.value
        span.attrs["converged"] = bool(result.converged)
        span.attrs["log_r"] = float(result.coefficients.log_r)

    @staticmethod
    def _after_minimize(span, args, kwargs, result, token):
        if result is not None:
            span.attrs["nfev"] = int(result.nfev)
            span.attrs["nit"] = int(result.nit)

    @staticmethod
    def _after_sample(span, args, kwargs, result, token):
        r = kwargs["r"] if "r" in kwargs else args[2]
        span.attrs["tiny_r"] = bool(math.log(r) < LOG_TINY_R)
        if result is not None:
            span.attrs["draws"] = int(np.size(result))

    @staticmethod
    def _after_cv(span, args, kwargs, result, token):
        if result is not None:
            span.attrs["records"] = len(result.records)
            span.attrs["records_failed"] = sum(1 for r in result.records if r.failed)

    def _after_copula_fit(self, span, args, kwargs, result, token):
        data = np.asarray(kwargs["data"] if "data" in kwargs else args[0])
        p = data.shape[1]
        span.attrs["pairs"] = p * (p - 1) // 2
        if self.first_fit is None and result is not None:
            self.first_fit = (data.copy(), self._raw_sigma)

    @staticmethod
    def _before_kendall(args, kwargs):
        if tracemalloc.is_tracing():
            return False
        tracemalloc.start()
        return True

    @staticmethod
    def _after_kendall(span, args, kwargs, result, started):
        if started:
            span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def _before_nearest(self, args, kwargs):
        m = np.asarray(kwargs["m"] if "m" in kwargs else args[0], dtype=float)
        floor = kwargs.get("eig_floor", args[1] if len(args) > 1 else self._eig_floor)
        self._raw_sigma = m.copy()
        off = m[np.triu_indices(m.shape[0], k=1)]
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        return {
            "eig_floor_hits": int(np.sum(vals < floor)),
            "clamped": int(np.sum(np.abs(off) >= self._sigma_bracket)),
        }

    @staticmethod
    def _after_nearest(span, args, kwargs, result, token):
        span.attrs.update(token)

    # -- checks and metrics -----------------------------------------------

    def missing_hooks(self) -> list:
        """Hooks that should have fired on this workload but did not."""
        expected = {(m, a) for m, a, _, wls in HOOKS if self.workload in wls}
        return [h.target for h in self.tracer.hooks if tuple(h.target.rsplit(".", 1)) in expected and h.fired == 0]

    def bridge_err_max(self, seed: int) -> float:
        """Max |sigma_fit - sigma_exact| over a seeded sample of the first
        copula fit's pairs; sigma_exact is the scalar ``invert_bridge``.

        Clamped and zero-tau pairs are skipped. Runs with hooks removed.
        """
        if self.first_fit is None:
            return 0.0
        copula = importlib.import_module("zicount.copula")
        data, raw = self.first_fit
        tau = copula.kendall_tau_matrix(data).tau
        delta = copula.zero_truncation_levels(data)
        ju, ku = np.triu_indices(data.shape[1], k=1)
        ok = (tau[ju, ku] != 0.0) & (np.abs(raw[ju, ku]) < self._sigma_bracket)
        candidates = np.flatnonzero(ok)
        if len(candidates) == 0:
            return 0.0
        rng = np.random.default_rng([seed, 0xB4])
        chosen = rng.choice(candidates, size=min(BRIDGE_ERR_PAIRS, len(candidates)), replace=False)
        err = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in chosen:
                j, k = ju[i], ku[i]
                exact = copula.invert_bridge(tau[j, k], delta[j], delta[k])
                err = max(err, abs(raw[j, k] - exact))
        return float(err)

    def metrics(self, calls: int):
        """Per-layer metrics per traced ``run_experiment`` call, and the
        percentile that ``fitting.fit_ms_tail`` reports."""
        spans = self.tracer.spans
        selfs = self_times(spans)
        by_name = {}
        for span, own in zip(spans, selfs):
            by_name.setdefault(span.name, []).append((span, own))

        def group(name):
            return by_name.get(name, [])

        def total(name, own=False):
            return sum(o if own else s.duration for s, o in group(name)) / calls

        def count(name, pred=lambda s: True):
            return sum(1 for s, _ in group(name) if pred(s)) / calls

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s, _ in group(name)) / calls

        fits = [s for s, _ in group("fitting.fit")]
        fit_ms = [1e3 * s.duration for s in fits]
        q = tail_level(len(fits) // calls)
        samples = group("counts.sample")
        peaks = [s.attrs.get("peak_bytes", 0) for s, _ in group("copula.kendall")]
        return {
            "counts.sample_s": total("counts.sample"),
            "counts.sample_calls": count("counts.sample"),
            "counts.draws": attr_sum("counts.sample", "draws"),
            "counts.tiny_r_frac": (sum(s.attrs["tiny_r"] for s, _ in samples) / len(samples)) if samples else 0.0,
            "fitting.fit_s": total("fitting.fit"),
            "fitting.zinb_fit_s": sum(s.duration for s in fits if s.attrs.get("flavor") == "zinb") / calls,
            "fitting.hnb_fit_s": sum(s.duration for s in fits if s.attrs.get("flavor") == "hnb") / calls,
            "fitting.fits": len(fits) / calls,
            "fitting.nfev": attr_sum("fitting.minimize", "nfev"),
            "fitting.nit": attr_sum("fitting.minimize", "nit"),
            "fitting.nonconverged": count("fitting.fit", lambda s: s.attrs.get("converged") is False),
            "fitting.tiny_r_fits": count("fitting.fit", lambda s: s.attrs.get("log_r", 0.0) < LOG_TINY_R),
            "fitting.fit_ms_p50": float(np.percentile(fit_ms, 50)) if fits else 0.0,
            "fitting.fit_ms_tail": float(np.percentile(fit_ms, q)) if fits else 0.0,
            "fitting.failed": count("fitting.fit", lambda s: "error" in s.attrs),
            "copula.bridge_s": total("copula.fit", own=True),
            "copula.pairs": attr_sum("copula.fit", "pairs"),
            "copula.clamped_pairs": attr_sum("copula.nearest", "clamped"),
            "copula.kendall_s": total("copula.kendall"),
            "copula.kendall_calls": count("copula.kendall"),
            "copula.kendall_peak_mb": max(peaks, default=0) / 2**20,
            "copula.nearest_s": total("copula.nearest"),
            "copula.eig_floor_hits": attr_sum("copula.nearest", "eig_floor_hits"),
            "copula.sample_s": total("copula.sample"),
            "evaluate.wasserstein_s": total("evaluate.wasserstein"),
            "evaluate.wasserstein_calls": count("evaluate.wasserstein"),
            "evaluate.marginal_s": total("evaluate.marginal"),
            "evaluate.self_s": total("evaluate.cv", own=True),
            "evaluate.records": attr_sum("evaluate.cv", "records"),
            "evaluate.records_failed": attr_sum("evaluate.cv", "records_failed"),
            "synth.calibrate_s": total("synth.calibrate"),
            "synth.calibrate_calls": count("synth.calibrate"),
            # every call runs the same inputs, so the distinct set is per call
            "synth.calibrate_distinct": len({s.attrs["key"] for s, _ in group("synth.calibrate")}),
            "synth.gen_s": total("synth.gen"),
            "bench.self_s": total("bench.run", own=True),
            "bench.load_s": total("bench.load"),
            "bench.write_s": total("bench.write"),
            "bench.bytes_written": attr_sum("bench.run", "bytes"),
            "bench.cells": attr_sum("bench.run", "cells"),
            "bench.cells_failed": attr_sum("bench.run", "cells_failed"),
        }, q


def _default_of(module, attr, param):
    try:
        return inspect.signature(getattr(module, attr)).parameters[param].default
    except (KeyError, TypeError, ValueError):
        raise HookError(f"{module.__name__}.{attr} has no parameter {param!r}") from None

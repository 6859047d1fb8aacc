"""One benchmark process: set up a workload, time it, check its outputs.

Started by ``run.py``; not meant to be run by hand. Every timed call is a
single ``zicount.bench.run_experiment`` on a config built from the seed,
with ``threads=1`` so the whole workload runs in this process. Calls are
repeated while one more is expected to end within ``--seconds``; the
first call always runs. With ``--trace 1`` untraced and traced calls
alternate, so the same process gives both the tracing
overhead and the tracing-neutrality check.

The result is written as JSON to ``<run dir>/worker.json``.
"""

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
S1_GRID = {"zero_target": [0.2, 0.4, 0.6], "flavor": ["zinb", "hnb"]}
S1_REPLICATIONS = 10
S2_GRID = {"beta1": [2.0], "gamma0": [math.log(1.0 / 9.0)], "gamma1": [0.0], "rho": [0.9], "corr": ["AR"]}
S2_FOLDS = 5
STANDIN_SPLIT_SEED = 31  # criterion 9's split seed; the table itself follows --seed


# ---------------------------------------------------------------------------
# workloads: each returns a function from an output directory to a config


def prepare_s1_aic(bench, seed, run_dir):
    """Setting one, criterion 2's grid: ZINB and HNB regressions per cell."""
    return lambda out: bench.ExperimentConfig(
        experiment=bench.Experiment.SETTING_ONE,
        grids=S1_GRID,
        replications=S1_REPLICATIONS,
        seed=seed,
        out=str(out),
        force=True,
    )


def prepare_s2_strong(bench, seed, run_dir):
    """Criterion 4's strong cell under 5-fold CV with hnb, hnb_cv, tlnpn."""
    return lambda out: bench.ExperimentConfig(
        experiment=bench.Experiment.SETTING_TWO,
        grids=S2_GRID,
        replications=1,
        folds=S2_FOLDS,
        seed=seed,
        models=("hnb", "hnb_cv", "tlnpn"),
        out=str(out),
        force=True,
    )


def prepare_standin_split(bench, seed, run_dir):
    """Criterion 9's real-data protocol, one split, on a stand-in table
    generated from the seed and read back from CSV inside the run."""
    table = bench.make_qmp_standin(seed)
    path = run_dir / "standin.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.variable_names)
        writer.writerows(table.values.astype(int).tolist())
    return lambda out: bench.ExperimentConfig(
        experiment=bench.Experiment.REAL_DATA,
        folds=3,
        n_splits=1,
        seed=STANDIN_SPLIT_SEED,
        dataset=str(path),
        rescale_exponent=0.851,
        qmc_points=1024,
        models=("hnb", "tlnpn"),
        out=str(out),
        force=True,
    )


WORKLOADS = {
    "s1_aic": prepare_s1_aic,
    "s2_strong": prepare_s2_strong,
    "standin_split": prepare_standin_split,
}

# tables every run of the workload writes, with their expected row counts
EXPECTED_ROWS = {
    "s1_aic": {"aic": 6 * S1_REPLICATIONS * 2},
    "s2_strong": {"distances": S2_FOLDS * 3, "amc": 2, "marginal": S2_FOLDS * 3 * 5},
    "standin_split": {"distances": 2, "amc": 1, "marginal": 2 * 101},
}


# ---------------------------------------------------------------------------
# output checks


def read_table(out: Path, name: str) -> list:
    with open(out / f"{name}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def csv_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def call_counts(out: Path) -> tuple:
    """(attempted, failed) over the cells and eval records of one call."""
    manifest = json.loads((out / "manifest.json").read_text())
    attempted, failed = manifest["n_cells"], len(manifest["failures"])
    if (out / "distances.csv").exists():
        rows = read_table(out, "distances")
        attempted += len(rows)
        failed += sum(int(r["failed"]) for r in rows)
    return attempted, failed


def aic_win_frac(rows) -> float:
    """Share of replications whose true flavor has the lower AIC."""
    groups = {}
    for r in rows:
        groups.setdefault((r["zero_target"], r["true_flavor"], r["replication"]), {})[r["model"]] = float(r["aic"])
    wins = [models[true] < models["hnb" if true == "zinb" else "zinb"] for (_, true, _), models in groups.items()]
    return sum(wins) / len(wins)


def check_outputs(workload: str, out: Path) -> list:
    """(name, passed, detail) for each check of one results directory."""
    checks = []
    expected = EXPECTED_ROWS[workload]
    present = {p.stem for p in out.glob("*.csv")}
    missing = sorted(set(expected) - present) + ([] if (out / "manifest.json").exists() else ["manifest"])
    checks.append(("tables_exist", not missing, f"missing {missing}" if missing else "all present"))
    if missing:
        return checks
    tables = {name: read_table(out, name) for name in expected}
    counts = {name: len(rows) for name, rows in tables.items()}
    checks.append(("row_counts", counts == expected, f"{counts} vs {expected}"))
    manifest = json.loads((out / "manifest.json").read_text())
    checks.append(("no_failed_cells", manifest["complete"] and not manifest["failures"], str(manifest["failures"])))
    if workload == "s1_aic":
        rows = tables["aic"]
        finite = all(math.isfinite(float(r["aic"])) for r in rows)
        pairs = {}
        for r in rows:
            pairs.setdefault((r["zero_target"], r["true_flavor"], r["replication"]), set()).add(r["model"])
        paired = all(models == {"zinb", "hnb"} for models in pairs.values())
        checks.append(("aic_table", finite and paired, f"{len(pairs)} replications, finite={finite}"))
        return checks
    failed = [r for r in tables["distances"] if int(r["failed"])]
    checks.append(("no_failed_records", not failed, f"{len(failed)} failed records"))
    dists = [float(r["distance"]) for name in ("distances", "marginal") for r in tables[name] if r["distance"] != ""]
    checks.append(("distances_nonneg", all(d >= 0.0 for d in dists), f"min {min(dists, default=0.0):.6g}"))
    amcs = [float(r["amc"]) for r in tables["amc"]]
    checks.append(("amc_range", all(-2.0 <= a <= 2.0 for a in amcs), f"amc {[round(a, 4) for a in amcs]}"))
    return checks


# ---------------------------------------------------------------------------
# provenance


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# the run


def timed_call(bench, make_config, out: Path) -> tuple:
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    bench.run_experiment(make_config(out))
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import zicount
    from zicount import bench

    if Path(zicount.__file__).resolve().parent != (src / "zicount").resolve():
        raise SystemExit(f"zicount was imported from {zicount.__file__}, not from {src}")
    run_dir = Path(args.run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    make_config = WORKLOADS[args.workload](bench, args.seed, run_dir)
    trace = None
    if args.trace:
        from layers import ZicountTrace

        trace = ZicountTrace(args.workload)
    setup_s = time.monotonic() - args.t_spawn
    result = {"setup_s": setup_s}
    if args.setup_only:
        (run_dir / "worker.json").write_text(json.dumps(result))
        return 0

    plain, traced = [], []  # (wall, cpu, out dir) per call
    peak_rss_mb = None
    start = round_start = time.perf_counter()
    while True:
        for kind in ([plain, traced] if trace else [plain]):
            out = run_dir / f"call{len(plain) + len(traced)}"
            if trace:
                trace.tracer.enabled = kind is traced
            kind.append(timed_call(bench, make_config, out) + (out,))
        if peak_rss_mb is None:
            # the peak of the first call: later calls add heap fragmentation
            # that grows with the number of calls, i.e. with speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # another round only if one more, as long as the last, ends in time
        now = time.perf_counter()
        if 2 * now - round_start - start > args.seconds:
            break
        round_start = now

    outs = [o for _, _, o in plain + traced]
    checks = check_outputs(args.workload, outs[0])
    reference = csv_bytes(outs[0])
    same = [csv_bytes(o) == reference for _, _, o in plain]
    checks.append(("deterministic", all(same), f"{sum(same)}/{len(same)} untraced calls byte-identical"))
    attempted = failed = 0
    for out in outs:
        a, f = call_counts(out)
        attempted, failed = attempted + a, failed + f

    if trace:
        trace.tracer.unwrap_all()
        neutral = [csv_bytes(o) == reference for _, _, o in traced]
        checks.append(("trace_neutral", all(neutral), f"{sum(neutral)}/{len(neutral)} traced calls match untraced"))
        missing = trace.missing_hooks()
        checks.append(("hooks_fired", not missing, f"never fired: {missing}" if missing else f"{len(trace.tracer.hooks)} hooks"))
        metrics, tail_q = trace.metrics(len(traced))
        metrics["copula.bridge_err_max"] = trace.bridge_err_max(args.seed)
        overhead = statistics.median(w for w, _, _ in traced) / statistics.median(w for w, _, _ in plain) - 1.0
        metrics["trace.overhead_frac"] = overhead
        result["fit_ms_tail_percentile"] = tail_q
        with open(run_dir / "spans.jsonl", "w") as fh:
            for s in trace.tracer.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "attrs": s.attrs}) + "\n")
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _, _ in plain),
            "cpu_s": statistics.median(c for _, c, _ in plain),
            "peak_rss_mb": peak_rss_mb,
        }
    if ("aic_table", True) in [(n, ok) for n, ok, _ in checks]:
        result["aic_win_frac"] = aic_win_frac(read_table(outs[0], "aic"))

    n_checks, n_bad = len(checks), sum(1 for _, ok, _ in checks if not ok)
    result.update(
        metrics=metrics,
        checks=[{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        attempted=attempted + n_checks,
        failed=failed + n_bad,
        calls={"untraced": [w for w, _, _ in plain], "traced": [w for w, _, _ in traced]},
        provenance=provenance(args, np, scipy),
    )
    (run_dir / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

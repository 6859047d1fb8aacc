"""zicount benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload s1_aic --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed. The command starts its worker processes
itself and waits for each. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run (see
README.md in this directory). It prints every metric with its unit, a
provenance line, the output checks, and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. It exits nonzero when an output check fails, and without a
result when the workload cannot be run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit, better, bound); BENCHMARK.json lists the same metrics
# The timing bounds are wide because the speed of a shared 2-core VM drifts:
# a fixed pure-Python loop varies by up to 1.6x from one second to the next.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "frac", "higher", 0.02),
)
SETUP_PROBES = 2  # extra processes that only set up, so setup_s is a median of three
TIME_LIMIT_S = 175.0
# One BLAS thread: an idle OpenBLAS helper thread spins, and on two shared
# cores that made s1_aic slower and its ten-seed spread several times wider.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(args, run_dir: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    # subprocess.run kills and reaps the worker on timeout or interrupt
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)],
        cwd=ROOT,
        env=dict(os.environ, **WORKER_ENV),
        timeout=max(1.0, deadline - t_spawn),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((run_dir / "worker.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        probes = [] if args.trace else [
            run_worker(args, base / f"probe{i}", deadline, setup_only=True)["setup_s"] for i in range(SETUP_PROBES)
        ]
        result = run_worker(args, base / "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(probes + [result["setup_s"]])
        metrics["ok_frac"] = 1.0 - result["failed"] / result["attempted"]
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        from layers import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if "aic_win_frac" in result:
        print(f"aic_win_frac = {result['aic_win_frac']:.4f} (criterion 2 statistic, not gated)")
    for check in result["checks"]:
        print(f"check {check['name']}: {'PASS' if check['passed'] else 'FAIL'} ({check['detail']})")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))

    correct = all(c["passed"] for c in result["checks"])
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (base / "result.json").write_text(json.dumps(dict(final, setup_probes_s=probes, worker=result), indent=1))
    print(json.dumps(final))
    return 0 if correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""covpom CLI benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and benchmarks that checkout's ``src/``.
The timed workload runs in a child process (``worker.py``) whose BLAS
thread count is fixed below; two more children repeat only the set-up, and
``setup_s`` is the median of the three set-ups.  With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: on a small shared machine a second thread adds noise,
# and OpenBLAS's thread start-up stalled the first LAPACK call for ~1 s.
BLAS_THREADS = 1
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_worker(args, extra=(), timeout=WORKER_TIMEOUT_S) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(extra) or 'run'} failed with exit code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covpom CLI benchmark")
    parser.add_argument("--workload", required=True, choices=("grid", "cells", "groups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    main_run = run_worker(args)
    print(f"workload {args.workload}, seed {args.seed}: {main_run['rounds']} rounds of "
          f"{main_run['jobs_per_round']} jobs, {main_run['attempted']} attempted, "
          f"{main_run['failed']} failed ({main_run['known_fault_failed']} on the known "
          f"fault), BLAS threads {BLAS_THREADS}")
    for line in main_run["unexpected"]:
        print(f"unexpected failure: {line}")

    if args.trace:
        layers = main_run["per_layer"]
        print(f"traced {main_run['rounds'] // 2} of {main_run['rounds']} rounds; tracing "
              f"overhead {layers['trace.overhead_pct']:.1f}% of the untraced rounds' time")
        for name in main_run["absent"]:
            print(f"absent: {name}")
        print(f"spans written to {main_run['trace_file']}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        setups = [main_run["setup_s"]] + [
            run_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        timed = len(main_run["times"])
        beyond = sum(t > main_run["job_tail_s"] for t in main_run["times"])
        print(f"job_tail_s is p{main_run['tail_percentile']} of {timed} timed jobs, "
              f"{beyond} beyond it; setup_s is the median of "
              f"{', '.join(f'{s:.3f}' for s in setups)} s")
        values = {
            "jobs_per_s": main_run["jobs_per_s"],
            "job_p50_s": main_run["job_p50_s"],
            "job_tail_s": main_run["job_tail_s"],
            "peak_rss_mb": main_run["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not main_run["unexpected"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

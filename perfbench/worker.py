"""One workload process: set up, run timed rounds of jobs, check every output.

Run by ``run.py``, which fixes the BLAS thread count in its environment.
The process acts as a single client in a closed loop: it calls
``covpom.cli.main(argv)`` in-process with stdout captured, one job after
the other, and repeats the workload's whole job list until the timed work
reaches ``--seconds`` and at least ``min_rounds`` rounds have run.  Outputs
are checked between rounds, outside the timed region.

Set-up covers ``import covpom.cli``, input generation and one untimed
warm-up job of each kind, which pays the first-call costs (lazy imports,
FFT plans, LAPACK work buffers) that every CLI invocation pays.

The last line on stdout is one JSON object for ``run.py``.  The benchmark's
own modules (``workloads``, ``checks``, ``spans``) import numpy, so they are
imported only after ``covpom.cli``: set-up times the program's imports.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench-work"
MODULES = ("cli", "io", "hilbert", "grids", "abelian", "phasespace", "posmom")

# job_tail_s is this percentile; every run times at least MIN_TIMED_JOBS
# jobs, so at least ten of them lie beyond it.
TAIL_PERCENTILE = 90
MIN_TIMED_JOBS = 100


def import_covpom() -> dict:
    """Import the checkout's own covpom, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covpom.cli  # noqa: F401  (the import is what set-up measures first)

    where = Path(sys.modules["covpom"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"covpom was imported from {where}, not from {src}")
    modules = {name: sys.modules[f"covpom.{name}"] for name in MODULES}
    modules["covpom"] = sys.modules["covpom"]
    return modules


def run_job(job, modules):
    """Run one job; returns (seconds, Outcome)."""
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.call is not None:
                outcome.result = job.call(modules)
            else:
                outcome.rc = modules["cli"].main(job.argv)
    except (Exception, SystemExit) as exc:  # a crashing job is a failed job
        outcome.result = exc
        outcome.stdout = err.getvalue() + "".join(traceback.format_exception(exc))
        return perf_counter() - start, outcome
    seconds = perf_counter() - start
    outcome.stdout = out.getvalue()
    if outcome.rc not in (None, 0):
        outcome.stdout += err.getvalue()
    return seconds, outcome


def check_job(job, outcome):
    """The job's check value; raises checks.Mismatch on a wrong output."""
    from checks import Mismatch

    if isinstance(outcome.result, BaseException):
        raise Mismatch(f"raised {outcome.result!r}: {outcome.stdout[-2000:]}")
    if job.argv is not None:
        if outcome.rc != 0:
            raise Mismatch(f"exit code {outcome.rc}: {outcome.stdout[-2000:]}")
        outcome.report = json.loads(outcome.stdout)
    return job.check(outcome)


def check_round(jobs, outcomes) -> list:
    """Per job: None when its output is right, else the reason it is not."""
    from checks import Mismatch, check_nested_norms

    values, errors = [None] * len(jobs), [None] * len(jobs)
    for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
        try:
            values[i] = check_job(job, outcome)
        except Mismatch as exc:
            errors[i] = str(exc)
    index = {id(job): i for i, job in enumerate(jobs)}
    for i, job in enumerate(jobs):
        if job.inside is None:
            continue
        inner = index[id(job.inside)]
        if errors[i] is None and errors[inner] is None:
            try:
                check_nested_norms(values[inner], values[i])
            except Mismatch as exc:
                errors[i] = str(exc)
    return errors


def warm_up(jobs, modules) -> None:
    """Run the smallest job of each kind once, after the job it reads from."""
    smallest = {}
    for job in jobs:
        if job.kind not in smallest or job.size < smallest[job.kind].size:
            smallest[job.kind] = job
    for job in smallest.values():
        if job.needs is not None:
            run_job(job.needs, modules)
        run_job(job, modules)


def file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def timed_rounds(jobs, modules, seconds: float, tracer):
    """Alternate untraced and traced rounds when ``tracer`` is given."""
    min_rounds = math.ceil(MIN_TIMED_JOBS / len(jobs))
    stats = {"times": [], "walls": [], "traced_walls": [], "attempted": 0, "failed": 0,
             "known_fault_failed": 0, "unexpected": []}
    rounds, timed = 0, 0.0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(modules)
        outcomes, times = [], []
        start = perf_counter()
        for i, job in enumerate(jobs):
            if traced:
                tracer.job = rounds * len(jobs) + i
            seconds_job, outcome = run_job(job, modules)
            times.append(seconds_job)
            outcomes.append(outcome)
        wall = perf_counter() - start
        if traced:
            tracer.uninstall()
            for job in jobs:
                tracer.counts["io.bytes_read"] += sum(file_size(p) for p in job.inputs)
                if job.out and job.out.endswith(".json"):
                    tracer.counts["io.bytes_written"] += file_size(job.out)
            stats["traced_walls"].append(wall)
        else:
            stats["walls"].append(wall)
            stats["times"].extend(times)
        for job, error in zip(jobs, check_round(jobs, outcomes)):
            stats["attempted"] += 1
            if error is None:
                continue
            stats["failed"] += 1
            if job.known_fault:
                stats["known_fault_failed"] += 1
            elif len(stats["unexpected"]) < 20:
                stats["unexpected"].append(f"{job.kind} {job.argv}: {error}")
        gc.collect()
        rounds += 1
        timed += wall
        enough = timed >= seconds and len(stats["walls"]) >= (1 if tracer else min_rounds)
        if enough and (tracer is None or rounds % 2 == 0):
            return rounds, stats


def percentile(values, pct) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    modules = import_covpom()
    import_s = perf_counter() - start

    import workloads

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, str(workdir))
        warm_up(jobs, modules)
        setup_s = perf_counter() - start
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            gc.collect()
            gc.freeze()
            tracer = None
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
            rounds, stats = timed_rounds(jobs, modules, args.seconds, tracer)
            result.update(stats, rounds=rounds, jobs_per_round=len(jobs),
                          peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            times = stats["times"]
            result["jobs_per_s"] = len(times) / sum(stats["walls"])
            result["job_p50_s"] = percentile(times, 50)
            result["job_tail_s"] = percentile(times, TAIL_PERCENTILE)
            result["tail_percentile"] = TAIL_PERCENTILE
            if tracer is not None:
                traced = len(stats["traced_walls"])
                result["per_layer"] = tracer.layer_metrics(traced)
                result["per_layer"]["cli.import_s"] = import_s
                untraced_rate = len(stats["walls"]) / sum(stats["walls"])
                traced_rate = traced / sum(stats["traced_walls"])
                result["per_layer"]["trace.overhead_pct"] = 100.0 * (
                    untraced_rate / traced_rate - 1.0)
                result["absent"] = tracer.absent
                trace_dir = WORKDIR / "traces"
                trace_dir.mkdir(exist_ok=True)
                trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
                with open(trace_file, "w") as fh:
                    json.dump(tracer.dump(), fh)
                result["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

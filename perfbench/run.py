#!/usr/bin/env python3
"""Benchmark of the fluxcontrol CLI on seeded workloads.

    python3 perfbench/run.py --workload place-karate --seed 0 --seconds 30 --trace 0

Jobs run in this process through ``fluxcontrol.cli.main(argv)``, one client in
a closed loop: the next job starts when the previous one returns. Every job
gets its own seeded input and a fresh output directory, which is checked by
the workload's correctness gates outside the timed region and then removed.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced jobs and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The checkout must hold ``src/fluxcontrol``; set-up runs
in fresh processes, and all files go under ``.perfbench_out`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("place-karate", "flux-synth", "steer-directed")
SETUP_RUNS = 5
# Seconds calibrate() takes on the reference machine (Intel Xeon, 1 BLAS thread).
CAL_REFERENCE_S = 0.02
# job_s_p90 needs at least ten samples beyond it.
P90_MIN_JOBS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads, clamped to [1, nproc]")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one import-and-build set-up, print it and exit")
    return parser.parse_args(argv)


def pin_threads(requested):
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = max(1, min(requested, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def setup_only(args):
    start = time.perf_counter()
    import fluxcontrol.cli  # noqa: F401
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT) as work:
        os.chdir(work)
        workloads.WORKLOADS[args.workload](args.seed)
        elapsed = time.perf_counter() - start
        os.chdir(ROOT)
    print(json.dumps({"setup_s": elapsed}))


def calibrate():
    """Seconds a fixed kernel takes now; it runs no fluxcontrol code.

    On a shared host the same job's time drifts by up to 1.8x within a minute
    (measured on a 2-vCPU Xeon VM), so every time the benchmark reports is
    scaled by CAL_REFERENCE_S over the calibration measured next to it. The
    kernel mixes what the jobs do: small LAPACK calls, a 200 x 200 matrix
    exponential and interpreted Python.
    """
    import numpy as np
    from scipy.linalg import expm

    rng = np.random.default_rng(0)
    small = rng.standard_normal((34, 34))
    small += small.T
    big = rng.standard_normal((200, 200)) / 20.0
    start = time.perf_counter()
    for _ in range(60):
        np.linalg.eigh(small)
    expm(big)
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def measure_setup(args):
    """Set-up times of SETUP_RUNS fresh processes: (scaled, raw) lists."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--threads", str(args.threads),
           "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = calibrate()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * 2.0 * CAL_REFERENCE_S / (before + calibrate()))
    return scaled, raw


def environment(args, threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "fluxcontrol").glob("*.py"))
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(), "cpu": cpu,
        "commit": commit, "workload": args.workload, "seed": args.seed, "src_lines": src_lines,
    }


@dataclass
class Job:
    index: int
    traced: bool
    seconds: float = 0.0
    scale: float = 1.0
    error: str | None = None
    digest: str | None = None
    bytes_out: int = 0
    observed: dict = field(default_factory=dict)


def run_job(cli, wl, index, tracer):
    """Run, time, gate and remove one job; gates and clean-up are outside the timing."""
    from workloads import digest_dir

    job = Job(index, tracer is not None)
    out = Path(f"job-{index:05d}")
    argv = wl.argv(index, out)
    start = time.perf_counter()
    try:
        rc = tracer.call(index, cli.main, argv) if tracer else cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crashing job is counted and reported
        job.seconds = time.perf_counter() - start
        job.error = f"{type(exc).__name__}: {exc}"
    else:
        job.seconds = time.perf_counter() - start
        if rc != 0:
            job.error = f"exit code {rc}"
    if job.error is None:
        try:
            failed = wl.gates(out, index)
            job.observed = wl.observe(out)
        except (OSError, ValueError, KeyError) as exc:
            failed = [f"{wl.name}.files ({type(exc).__name__}: {exc})"]
        if failed:
            job.error = "gate " + ", ".join(failed)
        job.digest = digest_dir(out)
        job.bytes_out = sum(f.stat().st_size for f in out.iterdir())
    shutil.rmtree(out, ignore_errors=True)
    if job.error:
        print(f"job {index} failed: {job.error}")
    return job


def run_loop(cli, wl, seconds, tracer):
    """Job 0 warms up; then jobs run back to back for ``seconds`` (at least two jobs).

    A calibration runs between jobs; each job's scale is CAL_REFERENCE_S over
    the mean of the calibrations on either side. With a tracer, odd jobs run
    untraced and even jobs traced.
    """
    jobs = [run_job(cli, wl, 0, None)]
    cal = [calibrate()]
    start = time.perf_counter()
    while len(jobs) < 3 or time.perf_counter() - start < seconds:
        index = len(jobs)
        jobs.append(run_job(cli, wl, index, tracer if index % 2 == 0 else None))
        cal.append(calibrate())
        jobs[-1].scale = 2.0 * CAL_REFERENCE_S / (cal[-2] + cal[-1])
    return jobs


def end_to_end(jobs, setup_times):
    timed = [j.seconds * j.scale for j in jobs[1:]]
    ok = sum(j.error is None for j in jobs[1:])
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "job_s_p50": (statistics.median(timed), len(timed)),
        "jobs_per_s": (ok / sum(timed), len(timed)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(jobs, tracer):
    """Per-job means over the traced jobs; times are scaled like the end-to-end ones."""
    from spans import CALLS, KERNEL, SELF_TIME

    traced = [j for j in jobs[1:] if j.traced]
    per_job = tracer.per_job()
    n = len(traced)

    def total(names, slot, scaled=False):
        return sum(per_job[j.index].get(name, [0, 0.0, 0, 0])[slot] * (j.scale if scaled else 1)
                   for j in traced for name in names)

    def observed(key):
        return sum(j.observed.get(key, 0) for j in traced)

    metrics = {name: total(spans, 1, scaled=True) / n for name, spans in SELF_TIME.items()}
    metrics.update({name: total([span], 0) / n for name, span in CALLS.items()})
    selects = total(["select.select_state"], 0)
    iterations = observed("iterations")
    traced_s = [j.seconds * j.scale for j in traced]
    untraced_s = [j.seconds * j.scale for j in jobs[1:] if not j.traced]
    metrics.update({
        "select.failed": total(["select.select_state"], 2) / n,
        "expm.work_n3": total([KERNEL], 3) / n,
        "placement.iterations": iterations / n,
        "placement.selects_per_iter": selects / iterations if iterations else 0.0,
        "placement.accepted_per_select": observed("accepted") / selects if iterations else 0.0,
        "placement.energy_gap_rel": observed("energy_gap_rel") / n,
        "io.bytes_out": sum(j.bytes_out for j in traced) / n,
        "trace.overhead": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
    })
    shares = {name: metrics[name] * n / sum(traced_s) for name in SELF_TIME}
    return {name: (value, n) for name, value in metrics.items()}, shares


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fluxcontrol" / "__init__.py").is_file():
        print(f"error: no fluxcontrol package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads(args.threads)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_only(args)
        return 0
    setup_times, setup_raw = measure_setup(args)

    import workloads
    from fluxcontrol import cli

    defs = json.loads((HERE / "metrics.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    os.chdir(work)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.prepare()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        jobs = run_loop(cli, wl, args.seconds, tracer)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, shares = per_layer(jobs, tracer)
        units = defs["per_layer"]
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics, shares = end_to_end(jobs, setup_times), {}
        units = defs["end_to_end"]
    failed = sum(j.error is not None for j in jobs)
    timed = jobs[1:]

    print(f"fluxcontrol benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s, closed loop, 1 client")
    print("env " + json.dumps(environment(args, threads), sort_keys=True))
    print(f"jobs: {len(jobs)} attempted (1 warm-up), {failed} failed, "
          f"error_rate {failed / len(jobs):.4g} ({failed}/{len(jobs)})")
    print("results sha256 of jobs 0-2: " + " ".join(j.digest or "-" for j in jobs[:3]))
    for name, (value, count) in metrics.items():
        share = f"  {100 * shares[name]:.1f}% of traced job time" if name in shares else ""
        print(f"  {name:<30} {value:.6g} {units[name]['unit']}  (n={count}){share}")
    if not args.trace:
        if len(timed) >= P90_MIN_JOBS:
            p90 = statistics.quantiles([j.seconds * j.scale for j in timed], n=10)[-1]
            print(f"  {'job_s_p90':<30} {p90:.6g} s  (n={len(timed)})")
        else:
            print(f"  job_s_p90 omitted: {len(timed)} jobs < {P90_MIN_JOBS}")
        print(f"unscaled: setup_s {statistics.median(setup_raw):.6g} s, job_s_p50 "
              f"{statistics.median(j.seconds for j in timed):.6g} s, median scale "
              f"{statistics.median(j.scale for j in timed):.4g}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

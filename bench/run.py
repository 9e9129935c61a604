"""Benchmark of the dops command line: one workload per invocation.

    python3 bench/run.py --workload ml-verify --seed 0 --seconds 40 --trace 0

A job is one ``dops verify`` or ``dops report`` invocation in a fresh
interpreter (``python -m dops.cli`` with ``src`` on PYTHONPATH), because that
is what a user waits for: fresh interpreters keep module-level state from
carrying over between jobs.  Jobs run one at a time in a closed loop until the
next one would end after ``--seconds``; every job's artifact is checked
exactly against expected.json.

With ``--trace 0`` the run times the jobs and, between them, the set-up
(import dops.cli and build the FamilySetup from the argv) in fresh
interpreters, and reports the end-to-end metrics.  With ``--trace 1`` it runs
one job at the workload's traced order under the span tracer (spans.py) and
then untraced jobs at that order, and reports the per-layer metrics plus the
tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results file with the machine, the seed and every sample goes to
.bench_out/.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# The host runs code either at full speed or about 1.6 times slower, in
# phases of a second or more, and the share of slow phases drifts over
# minutes (README.md).  So in a gap before every job, and after the last one,
# the run times two kinds of fresh interpreter of ~0.1 s each, until each
# kind has taken its share of the run so far: the set-up, and a fixed
# reference program that does not import dops (child.py reference).  Each
# job is scaled to the host speed at which the reference takes REFERENCE_S,
# by the mean reference time of the gaps before and after it; each set-up
# by that of its own gap.  A set-up sample falls in one phase, so set-up is
# a mean, which follows the share of slow phases where a median jumps
# between the two, with TRIM of the samples dropped at each end for stalls.
SETUP_SHARE = 0.1
REFERENCE_SHARE = 0.2
SAMPLE_REPEATS = 30
REFERENCE_S = 0.1
TRIM = 0.1
# A run always times at least this many untraced jobs, even where one job
# takes half the run.
MIN_JOBS = 2


def trimmed_mean(values) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.mean(values[k:len(values) - k])


class Job:
    """One finished child process: wall time from spawn to exit, CPU time and
    peak resident set from its rusage, and the output check's verdict."""

    def __init__(self, wall, cpu, rss_mb, returncode):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.failure = None


def spawn(argv, stderr_path) -> Job:
    env = workloads.job_env()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


class Bench:
    def __init__(self, workload, seed, order):
        self.workload = workload
        self.seed = seed
        self.order = order
        self.params = workload.params(seed)
        self.argv = workload.argv(self.params, order)
        self.expected = workloads.load_expected()
        self.work = os.path.join(OUT_DIR, "work")
        os.makedirs(self.work, exist_ok=True)
        self.artifact = os.path.join(self.work, "artifact.json")
        self.stderr = os.path.join(self.work, "job.stderr")
        self.failures = []

    def _checked(self, job: Job) -> Job:
        job.failure = workloads.check(self.expected, self.workload, self.params, self.order,
                                      job.returncode, self.artifact)
        if job.failure:
            self.failures.append(job.failure)
        if os.path.exists(self.artifact):
            os.unlink(self.artifact)
        return job

    def job(self) -> Job:
        argv = [sys.executable, "-m", "dops.cli", *self.argv, "--out", self.artifact]
        return self._checked(spawn(argv, self.stderr))

    def traced_job(self, dump_dir) -> Job:
        argv = [sys.executable, os.path.join(HERE, "child.py"), "trace", dump_dir,
                *self.argv, "--out", self.artifact]
        return self._checked(spawn(argv, self.stderr))

    def setup(self) -> Job:
        return self._child("setup", *self.argv)

    def reference(self) -> Job:
        return self._child("reference")

    def _child(self, mode, *argv) -> Job:
        job = spawn([sys.executable, os.path.join(HERE, "child.py"), mode, *argv], self.stderr)
        if job.returncode != 0:
            self.failures.append(f"{mode} exited with {job.returncode}")
        return job

    def jobs_until(self, deadline, jobs, between=None):
        """Closed loop: start the next job only if it should end by the
        deadline, judged by the median job so far; ``between`` runs before
        each job."""
        while True:
            if between:
                between()
            jobs.append(self.job())
            now = time.perf_counter()
            if now >= deadline:
                return jobs
            if len(jobs) >= MIN_JOBS and now + statistics.median(j.wall for j in jobs) > deadline:
                return jobs


def end_to_end(bench: Bench, seconds: float):
    start = time.perf_counter()
    deadline = start + seconds
    gaps = []  # (set-ups, references) before each job and after the last

    def gap():
        elapsed = time.perf_counter() - start
        setups, references = [], []
        kinds = ((bench.setup, SETUP_SHARE, setups), (bench.reference, REFERENCE_SHARE, references))
        for k, (run, share, taken) in enumerate(kinds):
            spent = sum(sample.wall for g in gaps for sample in g[k])
            while not taken or spent < share * elapsed:
                taken.append(run())
                spent += taken[-1].wall
        gaps.append((setups, references))

    jobs = bench.jobs_until(deadline, [], gap)
    gap()
    for k, run in enumerate((bench.setup, bench.reference)):
        while sum(len(g[k]) for g in gaps) < SAMPLE_REPEATS:
            gaps[-1][k].append(run())
    reference = [statistics.mean(r.wall for r in references) for _, references in gaps]
    jobs_scaled = [j.wall * 2 * REFERENCE_S / (reference[i] + reference[i + 1])
                   for i, j in enumerate(jobs)]
    setups_scaled = [s.wall * REFERENCE_S / reference[k]
                     for k, (setups, _) in enumerate(gaps) for s in setups]
    metrics = {
        "job_s": (statistics.median(jobs_scaled), "s"),
        "setup_s": (trimmed_mean(setups_scaled), "s"),
        "peak_rss_mb": (statistics.median(j.rss_mb for j in jobs), "MiB"),
    }
    samples = {"job_wall_s": [j.wall for j in jobs], "job_scaled_s": jobs_scaled,
               "job_cpu_s": [j.cpu for j in jobs],
               "setup_wall_s": [s.wall for setups, _ in gaps for s in setups],
               "reference_wall_s": [r.wall for _, references in gaps for r in references],
               "gap_sizes": [[len(setups), len(references)] for setups, references in gaps],
               "peak_rss_mb": [j.rss_mb for j in jobs]}
    print(f"  unscaled: job wall median = {statistics.median(samples['job_wall_s'])} s, "
          f"set-up wall mean = {trimmed_mean(samples['setup_wall_s'])} s, "
          f"host speed = {REFERENCE_S / statistics.mean(samples['reference_wall_s'])}")
    return jobs, metrics, samples


def per_layer(bench: Bench, seconds: float):
    deadline = time.perf_counter() + seconds
    dump_dir = os.path.join(bench.work, "trace")
    shutil.rmtree(dump_dir, ignore_errors=True)
    os.makedirs(dump_dir)
    traced = bench.traced_job(dump_dir)
    plain = bench.jobs_until(deadline, [])
    job_s = statistics.median(j.wall for j in plain)
    suite_ids = sorted({ident for w in bench.expected.values()
                        for entry in w.values() for ident, *_ in entry["reports"]})
    metrics = spans.summarize(dump_dir, suite_ids)
    metrics["process.cpu_s"] = (statistics.median(j.cpu for j in plain), "s")
    metrics["trace_overhead_ratio"] = (traced.wall / job_s, "ratio")
    samples = {"traced_job_s": traced.wall, "job_s": [j.wall for j in plain],
               "job_cpu_s": [j.cpu for j in plain]}
    return [traced, *plain], metrics, samples


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the dops CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dops", "cli.py")):
        print(f"error: no dops sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, workload.trace_order if args.trace else workload.order)
    run = per_layer if args.trace else end_to_end
    jobs, metrics, samples = run(bench, args.seconds)
    attempted, failed = len(jobs), sum(1 for j in jobs if j.failure)
    correct = not bench.failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {
        "workload": workload.name, "seed": args.seed, "order": bench.order,
        "params": dict(bench.params), "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "sample_counts": {k: len(v) if isinstance(v, list) else 1
                                                for k, v in samples.items()},
        "samples": samples, "failures": bench.failures,
        "fail_ratio": failed / attempted, **result,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    print(f"{workload.name} seed={args.seed} {workloads.params_key(bench.params)} "
          f"order={bench.order} jobs={attempted} fail_ratio={failed / attempted:.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

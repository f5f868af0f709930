#!/usr/bin/env python3
"""Benchmark of the tlkit command line, end to end and per module.

Usage:
    python3 perfbench/run.py --workload basis|compose|algebra --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client: the seeded job
list (``jobs.py``) runs one job at a time, and every job is a fresh
``tlkit`` process, so interpreter start-up and ``import tlkit`` count as
they do for users.  Every job's output is checked (``checks.py``).

The job list is scaled by ``max(1, round(S / NOMINAL_SECONDS[workload]))``,
so a run measures about S seconds at the seed commit and runs the same
jobs on every commit for a given S: a faster commit finishes sooner
instead of collecting more samples, and the percentiles stay comparable.

Times are reported at a reference host speed.  On a shared host one
CPU's speed switches between a fast and a slow state, about 1.5x apart,
every few seconds, and the mix drifts over minutes; no affordable run
length averages that out.  So the benchmark also times a fixed reference
process (``REF``: interpreter start-up, ``import numpy`` and a
pure-Python loop; it imports nothing of tlkit) before the first job and
after every job, and reports each job (and set-up sample) at
``REF_SECONDS / mean(the reference times just before and after it)``
times its measured time.  The reference slows with the host as the jobs
do, so the ratio cancels most of the drift, while a change to tlkit moves
the jobs and not the reference.  The measured figures and each job's
factor are in the record.

``--trace 0`` reports the end-to-end metrics, times at reference speed:

* ``setup_s``: median time of a fresh ``python -c "import tlkit"``, from
  spawn to exit, sampled at evenly spaced points of the run;
* ``wall_s``: time to finish the whole job list (sum of the job times);
* ``job_s.p50``, ``job_s.tail``: median job time, and the highest
  percentile with at least ten jobs beyond it (the record names which);
* ``peak_rss_mb``: largest max RSS of one job, read with ``os.wait4``;
* ``ok_ratio``: share of jobs with exit code 0 and a correct output, i.e.
  1 - failed_ratio.  A metric must not be 0, so the failed share is
  reported through its complement; ``failed_ratio`` is printed and
  recorded as well.

``--trace 1`` replays the same job list: each job runs untraced, then
through ``launcher.py``, which records per-module self times and counts.
The two stdouts (and output files) must be byte-identical.  It reports the
per-layer metrics summed over the jobs, and ``trace.overhead_ratio``,
traced over untraced job time.

The last stdout line is the JSON result.  The line before it is a record
(seed, kernel backend, Python version, nproc, git SHA, sample counts, job
times per class), also written to ``.perfbench/results/``; ``compare.py``
compares such records.
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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Typical measured seconds the job list of each workload (scale 1) takes
#: at the seed commit with the pure-Python kernels, on a shared 2-vCPU
#: x86-64 host; the host's load moved them by up to 1.6x either way.
NOMINAL_SECONDS = {"basis": 24, "compose": 24, "algebra": 24}
SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 120
#: Start no new job after this many seconds, so a run ends within 180 s.
RUN_BUDGET_S = 140

CLI = ("-c", "import sys; from tlkit.cli import main; sys.exit(main())")
IMPORT = ("-c", "import tlkit")
#: The reference process: start-up and import cost like a job's, then
#: tuple, dict and sort work like the pure-Python kernels'.
REF = (
    "-c",
    "import numpy\n"
    "d = {}\n"
    "for i in range(10000):\n"
    "    t = (i % 97, i % 89, i & 255)\n"
    "    d[t] = d.get(t, 0) + len(t)\n"
    "assert len(sorted(d.items())) == 10000\n",
)
#: Seconds the reference takes at the reference host speed: about its
#: median on a shared 2-vCPU x86-64 host, where run medians ranged from
#: 0.15 to 0.27 s with the host's load.
REF_SECONDS = 0.2


@dataclass
class Result:
    seconds: float
    code: int
    rss_mb: float
    stdout: Path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TLKIT_MAX_DIM", None)
    return env


def spawn(args, cwd: Path, stdout: Path, env) -> Result:
    """Run one child to completion; time it from spawn to exit."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(seconds, proc.returncode, usage.ru_maxrss / 1024, stdout)


def prepare(plan, cwd: Path) -> None:
    cwd.mkdir(parents=True)
    for job in plan:
        for name, text in job.files:
            (cwd / name).write_text(text, encoding="utf-8")


def grade(plan, results: list[Result], cwd: Path) -> list[list[str]]:
    """Problems per job: a nonzero exit code or a failed output check."""
    problems = checks.check_all(plan, [r.stdout for r in results], cwd)
    for k, r in enumerate(results):
        if r.code != 0:
            problems[k].insert(0, f"exit code {r.code}")
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(env) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import tlkit; print(tlkit.kernel_backend())"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=JOB_TIMEOUT_S,
    )
    return {
        "kernel_backend": probe.stdout.strip(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def scale(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_SECONDS[workload]))


def reference(work: Path, env) -> float:
    """Seconds one run of the reference process takes."""
    ref = spawn(REF, work, work / "ref.out", env)
    if ref.code != 0:
        raise SystemExit(f"error: the reference process exited with {ref.code}")
    return ref.seconds


def failures(plan, problems: list[list[str]]) -> list[dict]:
    """The first few failed jobs, for the record."""
    failed = [{"class": job.cls, "argv": job.argv, "problems": p[:3]} for job, p in zip(plan, problems) if p]
    return failed[:10]


def class_medians(plan, results: list[Result]) -> dict[str, list]:
    """[count, median seconds] per job class, for reading a run's record."""
    by_class: dict[str, list[float]] = {}
    for job, result in zip(plan, results):
        by_class.setdefault(job.cls, []).append(result.seconds)
    return {cls: [len(ts), statistics.median(ts)] for cls, ts in sorted(by_class.items())}


def warm_up(workload: str, work: Path, env, *prefixes) -> None:
    """Run the workload's untimed warm-up job once per command prefix."""
    warm = work / "warmup"
    warm.mkdir()
    for k, prefix in enumerate(prefixes):
        spawn((*prefix, *jobs.WARMUP[workload]), warm, warm / f"warmup{k}.out", env)


def measure(workload: str, seed: int, seconds: int, work: Path, env) -> tuple[dict, dict, int, int]:
    plan = jobs.plan(workload, seed, scale(workload, seconds))
    planned = len(plan)
    warm_up(workload, work, env, CLI)

    cwd = work / "run"
    prepare(plan, cwd)
    # Set-up samples are spread over the run, so that a slow phase of the
    # host does not land on all of them.
    setup_before = {k * len(plan) // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    refs, setup, results = [reference(work, env)], [], []
    started = time.perf_counter()
    for k, job in enumerate(plan):
        if time.perf_counter() - started > RUN_BUDGET_S:
            break
        if k in setup_before:
            setup.append((k, spawn(IMPORT, work, work / "import.out", env).seconds))
        results.append(spawn((*CLI, *job.argv), cwd, cwd / f"job{k}.out", env))
        refs.append(reference(work, env))
    plan = plan[: len(results)]
    problems = grade(plan, results, cwd)

    # Job k ran between reference samples k and k + 1, and so did the
    # set-up sample taken before it.
    factors = [2 * REF_SECONDS / (refs[k] + refs[k + 1]) for k in range(len(results))]
    times = [r.seconds * f for r, f in zip(results, factors)]
    setup_times = [seconds * factors[k] for k, seconds in setup]
    attempted, failed = len(results), sum(1 for p in problems if p)
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup)),
        "wall_s": (sum(times), attempted),
        "job_s.p50": (statistics.median(times), attempted),
        "job_s.tail": (tail_value, attempted),
        "peak_rss_mb": (max(r.rss_mb for r in results), attempted),
        "ok_ratio": (1 - failed / attempted, attempted),
    }
    raw = [r.seconds for r in results]
    extra = {
        "measured_s": {
            "setup_s": statistics.median(seconds for _, seconds in setup),
            "wall_s": sum(raw),
            "job_s.p50": statistics.median(raw),
            "job_s.tail": tail(raw)[0],
        },
        "reference_s": {"median": statistics.median(refs), "samples": len(refs)},
        "jobs": [[job.cls, r.seconds, f] for job, r, f in zip(plan, results, factors)],
        "jobs_planned": planned,
        "tail_percentile": tail_pct,
        "failed_ratio": failed / attempted,
        "classes": class_medians(plan, results),
        "failures": failures(plan, problems),
    }
    return metrics, extra, attempted, failed


def trace(workload: str, seed: int, seconds: int, work: Path, env, names) -> tuple[dict, dict, int, int]:
    """Replay the job list untraced and traced, job by job, in two
    directories so that each twin sees the same cache state."""
    plan = jobs.plan(workload, seed, scale(workload, seconds))
    launcher = str(HERE / "launcher.py")
    warm_up(workload, work, env, CLI, (launcher, str(work / "warmup.json")))

    plain, traced = work / "plain", work / "traced"
    prepare(plan, plain)
    prepare(plan, traced)
    plain_results, traced_results = [], []
    for k, job in enumerate(plan):
        plain_results.append(spawn((*CLI, *job.argv), plain, plain / f"job{k}.out", env))
        traced_results.append(spawn((launcher, str(traced / f"job{k}.json"), *job.argv), traced, traced / f"job{k}.out", env))

    problems = grade(plan, traced_results, traced)
    for k, job in enumerate(plan):
        twins = [(plain_results[k].stdout, traced_results[k].stdout)]
        if job.check == "basis_file":
            twins.append((plain / job.arg[2], traced / job.arg[2]))
        if any(not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes() for a, b in twins):
            problems[k].append("traced output differs from the untraced run")

    # Keep the per-job traces (spans included) next to the run records.
    kept = OUT / "traces" / f"{workload}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    kept.mkdir(parents=True)
    totals: dict[str, float] = {}
    for k in range(len(plan)):
        path = traced / f"job{k}.json"
        if not path.is_file():
            problems[k].append("the launcher wrote no trace")
            continue
        shutil.copy(path, kept)
        for name, value in json.loads(path.read_text())["metrics"].items():
            totals[name] = totals.get(name, 0) + value
    totals["trace.overhead_ratio"] = sum(r.seconds for r in traced_results) / sum(r.seconds for r in plain_results)
    missing = [name for name in names if name not in totals]
    if missing:
        raise SystemExit(f"error: the launcher reports no {missing}")
    n = len(plan)
    metrics = {name: (totals[name], n) for name in names}
    failed = sum(1 for p in problems if p)
    return metrics, {"traces": str(kept.relative_to(ROOT)), "failures": failures(plan, problems)}, n, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tlkit" / "cli.py").is_file():
        print(f"error: no tlkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = environment(env)
        if args.trace:
            metrics, extra, attempted, failed = trace(args.workload, args.seed, args.seconds, work, env, units)
        else:
            metrics, extra, attempted, failed = measure(args.workload, args.seed, args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json names {sorted(units)}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **info,
        **extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name], "samples": n} for name, (v, n) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if not args.trace:
        for metric, (value, n) in metrics.items():
            print(f"{metric} = {value:.6g} {units[metric]} (n={n})")
        print(f"failed_ratio = {extra['failed_ratio']:.6g} 1 (n={attempted})")
        print(f"job_s.tail is p{extra['tail_percentile']:.1f} of {attempted} jobs")
        ref = extra["reference_s"]
        print(f"times above are at reference speed; measured: {extra['measured_s']}, reference median"
              f" {ref['median']:.4f} s over {ref['samples']} samples")
    print("record " + json.dumps(record))
    result_metrics = {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

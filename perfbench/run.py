#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the stocomb command line.

Run from the repository root:

    python3 perfbench/run.py --workload saa --seed 1 --seconds 25 --trace 0

Workloads (defined in ``workloads.py``): ``saa``, ``two_stage``, ``gap`` and
``validate``.  One process per run drives the README commands in-process
through ``stocomb.cli.main``, one job at a time, as a closed loop: the next
job starts when the previous one returns.  The loop repeats whole rounds
(every instance once), as many as end closest to ``--seconds``.  Every job's report
is checked against the paper's guarantees (``checks.py``).

Set-up (interpreter start, import, instance generation from ``--seed`` and
the dumps) runs ``SETUP_PROBES`` times, each in a fresh interpreter; the
jobs read the files the last one wrote.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the workload's round twice, untraced and then traced
(``tracing.py``), requires byte-identical reports from both passes, and
reports the per-layer metrics plus ``trace.overhead_frac``.

Times are scaled to a nominal host speed measured in the same run
(``speed.py``); the raw figures are printed and recorded beside them.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines above it print every metric with its unit,
the metrics that not every workload defines (``job_s_p90``,
``failed_frac``, ``quality_ratio``) with their sample counts, and the
environment.  A JSON record of the run, with the spans of a traced run and
its simplex tableau-shape histogram, goes to ``.perfbench_out/``.

The run is refused (exit 2, no result) when ``STOCOMB_NUMBA`` or any
``STOCOMB_CAP_*`` variable is set, since those change the workload, or when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_job, quality
from speed import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 3
SETUP_GAUGE_SAMPLES = 3  # speed samples before each probe and after the last
SETUP_TIMEOUT_S = 120
P90_MIN_JOBS = 100  # a p90 needs at least ten samples beyond it


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard_environment():
    changed = sorted(k for k in os.environ
                     if k.startswith("STOCOMB_CAP_") or k == "STOCOMB_NUMBA")
    if changed:
        refuse(f"refusing to run with {', '.join(changed)} set: "
               "these change the workload")


def import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "stocomb" / "__init__.py").is_file():
        refuse(f"no stocomb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stocomb

    if Path(stocomb.__file__).resolve().parent != (SRC / "stocomb").resolve():
        refuse(f"stocomb imported from {stocomb.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    from stocomb import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "HAVE_JIT": bool(_kernels.HAVE_JIT), "nproc": os.cpu_count(),
            "cpu": cpu}


# -- set-up ------------------------------------------------------------------


def set_up(workload: str, seed: int, workdir: Path, gauge):
    """Run the set-up in fresh interpreters; return (plan, seconds each)."""
    seconds = []
    for k in range(SETUP_PROBES):
        target = workdir / f"setup{k}"
        target.mkdir()
        for _ in range(SETUP_GAUGE_SAMPLES):
            gauge.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(target)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            refuse(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    for _ in range(SETUP_GAUGE_SAMPLES):
        gauge.sample()
    plan = json.loads((target / "plan.json").read_text(encoding="utf-8"))
    return plan, seconds


# -- jobs --------------------------------------------------------------------


@dataclass
class Job:
    argv: list
    seconds: float
    code: int
    data: bytes | None
    error: str | None = None


def run_job(main, argv: list, output: Path) -> Job:
    """One CLI call; its wall time, exit code and report bytes."""
    stderr = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv + ["--output", str(output)])
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback escaping the CLI fails the job
        code, error = -1, repr(exc)
    seconds = time.perf_counter() - start
    data = None
    if output.exists():
        data = output.read_bytes()
        output.unlink()
    if code != 0 and error is None:
        error = stderr.getvalue().strip()
    return Job(argv, seconds, code, data, error)


def judge(workload: str, jobs: list) -> list:
    """Check every job; return the failures as (job index, reason)."""
    failures = []
    for i, job in enumerate(jobs):
        try:
            report = json.loads(job.data) if job.data is not None else None
        except ValueError as exc:
            failures.append((i, f"report is not JSON: {exc}"))
            continue
        reason = check_job(workload, job.code, report)
        if reason is not None:
            failures.append((i, job.error or reason))
    return failures


def closed_loop(main, round_: list, seconds: float, workdir: Path, gauge):
    """Whole rounds, back to back, for the whole number of rounds that
    ends closest to ``seconds`` (at least one).

    Returns the jobs, the loop's wall time less the gauge's samples, and
    the number of rounds."""
    jobs = []
    gauge.sample()
    sampled = gauge.spent()
    start = time.perf_counter()
    r = 0
    while True:
        for argv in round_:
            jobs.append(run_job(main, argv, workdir / f"job{len(jobs)}.json"))
            gauge.tick()
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 >= seconds:
            break
    wall = time.perf_counter() - start - (gauge.spent() - sampled)
    gauge.sample()
    return jobs, wall, r


# -- metrics -----------------------------------------------------------------


def untraced_run(workload, plan, seconds, setup_seconds, setup_scale,
                 workdir, record):
    from stocomb import cli

    gauge = Gauge()
    jobs, wall, rounds = closed_loop(cli.main, plan["round"], seconds, workdir,
                                     gauge)
    failures = judge(workload, jobs)
    scale = gauge.scale()
    times = [job.seconds * scale for job in jobs]
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "jobs_per_s": (len(jobs) / (wall * scale), "1/s"),
        "setup_s": (statistics.median(setup_seconds) * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    failed = {i for i, _ in failures}
    ratios = [quality(workload, json.loads(job.data))
              for i, job in enumerate(jobs) if i not in failed]
    ratios = [q for q in ratios if q is not None]
    extra = {"failed_frac": (len(failures) / len(jobs), "ratio", len(jobs))}
    if len(jobs) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        extra["job_s_p90"] = (p90, "s", len(jobs))
    if ratios:
        extra["quality_ratio"] = (statistics.fmean(ratios), "ratio", len(ratios))
    raw = {"job_s_p50": statistics.median(job.seconds for job in jobs),
           "jobs_per_s": len(jobs) / wall,
           "setup_s": statistics.median(setup_seconds)}
    record.update(rounds=rounds, wall_s=wall, setup_s=setup_seconds,
                  scale=scale, setup_scale=setup_scale, raw=raw,
                  extra={k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in extra.items()})
    lines = [f"  {'job_s_p90':<26} n/a: {len(jobs)} jobs, fewer than {P90_MIN_JOBS}"
             ] if "job_s_p90" not in extra else []
    lines += [f"  {name:<26} {value:.6g} {unit}  (n={n})"
              for name, (value, unit, n) in extra.items()]
    if workload == "gap":
        lines.append(f"  {'quality_ratio':<26} n/a: kappa is a property of the instance")
    lines += [f"  {'raw ' + name:<26} {value:.6g}  (speed scale {scale:.4f}, "
              f"set-up {setup_scale:.4f})" for name, value in raw.items()]
    return jobs, failures, metrics, lines


def traced_run(workload, plan, workdir, record):
    from stocomb import cli
    from tracing import Tracer

    argvs = plan["round"][:plan["traced_jobs"]]
    plain_gauge, traced_gauge = Gauge(), Gauge()
    plain = []
    plain_gauge.sample()
    for i, argv in enumerate(argvs):
        plain.append(run_job(cli.main, argv, workdir / f"plain{i}.json"))
        plain_gauge.tick()
    plain_gauge.sample()
    tracer = Tracer()
    tracer.install()
    try:
        main = tracer.wrap("cli.main", cli.main)
        traced = []
        traced_gauge.sample()
        for i, argv in enumerate(argvs):
            tracer.start_job(i)
            traced.append(run_job(main, argv, workdir / f"traced{i}.json"))
            tracer.end_job()
            traced_gauge.tick()
        traced_gauge.sample()
    finally:
        tracer.uninstall()
    failures = judge(workload, plain) + [
        (len(plain) + i, reason) for i, reason in judge(workload, traced)]
    changed = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.data != b.data]
    failures += [(len(plain) + i, "traced report differs from the untraced one")
                 for i in changed]
    plain_s = sum(job.seconds for job in plain) * plain_gauge.scale()
    scale = traced_gauge.scale()
    traced_s = sum(job.seconds for job in traced) * scale
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    metrics["trace.jobs"] = (len(traced), "count")
    record.update(untraced_job_s=[job.seconds for job in plain], scale=scale,
                  reports_identical=not changed, trace=tracer.dump())
    return plain + traced, failures, metrics, []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("saa", "two_stage", "gap", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        refuse("--seed must be non-negative")
    guard_environment()
    import_program()

    if args.setup_probe is not None:
        from workloads import write_plan

        write_plan(args.workload, args.seed, ROOT, args.setup_probe)
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_gauge = Gauge()
        plan, setup_seconds = set_up(args.workload, args.seed, workdir,
                                     setup_gauge)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment()}
        if args.trace:
            jobs, failures, metrics, lines = traced_run(
                args.workload, plan, workdir, record)
        else:
            jobs, failures, metrics, lines = untraced_run(
                args.workload, plan, args.seconds, setup_seconds,
                setup_gauge.scale(), workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["jobs"] = [{"argv": [Path(a).name if "/" in a else a for a in job.argv],
                       "seconds": job.seconds, "code": job.code}
                      for job in jobs]
    record["failures"] = [{"job": i, "reason": reason} for i, reason in failures]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs, {len(failures)} failed; record in {out.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    for line in lines:
        print(line)
    for i, reason in failures[:10]:
        print(f"  FAILED job {i}: {' '.join(jobs[i].argv[:1])}: {reason}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len({i for i, _ in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

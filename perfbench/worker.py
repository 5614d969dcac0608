"""One workload in one fresh process: set up, time jobs in a closed loop, check.

Started by ``run.py``; not meant to be run by hand. The loop has one client
and no concurrency: each job is a call of ``thermosci.cli.main(argv)`` that
starts when the previous one has returned. Jobs run in whole passes over the
workload's job list for about ``--seconds``.

Writes one JSON object to ``--result``. With ``--probe`` it only sets up,
so the caller can sample set-up time in several processes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import spans
from workloads import README_ENV, Job, build, command_seconds, job_medians

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def import_program(root: str):
    """Import ``thermosci.cli`` from the checkout's ``src``, not from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from thermosci import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "thermosci")):
        raise ImportError(f"thermosci imported from {cli.__file__}, not from {src}")
    return cli


def run_job(cli, job) -> tuple[float, object, str]:
    """Time one call of the CLI entry point; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed job, not the end of the run
            rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    return seconds, rc, out.getvalue()


def warm_up(cli, workdir: str) -> None:
    """First calls of every command on tiny inputs, so lazy set-up is not timed."""
    d = os.path.join(workdir, "warmup")
    os.makedirs(d, exist_ok=True)
    env = os.path.join(d, "env.json")
    with open(env, "w") as fh:
        json.dump(README_ENV, fh)
    csv = os.path.join(d, "grid.csv")
    jobs = [
        ["simulate", "--env", env, "--budget", "5", "--max-rounds", "2",
         "--out", os.path.join(d, "e.json")],
        ["simulate", "--env", env, "--budget", "5", "--max-rounds", "2",
         "--mode", "sampled:20", "--out", os.path.join(d, "s.json")],
        ["sweep", "--panel", "D", "--omega-steps", "8", "--n-steps", "4", "--out", csv,
         "--svg", os.path.join(d, "grid.svg")],
        ["contour", "--grid", csv, "--out", os.path.join(d, "c.json")],
    ]
    for argv in jobs:
        _, rc, _ = run_job(cli, Job("warm-up", argv))
        if rc != 0:
            raise RuntimeError(f"warm-up job {argv[0]} exited {rc!r}")


class Tally:
    """Jobs attempted, and the reason for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{name}: {why}")


def calibrate(reps: int = 5) -> float:
    """Seconds of a fixed loop of interpreter and small-array work (median of reps).

    Timed beside every job. On a shared host the machine's speed drifts by up
    to about 1.8x for seconds at a time, and both wall and CPU time follow it; a
    job's time over the loop's time beside it cancels most of that drift.
    """
    a = np.linspace(0.1, 1.0, 8)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(1500):
            acc += float((a * (1.0 + i * 1e-6)).sum())
            table[i & 63] = (i, acc)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_checked(cli, job, cal: float, golden: dict, tally: Tally):
    """Run and check one job; returns (seconds, calibrated time, stdout, next calibration)."""
    gc.collect()
    dt, rc, stdout = run_job(cli, job)
    cal_after = calibrate()
    try:
        why = checks.check_job(job, rc, golden)
    except (OSError, ValueError, KeyError) as exc:
        why = f"output unreadable: {exc!r}"
    tally.record(job.name, why)
    return dt, dt / ((cal + cal_after) / 2.0), stdout, cal_after


def run_passes(cli, jobs, seconds: float, golden: dict, tally: Tally,
               tracer=None) -> list[dict]:
    """Whole passes over ``jobs`` for about ``seconds``.

    The first pass always runs; each further one only when, by the mean pass
    so far, less than half of it would run past ``seconds``.

    Returns one record per pass: each job's wall time and that time in units
    of the calibration loop timed before and after the job. With a tracer,
    each job runs again right after, traced, and the record adds those
    calibrated times, the spans and the pass's layer metrics.
    """
    passes = []
    t_start = time.perf_counter()
    cal = calibrate()
    while True:
        elapsed = time.perf_counter() - t_start
        if passes and elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes
        times, cals, stdouts, traced_cals = {}, {}, {}, {}
        if tracer is not None:
            tracer.spans.clear()
            tracer.orphan_leaves.clear()
        for job in jobs:
            times[job.name], cals[job.name], stdouts[job.name], cal = _run_checked(
                cli, job, cal, golden, tally)
            if tracer is not None:
                tracer.trace_id = f"pass{len(passes)}/{job.name}"
                with tracer.installed():
                    _, traced_cals[job.name], _, cal = _run_checked(
                        cli, job, cal, golden, tally)
        record = {"times": times, "cals": cals, "stdout": stdouts}
        if tracer is not None:
            record["traced_cals"] = traced_cals
            record["layers"] = spans.layer_metrics(tracer.spans, tracer.orphan_leaves)
            record["spans"] = list(tracer.spans)
        passes.append(record)


def post_checks(cli, jobs, last_pass: dict, workdir: str, tally: Tally) -> None:
    """Checks too slow for every pass, run once after timing."""
    from thermosci.toy_model import read_grid_csv

    for job in jobs:
        if job.name == "sweep-big":
            try:
                why = checks.check_big_csv(job, read_grid_csv)
            except (OSError, ValueError) as exc:
                why = f"grid CSV unreadable: {exc!r}"
            tally.record("read-back " + job.name, why)
        if job.command == "simulate" and job.spec["mode"].startswith("sampled"):
            tally.record("accuracy " + job.name, _sampled_vs_expected(
                cli, job, last_pass["stdout"][job.name], workdir))


def _episode(cli, argv):
    """Run one CLI job under a tracer; returns (exit code, run_episode span attrs)."""
    tracer = spans.Tracer()
    with tracer.installed():
        _, rc, _ = run_job(cli, Job("capture", argv))
    episodes = [s["attrs"] for s in tracer.spans if s["name"] == "cycle_sim.run_episode"]
    return rc, (episodes[0] if episodes else None)


def _sampled_vs_expected(cli, job, timed_stdout: str, workdir: str) -> str | None:
    """Re-run a sampled job for its standard error and compare with expected mode."""
    rc, sampled = _episode(cli, job.argv)
    if rc != 0 or sampled is None:
        return f"sampled re-run exited {rc!r}"
    if f"cumulative_info={sampled['cum_info']:.9g} " not in timed_stdout:
        return "sampled re-run differs from the timed run with the same seed"
    argv = list(job.argv)
    argv[argv.index("--mode") + 1] = "expected"
    argv[argv.index("--out") + 1] = os.path.join(workdir, f"{job.name}.expected.json")
    rc, expected = _episode(cli, argv)
    if rc != 0 or expected is None:
        return f"expected-mode run exited {rc!r}"
    return checks.sampled_accuracy(sampled["cum_info"], sampled["se"], expected["cum_info"])


def measure(cli, jobs, seconds: float, golden: dict, tally: Tally) -> tuple[dict, list]:
    """Untraced passes for ``seconds``: the per-pass job times the caller pools."""
    passes = run_passes(cli, jobs, seconds, golden, tally)
    out = {"times": [p["times"] for p in passes], "cals": [p["cals"] for p in passes],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return out, passes


def measure_traced(cli, jobs, seconds: float, golden: dict, tally: Tally,
                   trace_file: str) -> tuple[dict, list]:
    """Passes in which every job runs untraced and then traced, back to back.

    Pairing each job's two runs in time keeps the machine's drift out of
    ``trace.overhead_pct``.
    """
    passes = run_passes(cli, jobs, seconds, golden, tally, spans.Tracer())
    plain_cal = sum(job_medians([p["cals"] for p in passes]).values())
    traced_cal = sum(job_medians([p["traced_cals"] for p in passes]).values())
    layers = spans.median_metrics([p["layers"] for p in passes])
    layers.update(command_seconds({job.name: job.command for job in jobs},
                                  job_medians([p["times"] for p in passes])))
    layers["trace.overhead_pct"] = (traced_cal / plain_cal - 1.0) * 100.0
    spans.write_jsonl(trace_file, [rec for p in passes for rec in p["spans"]])
    return {"layers": layers, "times": [p["times"] for p in passes]}, passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-file", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started us")
    p.add_argument("--probe", action="store_true", help="set up, report, exit")
    p.add_argument("--post-checks", action="store_true",
                   help="after timing, also run the slow once-per-run checks")
    args = p.parse_args(argv)

    cli = import_program(os.getcwd())
    jobs = build(args.workload, args.seed, args.workdir)
    warm_up(cli, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned_at, "numpy": np.__version__}
    if not args.probe:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        tally = Tally()
        if args.trace:
            numbers, passes = measure_traced(cli, jobs, args.seconds, golden, tally,
                                             args.trace_file)
        else:
            numbers, passes = measure(cli, jobs, args.seconds, golden, tally)
        result.update(numbers)
        if args.post_checks:
            post_checks(cli, jobs, passes[-1], args.workdir, tally)
        result["commands"] = {job.name: job.command for job in jobs}
        result["attempted"] = tally.attempted
        result["failures"] = tally.failures
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

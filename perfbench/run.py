"""Benchmark of the thermosci CLI: one workload, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sampled-trials --seed 1 --seconds 15 --trace 0

Starts fresh worker processes (``worker.py``): a few that only set up, to
sample set-up time, then one that runs the workload's jobs in a closed loop
and checks their outputs. Prints a readable summary, a provenance line and,
last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``). Exits non-zero, printing no
result, when the workload cannot run at all.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, command_seconds, job_medians  # noqa: E402

#: untraced runs split their time over this many fresh worker processes and
#: pool their passes: a process's speed differs from the next one's by more
#: than the passes within one process differ
WORKERS = 3
#: processes that only set up; with the workers' own set-up they give the
#: median reported as setup_s
SETUP_PROBES = 2
#: the whole run, set-up probes and checks included, must end within this
DEADLINE_S = 170.0
RUN_DIR = ".perfbench_run"
THREAD_VARS = ("THERMOSCI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The workload could not be run; no result is printed."""


def _git(*args) -> str | None:
    # only when the checkout itself is a repository: never search parent dirs
    if not os.path.isdir(".git"):
        return None
    try:
        done = subprocess.run(["git", *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, numpy_version: str) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload_seed": seed,
    }


def _spawn(args, deadline: float, workdir: str, result: str, trace_file: str,
           seconds: float, flags: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result, "--trace-file", trace_file, *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    shutil.rmtree(workdir, ignore_errors=True)
    # the worker measures its set-up from this instant
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("worker ran past the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}")
    with open(result) as fh:
        return json.load(fh)


def run(args) -> dict:
    """Set-up probes, then the measuring workers; returns their pooled result."""
    if not os.path.isfile(os.path.join("src", "thermosci", "cli.py")):
        raise BenchError("run from the root of a thermosci checkout (no src/thermosci)")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUN_DIR, f"work-{tag}-{os.getpid()}")
    outdir = os.path.join(RUN_DIR, "out")
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(outdir, f"{tag}.trace.jsonl")
    workers = 1 if args.trace else WORKERS
    results = []
    try:
        setups = [_spawn(args, deadline, workdir, os.path.join(outdir, f"{tag}.probe.json"),
                         trace_path, 0.0, ["--probe"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        for k in range(workers):
            # the slow once-per-run checks go with the last worker
            flags = ["--post-checks"] if k == workers - 1 else []
            results.append(_spawn(args, deadline, workdir,
                                  os.path.join(outdir, f"{tag}.worker{k}.json"),
                                  trace_path, args.seconds / workers, flags))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += [r["setup_s"] for r in results]
    times = [p for r in results for p in r["times"]]
    commands = results[-1]["commands"]
    pooled = {
        "setup_s": statistics.median(setups),
        "numpy": results[-1]["numpy"],
        "passes": len(times),
        "attempted": sum(r["attempted"] for r in results),
        "failures": [why for r in results for why in r["failures"]],
        "pass_s": sum(job_medians(times).values()),
        **command_seconds(commands, job_medians(times)),
    }
    if args.trace:
        pooled["layers"] = results[-1]["layers"]
    else:
        pooled["pass_cal"] = sum(job_medians([p for r in results for p in r["cals"]]).values())
        pooled["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    return pooled


def _summary(args, result: dict) -> list[str]:
    attempted, failed = result["attempted"], len(result["failures"])
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} untraced_passes={result['passes']}",
             f"setup_s={result['setup_s']:.4f} s  pass_s={result['pass_s']:.4f} s",
             "  ".join(f"{c}_s={result[f'{c}_s']:.4f} s"
                       for c in ("simulate", "sweep", "contour", "verify")
                       if result[f"{c}_s"] > 0.0)]
    if not args.trace:
        lines.append(f"pass_cal={result['pass_cal']:.2f} cal  "
                     f"peak_rss_mb={result['peak_rss_mb']:.1f} MB")
    lines.append(f"error_rate={failed / attempted:.4g} ({failed} of {attempted} jobs failed)")
    lines += [f"FAILED {why}" for why in result["failures"][:10]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark one thermosci workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {name: result[name] for name in ("setup_s", "pass_cal", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json names "
              f"{sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 2
    failed = len(result["failures"])
    for line in _summary(args, result):
        print(line)
    print(json.dumps({"provenance": provenance(args.seed, result["numpy"])}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

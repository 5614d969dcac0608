"""Alternating parent/change benchmark pairs, written as one ``BENCH_<pr>.json``.

Run from the directory that should receive the file, with two checkouts of
the repository, for example made with ``git worktree add --detach DIR SHA``:

    python3 tools/bench_pairs.py --parent ../parent --change ../change --pr N \\
        --note "what the change does"

Both checkouts must hold the same ``BENCHMARK.json``; its workloads and
``run_seconds`` set what runs. ``--workload NAME``, repeatable, keeps only the
named workloads, in the file's order. For each workload and each pair it runs
``perfbench/run.py`` once in each checkout, one after the other: the parent
before the change in odd pairs, after it in even ones. Each run's value of a
metric is the last stdout line's JSON. The file gives, per workload and
end-to-end metric, each side's runs in pair order, median and quartiles
(inclusive method), the pairs in which the change read lower, the change's
median over the parent's, and the median of the per-pair change/parent
ratios with a bootstrap 95% interval over the pairs, and a verdict (see
``verdict``) from the metric's ``better`` and ``bound``; per workload, the side
that ran first in each pair and the jobs attempted and failed on each side;
and the machine, from the first run's provenance line. Keeping the pair order lets a file be re-paired later. Each side's sha is its
checkout's ``HEAD``, read only when the directory is the top of a git working
tree: a plain copy, such as a ``git archive`` export, gets null rather than
the commit of a repository it happens to sit in. Both checkouts must be of
one kind, both git working trees or both plain copies: the kind alone can
shift an episode workload by several percent, so a mixed pair is refused. The
file is rewritten after every pair, so an interrupted set keeps the pairs it
finished.

``--control DIR`` adds an A/A control: a second checkout of the parent, of the
same kind and at a path of the same length. It runs beside the parent in every
pair, first in odd pairs and last in even ones (odd pairs run control, parent,
change; even pairs change, parent, control). Per metric, the file then
also gives the control's spread and the median of the per-pair control/parent
ratios with its bootstrap interval: how far two runs of the same code read
apart on this machine.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
#: the order of a pair's runs, odd pairs then even ones; a side not given is skipped
PAIR_ORDERS = (("control", "parent", "change"), ("change", "parent", "control"))
#: the provenance fields that describe the run, not the machine
RUN_FIELDS = ("git_sha", "git_dirty", "workload_seed")
#: resamples of the pairs behind each change_over_parent_pair_ci95
BOOTSTRAP_RESAMPLES = 2000


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``checkout``: its result and provenance lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def _git(checkout: str, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def checkout_sha(checkout: str) -> str | None:
    """``HEAD`` of ``checkout`` if it is the top of a git working tree, else None."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(checkout):
        return None
    return _git(checkout, "rev-parse", "HEAD")


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": [round(v, 4) for v in runs]}


def pair_ratio_ci95(ratios: list[float]) -> list[float]:
    """2.5th and 97.5th percentiles of the median of ``ratios`` over resampled pairs.

    Each resample draws ``len(ratios)`` pairs with replacement from a
    ``random.Random(0)``, so summarising the same pairs again gives the same
    interval.
    """
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")  # every 2.5%
    return [round(cuts[0], 4), round(cuts[-1], 4)]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``no worse`` for one metric's runs.

    In that order of precedence: ``gain`` when the change reads better in at least
    9/10 of the pairs (a tie counts for neither side) and its median is better than
    the parent's by more than the parent's IQR; ``regression`` when its median is
    worse by more than ``bound`` times the parent's median; ``unresolved`` when the
    larger of the two sides' IQRs exceeds ``bound`` times the parent's median and not
    every change run reads better than every parent run; else ``no worse``.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = (
        statistics.quantiles(runs, n=4, method="inclusive") for runs in (parent, change))
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "gain"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regression"
    every_run_better = (max(change) < min(parent) if better == "lower"
                        else min(change) > max(parent))
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    return "no worse"


def summarise(results: dict, end_to_end: list[dict]) -> dict:
    """Per-metric spread of each side, pair wins, the ratio of medians, the median ratio
    and its bootstrap interval, and for each metric of ``end_to_end`` (BENCHMARK.json's
    list) its verdict; with a ``control`` side, its ratio to the parent too."""
    sides = list(results)
    specs = {m["name"]: m for m in end_to_end}
    metrics = {}
    for name in results["parent"][0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        entry = {side: spread(runs[side]) for side in sides}
        entry["change_lower_in_pairs"] = sum(c < p for p, c in zip(runs["parent"],
                                                                     runs["change"]))
        entry["change_over_parent_median"] = round(
            entry["change"]["median"] / entry["parent"]["median"], 4)
        ratios = [c / p for p, c in zip(runs["parent"], runs["change"])]
        entry["change_over_parent_pair_median"] = round(statistics.median(ratios), 4)
        entry["change_over_parent_pair_ci95"] = pair_ratio_ci95(ratios)
        if name in specs:
            entry["verdict"] = verdict(runs["parent"], runs["change"], specs[name]["better"],
                                       specs[name]["bound"])
        if "control" in runs:
            ratios = [c / p for p, c in zip(runs["parent"], runs["control"])]
            entry["control_over_parent_pair_median"] = round(statistics.median(ratios), 4)
            entry["control_over_parent_pair_ci95"] = pair_ratio_ci95(ratios)
        metrics[name] = entry
    return {
        "pairs": len(results["parent"]),
        "correct_all_runs": all(r["correct"] for side in sides for r in results[side]),
        "attempted_jobs": {side: sum(r["attempted"] for r in results[side]) for side in sides},
        "failed_jobs": {side: sum(r["failed"] for r in results[side]) for side in sides},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--control", help="a second checkout of the parent, run beside it as an "
                                     "A/A control; same kind and path length as --parent")
    p.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--note", default="", help="what the change does, for the file's readers")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="run only this workload; repeat for more (default: all)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, to give quartiles")
    out = f"BENCH_{args.pr}.json"
    checkouts = {"parent": args.parent, "change": args.change}
    if args.control is not None:
        checkouts["control"] = args.control
    specs = []
    for checkout in checkouts.values():
        with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
            specs.append(json.load(fh))
    if any(spec != specs[0] for spec in specs):
        p.error("the checkouts hold different BENCHMARK.json files")
    shas = {side: checkout_sha(checkout) for side, checkout in checkouts.items()}
    kinds = {side: "plain copy" if sha is None else "git working tree"
             for side, sha in shas.items()}
    for side in checkouts:
        if kinds[side] != kinds["parent"]:
            p.error(f"--parent is a {kinds['parent']} but --{side} is a {kinds[side]}; "
                    "compare checkouts of one kind")
    if args.control is not None:
        if shas["control"] != shas["parent"]:
            p.error(f"--control is at {shas['control']}, not at the parent's {shas['parent']}")
        if len(os.path.abspath(args.control)) != len(os.path.abspath(args.parent)):
            p.error("--control and --parent must be paths of the same length")
    seconds = specs[0]["run_seconds"]
    names = [w["name"] for w in specs[0]["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}")
    bench = {
        "bench": f"BENCH_{args.pr}",
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "method": "alternating pairs: the parent runs before the change in odd pairs and "
                  "after it in even ones; each value is the last-line JSON metric of one "
                  "run; runs are listed in pair order; medians and quartiles (inclusive "
                  "method) over the runs of each side; change_lower_in_pairs counts pairs "
                  "where the change read lower; change_over_parent_pair_median is the median "
                  "of the per-pair change/parent ratios; change_over_parent_pair_ci95 is the "
                  f"2.5th and 97.5th percentiles of that median over {BOOTSTRAP_RESAMPLES} "
                  "bootstrap resamples of the pairs (drawn with random.Random(0), so the "
                  "same pairs give the same interval); first_in_pair names the side that "
                  "ran first in each pair; verdict is gain (the change better in at least "
                  "9/10 of the pairs, ties counting for neither, and its median better by "
                  "more than the parent's IQR), else regression (its median worse by more "
                  "than the metric's BENCHMARK.json bound, a fraction of the parent's "
                  "median), else unresolved (either side's IQR wider than that bound and "
                  "not every change run better than every parent run), else no worse"
                  + ("" if args.control is None else
                  "; the control is an A/A control, a second checkout of the parent at a "
                  "path of the same length, run beside the parent in every pair, first in "
                  "odd pairs and last in even ones (control, parent, change; change, "
                  "parent, control); control_over_parent_pair_median and "
                  "control_over_parent_pair_ci95 are "
                  "the median of the per-pair control/parent ratios and its bootstrap "
                  "interval, as for the change"),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "machine": None,
        "workloads": {},
    }
    for workload in (n for n in names if args.workload is None or n in args.workload):
        results, first = {side: [] for side in checkouts}, []
        for pair in range(1, args.pairs + 1):
            order = [side for side in PAIR_ORDERS[1 - pair % 2] if side in checkouts]
            first.append(order[0])
            for side in order:
                result, provenance = run_once(checkouts[side], workload, args.seed, seconds)
                results[side].append(result)
                if bench["machine"] is None:
                    bench["machine"] = {k: v for k, v in provenance.items()
                                        if k not in RUN_FIELDS}
            if pair >= 2:
                bench["workloads"][f"{workload}/seed{args.seed}"] = {
                    **summarise(results, specs[0]["end_to_end"]), "first_in_pair": first}
                with open(out, "w") as fh:
                    json.dump(bench, fh, indent=1)
                    fh.write("\n")
            print(f"{workload} pair {pair}/{args.pairs}: " + "  ".join(
                f"{side} pass_cal={results[side][-1]['metrics']['pass_cal']['value']:.4g}"
                for side in checkouts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

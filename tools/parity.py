"""Compare two checkouts' episode results over seeded random cases.

    python3 tools/parity.py --parent ../parent --change ../change --cases 1000

Each case is a random ``run_episode`` call: an environment of 1-4 states,
1-3 interventions and 2-3 outcomes (some priors and likelihood rows with
zeros or point masses), one of the four policies, compression on or off,
and a budget that may stop it early or before round 1. An expected-mode
case runs 1-14 rounds; a sampled case runs 1-60 rounds of 1-5,000 trials.
Case ``i`` is drawn from ``random.Random(i)``, so both checkouts run the
same cases, each in a subprocess that imports ``thermosci`` from the
checkout's ``src``. The mode of a case picks the rule:

* expected mode: the sha256 of ``repr(ledger)`` and of ``repr(summary)``
  must match, bit for bit;
* sampled mode: a case passes when rounds, interventions, status, stop
  reason, trials and every other field that is not a float match exactly,
  and each float of the records, the budget and the summary lies within
  ``1e-12 * max(1, |x|)`` of the parent's ``x``. A case that does not is
  judged statistically instead, as a change of random draws moves every
  float: each side's mean cumulative information is compared with that
  side's own reference run of the case, and the case counts as beyond on
  that side if the gap exceeds ``3 * SE + 1e-12``. The reference is the
  case's expected-mode run, its tree capped at ``EXPECTED_CAP`` rows, and
  the SE the sampled run's. A case whose tree is larger is judged against a
  sampled run of ``REFERENCE_TRIALS`` times the trials on the next seed,
  its draws independent of the case's, and the SE is both runs' SEs
  combined in quadrature. The change fails if its count of such cases
  exceeds the parent's count ``p`` by more than ``2 * sqrt(p)``.

A case that raises must raise the same error, with the same text, on both
sides. The tool prints the number of cases that agreed, and the counts of
the sampled cases that differ, of those with no expected-mode run, and of
the judged ones, and exits 0; or it names the first case that differs,
with its inputs, or the two counts, and exits 1. A result with no
reference run is not judged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys

#: an unmerged expected-mode tree of the random policy holds outcomes**rounds nodes
MAX_TREE = 4096
#: how far a sampled-mode float may lie from the parent's, relative above 1, else absolute
SAMPLED_TOL = 1e-12
#: most rows of the expected-mode tree a sampled case is judged against
EXPECTED_CAP = 2**16
#: a sampled case with a larger tree is judged against this many times its trials
REFERENCE_TRIALS = 10


def _probs(rng: random.Random, n: int) -> list[float]:
    weights = [rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(n)]
    if rng.random() < 0.1:  # a point mass
        weights = [0.0] * n
    if not any(weights):
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    return [w / total for w in weights]


def make_case(i: int) -> dict:
    """The inputs of case ``i``, as JSON-ready values."""
    rng = random.Random(i)
    states, count, outcomes = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 3)
    policy = rng.choice(("fixed", "roundrobin", "random", "greedy"))
    sampled = rng.random() < 0.5
    rounds = rng.randint(1, 60 if sampled else 14)
    if policy == "random" and not sampled:
        while outcomes ** rounds > MAX_TREE:
            rounds -= 1
    return {
        "prior": _probs(rng, states),
        "likelihood": [[_probs(rng, outcomes) for _ in range(states)] for _ in range(count)],
        "policy": policy,
        "sequence": [rng.randrange(count) for _ in range(rng.randint(0, 14))],
        "policy_seed": rng.randrange(2**31),
        "compression": (None if rng.random() < 0.5
                        else [rng.randrange(outcomes) for _ in range(outcomes)]),
        "cost": [rng.choice((1.0, 1.0 + rng.random())), rng.choice((1.0, 1.0 + rng.random())),
                 rng.choice((0.0, 0.0, 0.05 * rng.random()))],
        "budget": rng.choice((0.0, rng.random(), 5.0 * rng.random(), 50.0, 50.0)),
        "mode": ([rng.randrange(2**31), rng.choice((rng.randint(1, 300), rng.randint(1, 5000)))]
                 if sampled else None),
        "max_rounds": rounds,
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_of(ledger, summary) -> list | dict:
    """A run's result as JSON values: in expected mode the sha256 of ``repr(ledger)`` and
    ``repr(summary)``; in sampled mode the fields that must match exactly, and the floats."""
    if summary.mode == "expected":
        return [_digest(repr(ledger)), _digest(repr(summary))]
    values = [v for obj in (*ledger.records, summary) for v in vars(obj).values()]
    values += [ledger.budget_total, ledger.budget_spent]
    return {"exact": [v for v in values if type(v) is not float],
            "floats": [v for v in values if type(v) is float]}


def run_case(case: dict) -> list | dict:
    """``result_of`` the run of ``case``, or twice the sha256 of the error's type and text."""
    from thermosci.cycle_sim import (
        CompressionMap, CostModel, EnvironmentModel, ExpectedMode, FixedSequence,
        GreedyInfoMax, RandomPolicy, RoundRobin, SampledMode, run_episode)
    from thermosci.errors import TreeTooLarge

    try:
        policy = {"fixed": lambda: FixedSequence(tuple(case["sequence"])),
                  "roundrobin": RoundRobin, "random": lambda: RandomPolicy(case["policy_seed"]),
                  "greedy": GreedyInfoMax}[case["policy"]]()
        mode = ExpectedMode() if case["mode"] is None else SampledMode(*case["mode"])
        compression = None if case["compression"] is None else CompressionMap(
            tuple(case["compression"]))
        env = EnvironmentModel.from_json_dict({
            "prior": case["prior"], "likelihood": case["likelihood"],
            "interventions": len(case["likelihood"])})
        args = (env, policy, CostModel(*case["cost"]), case["budget"])
        ledger, summary = run_episode(*args, mode, compression, case["max_rounds"])
    except Exception as exc:  # an error is a result too: both sides must raise it
        text = f"{type(exc).__name__}: {exc}"
        return [_digest(text), _digest(text)]
    result = result_of(ledger, summary)
    if summary.mode == "sampled":  # the mean and its SE, then the reference
        judge = [summary.cumulative_info, summary.cumulative_info_se or 0.0]
        try:  # the exact value, if the tree fits
            judge.append(run_episode(*args, ExpectedMode(), compression, case["max_rounds"],
                                     EXPECTED_CAP)[1].cumulative_info)
        except TreeTooLarge:  # else None, and the mean and SE of a larger run on the next seed
            seed, trials = case["mode"]
            more = run_episode(*args, SampledMode(seed + 1, REFERENCE_TRIALS * trials),
                               compression, case["max_rounds"])[1]
            judge += [None, more.cumulative_info, more.cumulative_info_se or 0.0]
        result["judge"] = judge
    return result


def emit(cases: int) -> None:
    """Print one JSON line of ``run_case`` per case."""
    for i in range(cases):
        print(json.dumps(run_case(make_case(i))))


def results(checkout: str, cases: int) -> list:
    """The results of the first ``cases`` cases, run against ``checkout``'s ``src``."""
    src = os.path.join(os.path.abspath(checkout), "src")
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import thermosci, parity\n"
            "if not thermosci.__file__.startswith(sys.argv[1]):\n"
            "    sys.exit(f'thermosci imported from {thermosci.__file__}')\n"
            "parity.emit(int(sys.argv[3]))")
    done = subprocess.run([sys.executable, "-c", code, src, os.path.dirname(__file__),
                           str(cases)], capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"cases in {checkout} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def agree(parent, change) -> bool:
    """Whether two results of one case agree, under the rule of the case's mode."""
    if not (isinstance(parent, dict) and isinstance(change, dict)):  # digests, or an error
        return parent == change
    return parent["exact"] == change["exact"] and len(parent["floats"]) == len(
        change["floats"]) and all(x == y or abs(x - y) <= SAMPLED_TOL * max(1.0, abs(x))
                                  for x, y in zip(parent["floats"], change["floats"]))


def _judged(result) -> bool:
    """Whether a sampled result that disagrees may be judged statistically."""
    return isinstance(result, dict) and "judge" in result


def first_difference(parent: list, change: list) -> int | None:
    """Index of the first case whose results disagree, or None if all agree. A sampled case
    that disagrees only in its draws is left to ``beyond_counts``."""
    for i, (a, b) in enumerate(zip(parent, change)):
        if not (agree(a, b) or _judged(a) and _judged(b)):
            return i
    return None if len(parent) == len(change) else min(len(parent), len(change))


def _reference(judge: list) -> tuple[float, float] | None:
    """The value a sampled result is judged against, and its SE: the expected-mode run's
    cumulative information, else the mean of the larger sampled run, else None."""
    exact, *sampled = judge[2:]
    return (exact, 0.0) if exact is not None else tuple(sampled) or None


def _beyond(judge: list) -> bool:
    (mean, se), (ref, ref_se) = judge[:2], _reference(judge)
    return abs(mean - ref) > 3.0 * math.hypot(se, ref_se) + SAMPLED_TOL


def beyond_counts(parent: list, change: list) -> tuple[int, int, int, int, int]:
    """Over the sampled cases that disagree: how many there are, how many had no
    expected-mode run, how many were judged, and how many lie beyond 3 SE on the parent
    and on the change."""
    differ = no_exact = judged = on_parent = on_change = 0
    for a, b in zip(parent, change):
        if agree(a, b) or not _judged(a):
            continue
        differ += 1
        no_exact += a["judge"][2] is None or b["judge"][2] is None
        if _reference(a["judge"]) is None or _reference(b["judge"]) is None:
            continue
        judged += 1
        on_parent += _beyond(a["judge"])
        on_change += _beyond(b["judge"])
    return differ, no_exact, judged, on_parent, on_change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--cases", type=int, required=True, help="number of random cases")
    args = parser.parse_args(argv)
    parent, change = results(args.parent, args.cases), results(args.change, args.cases)
    i = first_difference(parent, change)
    if i is not None:
        print(f"case {i} differs: {json.dumps(make_case(i))}")
        return 1
    differ, no_exact, judged, on_parent, on_change = beyond_counts(parent, change)
    if differ == 0:
        print(f"{args.cases} cases: every expected-mode repr matches, every sampled case is "
              f"within {SAMPLED_TOL:g}")
        return 0
    allowed = on_parent + 2.0 * math.sqrt(on_parent)
    print(f"{args.cases} cases: every expected-mode repr matches; {differ} sampled "
          f"cases differ by more than {SAMPLED_TOL:g} ({no_exact} with no expected-mode run); "
          f"of the {judged} judged, {on_change} lie beyond 3 SE of expected mode on the change "
          f"and {on_parent} on the parent, {'within' if on_change <= allowed else 'more than'} "
          f"the {allowed:.1f} allowed")
    return 0 if on_change <= allowed else 1


if __name__ == "__main__":
    sys.exit(main())

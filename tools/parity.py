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
* sampled mode: rounds, interventions, status, stop reason, trials and every
  other field that is not a float must match exactly, and each float of the
  records, the budget and the summary must lie within ``1e-12 * max(1, |x|)``
  of the parent's ``x``.

A case that raises must raise the same error, with the same text, on both
sides. The tool prints the number of cases that agreed and exits 0, or names
the first case that differs, with its inputs, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

#: an unmerged expected-mode tree of the random policy holds outcomes**rounds nodes
MAX_TREE = 4096
#: how far a sampled-mode float may lie from the parent's, relative above 1, else absolute
SAMPLED_TOL = 1e-12


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
        ledger, summary = run_episode(env, policy, CostModel(*case["cost"]), case["budget"],
                                      mode, compression, case["max_rounds"])
    except Exception as exc:  # an error is a result too: both sides must raise it
        text = f"{type(exc).__name__}: {exc}"
        return [_digest(text), _digest(text)]
    return result_of(ledger, summary)


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


def first_difference(parent: list, change: list) -> int | None:
    """Index of the first case whose results disagree, or None if all agree."""
    for i, (a, b) in enumerate(zip(parent, change)):
        if not agree(a, b):
            return i
    return None if len(parent) == len(change) else min(len(parent), len(change))


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
    print(f"{args.cases} cases: every expected-mode repr matches, every sampled case is "
          f"within {SAMPLED_TOL:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

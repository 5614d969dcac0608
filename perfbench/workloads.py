"""Seeded inputs and job lists for the five benchmark workloads.

Every input is a pure function of ``(workload, seed)``: the same seed writes
byte-identical files and the same argv, a different seed different ones.
The program sees only those files and the argv of each job, as a user's
shell would hand them to ``thermosci``.

Sizes are fixed so that work per job does not depend on the seed: every
generated likelihood has full support (so an expected-mode tree holds exactly
``n_outcomes ** rounds`` histories) and every ``simulate`` job but the
ROADMAP case stops at ``--max-rounds`` with a budget it cannot exhaust.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass, field

WORKLOADS = ("sampled-trials", "expected-deep", "expected-wide", "phase-diagram",
             "verify-suite")

#: seed the committed reference ledgers were recorded with
DEFAULT_SEED = 1

#: the binary environment of the README
README_ENV = {"prior": [0.5, 0.5], "interventions": 1,
              "likelihood": [[[0.2, 0.8], [0.6, 0.4]]]}

#: panel preset -> comparison pair, as in ``thermosci sweep --panel``
PANEL_PAIRS = {"A": "spec-gen", "B": "spec-gen", "C": "fed-gen", "D": "fed-gen",
               "E": "fed-spec", "F": "fed-spec"}

#: the large seeded fed-gen grid: omega steps x n steps, on the CLI's default axes
BIG_OMEGA_STEPS, BIG_N_STEPS = 1000, 500
OMEGA_MIN, OMEGA_MAX, N_MIN, N_MAX = 1e-2, 1e2, 1.0, 20.0
#: ``sweep`` defaults the big grid relies on (c_min, gamma)
C_MIN, GAMMA = 0.05, 1.0

VERIFY_SEEDS_PER_PASS = 4


@dataclass
class Job:
    """One CLI invocation: its argv plus what the output checks need to know."""

    name: str
    argv: list[str]
    outputs: dict[str, str] = field(default_factory=dict)
    spec: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    # the +0.05 keeps every probability well away from zero (full support)
    g = [rng.expovariate(1.0) + 0.05 for _ in range(n)]
    total = sum(g)
    return [x / total for x in g]


def random_env(rng: random.Random, states: int, interventions: int,
               outcomes: int) -> dict:
    return {
        "prior": _dirichlet(rng, states),
        "interventions": interventions,
        "likelihood": [[_dirichlet(rng, outcomes) for _ in range(states)]
                       for _ in range(interventions)],
    }


def _write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True))
        fh.write("\n")
    return path


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def simulate_job(name: str, workdir: str, env_path: str, policy: str, budget: float,
                 mode: str, max_rounds: int | None, seed: int) -> Job:
    ledger = os.path.join(workdir, f"{name}.ledger.json")
    argv = ["simulate", "--env", env_path, "--policy", policy, "--budget", repr(budget),
            "--mode", mode, "--seed", str(seed), "--out", ledger]
    if max_rounds is not None:
        argv += ["--max-rounds", str(max_rounds)]
    spec = {"env": env_path, "policy": policy, "budget": budget, "mode": mode,
            "max_rounds": max_rounds, "seed": seed}
    return Job(name, argv, {"ledger": ledger}, spec)


def reference_key(spec: dict) -> str:
    """Identity of a simulate job's inputs, independent of where files live.

    A committed reference ledger applies to a run exactly when this key
    matches, so seed-independent jobs are checked on every seed.
    """
    desc = {k: v for k, v in spec.items() if k != "env"}
    desc["env_sha256"] = file_sha256(spec["env"])
    return hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:32]


def _sampled_trials(rng, workdir):
    readme = _write_json(os.path.join(workdir, "readme-env.json"), README_ENV)
    mid = _write_json(os.path.join(workdir, "mid-env.json"), random_env(rng, 6, 3, 3))
    seeds = [rng.randrange(2**31) for _ in range(3)]
    # a budget of 20 nats cannot run out in 5 rounds of at most 2 ln 3 nats each
    return [
        simulate_job("roundrobin-readme", workdir, readme, "roundrobin", 1.6,
                     "sampled:10000", None, seeds[0]),
        simulate_job("greedy-mid", workdir, mid, "greedy", 20.0, "sampled:1000", 5,
                     seeds[1]),
        simulate_job("random-mid", workdir, mid, "random", 20.0, "sampled:1000", 5,
                     seeds[2]),
    ]


def _expected_deep(rng, workdir):
    readme = _write_json(os.path.join(workdir, "readme-env.json"), README_ENV)
    small = _write_json(os.path.join(workdir, "small-env.json"), random_env(rng, 3, 2, 2))
    sequence = ",".join(str(rng.randrange(2)) for _ in range(14))
    return [
        simulate_job("roundrobin-readme", workdir, readme, "roundrobin", 50.0,
                     "expected", 14, 0),
        simulate_job("greedy-small", workdir, small, "greedy", 50.0, "expected", 13, 0),
        simulate_job("fixed-small", workdir, small, f"fixed:{sequence}", 50.0,
                     "expected", 14, 0),
    ]


def _expected_wide(rng, workdir):
    readme = _write_json(os.path.join(workdir, "readme-env.json"), README_ENV)
    wide = _write_json(os.path.join(workdir, "wide-env.json"), random_env(rng, 16, 8, 4))
    mid = _write_json(os.path.join(workdir, "mid-env.json"), random_env(rng, 6, 3, 3))
    seeds = [rng.randrange(2**31) for _ in range(2)]
    return [
        simulate_job("greedy-wide", workdir, wide, "greedy", 50.0, "expected", 7, 0),
        simulate_job("random-readme", workdir, readme, "random", 50.0, "expected", 12,
                     seeds[0]),
        simulate_job("random-mid", workdir, mid, "random", 50.0, "expected", 8, seeds[1]),
    ]


def _phase_diagram(rng, workdir):
    jobs = []
    for panel, pair in PANEL_PAIRS.items():
        csv = os.path.join(workdir, f"panel-{panel}.csv")
        svg = os.path.join(workdir, f"panel-{panel}.svg")
        contours = os.path.join(workdir, f"panel-{panel}.contours.json")
        jobs.append(Job(f"sweep-{panel}", ["sweep", "--panel", panel, "--out", csv,
                                           "--svg", svg],
                        {"csv": csv, "svg": svg}, {"panel": panel}))
        jobs.append(Job(f"contour-{panel}", ["contour", "--grid", csv, "--pair", pair,
                                             "--out", contours],
                        {"contours": contours}, {"panel": panel}))
    # alpha_fed < alpha_gen, so the fed-gen zero contour exists on the grid
    alphas = {"alpha_gen": round(rng.uniform(0.6, 1.0), 6),
              "alpha_fed": round(rng.uniform(0.1, 0.5), 6),
              "alpha_spec": round(rng.uniform(0.1, 0.4), 6)}
    csv = os.path.join(workdir, "big.csv")
    contours = os.path.join(workdir, "big.contours.json")
    jobs.append(Job("sweep-big", [
        "sweep", "--pair", "fed-gen",
        "--alpha-gen", repr(alphas["alpha_gen"]), "--alpha-fed", repr(alphas["alpha_fed"]),
        "--alpha-spec", repr(alphas["alpha_spec"]),
        "--omega-steps", str(BIG_OMEGA_STEPS), "--n-steps", str(BIG_N_STEPS), "--out", csv,
    ], {"csv": csv}, dict(alphas)))
    jobs.append(Job("contour-big", ["contour", "--grid", csv, "--pair", "fed-gen",
                                    "--out", contours],
                    {"contours": contours}, dict(alphas)))
    return jobs


def _verify_suite(rng, workdir):
    jobs = []
    for k in range(VERIFY_SEEDS_PER_PASS):
        report = os.path.join(workdir, f"verify-{k}.json")
        jobs.append(Job(f"verify-{k}", ["verify", "--scope", "all",
                                        "--seed", str(rng.randrange(2**31)),
                                        "--out", report],
                        {"report": report}))
    return jobs


_BUILDERS = {
    "sampled-trials": _sampled_trials,
    "expected-deep": _expected_deep,
    "expected-wide": _expected_wide,
    "phase-diagram": _phase_diagram,
    "verify-suite": _verify_suite,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files into ``workdir`` and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, workdir)


COMMANDS = ("simulate", "sweep", "contour", "verify")


def job_medians(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each job's median over passes; ``passes`` maps job name to a number."""
    return {n: statistics.median(p[n] for p in passes) for n in passes[0]}


def command_seconds(commands: dict[str, str], medians) -> dict[str, float]:
    """Per-pass seconds spent in each CLI command (sum of its jobs' medians).

    ``commands`` maps job name to command.
    """
    out = {f"{c}_s": 0.0 for c in COMMANDS}
    for name, command in commands.items():
        out[f"{command}_s"] += medians[name]
    return out

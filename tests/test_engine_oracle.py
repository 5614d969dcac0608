"""The shared-kernel engines against the reference engines in ``oracle_engine``.

Every policy kind, with and without a compression map, in both modes, on
random environments from :func:`thermosci.verify.random_environment`.
Sampled runs use the same seed on both sides, so agreement to 1e-12 also
pins the per-trial random stream.
"""

import numpy as np
import pytest

from thermosci import (
    CompressionMap,
    CostModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    RoundRobin,
    SampledMode,
    run_episode,
)
from thermosci.verify import random_environment

from oracle_engine import run_reference

TOL = 1e-12
N_ENVS = 40
RECORD_FLOATS = ("info_gain", "outcome_entropy", "stored_entropy", "work_meas",
                 "work_erase", "belief_entropy_after")
SUMMARY_FLOATS = ("prior_entropy", "posterior_entropy", "cumulative_info")


def _cases(seed: int):
    rng = np.random.default_rng(seed)
    env = random_environment(rng)
    seq = tuple(int(u) for u in rng.integers(0, env.intervention_count,
                                              size=int(rng.integers(1, 9))))
    policies = (FixedSequence(seq), RoundRobin(), RandomPolicy(int(rng.integers(0, 2**31))),
                GreedyInfoMax())
    merge = tuple(int(v) for v in
                  rng.integers(0, max(1, env.n_outcomes - 1), size=env.n_outcomes))
    cost = CostModel(float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 2.0)),
                     float(rng.uniform(0.0, 0.2)))
    budget = float(rng.uniform(0.5, 8.0))
    max_rounds = int(rng.integers(1, 9))
    modes = (ExpectedMode(), SampledMode(seed=int(rng.integers(0, 2**31)), trials=25))
    for policy in policies:
        for compression in (None, CompressionMap(merge)):
            for mode in modes:
                yield env, policy, cost, budget, mode, compression, max_rounds


def _assert_same(got, want, label):
    (ledger, summary), (ref_ledger, ref_summary) = got, want
    assert ledger.rounds_completed == ref_ledger.rounds_completed, label
    for rec, ref in zip(ledger.records, ref_ledger.records):
        assert rec.intervention == ref.intervention, label
        for name in RECORD_FLOATS:
            assert abs(getattr(rec, name) - getattr(ref, name)) <= TOL, (label, name)
    assert abs(ledger.budget_spent - ref_ledger.budget_spent) <= TOL, label
    for name in ("status", "mode", "stop_reason", "rounds", "trials"):
        assert getattr(summary, name) == getattr(ref_summary, name), (label, name)
    for name in SUMMARY_FLOATS:
        assert abs(getattr(summary, name) - getattr(ref_summary, name)) <= TOL, (label, name)
    if ref_summary.cumulative_info_se is None:
        assert summary.cumulative_info_se is None, label
    else:
        assert abs(summary.cumulative_info_se - ref_summary.cumulative_info_se) <= TOL, label


@pytest.mark.parametrize("seed", range(N_ENVS))
def test_engines_match_reference(seed):
    for env, policy, cost, budget, mode, compression, max_rounds in _cases(seed):
        label = (seed, policy, type(mode).__name__, compression, max_rounds)
        got = run_episode(env, policy, cost, budget, mode, compression, max_rounds)
        want = run_reference(env, policy, cost, budget, mode, compression, max_rounds)
        _assert_same(got, want, label)

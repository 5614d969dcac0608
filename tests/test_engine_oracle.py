"""The shared-kernel engines against the reference engines in ``oracle_engine``.

Every policy kind, with and without a compression map, in both modes, on
random environments from :func:`helpers.random_environment`.
Sampled runs use the same seed on both sides, so agreement to 1e-12 also
pins the counter-based uniforms. Further sampled cases cover budget-only
runs whose trials stop at different rounds, runs of more than 8 rounds,
a single trial, ``n`` and ``2n`` trials, a long ``RandomPolicy`` run, and
how often the policy is asked.
Expected-mode cases at 10-12 rounds on 2-outcome environments cover the
merging of branches with equal outcome counts. The policy-protocol cases
cover out-of-range choices, rows whose policy runs out (``-1``), and how
often each built-in policy's ``choose`` is called.
"""

import itertools

import numpy as np
import pytest

from thermosci import (
    CompressionMap,
    CostModel,
    DiscreteDistribution,
    EnvironmentModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    LikelihoodModel,
    RandomPolicy,
    RoundRobin,
    SampledMode,
    run_episode,
)
from thermosci.errors import IndexOutOfRange

from helpers import Recording, asym_binary_env, random_environment, three_state_env
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


# ---------------------------------------------------------------------------
# sampled mode: trials advance together, one policy call per distinct history


def _stop_rounds(calls):
    """Rounds at which some trial stopped: histories asked about that no later call extends."""
    went_on = {(t - 1, history[:-1]) for t, history in calls if t}
    return {t for t, history in calls if (t, history) not in went_on}


def _sampled_pair(env, policy, budget, mode, max_rounds=None, compression=None):
    """Both engines on one case, checked equal; returns the result and the policy calls.

    The recorder is shown every trial's history: sampled mode never merges, so the bits
    are those of the policy alone."""
    recorder = Recording(policy, history_free=False)
    got = run_episode(env, recorder, CostModel(), budget, mode, compression, max_rounds)
    want = run_reference(env, policy, CostModel(), budget, mode, compression, max_rounds)
    _assert_same(got, want, (policy, mode, budget, max_rounds, compression))
    return got, recorder.calls


def test_sampled_budget_only_runs_match_reference():
    staggered = 0
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        env = random_environment(rng)
        for policy in (RoundRobin(), GreedyInfoMax(), RandomPolicy(seed)):
            _, calls = _sampled_pair(env, policy, float(rng.uniform(1.0, 6.0)),
                                     SampledMode(seed=seed, trials=40))
            staggered += len(_stop_rounds(calls)) > 1
    # half or more of these runs stop their trials at more than one round
    assert staggered >= 18


def test_sampled_run_longer_than_the_first_draw_block_matches_reference():
    # 8 rounds was the block of uniforms an earlier engine drew per trial before re-seeding
    env = asym_binary_env()
    for max_rounds, budget in ((None, 14.0), (3 * 8, 100.0)):
        (_, summary), _ = _sampled_pair(env, RoundRobin(), budget,
                                        SampledMode(seed=21, trials=60), max_rounds)
        assert summary.rounds > 8


def test_single_trial_matches_reference():
    rng = np.random.default_rng(77)
    env = random_environment(rng)
    merge = CompressionMap((0,) * env.n_outcomes)
    for compression in (None, merge):
        (_, summary), _ = _sampled_pair(env, GreedyInfoMax(), 5.0,
                                        SampledMode(seed=3, trials=1), compression=compression)
        assert summary.cumulative_info_se is None


def test_many_trial_random_policy_run_matches_reference():
    rng = np.random.default_rng(78)
    env = random_environment(rng)
    _sampled_pair(env, RandomPolicy(11), 6.0, SampledMode(seed=5, trials=500))


@pytest.mark.parametrize("policy", [RoundRobin(), GreedyInfoMax(), RandomPolicy(4)],
                         ids=["roundrobin", "greedy", "random"])
def test_n_and_2n_trials_match_reference(policy):
    # trial k's draws do not depend on the trial count: the first n of 2n trials take the
    # paths of an n-trial run, so every history those ask about is asked about again
    env = random_environment(np.random.default_rng(79))
    mode = SampledMode(seed=2**64 + 5, trials=150)
    _, calls = _sampled_pair(env, policy, 4.0, mode, 12)
    _, doubled = _sampled_pair(env, policy, 4.0, SampledMode(mode.seed, 2 * mode.trials), 12)
    assert set(calls) <= set(doubled)


def test_one_outcome_sampled_run_matches_reference():
    # no CDF column is compared: every draw picks outcome 0, and each round costs delta_f_mem
    env = EnvironmentModel(DiscreteDistribution([0.25, 0.75]), LikelihoodModel([[[1.0], [1.0]]]))
    args = (env, RoundRobin(), CostModel(delta_f_mem=0.1), 5.0, SampledMode(seed=1, trials=10))
    got = run_episode(*args, max_rounds=3)
    assert got[1].rounds == 3
    _assert_same(got, run_reference(*args, max_rounds=3), "one outcome")


def test_long_random_policy_run_matches_reference():
    # every trial keeps its own history row: one intervention, four states, two outcomes
    env = random_environment(np.random.default_rng(8))
    assert (env.intervention_count, env.n_states, env.n_outcomes) == (1, 4, 2)
    args = (env, RandomPolicy(9), CostModel(delta_f_mem=0.0023), 5.37,
            SampledMode(seed=3, trials=182), CompressionMap((0, 0)))
    _assert_same(run_episode(*args, 50), run_reference(*args, 50), "50 rounds")
    # a seeding cost that grew with the history once made 200 rounds take many seconds
    _, summary = run_episode(*args, 200)
    assert summary.rounds == 200


def test_sampled_mode_asks_the_policy_once_per_history():
    env = three_state_env()
    mode = SampledMode(seed=4, trials=2000)
    got, want = Recording(RandomPolicy(3)), Recording(RandomPolicy(3))
    _, summary = run_episode(env, got, CostModel(), 50.0, mode, max_rounds=4)
    run_reference(env, want, CostModel(), 50.0, mode, max_rounds=4)
    assert summary.rounds == 4
    assert len(got.calls) == len(set(got.calls))
    assert set(got.calls) == set(want.calls)
    assert len(got.calls) < mode.trials < len(want.calls)


# ---------------------------------------------------------------------------
# expected mode: branches with equal outcome counts merge for history-free policies


@pytest.mark.parametrize("seed", range(5))
def test_merged_expected_mode_matches_reference(seed):
    rng = np.random.default_rng(900 + seed)
    env = random_environment(rng, max_outcomes=2)
    max_rounds = int(rng.integers(10, 13))
    seq = tuple(int(u) for u in rng.integers(0, env.intervention_count,
                                              size=int(rng.integers(10, 13))))
    for policy in (FixedSequence(seq), RoundRobin(), GreedyInfoMax()):
        for compression in (None, CompressionMap((0, 0))):
            budget = 100.0
            if seed % 2:  # stop on the budget one round before the unbudgeted run ends
                full, _ = run_episode(env, policy, CostModel(), budget, ExpectedMode(),
                                      compression, max_rounds)
                last = full.records[-1]
                budget = full.budget_spent - 0.5 * (last.work_meas + last.work_erase)
            recorder = Recording(policy)
            got = run_episode(env, recorder, CostModel(), budget, ExpectedMode(),
                              compression, max_rounds)
            want = run_reference(env, policy, CostModel(), budget, ExpectedMode(),
                                 compression, max_rounds)
            _assert_same(got, want, (seed, policy, compression, budget))
            rounds = got[1].rounds
            assert rounds >= 9
            if seed % 2:
                assert got[1].stop_reason == "budget"
            # the frontier held fewer than half the rows of the ordered-history tree
            assert len(recorder.calls) * 2 < 2 ** (rounds + 1)


def test_random_policy_is_asked_about_every_ordered_history():
    env = asym_binary_env()
    policy = Recording(RandomPolicy(5))
    run_episode(env, policy, CostModel(), 100.0, ExpectedMode(), max_rounds=8)
    for t in range(8):
        asked = [history for r, history in policy.calls if r == t]
        assert sorted(asked) == sorted(itertools.product(((0, 0), (0, 1)), repeat=t))


# ---------------------------------------------------------------------------
# the policy protocol: ``choose`` for all rows at once, with the paths unless history-free


class _PerRowOutOfRange:
    """Shown the paths; picks one past the last intervention for every row from round 1 on."""

    def choose(self, beliefs, env, t, paths):
        return np.full(len(paths), env.intervention_count if t else 0)


class _BatchOutOfRange:
    """History-free; from round 1 on, one row gets an index past the end."""

    history_free = True

    def choose(self, beliefs, env, t, paths):
        us = np.zeros(len(beliefs), dtype=int)
        us[-1] = env.intervention_count if t else 0
        return us


class _BelowRunOut:
    """History-free; the last row gets -2, below the -1 that marks a row run out."""

    history_free = True

    def choose(self, beliefs, env, t, paths):
        us = np.zeros(len(beliefs), dtype=int)
        us[-1] = -2
        return us


class _LoneBelowRunOut:
    """History-free; -2 as one index for every row, below the -1 that marks a run-out."""

    history_free = True

    def choose(self, beliefs, env, t, paths):
        return -2


class _LoneRunOut:
    """History-free; round 0's intervention for every row, then a lone -1."""

    history_free = True

    def choose(self, beliefs, env, t, paths):
        return -1 if t else 0


class _StopsAfterOutcomeZero:
    """Runs out (-1) on every row whose last outcome was 0."""

    def choose(self, beliefs, env, t, paths):
        us = np.full(len(paths), t % env.intervention_count)
        if t:
            us[paths[:, -1, 1] == 0] = -1
        return us


@pytest.mark.parametrize("policy", [_PerRowOutOfRange(), _BatchOutOfRange(), _BelowRunOut(),
                                    _LoneBelowRunOut()],
                         ids=["per-row", "batch", "below-run-out", "lone-minus-two"])
@pytest.mark.parametrize("mode", [ExpectedMode(), SampledMode(seed=2, trials=30)],
                         ids=["expected", "sampled"])
def test_out_of_range_choice_raises(policy, mode):
    env = three_state_env()
    for run in (run_episode, run_reference):
        with pytest.raises(IndexOutOfRange, match="outside"):
            run(env, policy, CostModel(), 50.0, mode, max_rounds=4)


@pytest.mark.parametrize("mode", [ExpectedMode(), SampledMode(seed=2, trials=30)],
                         ids=["expected", "sampled"])
def test_lone_minus_one_stops_every_row(mode):
    env = three_state_env()
    got = run_episode(env, _LoneRunOut(), CostModel(), 50.0, mode, max_rounds=4)
    _assert_same(got, run_reference(env, _LoneRunOut(), CostModel(), 50.0, mode, max_rounds=4),
                 type(mode).__name__)
    assert got[1].stop_reason == "policy_exhausted" and got[1].rounds == 1


def test_policy_running_out_on_some_histories_stops_only_their_trials():
    env = three_state_env()
    policy = _StopsAfterOutcomeZero()
    (ledger, summary), calls = _sampled_pair(env, policy, 50.0, SampledMode(seed=8, trials=300),
                                             max_rounds=5)
    assert summary.stop_reason == "mixed"
    assert summary.rounds == 5  # the trials that never drew outcome 0 run to max_rounds
    assert len(_stop_rounds(calls)) > 2  # the others stop at the round after their first 0
    # expected mode stops the whole tree at the first history the policy cannot serve
    got = run_episode(env, policy, CostModel(), 50.0, ExpectedMode(), max_rounds=5)
    want = run_reference(env, policy, CostModel(), 50.0, ExpectedMode(), max_rounds=5)
    _assert_same(got, want, "expected")
    assert got[1].stop_reason == "policy_exhausted" and got[1].rounds == 1


@pytest.mark.parametrize("policy", [FixedSequence((0, 1, 1, 0, 1)), RoundRobin(), RandomPolicy(6),
                                    GreedyInfoMax()],
                         ids=["fixed", "roundrobin", "random", "greedy"])
@pytest.mark.parametrize("mode", [ExpectedMode(), SampledMode(seed=2, trials=30)],
                         ids=["expected", "sampled"])
def test_each_policy_class_choose_is_called_once_per_round(policy, mode, monkeypatch):
    # the class attribute is the hook: perfbench's traced runs count policy steps through it
    cls, calls = type(policy), []
    original = cls.choose

    def counted(self, beliefs, env, t, paths):
        calls.append(t)
        return original(self, beliefs, env, t, paths)

    monkeypatch.setattr(cls, "choose", counted)
    _, summary = run_episode(three_state_env(), policy, CostModel(), 50.0, mode, max_rounds=4)
    assert (summary.rounds, summary.stop_reason) == (4, "max_rounds")
    assert calls == [0, 1, 2, 3]


def _tied_environment() -> EnvironmentModel:
    """Intervention 0 tells nothing; 1 and 2 are the same informative experiment."""
    informative = [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]
    return EnvironmentModel(DiscreteDistribution([0.5, 0.3, 0.2]),
                            LikelihoodModel([[[1 / 3] * 3] * 3, informative, informative]))


def test_greedy_batch_choice_equals_per_row_choice():
    policy = GreedyInfoMax()
    envs = [random_environment(np.random.default_rng(700 + k)) for k in range(30)]
    for k, env in enumerate(envs + [_tied_environment()]):
        rng = np.random.default_rng(k)
        beliefs = np.vstack((env.prior.probs, rng.dirichlet(np.ones(env.n_states), size=40)))
        batch = policy.choose(beliefs, env, 0, None)
        assert batch.shape == (len(beliefs),)
        assert batch.tolist() == [policy.choose(b[None], env, 0, None)[0] for b in beliefs], k
    # exact ties between the identical interventions go to the lower index
    assert batch.tolist() == [1] * len(beliefs)

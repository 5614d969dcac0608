import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermosci import (
    CompressionMap,
    CostModel,
    DiscreteDistribution,
    EnvironmentModel,
    EpisodeSummary,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    LikelihoodModel,
    RandomPolicy,
    RoundRecord,
    RoundRobin,
    SampledMode,
    Units,
    WorkLedger,
    bound_report,
    cumulative_information,
    efficiency,
    run_episode,
)
from thermosci.cycle_sim import MAX_TRIALS
from thermosci.errors import (
    DimensionMismatch,
    IncompleteMapping,
    InvalidLedger,
    InvalidParameter,
    NoWorkSpent,
    TreeTooLarge,
)
from thermosci.verify import random_policy

from helpers import (
    Recording,
    asym_binary_env,
    constant_likelihood_env,
    enumerate_episode,
    entropy_of,
    noiseless_binary_env,
    random_environment,
    three_state_env,
)
from oracle_engine import run_reference
from test_engine_oracle import _assert_same

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# types


def test_negative_seed_rejected():
    for build in (lambda: SampledMode(seed=-1, trials=5), lambda: RandomPolicy(-3)):
        with pytest.raises(InvalidParameter, match="seed must be >= 0"):
            build()


def test_cost_model_validation():
    with pytest.raises(InvalidParameter):
        CostModel(kappa_meas=0.5)
    with pytest.raises(InvalidParameter):
        CostModel(kappa_erase=0.99)
    with pytest.raises(InvalidParameter):
        CostModel(delta_f_mem=-0.1)


@pytest.mark.parametrize("field", ["kappa_meas", "kappa_erase", "delta_f_mem"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cost_model_rejects_non_finite(field, value):
    with pytest.raises(InvalidParameter, match=f"{field} must be finite"):
        CostModel(**{field: value})


@pytest.mark.parametrize("mode", [ExpectedMode(), SampledMode(seed=0, trials=5)])
def test_nan_budget_rejected(mode):
    with pytest.raises(InvalidParameter, match="budget"):
        run_episode(asym_binary_env(), RoundRobin(), CostModel(), math.nan, mode,
                    max_rounds=3)


def test_sampled_mode_caps_its_trials():
    assert SampledMode(trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(InvalidParameter, match=r"^trials must be <= 10000000, got 10000001$"):
        SampledMode(trials=MAX_TRIALS + 1)


@pytest.mark.parametrize("mode", [ExpectedMode(), SampledMode(seed=0, trials=1)])
def test_infinite_budget_needs_max_rounds(mode):
    # sampled mode used to loop forever here: a converged belief keeps paying erasure
    with pytest.raises(InvalidParameter, match="budget must be finite"):
        run_episode(asym_binary_env(), RoundRobin(), CostModel(), math.inf, mode)
    ledger, summary = run_episode(asym_binary_env(), RoundRobin(), CostModel(), math.inf,
                                  mode, max_rounds=3)
    assert summary.rounds == 3
    assert len(ledger.records) == 3


_INFLATED_GAIN_SCRIPT = """
import sys
import thermosci.cycle_sim as cs
from thermosci.errors import InvalidLedger
from helpers import random_environment
import numpy as np

kernel = cs.predictive_gain


def inflated(*args):
    pred, hy, gain = kernel(*args)
    return pred, hy, gain + 1e-6


cs.predictive_gain = inflated
env = random_environment(np.random.default_rng(0))
try:
    cs.run_episode(env, cs.RoundRobin(), cs.CostModel(), 50.0, max_rounds=3)
except InvalidLedger as exc:
    print("InvalidLedger", sys.flags.optimize, exc)
"""


def test_telescoping_check_fires_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    tests = str(Path(__file__).resolve().parent)  # for helpers.random_environment
    path = os.pathsep.join(p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _INFLATED_GAIN_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvalidLedger 1 "), proc.stdout


def test_environment_consistency():
    with pytest.raises(DimensionMismatch):
        EnvironmentModel(DiscreteDistribution([1.0 / 3] * 3),
                         LikelihoodModel([[[0.5, 0.5], [0.5, 0.5]]]))
    env = EnvironmentModel(DiscreteDistribution([0.5, 0.5]),
                           LikelihoodModel([[[0.5, 0.5], [0.5, 0.5]]] * 2))
    assert env.intervention_count == 2  # read from the table


def test_environment_json_round_trip():
    env = three_state_env()
    clone = EnvironmentModel.from_json_dict(env.to_json_dict())
    assert np.allclose(clone.prior.probs, env.prior.probs)
    assert np.allclose(clone.likelihood.table, env.likelihood.table)


def test_round_record_invariants():
    with pytest.raises(InvalidLedger):
        RoundRecord(0, 0, info_gain=0.5, outcome_entropy=0.6, stored_entropy=0.6,
                    work_meas=0.4, work_erase=0.6, belief_entropy_after=0.1)
    with pytest.raises(InvalidLedger):
        RoundRecord(0, 0, info_gain=0.1, outcome_entropy=0.6, stored_entropy=0.6,
                    work_meas=0.2, work_erase=0.5, belief_entropy_after=0.1)
    with pytest.raises(InvalidLedger):
        RoundRecord(0, 0, info_gain=0.1, outcome_entropy=0.3, stored_entropy=0.6,
                    work_meas=0.2, work_erase=0.7, belief_entropy_after=0.1)


def test_ledger_invariants():
    rec = RoundRecord(0, 0, 0.5, 0.6, 0.6, 0.5, 0.6, 0.1)
    with pytest.raises(InvalidLedger):
        WorkLedger((rec,), budget_total=2.0, budget_spent=0.9)  # mismatched sum
    with pytest.raises(InvalidLedger):
        WorkLedger((rec,), budget_total=1.0, budget_spent=1.1)  # overdraft
    # past the tolerances scaled to the records' 1.1, which the smaller side sets
    for total, spent in ((2.0, 1e300), (2.0, 1.1 * (1 + 2e-10)), (1.1, 1.1 * (1 + 5e-12))):
        with pytest.raises(InvalidLedger):
            WorkLedger((rec,), budget_total=total, budget_spent=spent)


def test_ledger_tolerances_scale_with_magnitude():
    rec = RoundRecord(0, 0, 0.5, 0.6, 0.6, 5e5, 6e5, 0.1)  # 1.1e6 of work
    WorkLedger((rec,), 2e6, 1.1e6 * (1 + 5e-11))  # 5.5e-5 off the summed records
    WorkLedger((rec,), 1.1e6 * (1 - 5e-13), 1.1e6)  # 5.5e-7 past budget_total



RECORD_FIELDS = ("info_gain", "outcome_entropy", "stored_entropy", "work_meas", "work_erase",
                 "belief_entropy_after")


@pytest.mark.parametrize("field", RECORD_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_round_record_rejects_non_finite(field, value):
    values = dict(zip(RECORD_FIELDS, (0.5, 0.6, 0.6, 0.5, 0.6, 0.1)), **{field: value})
    with pytest.raises(InvalidLedger, match=field):
        RoundRecord(0, 0, **values)


@pytest.mark.parametrize("bad, message", [
    ({"work_meas": math.inf}, "work_meas must be finite, got inf"),
    ({"stored_entropy": math.nan}, "stored_entropy must be finite, got nan"),
    ({"info_gain": -0.5}, "info_gain must be >= -1e-12, got -0.5"),
    # with several negative fields the first in the check order is named
    ({"belief_entropy_after": -0.25, "info_gain": -0.5},
     "belief_entropy_after must be >= -1e-12, got -0.25"),
    ({"outcome_entropy": -0.25, "stored_entropy": -0.5, "work_erase": 0.0},
     "outcome_entropy must be >= -1e-12, got -0.25"),
    ({"work_meas": 0.4}, "measurement work 0.4 below information gain 0.5"),
    ({"work_erase": 0.5}, "erasure work 0.5 below stored entropy 0.6"),
    ({"outcome_entropy": 0.3}, "stored entropy exceeds outcome entropy"),
])
def test_round_record_error_text_is_pinned(bad, message):
    values = dict(zip(RECORD_FIELDS, (0.5, 0.6, 0.6, 0.5, 0.6, 0.1)), **bad)
    with pytest.raises(InvalidLedger) as exc:
        RoundRecord(7, 1, **values)
    assert str(exc.value) == f"round 7: {message}"


def test_ledger_rejects_non_finite_budget_fields():
    rec = RoundRecord(0, 0, 0.5, 0.6, 0.6, 0.5, 0.6, 0.1)
    with pytest.raises(InvalidLedger, match="budget_total"):
        WorkLedger((rec,), budget_total=math.nan, budget_spent=1.1)
    for spent in (math.nan, math.inf):
        with pytest.raises(InvalidLedger, match="budget_spent"):
            WorkLedger((rec,), budget_total=math.inf, budget_spent=spent)
    # an unbounded budget is a valid total
    assert WorkLedger((rec,), budget_total=math.inf, budget_spent=1.1).budget_total == math.inf


# ---------------------------------------------------------------------------
# stored entropy and the per-round floor


def test_stored_entropy_identity_map():
    probs = DiscreteDistribution([0.25, 0.75]).probs
    stats = CompressionMap((0, 1)).pushforward(probs)
    assert np.array_equal(stats, probs)


def test_stored_entropy_constant_map():
    stats = CompressionMap((0, 0)).pushforward(DiscreteDistribution([0.25, 0.75]).probs)
    assert stats.tolist() == [1.0]
    assert entropy_of(stats) == 0.0


def test_stored_entropy_pairwise_merge():
    d = DiscreteDistribution([0.25, 0.25, 0.25, 0.25])
    merged = entropy_of(CompressionMap((0, 0, 1, 1)).pushforward(d.probs))
    assert merged == pytest.approx(LN2, abs=1e-12)


def test_pushforward_builds_only_the_rows_it_keeps():
    tracemalloc.start()  # a (K, K) identity for K = 40,001 would be 12.8 GB
    try:
        stats = CompressionMap((0, 40000)).pushforward(np.array([0.25, 0.75]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert stats.shape == (40001,) and (stats[0], stats[40000], stats.sum()) == (0.25, 0.75, 1.0)


def test_stored_entropy_incomplete_mapping():
    d = DiscreteDistribution([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(IncompleteMapping):
        CompressionMap((0, 1)).pushforward(d.probs)


@pytest.mark.parametrize("mapping, message", [
    ((0, float("nan")), r"mapping\[1\] .* got nan"),
    ((0, 1.5), r"mapping\[1\] .* got 1\.5"),
    ((0, 1, math.inf), r"mapping\[2\] .* got inf"),
    ((-1, 0), r"mapping\[0\] .* got -1"),
], ids=["nan", "non-integral", "inf", "negative"])
def test_compression_map_rejects_bad_entry_by_index(mapping, message):
    with pytest.raises(IncompleteMapping, match=message):
        CompressionMap(mapping)


def test_compression_map_keeps_integral_floats():
    assert CompressionMap((0, 2.0, np.int64(1))).mapping == (0, 2, 1)


@pytest.mark.parametrize("record, floor", [
    (RoundRecord(0, 0, LN2, LN2, LN2, LN2, LN2, 0.0), 2 * LN2),
    (RoundRecord(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0),
    (RoundRecord(0, 0, 0.3, 0.5, 0.0, 0.3, 0.0, 0.1), 0.3),
], ids=["one-bit", "zero", "compressed"])
def test_round_work_floor_values(record, floor):
    ledger = WorkLedger((record,), 2.0, record.work_meas + record.work_erase)
    check = next(c for c in bound_report(ledger) if c.name == "round_work_floor")
    assert check.limit == pytest.approx(floor, abs=1e-15)
    assert check.observed == record.work_meas + record.work_erase
    assert check.passed


# ---------------------------------------------------------------------------
# expected-mode episodes


def test_noiseless_round_ledger():
    env = noiseless_binary_env()
    ledger, summary = run_episode(env, GreedyInfoMax(), CostModel(), 2 * LN2,
                                  ExpectedMode())
    assert ledger.rounds_completed == 1
    rec = ledger.records[0]
    assert rec.info_gain == pytest.approx(LN2, abs=1e-12)
    assert rec.outcome_entropy == pytest.approx(LN2, abs=1e-12)
    assert ledger.budget_spent == pytest.approx(2 * LN2, abs=1e-12)
    assert efficiency(ledger) == pytest.approx(0.5, abs=1e-12)
    assert summary.posterior_entropy == pytest.approx(0.0, abs=1e-12)
    assert cumulative_information(ledger) == pytest.approx(LN2, abs=1e-12)


def test_noiseless_round_with_dissipation():
    env = noiseless_binary_env()
    ledger, _ = run_episode(env, GreedyInfoMax(), CostModel(2.0, 2.0, 0.0),
                            4 * LN2, ExpectedMode())
    assert ledger.rounds_completed == 1
    assert efficiency(ledger) == pytest.approx(0.25, abs=1e-12)


def test_zero_budget_gives_empty_ledger():
    env = noiseless_binary_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 0.0, ExpectedMode())
    assert ledger.rounds_completed == 0
    assert summary.status == "budget_exhausted_immediately"
    assert cumulative_information(ledger) == 0.0
    with pytest.raises(NoWorkSpent):
        efficiency(ledger)


def test_constant_likelihood_gains_nothing():
    env = constant_likelihood_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 1.0, ExpectedMode())
    assert ledger.rounds_completed == 1  # one ln2 erasure fits in budget 1.0
    assert all(r.info_gain == pytest.approx(0.0, abs=1e-12) for r in ledger.records)
    assert summary.cumulative_info == pytest.approx(0.0, abs=1e-12)
    assert efficiency(ledger) == 0.0


def test_budget_is_never_overdrawn():
    env = asym_binary_env()
    for budget in (0.3, 0.76, 1.2, 1.6, 2.4):
        ledger, _ = run_episode(env, RoundRobin(), CostModel(), budget, ExpectedMode())
        assert ledger.budget_spent <= budget + 1e-12


def test_max_rounds_caps_episode():
    env = asym_binary_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 100.0,
                                  ExpectedMode(), max_rounds=2)
    assert ledger.rounds_completed == 2
    assert summary.stop_reason == "max_rounds"


def test_fixed_sequence_exhaustion_ends_episode():
    env = asym_binary_env()
    ledger, summary = run_episode(env, FixedSequence((0,)), CostModel(), 100.0,
                                  ExpectedMode())
    assert ledger.rounds_completed == 1
    assert summary.stop_reason == "policy_exhausted"


def test_fixed_sequence_answers_minus_one_once_run_out():
    env, beliefs = asym_binary_env(), np.array([[0.5, 0.5]])
    assert FixedSequence((0,)).choose(beliefs, env, 0, None) == 0
    assert FixedSequence((0,)).choose(beliefs, env, 1, None) == -1


def test_tree_node_cap():
    env = three_state_env()
    with pytest.raises(TreeTooLarge):
        run_episode(env, RoundRobin(), CostModel(), 100.0, ExpectedMode(),
                    max_rounds=4, node_cap=2)


def test_node_cap_counts_merged_nodes():
    # 30 binary rounds: 31 count vectors, against 2^30 ordered histories
    env = asym_binary_env()
    for cap in (64, 31):
        _, summary = run_episode(env, RoundRobin(), CostModel(), 100.0, ExpectedMode(),
                                 max_rounds=30, node_cap=cap)
        assert summary.rounds == 30
    for policy, cap in ((RoundRobin(), 30), (RandomPolicy(0), 64)):
        with pytest.raises(TreeTooLarge):
            run_episode(env, policy, CostModel(), 100.0, ExpectedMode(),
                        max_rounds=30, node_cap=cap)


def _binomial_mixture_entropy(n: int) -> float:
    """Expected posterior entropy of the README environment after n rounds.

    The posterior depends only on k, the number of outcome-0 draws, and each
    k is reached by comb(n, k) equally likely orderings.
    """
    terms = []
    for k in range(n + 1):
        joint = (0.5 * 0.2 ** k * 0.8 ** (n - k), 0.5 * 0.6 ** k * 0.4 ** (n - k))
        evidence = sum(joint)
        entropy = -sum(p / evidence * math.log(p / evidence) for p in joint if p > 0.0)
        terms.append(math.comb(n, k) * evidence * entropy)
    return math.fsum(terms)


def _log_binomial_mixture_entropy(n: int) -> float:
    """:func:`_binomial_mixture_entropy` in log space, so no term underflows at large n."""
    terms = []
    for k in range(n + 1):
        log_joint = [math.log(0.5) + k * math.log(a) + (n - k) * math.log(1.0 - a)
                     for a in (0.2, 0.6)]
        top = max(log_joint)
        log_evidence = top + math.log(sum(math.exp(v - top) for v in log_joint))
        posterior = [math.exp(v - log_evidence) for v in log_joint]
        entropy = -sum(p * math.log(p) for p in posterior if p > 0.0)
        log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        terms.append(math.exp(log_comb + log_evidence) * entropy)
    return math.fsum(terms)


def test_long_horizon_matches_binomial_mixture():
    rounds = 200
    policy = Recording(RoundRobin())
    ledger, summary = run_episode(asym_binary_env(), policy, CostModel(), 1000.0,
                                  ExpectedMode(), max_rounds=rounds)
    assert summary.rounds == rounds
    # merged branches: round t asks about t + 1 count vectors, not 2^t histories
    assert [t for t, _ in policy.calls] == [t for t in range(rounds) for _ in range(t + 1)]
    h = [_binomial_mixture_entropy(n) for n in range(rounds + 1)]
    for t, rec in enumerate(ledger.records):
        assert abs(rec.info_gain - (h[t] - h[t + 1])) <= 1e-12
        assert abs(rec.belief_entropy_after - h[t + 1]) <= 1e-12
    assert abs(summary.posterior_entropy - h[rounds]) <= 1e-12

    # a bare RoundRobin chooses for all rows at once and is never shown a history
    rounds = 1000
    ledger, summary = run_episode(asym_binary_env(), RoundRobin(), CostModel(), 1e4,
                                  ExpectedMode(), max_rounds=rounds)
    assert summary.rounds == rounds
    for t in range(0, rounds, 100):
        h_t, h_next = _log_binomial_mixture_entropy(t), _log_binomial_mixture_entropy(t + 1)
        rec = ledger.records[t]
        assert abs(rec.info_gain - (h_t - h_next)) <= 1e-12
        assert abs(rec.belief_entropy_after - h_next) <= 1e-12
        # the entropy falls below 1e-12 by round 200; it still agrees to 1e-6 relative
        assert abs(rec.belief_entropy_after - h_next) <= 1e-6 * h_next
    h_end = _log_binomial_mixture_entropy(rounds)
    assert abs(summary.posterior_entropy - h_end) <= min(1e-12, 1e-6 * h_end)


def test_telescoping_against_enumeration_oracle():
    env = three_state_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 3.0, ExpectedMode(),
                                  max_rounds=3)
    tau = ledger.rounds_completed
    infos, hys, leaf_entropy = enumerate_episode(env, lambda t: t % 2, tau)
    for rec, info, hy in zip(ledger.records, infos, hys):
        assert rec.info_gain == pytest.approx(info, abs=1e-12)
        assert rec.outcome_entropy == pytest.approx(hy, abs=1e-12)
    assert summary.posterior_entropy == pytest.approx(leaf_entropy, abs=1e-12)
    drop = summary.prior_entropy - leaf_entropy
    assert summary.cumulative_info == pytest.approx(drop, abs=1e-10)


def test_work_model_charges_kappa_and_delta_f():
    env = asym_binary_env()
    cost = CostModel(1.5, 2.0, 0.1)
    ledger, _ = run_episode(env, RoundRobin(), CostModel(), 10.0, ExpectedMode(),
                            max_rounds=2)
    dissipative, _ = run_episode(env, RoundRobin(), cost, 10.0, ExpectedMode(),
                                 max_rounds=2)
    for base, hot in zip(ledger.records, dissipative.records):
        assert hot.work_meas == pytest.approx(1.5 * (base.info_gain + 0.1), abs=1e-12)
        assert hot.work_erase == pytest.approx(2.0 * base.stored_entropy, abs=1e-12)


def test_compression_reduces_work_at_fixed_horizon():
    env = three_state_env()
    merge = CompressionMap((0, 0, 1))
    plain, _ = run_episode(env, RoundRobin(), CostModel(), 50.0, ExpectedMode(),
                           max_rounds=3)
    squeezed, _ = run_episode(env, RoundRobin(), CostModel(), 50.0, ExpectedMode(),
                              compression=merge, max_rounds=3)
    assert squeezed.rounds_completed == plain.rounds_completed
    for a, b in zip(plain.records, squeezed.records):
        assert b.stored_entropy <= a.outcome_entropy + 1e-12
        assert b.info_gain == pytest.approx(a.info_gain, abs=1e-12)
    assert efficiency(squeezed) >= efficiency(plain) - 1e-12


def test_compression_mapping_must_cover_outcomes():
    env = three_state_env()
    with pytest.raises(IncompleteMapping):
        run_episode(env, RoundRobin(), CostModel(), 1.0, ExpectedMode(),
                    compression=CompressionMap((0, 1)))


def test_greedy_beats_every_fixed_choice_at_round_one():
    env = three_state_env()
    greedy, _ = run_episode(env, GreedyInfoMax(), CostModel(), 50.0, ExpectedMode(),
                            max_rounds=1)
    gains = [
        run_episode(env, FixedSequence((u,)), CostModel(), 50.0, ExpectedMode(),
                    max_rounds=1)[0].records[0].info_gain
        for u in range(env.intervention_count)
    ]
    assert greedy.records[0].info_gain >= max(gains) - 1e-12


def test_adaptive_policy_gets_null_intervention_record():
    # greedy diverges across branches from round 2 on in this environment
    env = three_state_env()
    ledger, _ = run_episode(env, GreedyInfoMax(), CostModel(), 50.0, ExpectedMode(),
                            max_rounds=2)
    assert ledger.records[0].intervention is not None
    data = ledger.to_json_dict()
    assert data["records"][0]["intervention"] is not None


# ---------------------------------------------------------------------------
# sampled mode


def _seeded_sampled_runs():
    """One sampled run per policy kind, with compression off and on, from fixed seeds."""
    env = random_environment(np.random.default_rng(7), 6, 3, 3)
    for policy in (FixedSequence((0, 2, 1, 1, 0)), RoundRobin(), RandomPolicy(11),
                   GreedyInfoMax()):
        for compression in (None, CompressionMap((0, 1, 1))):
            yield run_episode(env, policy, CostModel(1.5, 1.2, 0.05), 5.0,
                              SampledMode(seed=11, trials=500), compression)


def _seeded_sampled_digests():
    return [[hashlib.sha256(repr(part).encode()).hexdigest() for part in run]
            for run in _seeded_sampled_runs()]


_DIGESTS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_cycle
print(json.dumps(test_cycle._seeded_sampled_digests()))
"""


def test_sampled_mode_is_deterministic():
    # the ledger sums are numpy reductions, not BLAS products, so a seed gives the same
    # bits again in one process, and under any OpenBLAS thread count
    first = [repr(run) for run in _seeded_sampled_runs()]
    assert first == [repr(run) for run in _seeded_sampled_runs()]
    assert len(first) == 8
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(tests).parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _DIGESTS_SCRIPT, tests],
                              env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert digests[0] == digests[1] == _seeded_sampled_digests()


def _thread_env_json() -> str:
    # a seeded 16x8x4 environment: 8 expected rounds reach thousands of frontier rows, where
    # a BLAS product of the branch masses rounds by how OpenBLAS splits it over threads
    rng = np.random.default_rng(0)
    return json.dumps({"prior": rng.dirichlet(np.ones(16)).tolist(), "interventions": 8,
                       "likelihood": rng.dirichlet(np.ones(4), size=(8, 16)).tolist()})


def _under_blas_threads(args: list[str], threads: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("policy", ["roundrobin", "greedy", "random"])
def test_expected_ledgers_do_not_depend_on_the_blas_thread_count(tmp_path, policy):
    # every ledger value is a weighted row sum in numpy's pairwise order, whatever the threads
    env = tmp_path / "env.json"
    env.write_text(_thread_env_json())
    ledgers = []
    for threads in ("1", "2"):
        out = tmp_path / f"{policy}-{threads}.json"
        _under_blas_threads(["-m", "thermosci.cli", "simulate", "--env", str(env), "--policy",
                             policy, "--budget", "1e6", "--max-rounds", "8", "--out", str(out)],
                            threads)
        ledgers.append(out.read_bytes())
    assert ledgers[0] == ledgers[1]


def test_compressed_expected_ledgers_do_not_depend_on_the_blas_thread_count(tmp_path):
    # with a compression map the stored and outcome entropies are separate columns of the sum
    env = tmp_path / "env.json"
    env.write_text(_thread_env_json())
    script = (
        "import json, sys\n"
        "from thermosci import CompressionMap, EnvironmentModel, GreedyInfoMax, run_episode\n"
        "env = EnvironmentModel.from_json_dict(json.loads(open(sys.argv[1]).read()))\n"
        "ledger, summary = run_episode(env, GreedyInfoMax(), budget=1e6, max_rounds=8,\n"
        "                              compression=CompressionMap((0, 0, 1, 1)))\n"
        "print(repr(ledger), repr(summary))\n")
    runs = [_under_blas_threads(["-c", script, str(env)], threads) for threads in ("1", "2")]
    assert runs[0] == runs[1]


def test_sampled_mode_tracks_expected_mode():
    env = asym_binary_env()
    _, exp = run_episode(env, RoundRobin(), CostModel(), 1.6, ExpectedMode())
    _, smp = run_episode(env, RoundRobin(), CostModel(), 1.6,
                         SampledMode(seed=3, trials=2000))
    assert smp.cumulative_info_se is not None
    assert abs(smp.cumulative_info - exp.cumulative_info) <= 3 * smp.cumulative_info_se + 1e-12


def test_sampled_zero_budget():
    env = asym_binary_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 0.0,
                                  SampledMode(seed=0, trials=50))
    assert ledger.rounds_completed == 0
    assert summary.status == "budget_exhausted_immediately"


def test_sampled_random_policy_matches_expected():
    env = three_state_env()
    policy = RandomPolicy(seed=5)
    _, exp = run_episode(env, policy, CostModel(), 100.0, ExpectedMode(), max_rounds=2)
    _, smp = run_episode(env, policy, CostModel(), 100.0,
                         SampledMode(seed=9, trials=3000), max_rounds=2)
    assert abs(smp.cumulative_info - exp.cumulative_info) <= 3 * smp.cumulative_info_se + 1e-12


def test_constant_compression_stores_no_negative_entropy():
    # the pushforward of a constant map can sum to 1.0000000000000002, whose entropy is < 0
    env = random_environment(np.random.default_rng(8))
    ledger, _ = run_episode(env, RandomPolicy(9), CostModel(delta_f_mem=0.0023), 5.37,
                            SampledMode(seed=0, trials=182), CompressionMap((0, 0)), 50)
    assert min(r.stored_entropy for r in ledger.records) >= 0.0
    assert min(r.work_erase for r in ledger.records) >= 0.0


def _assert_near(got, literal, label=""):
    """A float within 1e-12 relative of the recorded ``literal`` (absolute below 1)."""
    assert type(got) is float and abs(got - literal) <= 1e-12 * max(1.0, abs(literal)), (
        label, got, literal)


def _assert_matches(got, literal: str):
    """A record or summary against its recorded repr: floats near, all else exactly."""
    want = eval(literal, {"RoundRecord": RoundRecord, "EpisodeSummary": EpisodeSummary})
    assert type(got) is type(want)
    for name, value in vars(want).items():
        if isinstance(value, float):
            _assert_near(getattr(got, name), value, name)
        else:
            assert getattr(got, name) == value, (name, literal)


def _pinned_sampled_run(*args):
    """``run_episode`` on ``args``, checked against the reference engine's per-trial sums."""
    got = run_episode(*args)
    _assert_same(got, run_reference(*args), args)
    return got


def test_sampled_stream_is_pinned():
    # the README example, simulate --budget 2 --units bits --mode sampled:10000 --seed 7;
    # the literals were recorded from the counter-based (SplitMix64) draws
    ledger, summary = _pinned_sampled_run(asym_binary_env(), GreedyInfoMax(), CostModel(),
                                          2 * LN2, SampledMode(seed=7, trials=10000))
    assert (summary.status, summary.rounds, summary.stop_reason, summary.trials) == (
        "ok", 1, "budget", 10000)
    assert ledger.records[0].intervention == 0
    _assert_near(summary.cumulative_info, 0.0863046217355341)
    _assert_near(summary.cumulative_info_se, 0.0)
    _assert_near(ledger.records[0].info_gain, 0.0863046217355341)
    # round 0 is the same in every trial; its mean posterior entropy counts the drawn outcomes
    _assert_near(ledger.records[0].belief_entropy_after, 0.6065755143391774)
    # with two rounds the gains themselves depend on the draws
    _, summary = _pinned_sampled_run(asym_binary_env(), RoundRobin(), CostModel(), 1.6,
                                     SampledMode(seed=7, trials=10000))
    assert (summary.status, summary.rounds, summary.stop_reason, summary.trials) == (
        "ok", 2, "budget", 10000)
    _assert_near(summary.cumulative_info, 0.15870991464162562)
    _assert_near(summary.cumulative_info_se, 7.50071645069167e-05)


def test_multi_row_sampled_ledger_is_pinned():
    # a 6x3x3 environment under RandomPolicy with compression: trials spread over many
    # frontier rows and run out of budget in rounds 4, 5 and 6; recorded from the
    # counter-based (SplitMix64) draws
    env = random_environment(np.random.default_rng(7), 6, 3, 3)
    assert (env.n_states, env.n_outcomes, env.intervention_count) == (6, 3, 3)
    ledger, summary = _pinned_sampled_run(env, RandomPolicy(11), CostModel(1.5, 1.2, 0.05),
                                          5.0, SampledMode(seed=3, trials=1000),
                                          CompressionMap((0, 1, 1)))
    literals = [
        "RoundRecord(round_index=0, intervention=0, info_gain=0.1194986961236273, "
        "outcome_entropy=1.0948227337908547, stored_entropy=0.6066805241399778, "
        "work_meas=0.2542480441854409, work_erase=0.7280166289679733, "
        "belief_entropy_after=1.148839315638021)",
        "RoundRecord(round_index=1, intervention=None, info_gain=0.13983843975720578, "
        "outcome_entropy=1.0690359397391413, stored_entropy=0.6443254015593048, "
        "work_meas=0.2847576596358086, work_erase=0.7731904818711657, "
        "belief_entropy_after=1.0096715133835945)",
        "RoundRecord(round_index=2, intervention=None, info_gain=0.12103705992875227, "
        "outcome_entropy=1.0021426243582072, stored_entropy=0.6129875692137357, "
        "work_meas=0.2565555898931283, work_erase=0.7355850830564828, "
        "belief_entropy_after=0.887507568206321)",
        "RoundRecord(round_index=3, intervention=None, info_gain=0.10569992750379069, "
        "outcome_entropy=0.9965131947263451, stored_entropy=0.6250688693996834, "
        "work_meas=0.23354989125568604, work_erase=0.7500826432796202, "
        "belief_entropy_after=0.7910336059369247)",
        "RoundRecord(round_index=4, intervention=None, info_gain=0.03624051916883372, "
        "outcome_entropy=0.5659987892412962, stored_entropy=0.3575494837054315, "
        "work_meas=0.09823577875325058, work_erase=0.42905938044651776, "
        "belief_entropy_after=0.7497044700194251)",
        "RoundRecord(round_index=5, intervention=2, info_gain=0.00015924473830243425, "
        "outcome_entropy=0.009034800776237993, stored_entropy=0.004051884425579777, "
        "work_meas=0.0009138671074536515, work_erase=0.004862261310695733, "
        "belief_entropy_after=0.7493979707568696)",
    ]
    assert len(ledger.records) == len(literals)
    for record, literal in zip(ledger.records, literals):
        _assert_matches(record, literal)
    _assert_near(ledger.budget_spent, 4.549057309763223)
    _assert_matches(summary, (
        "EpisodeSummary(status='ok', mode='sampled', stop_reason='budget', "
        "prior_entropy=1.2714470935576125, posterior_entropy=0.7493979707568696, "
        "cumulative_info=0.5224738872205121, rounds=6, trials=1000, "
        "cumulative_info_se=0.0021754672497043457)"))


def test_sampled_ledger_across_the_grouping_threshold_is_pinned():
    # README environment, 2,000 trials, 40 rounds: the frontier doubles each round, from 1
    # row to 756 rows in round 10 and 1,027 in round 11, where an earlier engine switched
    # from summing over rows to summing over trials; recorded from the counter-based
    # (SplitMix64) draws. All 40 records are checked against the per-trial sums.
    ledger, summary = _pinned_sampled_run(asym_binary_env(), RoundRobin(), CostModel(),
                                          math.inf, SampledMode(0, 2000), None, 40)
    assert len(ledger.records) == 40
    for k, literal in zip((0, 9, 10, 11, 39), [
        "RoundRecord(round_index=0, intervention=0, info_gain=0.0863046217355341, "
        "outcome_entropy=0.6730116670092563, stored_entropy=0.6730116670092563, "
        "work_meas=0.0863046217355341, work_erase=0.6730116670092563, "
        "belief_entropy_after=0.6076956175966851)",
        "RoundRecord(round_index=9, intervention=0, info_gain=0.026827389652427522, "
        "outcome_entropy=0.6132093275669911, stored_entropy=0.6132093275669911, "
        "work_meas=0.026827389652427522, work_erase=0.6132093275669911, "
        "belief_entropy_after=0.2217358815760592)",
        "RoundRecord(round_index=10, intervention=0, info_gain=0.02336969775298666, "
        "outcome_entropy=0.6093019867406648, stored_entropy=0.6093019867406648, "
        "work_meas=0.02336969775298666, work_erase=0.6093019867406648, "
        "belief_entropy_after=0.20275552284059592)",
        "RoundRecord(round_index=11, intervention=0, info_gain=0.021354678980462168, "
        "outcome_entropy=0.6073276994214584, stored_entropy=0.6073276994214584, "
        "work_meas=0.021354678980462168, work_erase=0.6073276994214584, "
        "belief_entropy_after=0.17894505704078542)",
        "RoundRecord(round_index=39, intervention=0, info_gain=0.0011017589600829658, "
        "outcome_entropy=0.5877322257055302, stored_entropy=0.5877322257055302, "
        "work_meas=0.0011017589600829658, work_erase=0.5877322257055302, "
        "belief_entropy_after=0.010189698915736841)",
    ]):
        _assert_matches(ledger.records[k], literal)
    _assert_near(ledger.budget_spent, 24.87638211385321)
    _assert_matches(summary, (
        "EpisodeSummary(status='ok', mode='sampled', stop_reason='max_rounds', "
        "prior_entropy=0.6931471805599453, posterior_entropy=0.010189698915736841, "
        "cumulative_info=0.7070479855818188, rounds=40, trials=2000, "
        "cumulative_info_se=0.00983723108796293)"))


# ---------------------------------------------------------------------------
# randomized families


def test_bounds_hold_across_random_episodes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        env = random_environment(rng)
        policy = random_policy(rng, env)
        cost = CostModel(float(rng.uniform(1, 3)), float(rng.uniform(1, 3)),
                         float(rng.uniform(0, 0.5)))
        budget = float(rng.uniform(0.5, 4.0))
        ledger, summary = run_episode(env, policy, cost, budget, ExpectedMode(),
                                      max_rounds=4)
        for rec in ledger.records:
            assert rec.work_meas + rec.work_erase >= rec.info_gain + rec.stored_entropy - 1e-12
        total_floor = sum(r.info_gain + r.stored_entropy for r in ledger.records)
        assert ledger.budget_spent >= total_floor - 1e-10
        if ledger.budget_spent > 0 and total_floor > 0:
            cum = cumulative_information(ledger)
            assert efficiency(ledger) <= cum / total_floor + 1e-10
            assert cum / total_floor <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# ledger serialization


def test_ledger_json_round_trip_nats():
    env = asym_binary_env()
    ledger, _ = run_episode(env, RoundRobin(), CostModel(), 1.6, ExpectedMode())
    clone = WorkLedger.from_json_dict(ledger.to_json_dict())
    assert clone == ledger


def test_ledger_json_bits_conversion():
    env = noiseless_binary_env()
    ledger, _ = run_episode(env, RoundRobin(), CostModel(), 2 * LN2, ExpectedMode())
    bits = ledger.to_json_dict(Units.BITS)
    assert bits["units"] == "bits"
    assert bits["records"][0]["info_gain"] == pytest.approx(1.0, abs=1e-12)
    assert bits["budget_spent"] == pytest.approx(2.0, abs=1e-12)
    back = WorkLedger.from_json_dict(bits)
    assert back.budget_spent == pytest.approx(ledger.budget_spent, abs=1e-12)


def test_ledger_json_bits_are_nats_divided_by_ln2():
    # one rounding: x * (1 / ln 2) rounds twice and is an ulp off in about a third of values
    env = random_environment(np.random.default_rng(7), max_states=6, max_outcomes=4)
    ledger, _ = run_episode(env, RandomPolicy(seed=7), CostModel(delta_f_mem=0.3), 4.0,
                            ExpectedMode(), max_rounds=6)
    nats = ledger.to_json_dict(Units.NATS)
    bits = ledger.to_json_dict(Units.BITS)
    pairs = [(nats[k], bits[k]) for k in ("budget_total", "budget_spent")]
    pairs += [(nats["totals"][k], bits["totals"][k]) for k in nats["totals"]]
    pairs += [(n[k], b[k]) for n, b in zip(nats["records"], bits["records"])
              for k in n if k not in ("round", "intervention")]
    assert len(pairs) > 10
    assert [b for _, b in pairs] == [n / LN2 for n, _ in pairs]


def test_bits_ledger_past_the_float_range_names_its_first_field():
    # 1.511e308 nats spent on the README environment: in bits the spent work, and the finite
    # budget, are past the float range, and were written as Infinity, an unbounded budget
    ledger, _ = run_episode(asym_binary_env(), RoundRobin(), CostModel(5e306, 1.0, 10.0),
                            1.7e308, max_rounds=3)
    assert ledger.budget_spent > 1.5e308
    assert WorkLedger.from_json_dict(ledger.to_json_dict(Units.NATS)) == ledger
    with pytest.raises(InvalidLedger, match=r"^budget_total 1\.7e\+308 nats is past the float "
                                            r"range in bits$"):
        ledger.to_json_dict(Units.BITS)


def test_bits_ledger_keeps_an_unbounded_budget_and_names_the_spent_work():
    record = RoundRecord(0, 0, 0.5, 0.6, 0.6, 1.5e308, 0.6, 0.1)
    ledger = WorkLedger((record,), math.inf, record.work_meas + record.work_erase)
    with pytest.raises(InvalidLedger, match=r"^budget_spent 1\.5e\+308 nats is past the float "
                                            r"range in bits$"):
        ledger.to_json_dict(Units.BITS)
    assert ledger.to_json_dict(Units.NATS)["budget_total"] == math.inf


@pytest.mark.parametrize("value, shown", [("0.2", "'0.2'"),
                                          (10**400, "an integer past the float range")],
                         ids=["string", "10**400"])
@pytest.mark.parametrize("field", [*RECORD_FIELDS, "budget_spent"])
def test_ledger_json_names_a_number_that_is_not_a_json_float(field, value, shown):
    # a JSON string, or an integer past the float range, fails by its path in a short message
    ledger, _ = run_episode(asym_binary_env(), RoundRobin(), CostModel(), 1.6, ExpectedMode())
    data = ledger.to_json_dict()
    path = field if field == "budget_spent" else f"records[1].{field}"
    (data if field == "budget_spent" else data["records"][1])[field] = value
    with pytest.raises(InvalidLedger) as info:
        WorkLedger.from_json_dict(data)
    assert str(info.value) == f"{path} must be finite, got {shown}"


@pytest.mark.parametrize("value, shown", [("5", "'5'"), (True, "True"), (False, "False")],
                         ids=["string", "true", "false"])
def test_ledger_json_rejects_a_budget_total_that_is_not_a_number(value, shown):
    # float() would read "5" as 5.0 and True as 1.0
    ledger, _ = run_episode(asym_binary_env(), RoundRobin(), CostModel(), 1.6, ExpectedMode())
    data = ledger.to_json_dict()
    data["budget_total"] = value
    with pytest.raises(InvalidLedger) as info:
        WorkLedger.from_json_dict(data)
    assert str(info.value) == f"budget_total must be finite, got {shown}"


@pytest.mark.parametrize("units", ["nats", "bits"])
def test_ledger_json_accepts_an_infinite_budget_total(units):
    ledger, _ = run_episode(asym_binary_env(), RoundRobin(), CostModel(), math.inf,
                            ExpectedMode(), max_rounds=3)
    text = json.dumps(ledger.to_json_dict(units))
    assert '"budget_total": Infinity' in text
    back = WorkLedger.from_json_dict(json.loads(text))
    assert back.budget_total == math.inf
    assert back.budget_spent == pytest.approx(ledger.budget_spent, abs=1e-12)


def test_ledger_json_names_an_out_of_range_count_without_its_digits():
    ledger, _ = run_episode(asym_binary_env(), RoundRobin(), CostModel(), 1.6, ExpectedMode())
    data = ledger.to_json_dict()
    data["records"][0]["round"] = 10**400
    with pytest.raises(InvalidLedger) as info:
        WorkLedger.from_json_dict(data)
    assert "records[0].round" in str(info.value)
    assert len(str(info.value)) < 120

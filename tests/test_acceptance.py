"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np

from thermosci import (
    CostModel,
    DiscreteDistribution,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    Pair,
    RoundRobin,
    SampledMode,
    SweepAxes,
    ToyParams,
    c_fed,
    delta_eta,
    federated_eta_cap,
    generalist_partition,
    h_fed,
    mutual_information_of_joint,
    run_episode,
    scenario_from_partition,
    specialist_partition,
    sweep,
    unpartitioned_eta_cap,
)
from thermosci.strategies import build_partition_from_joint

from helpers import (
    asym_binary_env,
    enumerate_episode,
    entropy_of,
    random_environment,
    three_state_env,
)

LN2 = math.log(2.0)


def _report(n: int, text: str) -> None:
    print(f"PASS  criterion {n}: {text}")


def test_criterion_1_symmetric_panel_reproduction():
    started = time.perf_counter()
    params = ToyParams.symmetric(alpha=0.3, c_min=0.05, gamma=1.0)
    grid = sweep(Pair.FED_GEN, params, SweepAxes.default_n())  # 200 x 100 default
    assert grid.omega.size == 200 and grid.axis2.size == 100
    assert float(grid.delta.max()) <= 1e-12

    ceiling = 1.0 / 1.3
    for j, n in enumerate(grid.axis2):
        eta_fed = grid.eta_first[j]
        eta_gen = grid.eta_second[j]
        eta_spec = np.minimum(params.c_min / grid.omega, ceiling)
        assert np.all(eta_gen >= eta_fed - 1e-15)
        assert np.all(eta_fed >= eta_spec - 1e-15)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, f"symmetric fed-gen grid never positive; ordering gen >= fed >= spec "
               f"holds at all {grid.delta.size} nodes ({elapsed:.2f}s)")


def test_criterion_2_asymmetric_ceiling_value():
    params = ToyParams.asymmetric(alphas=(0.8, 0.4, 0.2))
    expected = 1.0 / 1.2 - 1.0 / 1.8
    assert abs(expected - 0.2777778) < 5e-8
    for c_spec in np.linspace(0.05, 1.0, 100):
        got = delta_eta(Pair.SPEC_GEN, 1e-2, params, float(c_spec))
        assert abs(got - expected) <= 1e-9
    _report(2, f"spec-gen difference at omega=1e-2 equals {expected:.7f} "
               f"for every c_spec (tol 1e-9)")


def test_criterion_3_phase_boundary_matches_analysis():
    params = ToyParams.asymmetric(alphas=(0.8, 0.4, 0.2))
    grid = sweep(Pair.FED_GEN, params, SweepAxes.default_n())
    assert len(grid.contours) >= 1

    log_step = math.log(grid.omega[1] / grid.omega[0])
    worst = 0.0
    for line in grid.contours:
        for omega, n in line:
            target = 1.8 * c_fed(float(n), params.c_min, params.gamma)
            assert grid.omega[0] <= target <= grid.omega[-1]
            worst = max(worst, abs(math.log(float(omega)) - math.log(target)) / log_step)
    assert worst <= 1.0 + 1e-6

    assert delta_eta(Pair.FED_GEN, 0.4, params, 4.0) > 0.0
    assert delta_eta(Pair.FED_GEN, 0.6, params, 4.0) < 0.0

    # the computed boundary direction, stated rather than hidden
    boundary = [1.8 * c_fed(n, params.c_min, params.gamma) for n in (1.0, 5.0, 10.0, 20.0)]
    assert all(b1 > b2 for b1, b2 in zip(boundary, boundary[1:]))
    _report(3, f"fed-gen contour within {worst:.2f} grid cells of omega*(n) = "
               f"1.8*c_fed(n); sign probes at n=4 pass; computed boundary is "
               f"monotonically decreasing in n")


def test_criterion_4_telescoping_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20260810)
    checked = 0
    worst = 0.0
    while checked < 50:
        env = random_environment(rng, max_states=5, max_outcomes=4, max_interventions=3)
        if int(rng.integers(0, 2)):
            plan = [int(u) for u in rng.integers(0, env.intervention_count, size=4)]
            policy, u_of_round = FixedSequence(tuple(plan)), (lambda t, p=plan: p[t])
        else:
            policy, u_of_round = RoundRobin(), (
                lambda t, k=env.intervention_count: t % k)
        budget = float(rng.uniform(0.5, 5.0))
        ledger, summary = run_episode(env, policy, CostModel(), budget,
                                      ExpectedMode(), max_rounds=4)
        tau = ledger.rounds_completed
        infos, _, leaf_entropy = enumerate_episode(env, u_of_round, tau)
        lhs = sum(r.info_gain for r in ledger.records)
        rhs = entropy_of(env.prior.probs) - leaf_entropy
        gap = abs(lhs - rhs)
        worst = max(worst, gap)
        assert gap <= 1e-10
        for rec, oracle_info in zip(ledger.records, infos):
            assert abs(rec.info_gain - oracle_info) <= 1e-10
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(4, f"telescoping identity on {checked} environments, worst gap "
               f"{worst:.2e} <= 1e-10 ({elapsed:.2f}s)")


def test_criterion_5_bound_satisfaction():
    rng = np.random.default_rng(777)
    episodes = 0
    while episodes < 50:
        env = random_environment(rng, max_states=5, max_outcomes=4, max_interventions=3)
        cost = CostModel(float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 3.0)),
                         float(rng.uniform(0.0, 0.5)))
        policy = (RoundRobin(), GreedyInfoMax())[int(rng.integers(0, 2))]
        budget = float(rng.uniform(0.5, 6.0))
        ledger, summary = run_episode(env, policy, cost, budget, ExpectedMode(),
                                      max_rounds=4)
        # per-round work floor
        for rec in ledger.records:
            assert rec.work_meas + rec.work_erase >= (
                rec.info_gain + rec.stored_entropy) - 1e-10
        # cumulative work floor
        floor = sum(r.info_gain + r.stored_entropy for r in ledger.records)
        assert ledger.budget_spent >= floor - 1e-10
        # efficiency cap chain
        total_info = sum(r.info_gain for r in ledger.records)
        if ledger.budget_spent > 0.0 and floor > 0.0:
            eta = total_info / ledger.budget_spent
            assert eta <= total_info / floor + 1e-10
            assert total_info / floor <= 1.0 + 1e-10
        # budget-information cap from the ledger's own scenario
        stored = sum(r.stored_entropy for r in ledger.records)
        cap = max(0.0, min(summary.prior_entropy, ledger.budget_spent - stored))
        assert total_info <= cap + 1e-10
        episodes += 1
    _report(5, f"work floors, efficiency caps, and the budget-information cap hold "
               f"for {episodes} dissipative episodes (tol 1e-10)")


def test_criterion_6_limit_reductions():
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        prior = DiscreteDistribution(rng.dirichlet(np.ones(int(rng.integers(2, 7)))))
        budget = float(rng.uniform(0.05, 6.0))
        shy = float(rng.uniform(0.0, 2.5))
        part = generalist_partition(prior, budget)
        scenario = scenario_from_partition(part, entropy_of(prior.probs), (shy,))
        assert federated_eta_cap(scenario) == unpartitioned_eta_cap(scenario)

    for _ in range(500):
        n = int(rng.integers(2, 6))
        priors = tuple(DiscreteDistribution(rng.dirichlet(np.ones(4))) for _ in range(n))
        i_star = int(rng.integers(0, n))
        budget = float(rng.uniform(0.1, 5.0))
        shy = [0.0] * n
        shy[i_star] = float(rng.uniform(0.0, 1.5))
        part = specialist_partition(priors, i_star, budget)
        scenario = scenario_from_partition(part, math.log(4.0), shy)
        h_spec = entropy_of(priors[i_star].probs)
        single = max(0.0, min(h_spec / budget, 1.0 - shy[i_star] / budget))
        assert abs(federated_eta_cap(scenario) - single) <= 1e-12
    _report(6, "generalist partition reproduces the unpartitioned cap bit-for-bit "
               "on 1000 scenarios; specialist matches the single-subdomain bound "
               "on 500 (tol 1e-12)")


def test_criterion_7_chain_rule_consistency():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(500):
        n_states = int(rng.integers(2, 9))
        n_sub = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(n_states * n_sub)).reshape(n_states, n_sub)
        part = build_partition_from_joint(joint, tuple([0.0] * n_sub))
        h_gen = entropy_of(joint.sum(axis=1))
        gap = h_gen - h_fed(part)
        assert gap >= -1e-12
        mi = mutual_information_of_joint(joint)
        worst = max(worst, abs(gap - mi))
        assert abs(gap - mi) <= 1e-10
    _report(7, f"entropy gap equals joint mutual information on 500 random joints, "
               f"worst deviation {worst:.2e} <= 1e-10")


def test_criterion_8_sampled_matches_expected():
    suite = [
        (asym_binary_env(), RoundRobin(), 1.6, None),
        (three_state_env(), GreedyInfoMax(), 50.0, 2),
        (asym_binary_env(prior=(0.3, 0.7)), FixedSequence((0, 0, 0)), 100.0, 3),
    ]
    details = []
    for i, (env, policy, budget, max_rounds) in enumerate(suite):
        _, expected = run_episode(env, policy, CostModel(), budget, ExpectedMode(),
                                  max_rounds=max_rounds)
        _, sampled = run_episode(env, policy, CostModel(), budget,
                                 SampledMode(seed=20260810, trials=10_000),
                                 max_rounds=max_rounds)
        gap = abs(sampled.cumulative_info - expected.cumulative_info)
        se = sampled.cumulative_info_se
        assert se is not None and se > 0.0
        assert gap <= 3.0 * se + 1e-12
        details.append(f"env{i}: {gap / se:.2f} se")
    _report(8, "sampled mode (10k trials) matches expected mode within 3 standard "
               "errors on the fixed suite (" + ", ".join(details) + ")")


def test_criterion_9_byte_identical_sweeps(tmp_path):
    outputs = []
    for run in range(3):
        path = tmp_path / f"panel_d_run_{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "thermosci.cli", "sweep", "--panel", "D",
             "--out", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    _report(9, "panel-D sweep output is byte-identical across three separate runs")

import math

import numpy as np
import pytest

from thermosci import (
    BudgetScenario,
    CostModel,
    ExpectedMode,
    Regime,
    RoundRobin,
    SubdomainBudget,
    bound_report,
    cumulative_information,
    federated_eta_cap,
    federated_info_cap,
    mutual_information_of_joint,
    partition_entropy_gap,
    per_subdomain_cap,
    regime_classify,
    run_episode,
    scenario_from_ledger,
    unpartitioned_eta_cap,
    unpartitioned_info_cap,
)
from thermosci.errors import (
    InvalidParameter,
    MissingPartition,
    NegativeGap,
    ZeroBudget,
    ZeroPriorEntropy,
)

from helpers import noiseless_binary_env

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_rejects_negative_fields():
    with pytest.raises(InvalidParameter):
        BudgetScenario(-1.0, 1.0, 0.0)


def test_scenario_checks_subdomain_mass_and_budget():
    subs = (SubdomainBudget(0.5, 1.0, 2.0, 0.0), SubdomainBudget(0.4, 1.0, 2.0, 0.0))
    with pytest.raises(InvalidParameter):
        BudgetScenario(1.0, 2.0, 0.0, subs)
    subs = (SubdomainBudget(0.5, 1.0, 2.0, 0.0), SubdomainBudget(0.5, 1.0, 2.0, 0.0))
    with pytest.raises(InvalidParameter):
        BudgetScenario(1.0, 3.0, 0.0, subs)  # weighted budgets give 2.0, not 3.0


def test_scenario_accepts_its_weighted_budget_summed_in_another_order():
    subs = (SubdomainBudget(0.517, 1.0, 5248722.5, 0.0),
            SubdomainBudget(0.218, 1.0, 6474498.3, 0.0),
            SubdomainBudget(0.265, 1.0, 5996937.4, 0.0))
    forward = sum(s.p * s.beta_w for s in subs)
    reverse = sum(s.p * s.beta_w for s in reversed(subs))
    assert abs(forward - reverse) > 1e-10  # past the tolerance, were it absolute
    assert BudgetScenario(1.0, reverse, 0.0, subs).beta_w == reverse


def test_scenario_json_round_trip():
    subs = (SubdomainBudget(0.5, 1.0, 0.4, 0.1), SubdomainBudget(0.5, 1.0, 2.0, 0.5))
    s = BudgetScenario(2.0, 1.2, 0.3, subs)
    clone = BudgetScenario.from_json_dict(s.to_json_dict())
    assert clone == s
    flat = BudgetScenario(2.0, 1.2, 0.3)
    assert BudgetScenario.from_json_dict(flat.to_json_dict()) == flat


@pytest.mark.parametrize("value, message", [
    ("0.5", "h0 must be finite, got '0.5'"),
    (10**400, "h0 must be finite, got an integer past the float range"),
    (-10**400, "h0 must be finite, got an integer past the float range"),
])
def test_scenario_json_rejects_a_number_that_is_not_a_json_float(value, message):
    with pytest.raises(InvalidParameter) as info:
        BudgetScenario.from_json_dict({"h0": value, "beta_w": 1.0, "sum_hy": 0.0})
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# unpartitioned caps


def test_info_cap_prior_limited():
    assert unpartitioned_info_cap(BudgetScenario(2.0, 10.0, 3.0)) == 2.0


def test_info_cap_budget_limited():
    assert unpartitioned_info_cap(BudgetScenario(2.0, 1.0, 0.5)) == 0.5


def test_info_cap_floors_at_zero():
    assert unpartitioned_info_cap(BudgetScenario(2.0, 1.0, 1.0)) == 0.0
    assert unpartitioned_info_cap(BudgetScenario(2.0, 1.0, 1.5)) == 0.0


def test_eta_cap_values():
    assert unpartitioned_eta_cap(BudgetScenario(2.0, 10.0, 3.0)) == pytest.approx(0.2)
    assert unpartitioned_eta_cap(BudgetScenario(5.0, 2.0, 0.0)) == 1.0
    assert unpartitioned_eta_cap(BudgetScenario(1.0, 0.5, 0.4)) == pytest.approx(0.2)


def test_eta_cap_zero_budget():
    with pytest.raises(ZeroBudget):
        unpartitioned_eta_cap(BudgetScenario(1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# per-subdomain and federated caps


def test_per_subdomain_cap_values():
    assert per_subdomain_cap(0.5, 1.0, 5.0, 1.0) == 1.0
    assert per_subdomain_cap(0.5, 1.0, 0.0, 0.0) == 0.0
    assert per_subdomain_cap(0.5, 0.0, 5.0, 0.0) == 0.0


def test_federated_info_cap_weighted_mean():
    subs = (SubdomainBudget(0.5, 1.0, 2.0, 1.0), SubdomainBudget(0.5, 2.0, 6.0, 1.0))
    s = BudgetScenario(2.0, 4.0, 1.0, subs)
    assert federated_info_cap(s) == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)


def test_federated_info_cap_degenerate_mass():
    subs = (SubdomainBudget(1.0, 1.5, 2.0, 0.5), SubdomainBudget(0.0, 3.0, 0.0, 0.0))
    s = BudgetScenario(2.0, 2.0, 0.5, subs)
    assert federated_info_cap(s) == pytest.approx(per_subdomain_cap(1.0, 1.5, 2.0, 0.5))


def test_federated_info_cap_hand_value():
    subs = (SubdomainBudget(0.5, 1.0, 0.4, 0.1), SubdomainBudget(0.5, 1.0, 2.0, 0.5))
    s = BudgetScenario(2.0, 1.2, 0.3, subs)
    assert federated_info_cap(s) == pytest.approx(0.5 * 0.3 + 0.5 * 1.0, abs=1e-12)


def test_federated_requires_subdomains():
    s = BudgetScenario(1.0, 1.0, 0.0)
    with pytest.raises(MissingPartition):
        federated_info_cap(s)
    with pytest.raises(MissingPartition):
        federated_eta_cap(s)


def test_federated_eta_cap_hand_value():
    subs = (SubdomainBudget(0.5, 1.0, 4.0, 1.0), SubdomainBudget(0.5, 3.0, 4.0, 1.0))
    s = BudgetScenario(3.0, 4.0, 1.0, subs)
    assert federated_eta_cap(s) == pytest.approx(min(2.0 / 4.0, 1.0 - 1.0 / 4.0), abs=1e-15)
    assert federated_eta_cap(s) == pytest.approx(0.5, abs=1e-12)


def test_trivial_partition_equals_unpartitioned():
    subs = (SubdomainBudget(1.0, 1.3, 2.4, 0.7),)
    s = BudgetScenario(1.3, 2.4, 0.7, subs)
    assert federated_eta_cap(s) == unpartitioned_eta_cap(s)
    assert federated_info_cap(s) == unpartitioned_info_cap(s)


def test_nothing_left_to_learn():
    subs = (SubdomainBudget(0.5, 0.0, 1.0, 0.0), SubdomainBudget(0.5, 0.0, 1.0, 0.0))
    s = BudgetScenario(0.0, 1.0, 0.0, subs)
    assert federated_eta_cap(s) == 0.0


# ---------------------------------------------------------------------------
# entropy gap and regimes


def test_entropy_gap_values():
    assert partition_entropy_gap(1.0, 1.0) == 0.0
    gap = partition_entropy_gap(math.log(4.0), math.log(2.0))
    assert gap == pytest.approx(LN2, abs=1e-12)
    joint = np.array([[0.25, 0.0], [0.25, 0.0], [0.0, 0.25], [0.0, 0.25]])
    assert gap == pytest.approx(mutual_information_of_joint(joint), abs=1e-12)


def test_entropy_gap_rejects_inconsistent_inputs():
    with pytest.raises(NegativeGap):
        partition_entropy_gap(1.0, 1.1)
    # tolerance window clamps to zero instead of going negative
    assert partition_entropy_gap(1.0, 1.0 + 5e-13) == 0.0


@pytest.mark.parametrize("h_gen, h_fed, field", [
    (math.nan, 0.0, "h_gen"),
    (1.0, math.nan, "h_fed"),
])
def test_entropy_gap_rejects_nan_by_name(h_gen, h_fed, field):
    with pytest.raises(InvalidParameter, match=field):
        partition_entropy_gap(h_gen, h_fed)


def test_regime_classification():
    assert regime_classify(100.0, 1.0).regime is Regime.PRIOR_LIMITED
    assert regime_classify(0.01, 1.0).regime is Regime.BUDGET_LIMITED
    mid = regime_classify(1.0, 1.0)
    assert mid.regime is Regime.CROSSOVER
    assert mid.ratio == 1.0
    # the thresholds are strict: a ratio of exactly 10 or 0.1 is a crossover
    assert regime_classify(10.0, 1.0).regime is Regime.CROSSOVER
    assert regime_classify(10.000001, 1.0).regime is Regime.PRIOR_LIMITED
    assert regime_classify(0.1, 1.0).regime is Regime.CROSSOVER
    assert regime_classify(0.099999, 1.0).regime is Regime.BUDGET_LIMITED
    with pytest.raises(ZeroPriorEntropy):
        regime_classify(1.0, 0.0)


@pytest.mark.parametrize("build, field", [
    (lambda: regime_classify(math.nan, 1.0), "beta_w"),
    (lambda: regime_classify(1.0, math.nan), "h"),
    (lambda: per_subdomain_cap(math.nan, 1.0, 1.0, 0.0), "p"),
    (lambda: per_subdomain_cap(0.5, 1.0, 1.0, math.nan), "sum_hy"),
    (lambda: SubdomainBudget(1.0, 1.0, math.nan, 0.0), "beta_w"),
    (lambda: BudgetScenario(math.nan, 1.0, 0.0), "h0"),
    (lambda: BudgetScenario(1.0, 1.0, math.nan), "sum_hy"),
])
def test_nan_inputs_are_rejected_by_name(build, field):
    with pytest.raises(InvalidParameter, match=field):
        build()


def test_infinite_inputs_stay_valid():
    assert regime_classify(math.inf, 1.0).regime is Regime.PRIOR_LIMITED
    assert per_subdomain_cap(1.0, 1.0, math.inf, 0.0) == 1.0
    assert unpartitioned_info_cap(BudgetScenario(1.0, math.inf, 0.0)) == 1.0


# ---------------------------------------------------------------------------
# properties


def test_caps_monotone_in_budget_and_noise():
    rng = np.random.default_rng(123)
    for _ in range(300):
        h0, bw, shy = rng.uniform(0.0, 3.0, size=3)
        bump = float(rng.uniform(0.0, 2.0))
        base = unpartitioned_info_cap(BudgetScenario(h0, bw, shy))
        assert unpartitioned_info_cap(BudgetScenario(h0, bw + bump, shy)) >= base - 1e-12
        assert unpartitioned_info_cap(BudgetScenario(h0, bw, shy + bump)) <= base + 1e-12
        if bw > 0:
            eta = unpartitioned_eta_cap(BudgetScenario(h0, bw, shy))
            assert unpartitioned_eta_cap(BudgetScenario(h0, bw, shy + bump)) <= eta + 1e-12


def test_federated_cap_below_global_caps():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        h = rng.uniform(0.0, 2.0, size=n)
        shy = rng.uniform(0.0, 1.0, size=n)
        w = shy + rng.uniform(0.0, 4.0, size=n)
        subs = tuple(SubdomainBudget(float(p[i]), float(h[i]), float(w[i]), float(shy[i]))
                     for i in range(n))
        beta_w = sum(s.p * s.beta_w for s in subs)
        s = BudgetScenario(float(h.max()), beta_w, sum(s_.p * s_.sum_hy for s_ in subs), subs)
        fed = federated_info_cap(s)
        assert fed <= sum(sub.p * sub.h for sub in subs) + 1e-12
        assert fed <= beta_w - sum(sub.p * sub.sum_hy for sub in subs) + 1e-12


# ---------------------------------------------------------------------------
# ledger-facing oracle duties


def test_ledger_cap_and_report_on_noiseless_round():
    env = noiseless_binary_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 2 * LN2, ExpectedMode())
    scenario = scenario_from_ledger(ledger, summary.prior_entropy)
    assert scenario.beta_w == pytest.approx(2 * LN2, abs=1e-12)
    assert scenario.sum_hy == pytest.approx(LN2, abs=1e-12)
    cap = unpartitioned_info_cap(scenario)
    assert cumulative_information(ledger) <= cap + 1e-10
    eta_cap = unpartitioned_eta_cap(scenario)
    assert eta_cap == pytest.approx(0.5, abs=1e-12)

    checks = bound_report(ledger, summary.prior_entropy)
    assert {c.name for c in checks} == {
        "round_work_floor", "total_work_floor", "efficiency_cap", "info_cap"}
    assert all(c.passed for c in checks)


def test_bound_report_on_empty_ledger():
    env = noiseless_binary_env()
    ledger, summary = run_episode(env, RoundRobin(), CostModel(), 0.0, ExpectedMode())
    checks = bound_report(ledger, summary.prior_entropy)
    assert all(c.passed for c in checks)

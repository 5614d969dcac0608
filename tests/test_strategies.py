import json
import math

import numpy as np
import pytest

from thermosci import (
    DiscreteDistribution,
    PartitionSpec,
    build_partition_from_joint,
    federated_eta_cap,
    federated_info_cap,
    generalist_partition,
    h_fed,
    mutual_information_of_joint,
    partition_entropy_gap,
    scenario_from_partition,
    specialist_partition,
    unpartitioned_eta_cap,
    unpartitioned_info_cap,
)
from thermosci.errors import (
    IndexOutOfRange,
    InvalidDistribution,
    InvalidParameter,
    ZeroMassSubdomain,
)

from helpers import entropy_of

LN2 = math.log(2.0)

HALVES_JOINT = np.array([[0.25, 0.0], [0.25, 0.0], [0.0, 0.25], [0.0, 0.25]])


# ---------------------------------------------------------------------------
# PartitionSpec validation


def test_entropies_or_priors_required():
    with pytest.raises(InvalidParameter):
        PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 1.0))


def test_supplied_entropies_cross_checked_against_priors():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([1.0, 0.0]))
    with pytest.raises(InvalidParameter):
        PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 1.0),
                      conditional_priors=priors, subdomain_entropies=(LN2, 0.5))
    spec = PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 1.0),
                         conditional_priors=priors, subdomain_entropies=(LN2, 0.0))
    assert spec.subdomain_entropies == pytest.approx((LN2, 0.0))


def test_zero_mass_subdomain_with_budget_rejected():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([1.0, 0.0]))
    with pytest.raises(ZeroMassSubdomain):
        PartitionSpec(DiscreteDistribution([1.0, 0.0]), (1.0, 0.5),
                      conditional_priors=priors)


HALVES = DiscreteDistribution([0.5, 0.5])


def test_total_budget_is_derived_from_masses_and_budgets():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([1.0, 0.0]))
    spec = PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 3.0),
                         conditional_priors=priors)
    assert spec.total_budget == pytest.approx(2.0, abs=1e-15)
    # the two builders' totals are their budgets exactly
    assert generalist_partition(HALVES, 0.1).total_budget == 0.1
    assert specialist_partition(priors, 1, 0.1).total_budget == 0.1
    with pytest.raises(TypeError):  # not a field: no caller can declare a different total
        PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 3.0),
                      conditional_priors=priors, total_budget=2.0)


def test_nan_budget_rejected_by_name():
    with pytest.raises(InvalidParameter, match=r"budgets\[1\]"):
        PartitionSpec(HALVES, (1.0, math.nan), subdomain_entropies=(0.1, 0.2))


def test_nan_subdomain_entropy_rejected_by_name():
    with pytest.raises(InvalidParameter, match=r"subdomain_entropies\[1\]"):
        PartitionSpec(HALVES, (1.0, 1.0), subdomain_entropies=(0.1, math.nan))


def test_nan_supplied_entropy_fails_the_prior_cross_check():
    priors = (HALVES, DiscreteDistribution([1.0, 0.0]))
    with pytest.raises(InvalidParameter, match="subdomain entropies"):
        PartitionSpec(HALVES, (1.0, 1.0), conditional_priors=priors,
                      subdomain_entropies=(LN2, math.nan))


def test_nan_constructor_budget_rejected_by_name():
    with pytest.raises(InvalidParameter, match="budget must be >= 0, got nan"):
        generalist_partition(HALVES, math.nan)
    with pytest.raises(InvalidParameter, match="budget must be >= 0, got nan"):
        specialist_partition([HALVES], 0, math.nan)


def test_scenario_from_partition_names_nan_h_gen():
    part = generalist_partition(HALVES, 1.0)
    with pytest.raises(InvalidParameter, match="h_gen must be >= 0, got nan"):
        scenario_from_partition(part, math.nan)


def test_scenario_from_partition_names_nan_sum_hy_entry():
    part = PartitionSpec(HALVES, (1.0, 1.0), subdomain_entropies=(0.1, 0.2))
    with pytest.raises(InvalidParameter, match=r"sum_hy\[1\] must be >= 0, got nan"):
        scenario_from_partition(part, LN2, (0.1, math.nan))


@pytest.mark.parametrize("data, message", [
    ({"masses": [0.5, math.nan], "entropies": [0.1, 0.2]},
     "masses contains non-finite entries"),
    ({"masses": [0.5, 0.5], "conditional_priors": [[0.5, 0.5], [0.7, 0.2]]},
     "conditional_priors[1] sums to 0.8999999999999999; expected 1 within 1e-09"),
], ids=["masses", "conditional_priors"])
def test_partition_json_names_the_bad_probability_field(data, message):
    with pytest.raises(InvalidDistribution) as info:
        PartitionSpec.from_json_dict({**data, "budgets": [1.0, 1.0]})
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ('"entropies": [0.1, 0.2], "budgets": [1.0, Infinity]', "budgets[1] must be finite, got inf"),
    ('"entropies": [0.1, Infinity], "budgets": [1.0, 1.0]',
     "entropies[1] must be finite, got inf"),
    ('"entropies": ["x", 0.2], "budgets": [1.0, 1.0]', "entropies[0] must be finite, got 'x'"),
], ids=["infinite-budget", "infinite-entropy", "string-entropy"])
def test_partition_json_names_a_non_finite_entry(text, message):
    data = json.loads('{"masses": [0.5, 0.5], ' + text + "}")
    with pytest.raises(InvalidParameter) as info:
        PartitionSpec.from_json_dict(data)
    assert str(info.value) == message


def test_infinite_budget_stays_valid():
    assert generalist_partition(HALVES, math.inf).total_budget == math.inf


def test_partition_json_round_trip():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.25, 0.75]))
    spec = PartitionSpec(DiscreteDistribution([0.4, 0.6]), (1.0, 2.0),
                         conditional_priors=priors)
    clone = PartitionSpec.from_json_dict(spec.to_json_dict())
    assert np.allclose(clone.masses.probs, spec.masses.probs)
    assert clone.budgets == spec.budgets
    assert clone.subdomain_entropies == pytest.approx(spec.subdomain_entropies, abs=1e-12)

    bare = PartitionSpec(DiscreteDistribution([0.4, 0.6]), (1.0, 2.0),
                         subdomain_entropies=(0.3, 0.9))
    clone = PartitionSpec.from_json_dict(bare.to_json_dict())
    assert clone.conditional_priors is None
    assert clone.subdomain_entropies == pytest.approx((0.3, 0.9), abs=1e-15)


# ---------------------------------------------------------------------------
# conditional entropy of a partition


def test_h_fed_weighted_mean():
    spec = PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 1.0),
                         subdomain_entropies=(1.0, 2.0))
    assert h_fed(spec) == pytest.approx(1.5, abs=1e-15)


def test_h_fed_degenerate_mass():
    spec = PartitionSpec(DiscreteDistribution([1.0, 0.0]), (1.0, 0.0),
                         subdomain_entropies=(1.0, 2.0))
    assert h_fed(spec) == pytest.approx(1.0, abs=1e-15)


def test_h_fed_disjoint_halves():
    part = build_partition_from_joint(HALVES_JOINT, (1.0, 1.0))
    assert h_fed(part) == pytest.approx(LN2, abs=1e-12)
    h_gen = entropy_of(HALVES_JOINT.sum(axis=1))
    assert h_gen == pytest.approx(math.log(4.0), abs=1e-12)


# ---------------------------------------------------------------------------
# generalist


def test_generalist_identity():
    prior = DiscreteDistribution([0.2, 0.3, 0.5])
    part = generalist_partition(prior, 2.5)
    assert part.n == 1
    assert part.budgets == (2.5,)
    assert h_fed(part) == pytest.approx(entropy_of(prior.probs), abs=1e-15)


def test_generalist_reproduces_unpartitioned_bounds_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        prior = DiscreteDistribution(rng.dirichlet(np.ones(int(rng.integers(2, 6)))))
        budget = float(rng.uniform(0.05, 5.0))
        shy = float(rng.uniform(0.0, 2.0))
        part = generalist_partition(prior, budget)
        scenario = scenario_from_partition(part, entropy_of(prior.probs), (shy,))
        assert federated_eta_cap(scenario) == unpartitioned_eta_cap(scenario)
        assert federated_info_cap(scenario) == unpartitioned_info_cap(scenario)


# ---------------------------------------------------------------------------
# specialist


def test_specialist_focuses_mass_and_budget():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.1, 0.9]))
    part = specialist_partition(priors, 0, 3.0)
    assert np.allclose(part.masses.probs, [1.0, 0.0])
    assert part.budgets == (3.0, 0.0)
    assert h_fed(part) == pytest.approx(LN2, abs=1e-12)


def test_specialist_bound_matches_single_subdomain_display():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        priors = tuple(DiscreteDistribution(rng.dirichlet(np.ones(3))) for _ in range(n))
        i_star = int(rng.integers(0, n))
        budget = float(rng.uniform(0.1, 4.0))
        shy = [0.0] * n
        shy[i_star] = float(rng.uniform(0.0, 1.5))
        part = specialist_partition(priors, i_star, budget)
        h_gen = entropy_of(sum(p.probs for p in priors) / n)
        scenario = scenario_from_partition(part, h_gen, shy)
        h_spec = entropy_of(priors[i_star].probs)
        expected = max(0.0, min(h_spec / budget, 1.0 - shy[i_star] / budget))
        assert federated_eta_cap(scenario) == pytest.approx(expected, abs=1e-12)


def test_single_subdomain_specialist_coincides_with_generalist():
    prior = DiscreteDistribution([0.3, 0.7])
    spec = specialist_partition((prior,), 0, 1.5)
    gen = generalist_partition(prior, 1.5)
    assert np.allclose(spec.masses.probs, gen.masses.probs)
    assert spec.budgets == gen.budgets
    assert h_fed(spec) == h_fed(gen)


def test_specialist_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        specialist_partition((DiscreteDistribution([0.5, 0.5]),), 1, 1.0)


# ---------------------------------------------------------------------------
# from a joint


def test_product_joint_is_uninformative():
    px = np.array([0.2, 0.3, 0.5])
    pk = np.array([0.4, 0.6])
    part = build_partition_from_joint(np.outer(px, pk), (1.0, 1.0))
    for prior in part.conditional_priors:
        assert np.allclose(prior.probs, px, atol=1e-12)
    assert h_fed(part) == pytest.approx(entropy_of(px), abs=1e-12)


def test_diagonal_joint_is_fully_informative():
    part = build_partition_from_joint([[0.5, 0.0], [0.0, 0.5]], (1.0, 1.0))
    assert h_fed(part) == pytest.approx(0.0, abs=1e-12)
    h_gen = LN2
    assert partition_entropy_gap(h_gen, h_fed(part)) == pytest.approx(h_gen, abs=1e-12)


def test_disjoint_halves_joint():
    part = build_partition_from_joint(HALVES_JOINT, (1.0, 1.0))
    assert np.allclose(part.masses.probs, [0.5, 0.5])
    h_gen = math.log(4.0)
    gap = partition_entropy_gap(h_gen, h_fed(part))
    assert gap == pytest.approx(LN2, abs=1e-12)
    assert gap == pytest.approx(mutual_information_of_joint(HALVES_JOINT), abs=1e-10)


def test_joint_zero_mass_column_needs_zero_budget():
    joint = np.array([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ZeroMassSubdomain):
        build_partition_from_joint(joint, (1.0, 0.5))
    part = build_partition_from_joint(joint, (1.0, 0.0))
    assert part.masses.probs[1] == 0.0


# ---------------------------------------------------------------------------
# invariants


def test_h_fed_never_exceeds_h_gen():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_states = int(rng.integers(2, 7))
        n_sub = int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(n_states * n_sub)).reshape(n_states, n_sub)
        part = build_partition_from_joint(joint, tuple([1.0] * n_sub))
        h_gen = entropy_of(joint.sum(axis=1))
        assert h_fed(part) <= h_gen + 1e-12


def test_identical_subdomains_pool_to_unpartitioned():
    # equal entropies, equal budgets, equal outcome entropies: the mixture
    # collapses to a single pooled cycle
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        masses = DiscreteDistribution(rng.dirichlet(np.ones(n)))
        h = float(rng.uniform(0.1, 2.0))
        w = float(rng.uniform(0.1, 4.0))
        shy = float(rng.uniform(0.0, 1.0))
        part = PartitionSpec(masses, tuple([w] * n), subdomain_entropies=tuple([h] * n))
        scenario = scenario_from_partition(part, h, tuple([shy] * n))
        pooled = unpartitioned_info_cap(scenario)
        assert federated_info_cap(scenario) == pytest.approx(pooled, abs=1e-12)


def test_scenario_from_partition_validates_sum_hy():
    part = generalist_partition(DiscreteDistribution([0.5, 0.5]), 1.0)
    with pytest.raises(InvalidParameter):
        scenario_from_partition(part, LN2, (0.1, 0.2))
    with pytest.raises(InvalidParameter):
        scenario_from_partition(part, LN2, (-0.1,))

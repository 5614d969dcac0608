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


def test_zero_mass_subdomain_with_budget_rejected():
    priors = (DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([1.0, 0.0]))
    with pytest.raises(ZeroMassSubdomain):
        PartitionSpec(DiscreteDistribution([1.0, 0.0]), (1.0, 0.5),
                      conditional_priors=priors)


HALVES = DiscreteDistribution([0.5, 0.5])
#: two conditional priors of known entropies, ln 2 and ln 4
UNIFORMS = (DiscreteDistribution.uniform(2), DiscreteDistribution.uniform(4))


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
        PartitionSpec(HALVES, (1.0, math.nan), UNIFORMS)


def test_nan_constructor_budget_rejected_by_name():
    with pytest.raises(InvalidParameter, match="budget must be >= 0, got nan"):
        generalist_partition(HALVES, math.nan)
    with pytest.raises(InvalidParameter, match="budget must be >= 0, got nan"):
        specialist_partition([HALVES], 0, math.nan)


def test_scenario_from_partition_names_nan_h_gen():
    part = generalist_partition(HALVES, 1.0)
    with pytest.raises(InvalidParameter, match="h_gen must be >= 0, got nan"):
        scenario_from_partition(part, math.nan, (0.0,))


def test_scenario_from_partition_names_nan_sum_hy_entry():
    part = PartitionSpec(HALVES, (1.0, 1.0), UNIFORMS)
    with pytest.raises(InvalidParameter, match=r"sum_hy\[1\] must be >= 0, got nan"):
        scenario_from_partition(part, LN2, (0.1, math.nan))


def test_infinite_budget_stays_valid():
    assert generalist_partition(HALVES, math.inf).total_budget == math.inf


@pytest.mark.parametrize("kwargs, message", [
    ({"budgets": (1.0,), "conditional_priors": UNIFORMS}, "1 budgets for 2 subdomains"),
    ({"budgets": (1.0, -0.5), "conditional_priors": UNIFORMS},
     "budgets[1] must be >= 0, got -0.5"),
    ({"budgets": (1.0, 1.0), "conditional_priors": (HALVES,)},
     "1 conditional priors for 2 subdomains"),
], ids=["budgets-count", "negative-budget", "priors-count"])
def test_partition_spec_names_the_bad_argument(kwargs, message):
    with pytest.raises(InvalidParameter) as info:
        PartitionSpec(HALVES, **kwargs)
    assert str(info.value) == message


def test_zero_mass_subdomain_message_names_it():
    with pytest.raises(ZeroMassSubdomain) as info:
        PartitionSpec(DiscreteDistribution([1.0, 0.0]), (1.0, 0.5), UNIFORMS)
    assert str(info.value) == "subdomain 1 has zero mass but positive budget 0.5"


def test_zero_mass_subdomain_with_zero_budget_accepted():
    spec = PartitionSpec(DiscreteDistribution([1.0, 0.0]), [2, 0], UNIFORMS)
    assert spec.budgets == (2.0, 0.0)
    assert spec.subdomain_entropies == pytest.approx((LN2, 2 * LN2), abs=1e-15)
    assert spec.total_budget == 2.0


def test_partition_spec_stores_tuples_of_floats():
    priors = [HALVES, DiscreteDistribution([1.0, 0.0])]
    spec = PartitionSpec(HALVES, [1, 3], conditional_priors=priors)
    assert spec.budgets == (1.0, 3.0)
    assert all(type(b) is float for b in spec.budgets)
    assert spec.conditional_priors == tuple(priors)
    assert spec.subdomain_entropies == pytest.approx((LN2, 0.0), abs=1e-15)
    with pytest.raises(TypeError):  # derived: no caller can declare other entropies
        PartitionSpec(HALVES, [1, 3], priors, subdomain_entropies=(LN2, 0.0))


@pytest.mark.parametrize("values, what, message", [
    ([0.5, math.nan], "masses", "masses contains non-finite entries"),
    ([0.7, 0.2], "conditional_priors[1]",
     "conditional_priors[1] sums to 0.8999999999999999; expected 1 within 1e-09"),
    ([1.5, -0.5], "masses", "masses has negative entries"),
    ([[0.5, 0.5]], "masses", "masses must be a non-empty 1-D vector, got shape (1, 2)"),
], ids=["masses", "conditional_priors", "negative-masses", "masses-shape"])
def test_partition_distribution_names_the_bad_probability_field(values, what, message):
    with pytest.raises(InvalidDistribution) as info:
        DiscreteDistribution(values, what=what)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# conditional entropy of a partition


def test_h_fed_weighted_mean():
    spec = PartitionSpec(DiscreteDistribution([0.5, 0.5]), (1.0, 1.0), UNIFORMS)
    assert h_fed(spec) == pytest.approx(1.5 * LN2, abs=1e-15)


def test_h_fed_degenerate_mass():
    spec = PartitionSpec(DiscreteDistribution([1.0, 0.0]), (1.0, 0.0), UNIFORMS)
    assert h_fed(spec) == pytest.approx(LN2, abs=1e-15)


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
    # equal priors, equal budgets, equal outcome entropies: the mixture
    # collapses to a single pooled cycle
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        masses = DiscreteDistribution(rng.dirichlet(np.ones(n)))
        prior = DiscreteDistribution(rng.dirichlet(np.ones(int(rng.integers(2, 8)))))
        w = float(rng.uniform(0.1, 4.0))
        shy = float(rng.uniform(0.0, 1.0))
        part = PartitionSpec(masses, tuple([w] * n), (prior,) * n)
        scenario = scenario_from_partition(part, entropy_of(prior.probs), tuple([shy] * n))
        pooled = unpartitioned_info_cap(scenario)
        assert federated_info_cap(scenario) == pytest.approx(pooled, abs=1e-12)


def test_scenario_from_partition_validates_sum_hy():
    part = generalist_partition(DiscreteDistribution([0.5, 0.5]), 1.0)
    with pytest.raises(InvalidParameter):
        scenario_from_partition(part, LN2, (0.1, 0.2))
    with pytest.raises(InvalidParameter):
        scenario_from_partition(part, LN2, (-0.1,))
    with pytest.raises(TypeError):  # no zeros default: every caller states its sums
        scenario_from_partition(part, LN2)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import (
    DiscreteDistribution,
    EnvironmentModel,
    FixedSequence,
    LikelihoodModel,
    WorkLedger,
    cumulative_information,
    entropy,
    expected_information_gain,
    mutual_information_of_joint,
    posterior_update,
    predictive_outcome_dist,
    run_episode,
    stored_entropy,
)
from thermosci.errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidJoint,
    ZeroEvidence,
)

from helpers import asym_binary_env, bsc_env, entropy_of, noiseless_binary_env

LN2 = math.log(2.0)


def binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


# ---------------------------------------------------------------------------
# construction


class TestDiscreteDistribution:
    def test_renormalizes_small_deviation(self):
        d = DiscreteDistribution([0.5, 0.5 + 5e-10])
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12

    def test_rejects_large_deviation(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDistribution([0.5, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDistribution([1.1, -0.1])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDistribution([])

    def test_probs_are_frozen(self):
        d = DiscreteDistribution([0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestLikelihoodModel:
    def test_row_stochastic_enforced(self):
        with pytest.raises(InvalidDistribution):
            LikelihoodModel([[[0.5, 0.4], [0.5, 0.5]]])

    def test_shape_enforced(self):
        with pytest.raises(InvalidDistribution):
            LikelihoodModel([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_binary():
    assert entropy(DiscreteDistribution.uniform(2)) == pytest.approx(LN2, abs=1e-12)
    assert entropy(DiscreteDistribution.uniform(2)) == pytest.approx(0.693147, abs=1e-6)


def test_entropy_point_mass_is_zero():
    assert entropy(DiscreteDistribution([1.0, 0.0])) == 0.0


def test_entropy_quarter_three_quarters():
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    got = entropy(DiscreteDistribution([0.25, 0.75]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.562335, abs=1e-6)


def test_information_values_are_plain_floats():
    d = DiscreteDistribution([0.25, 0.75])
    lik = LikelihoodModel([[[0.9, 0.1], [0.2, 0.8]]])
    ledger, _ = run_episode(EnvironmentModel(d, lik), FixedSequence((0,)), budget=10.0)
    values = [entropy(d), expected_information_gain(d, lik, 0),
              mutual_information_of_joint([[0.4, 0.1], [0.1, 0.4]]),
              mutual_information_of_joint([[0.5, 0.5]]), stored_entropy(d),
              cumulative_information(ledger), cumulative_information(WorkLedger((), 1.0, 0.0))]
    assert [type(v) for v in values] == [float] * len(values)


# ---------------------------------------------------------------------------
# posterior update


def test_noiseless_observation_reveals_state():
    env = noiseless_binary_env()
    post = posterior_update(env.prior, env.likelihood, 0, 0)
    assert np.allclose(post.probs, [1.0, 0.0], atol=1e-15)


def test_uninformative_outcome_keeps_prior():
    lik = LikelihoodModel([[[0.3, 0.7], [0.3, 0.7]]])
    prior = DiscreteDistribution([0.2, 0.8])
    post = posterior_update(prior, lik, 0, 1)
    assert np.allclose(post.probs, prior.probs, atol=1e-15)


def test_hand_bayes_update():
    env = asym_binary_env()
    post = posterior_update(env.prior, env.likelihood, 0, 1)
    assert np.allclose(post.probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_zero_evidence_raises():
    prior = DiscreteDistribution([1.0, 0.0])
    lik = LikelihoodModel([[[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(ZeroEvidence):
        posterior_update(prior, lik, 0, 1)


def test_index_validation():
    env = asym_binary_env()
    with pytest.raises(DimensionMismatch):
        posterior_update(env.prior, env.likelihood, 1, 0)
    with pytest.raises(DimensionMismatch):
        posterior_update(env.prior, env.likelihood, 0, 2)


# ---------------------------------------------------------------------------
# predictive distribution


def test_point_mass_belief_returns_likelihood_row():
    env = asym_binary_env()
    belief = DiscreteDistribution([1.0, 0.0])
    pred = predictive_outcome_dist(belief, env.likelihood, 0)
    assert np.allclose(pred.probs, env.likelihood.table[0, 0], atol=1e-15)


def test_uniform_belief_noiseless_gives_uniform_outcomes():
    env = noiseless_binary_env()
    pred = predictive_outcome_dist(env.prior, env.likelihood, 0)
    assert np.allclose(pred.probs, [0.5, 0.5], atol=1e-15)


def test_hand_marginalization():
    env = asym_binary_env()
    belief = DiscreteDistribution([2.0 / 3.0, 1.0 / 3.0])
    pred = predictive_outcome_dist(belief, env.likelihood, 0)
    assert pred.probs[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pred.probs[1] == pytest.approx(0.666667, abs=1e-6)


def test_predictive_dimension_mismatch():
    env = asym_binary_env()
    with pytest.raises(DimensionMismatch):
        predictive_outcome_dist(DiscreteDistribution([1.0 / 3] * 3), env.likelihood, 0)


# ---------------------------------------------------------------------------
# expected information gain


def test_noiseless_gain_is_ln2():
    env = noiseless_binary_env()
    gain = expected_information_gain(env.prior, env.likelihood, 0)
    assert gain == pytest.approx(LN2, abs=1e-12)


def test_constant_likelihood_gain_is_zero():
    lik = LikelihoodModel([[[0.3, 0.7], [0.3, 0.7]]])
    gain = expected_information_gain(DiscreteDistribution([0.4, 0.6]), lik, 0)
    assert gain == pytest.approx(0.0, abs=1e-12)


def test_binary_symmetric_channel_gain():
    env = bsc_env(0.25)
    expected = LN2 - binary_entropy(0.25)
    gain = expected_information_gain(env.prior, env.likelihood, 0)
    assert gain == pytest.approx(expected, abs=1e-10)
    assert gain == pytest.approx(0.130812, abs=1e-6)


# ---------------------------------------------------------------------------
# mutual information of a joint


def test_product_joint_independent():
    joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
    assert mutual_information_of_joint(joint) == pytest.approx(0.0, abs=1e-12)


def test_diagonal_joint_perfect_correlation():
    assert mutual_information_of_joint([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(LN2, abs=1e-12)


def test_half_indicator_joint():
    # four equally likely states, indicator of the upper half
    joint = np.array([[0.25, 0.0], [0.25, 0.0], [0.0, 0.25], [0.0, 0.25]])
    mi = mutual_information_of_joint(joint)
    assert mi == pytest.approx(LN2, abs=1e-12)
    assert mi == pytest.approx(math.log(4.0) - math.log(2.0), abs=1e-12)


def test_invalid_joint_rejected():
    with pytest.raises(InvalidJoint):
        mutual_information_of_joint([[0.3, 0.3], [0.3, 0.3]])
    with pytest.raises(InvalidJoint):
        mutual_information_of_joint([[1.2], [-0.2]])


# ---------------------------------------------------------------------------
# properties

weights = st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                   min_size=2, max_size=8).filter(lambda w: sum(w) > 1e-6)


def dist_from_weights(w) -> DiscreteDistribution:
    arr = np.asarray(w, dtype=float)
    return DiscreteDistribution(arr / arr.sum())


@given(weights)
@settings(max_examples=200, deadline=None)
def test_uniform_maximizes_entropy(w):
    d = dist_from_weights(w)
    assert entropy(d) <= math.log(len(d)) + 1e-12


@given(weights, st.data())
@settings(max_examples=100, deadline=None)
def test_gain_bounded_by_belief_entropy(w, data):
    belief = dist_from_weights(w)
    n_y = data.draw(st.integers(min_value=2, max_value=4))
    rows = data.draw(st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n_y, max_size=n_y),
        min_size=len(belief), max_size=len(belief)))
    table = np.asarray(rows, dtype=float)
    table = table / table.sum(axis=1, keepdims=True)
    lik = LikelihoodModel(table[None, :, :])
    gain = expected_information_gain(belief, lik, 0)
    assert gain <= entropy(belief) + 1e-12
    # independent posterior-side recomputation
    pred = belief.probs @ table
    expected_post = sum(
        pred[y] * entropy_of(belief.probs * table[:, y] / pred[y])
        for y in range(n_y) if pred[y] > 1e-15
    )
    alt = entropy_of(belief.probs) - expected_post
    assert gain == pytest.approx(max(alt, 0.0), abs=1e-10)


@given(weights, st.data())
@settings(max_examples=100, deadline=None)
def test_belief_martingale(w, data):
    prior = dist_from_weights(w)
    n_y = data.draw(st.integers(min_value=2, max_value=4))
    rows = data.draw(st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n_y, max_size=n_y),
        min_size=len(prior), max_size=len(prior)))
    table = np.asarray(rows, dtype=float)
    table = table / table.sum(axis=1, keepdims=True)
    lik = LikelihoodModel(table[None, :, :])
    pred = predictive_outcome_dist(prior, lik, 0)
    mixture = np.zeros(len(prior))
    for y in range(n_y):
        if pred.probs[y] > 0.0:
            mixture += pred.probs[y] * posterior_update(prior, lik, 0, y).probs
    assert np.max(np.abs(mixture - prior.probs)) <= 1e-12


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4),
       st.data())
@settings(max_examples=200, deadline=None)
def test_mutual_information_symmetric_under_transpose(rows, cols, data):
    cells = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                               min_size=rows * cols, max_size=rows * cols)
                      .filter(lambda w: sum(w) > 1e-6))
    joint = np.asarray(cells, dtype=float).reshape(rows, cols)
    joint = joint / joint.sum()
    a = mutual_information_of_joint(joint)
    b = mutual_information_of_joint(joint.T)
    assert a == pytest.approx(b, abs=1e-12)
    assert a >= 0.0

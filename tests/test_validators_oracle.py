"""The one probability normaliser against the three validators it replaced.

``oracle_validators.py`` keeps the old validators verbatim. Every input here
must give the same array, bit for bit, or the same error class with the same
message. The scalar entropy is checked bit for bit against
``float(_entropies(p))``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci.errors import InvalidDistribution, InvalidJoint
from thermosci.info_core import (
    DiscreteDistribution,
    LikelihoodModel,
    _entropies,
    _entropy,
    _normalised,
)

import oracle_validators as oracle

#: entries planted into an otherwise valid array: zeros of both signs, negatives inside
#: and outside the 1e-12 clamp, and the non-finite values
SPECIALS = (0.0, -0.0, -1e-13, -9e-13, -1e-12, -2e-12, -1e-3, math.nan, math.inf, -math.inf)
#: factors on the sum: within the 1e-9 renormalisation tolerance, and beyond it
SCALES = (1.0, 1.0 + 4e-10, 1.0 - 9e-10, 1.0 + 1.5e-9, 1.0 - 3e-9, 0.5, 2.0)


@st.composite
def arrays(draw, rank: int):
    """Arrays of ``rank`` axes that sum to one (per row at rank 3), then perturbed."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank)))
    size = math.prod(shape)
    weights = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=size, max_size=size))
    arr = np.array(weights).reshape(shape)
    arr[..., 0] += 1e-3  # no row sums to zero
    axis = -1 if rank == 3 else None
    arr = arr / arr.sum(axis=axis, keepdims=True) * draw(st.sampled_from(SCALES))
    if draw(st.booleans()):
        arr[arr == 0.0] = -0.0
    for _ in range(draw(st.integers(0, 2))):
        arr.flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from(SPECIALS))
    wrong = draw(st.sampled_from(("none",) * 8 + ("flat", "extra", "empty")))
    if wrong == "flat":
        arr = arr.reshape(-1) if rank > 1 else arr.reshape(1, -1)
    elif wrong == "extra":
        arr = arr[..., None]
    elif wrong == "empty":
        arr = arr[..., :0]
    return arr


def _outcome(validate, arr):
    try:
        return validate(arr)
    except Exception as exc:  # the error class and its message are what is compared
        return type(exc), str(exc)


def _assert_same(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        assert isinstance(new, np.ndarray) and new.shape == old.shape
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(arrays(1))
def test_distribution_matches_the_old_vector_validator(arr):
    _assert_same(_outcome(lambda a: DiscreteDistribution(a).probs, arr),
                 _outcome(lambda a: oracle._as_prob_vector(a, "distribution"), arr))


@settings(max_examples=200, deadline=None)
@given(arrays(3))
def test_likelihood_matches_the_old_table_validator(arr):
    _assert_same(_outcome(lambda a: LikelihoodModel(a).table, arr),
                 _outcome(oracle.likelihood_table, arr))


@settings(max_examples=200, deadline=None)
@given(arrays(2))
def test_joint_matches_the_old_joint_validator(arr):
    _assert_same(_outcome(lambda a: _normalised(a, 2, "joint", InvalidJoint), arr),
                 _outcome(oracle._validated_joint, arr))


#: the normaliser and the old validator of each rank
VALIDATORS = {
    1: (lambda a: DiscreteDistribution(a).probs,
        lambda a: oracle._as_prob_vector(a, "distribution")),
    2: (lambda a: _normalised(a, 2, "joint", InvalidJoint), oracle._validated_joint),
    3: (lambda a: LikelihoodModel(a).table, oracle.likelihood_table),
}


@pytest.mark.parametrize("rank, values", [
    (1, [1e308, 1e308]),
    (1, [1e308, 1e308, -1e-13]),
    (1, [-1.0, 1e308, 1e308]),
    (1, [math.inf, -math.inf]),
    (1, [-math.inf, 0.5, math.inf]),
    (1, [math.inf, 0.5]),
    (1, [-1.0, math.inf]),
    (1, [math.inf, math.inf]),
    (2, [[1e308, 1e308], [0.0, 0.0]]),
    (2, [[0.5, math.inf], [-math.inf, 0.5]]),
    (2, [[-1.0, 0.0], [0.0, math.inf]]),
    (3, [[[0.5, 0.5], [1e308, 1e308]]]),
    (3, [[[0.2, 0.3, 0.5], [1e308, 1e308, -1e-13]], [[1e308, 1e308, 0.0], [0.5, 0.5, 0.0]]]),
    (3, [[[0.5, 0.5], [math.inf, -math.inf]]]),
    (3, [[[-math.inf, math.inf], [0.5, 0.5]]]),
    (3, [[[math.inf, 0.0], [0.5, 0.5]]]),
    (3, [[[-1.0, math.inf], [0.5, 0.5]]]),
])
def test_overflowing_sums_and_mixed_infinities_match_the_old_validators(rank, values):
    # finite entries whose sum overflows, which the normaliser tells from a +inf entry by
    # reading max, and rows holding both infinities; both sides sum the overflowing
    # entries, so numpy's overflow flag is silenced for the two alike
    new, old = VALIDATORS[rank]
    arr = np.array(values)
    with np.errstate(over="ignore"):
        expected = _outcome(old, arr)
        assert expected[0] in (InvalidDistribution, InvalidJoint)
        _assert_same(_outcome(new, arr), expected)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((0.0, 1e-16, 1e-15, 2e-15, 1e-9, 0.1, 0.3, 1.0))
                | st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.sampled_from(SCALES[:3] + (1.0 + 2.2e-16,)))
def test_scalar_entropy_matches_the_array_entropy(weights, scale):
    probs = np.array(weights)
    if probs.sum() > 0.0:
        probs = probs / probs.sum() * scale
    assert _bits(_entropy(probs)) == _bits(float(_entropies(probs)))


def test_point_mass_entropy_keeps_its_negative_zero():
    assert _bits(_entropy(np.array([0.0, 1.0, 0.0]))) == _bits(-0.0)

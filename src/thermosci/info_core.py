"""Exact information-theory primitives on finite discrete distributions.

Every information value is a plain float in nats; divide by :data:`LN2` for
bits. The conventions used throughout:

* ``0 * ln 0 == 0``, and probabilities below ``1e-15`` are treated as
  exactly zero inside log terms.
* Vectors whose sum is within ``1e-9`` of one are renormalized on
  construction; anything worse is rejected.
* Entropies are clamped to zero from below silently: only rounding takes
  them below zero. Information gains and the mutual information of a joint
  are clamped likewise, but a value more than ``GAIN_NOISE`` (``1e-9``)
  below zero raises :class:`InvalidDistribution`.

:func:`predictive_gain` is the single information-gain path: the greedy
policy, both episode modes and :func:`expected_information_gain` all call it
on a ``(nodes, states)`` belief matrix.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidJoint,
    ThermosciError,
    ZeroEvidence,
)

LN2 = float(np.log(2.0))

#: probabilities at or below this are treated as exactly zero in log terms
LOG_FLOOR = 1e-15
#: ingestion tolerance: sums off by at most this much get renormalized
NORMALIZATION_TOL = 1e-9
#: probability entries may sit this far below zero before being an error
NEGATIVE_CLAMP = 1e-12
#: information quantities may sit this far below zero before being an error
GAIN_NOISE = 1e-9


class Units(str, Enum):
    NATS = "nats"
    BITS = "bits"


#: what a value of each rank must look like, for the shape error
_SHAPES = {1: "a non-empty 1-D vector", 2: "a 2-D table",
           3: "3-D (interventions, states, outcomes)"}


def _normalised(values, rank: int, what: str, error: type[ThermosciError]) -> np.ndarray:
    """``values`` as a read-only float array of ``rank`` axes that sums to one.

    A rank-3 likelihood table sums to one along each ``(u, state)`` row; a
    vector or a joint table sums to one as a whole. The sum is renormalized
    away when within ``NORMALIZATION_TOL`` of one. Failures raise ``error``,
    checked in this order: shape, non-finite, negative beyond
    ``NEGATIVE_CLAMP``, sum; ``max`` is read only when the negative or the sum check fails.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # a JSON integer past the float range
        raise error(f"{what} contains non-finite entries") from None
    if arr.ndim != rank or arr.size < 1:
        raise error(f"{what} must be {_SHAPES[rank]}, got shape {arr.shape}")
    lo = float(np.minimum.reduce(arr, axis=None))  # NaN or -inf if any entry is
    if not lo >= -NEGATIVE_CLAMP:  # a +inf entry outranks a negative one
        raise error(f"{what} has negative entries" if lo > -math.inf and arr.max() < math.inf
                    else f"{what} contains non-finite entries")
    if lo <= 0.0:  # clipping also turns -0.0 into 0.0
        arr = np.maximum(arr, 0.0)  # what np.clip(arr, 0.0, None) calls
    if rank == 3:
        sums = np.add.reduce(arr, axis=2, keepdims=True)
        worst = float(np.maximum.reduce(np.abs(sums - 1.0), axis=None))
        failure = "likelihood rows must sum to 1 within {tol} (worst deviation {worst:.3e})"
    else:
        sums = float(np.add.reduce(arr, axis=None))
        worst = abs(sums - 1.0)
        failure = "{what} sums to {sums!r}; expected 1" + (" within {tol}" if rank == 1 else "")
    if worst > NORMALIZATION_TOL:  # inf for a +inf entry, and for finite entries overflowing
        raise error(f"{what} contains non-finite entries" if arr.max() == math.inf else
                    failure.format(what=what, sums=sums, worst=worst, tol=NORMALIZATION_TOL))
    arr = arr / sums
    arr.flags.writeable = False
    return arr


def _entropies(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropies in nats along ``axis`` of a raw probability array."""
    safe = np.where(probs > LOG_FLOOR, probs, 1.0)
    h = np.asarray(-np.add.reduce(safe * np.log(safe), axis=axis))  # a 0-d array for a vector
    # a vector summing to just above 1 gives a tiny negative sum; a point mass keeps its -0.0
    h[h < 0.0] = 0.0
    return h


def _entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats of a raw probability vector, as ``float(_entropies(probs))``."""
    safe = np.where(probs > LOG_FLOOR, probs, 1.0)
    h = -float(np.add.reduce(safe * np.log(safe)))
    return 0.0 if h < 0.0 else h


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite probability vector, normalized and immutable after construction.

    Args:
        probs: non-negative weights summing to one (within ingestion tolerance).
        what: the name validation errors give the vector, such as an input field.
    """

    probs: np.ndarray
    what: InitVar[str] = "distribution"

    def __post_init__(self, what: str):
        object.__setattr__(self, "probs", _normalised(self.probs, 1, what, InvalidDistribution))

    def __len__(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        if n < 1:
            raise InvalidDistribution("support size must be at least 1")
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LikelihoodModel:
    """Conditional outcome probabilities indexed ``(intervention, state, outcome)``.

    Every ``(u, state)`` row must be a valid distribution over outcomes; rows
    are renormalized under the same ingestion tolerance as distributions.
    ``what`` is the name validation errors give the table.
    """

    table: np.ndarray
    what: InitVar[str] = "likelihood table"

    def __post_init__(self, what: str):
        object.__setattr__(self, "table", _normalised(self.table, 3, what, InvalidDistribution))

    @property
    def n_interventions(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.table.shape[1])

    @property
    def n_outcomes(self) -> int:
        return int(self.table.shape[2])


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy ``-sum p ln p`` in nats."""
    return _entropy(dist.probs)


def _check_compat(belief: DiscreteDistribution, lik: LikelihoodModel, u: int):
    if len(belief) != lik.n_states:
        raise DimensionMismatch(
            f"belief support {len(belief)} does not match likelihood states {lik.n_states}"
        )
    if not 0 <= u < lik.n_interventions:
        raise DimensionMismatch(f"intervention index {u} outside [0, {lik.n_interventions})")


def posterior_update(
    prior: DiscreteDistribution, lik: LikelihoodModel, u: int, y: int
) -> DiscreteDistribution:
    """Bayes update of ``prior`` after observing outcome ``y`` under intervention ``u``.

    Raises :class:`ZeroEvidence` when the observed outcome has zero marginal
    probability, which signals an inconsistent environment/observation pair.
    """
    _check_compat(prior, lik, u)
    if not 0 <= y < lik.n_outcomes:
        raise DimensionMismatch(f"outcome index {y} outside [0, {lik.n_outcomes})")
    unnorm = prior.probs * lik.table[u, :, y]
    evidence = float(np.add.reduce(unnorm))
    if evidence <= 0.0:
        raise ZeroEvidence(f"outcome {y} has zero marginal probability under intervention {u}")
    return DiscreteDistribution(unnorm / evidence)


def predictive_outcome_dist(
    belief: DiscreteDistribution, lik: LikelihoodModel, u: int
) -> DiscreteDistribution:
    """Outcome marginal ``p(y|u) = sum_state belief(state) p(y|state, u)``."""
    _check_compat(belief, lik, u)
    return DiscreteDistribution(belief.probs @ lik.table[u])


def predictive_gain(beliefs: np.ndarray, tables: np.ndarray, row_h: np.ndarray):
    """Outcome predictives, their entropies and expected information gains.

    Args:
        beliefs: ``(n, S)`` beliefs, one row per node.
        tables: ``(n, S, Y)`` likelihood slice applied at each node.
        row_h: ``(n, S)`` outcome entropy of each table row.

    Leading axes broadcast: ``(n, 1, S)`` beliefs on ``(U, S, Y)`` tables
    give ``(n, U)`` in place of ``n``, every node under every intervention.

    Returns ``(pred (n, Y), H(Y) (n,), gain (n,))`` with the outcome-side
    gain ``H(Y) - sum_s b(s) H(Y|s)``, clamped at zero like every other
    information quantity.
    """
    pred = (beliefs[..., None, :] @ tables)[..., 0, :]
    hy = _entropies(pred)
    gain = hy - np.add.reduce(beliefs * row_h, axis=-1)
    worst = np.minimum.reduce(gain, axis=None, initial=0.0)
    if worst < -GAIN_NOISE:
        raise InvalidDistribution(f"information gain {worst!r} is negative beyond noise")
    return pred, hy, np.maximum(gain, 0.0)


def expected_information_gain(
    belief: DiscreteDistribution, lik: LikelihoodModel, u: int
) -> float:
    """Mutual information between state and outcome under the current belief.

    Evaluated by :func:`predictive_gain` and cross-checked against the
    expected posterior-entropy drop; the two must agree to 1e-10.
    """
    _check_compat(belief, lik, u)
    b, table_u = belief.probs, lik.table[u]
    pred, _, gain = predictive_gain(b[None], table_u[None], _entropies(table_u)[None])
    gain = float(gain[0])
    live = pred[0] > LOG_FLOOR
    posts = b[:, None] * table_u[:, live] / pred[0, live]
    posterior_side = _entropy(b) - float(pred[0, live] @ _entropies(posts, axis=0))
    if abs(gain - max(posterior_side, 0.0)) > 1e-10:
        raise InvalidDistribution(
            f"information-gain formulas disagree: {gain!r} vs {posterior_side!r}"
        )
    return gain


def mutual_information_of_joint(joint) -> float:
    """Mutual information of a 2-D joint table, clamped at zero from below."""
    arr = _normalised(joint, 2, "joint", InvalidJoint)
    px = np.add.reduce(arr, axis=1)
    pk = np.add.reduce(arr, axis=0)
    mask = arr > LOG_FLOOR
    if not np.logical_or.reduce(mask, axis=None):
        return 0.0
    outer = np.outer(px, pk)
    mi = float(np.add.reduce(arr[mask] * np.log(arr[mask] / outer[mask])))
    if mi < -GAIN_NOISE:
        raise InvalidDistribution(f"information quantity {mi!r} is negative beyond noise")
    return max(mi, 0.0)

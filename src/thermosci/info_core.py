"""Exact information-theory primitives on finite discrete distributions.

Everything internal is computed in nats; bits exist only as an explicit
unit conversion on :class:`InfoQuantity`. The conventions used throughout:

* ``0 * ln 0 == 0``, and probabilities below ``1e-15`` are treated as
  exactly zero inside log terms.
* Vectors whose sum is within ``1e-9`` of one are renormalized on
  construction; anything worse is rejected.
* Entropies and mutual informations are clamped to zero from below; a value
  more than ``1e-9`` below zero raises :class:`InvalidDistribution`.

:func:`predictive_gain` is the single information-gain path: the greedy
policy, both episode modes and :func:`expected_information_gain` all call it
on a ``(nodes, states)`` belief matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidJoint,
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


def _as_prob_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidDistribution(f"{what} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution(f"{what} contains non-finite entries")
    if np.any(arr < -NEGATIVE_CLAMP):
        raise InvalidDistribution(f"{what} has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistribution(
            f"{what} sums to {total!r}; expected 1 within {NORMALIZATION_TOL}"
        )
    arr = arr / total
    arr.flags.writeable = False
    return arr


def _entropies(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropies in nats along ``axis`` of a raw probability array."""
    safe = np.where(probs > LOG_FLOOR, probs, 1.0)
    h = -(safe * np.log(safe)).sum(axis=axis)
    # a vector summing to just above 1 gives a tiny negative sum; a point mass keeps its -0.0
    return np.where(h < 0.0, 0.0, h)


def _entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats of a raw probability vector."""
    return float(_entropies(probs))


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite probability vector, normalized and immutable after construction.

    Args:
        probs: non-negative weights summing to one (within ingestion tolerance).
        labels: optional identifiers, one per support point.
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_prob_vector(self.probs, "distribution")
        object.__setattr__(self, "probs", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.size:
                raise InvalidDistribution(
                    f"got {len(labels)} labels for support of size {arr.size}"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int, labels: tuple[str, ...] | None = None) -> "DiscreteDistribution":
        if n < 1:
            raise InvalidDistribution("support size must be at least 1")
        return cls(np.full(n, 1.0 / n), labels)

    @classmethod
    def point_mass(cls, n: int, index: int) -> "DiscreteDistribution":
        if not 0 <= index < n:
            raise InvalidDistribution(f"point-mass index {index} outside support of size {n}")
        probs = np.zeros(n)
        probs[index] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class LikelihoodModel:
    """Conditional outcome probabilities indexed ``(intervention, state, outcome)``.

    Every ``(u, state)`` row must be a valid distribution over outcomes; rows
    are renormalized under the same ingestion tolerance as distributions.
    """

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise InvalidDistribution(
                f"likelihood table must be 3-D (interventions, states, outcomes), got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidDistribution("likelihood table contains non-finite entries")
        if np.any(arr < -NEGATIVE_CLAMP):
            raise InvalidDistribution("likelihood table has negative entries")
        arr = np.clip(arr, 0.0, None)
        sums = arr.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise InvalidDistribution(
                f"likelihood rows must sum to 1 within {NORMALIZATION_TOL} (worst deviation {worst:.3e})"
            )
        arr = arr / sums[:, :, None]
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def n_interventions(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.table.shape[1])

    @property
    def n_outcomes(self) -> int:
        return int(self.table.shape[2])

    def slice(self, u: int) -> np.ndarray:
        """The ``(state, outcome)`` table for one intervention."""
        if not 0 <= u < self.n_interventions:
            raise DimensionMismatch(f"intervention index {u} outside [0, {self.n_interventions})")
        return self.table[u]


@dataclass(frozen=True)
class InfoQuantity:
    """A scalar information value tagged with its unit (nats or bits)."""

    value: float
    units: Units = Units.NATS

    def to(self, units: Units | str) -> "InfoQuantity":
        units = Units(units)
        if units == self.units:
            return self
        if units == Units.BITS:
            return InfoQuantity(self.value / LN2, Units.BITS)
        return InfoQuantity(self.value * LN2, Units.NATS)

    def to_nats(self) -> "InfoQuantity":
        return self.to(Units.NATS)

    def to_bits(self) -> "InfoQuantity":
        return self.to(Units.BITS)

    def __float__(self) -> float:
        return float(self.value)


def _clamped_info(value: float) -> float:
    # entropies/MI are mathematically >= 0; tolerate only float noise below zero
    if value < 0.0:
        if value < -GAIN_NOISE:
            raise InvalidDistribution(f"information quantity {value!r} is negative beyond noise")
        return 0.0
    return value


def entropy(dist: DiscreteDistribution) -> InfoQuantity:
    """Shannon entropy ``-sum p ln p`` in nats."""
    return InfoQuantity(_clamped_info(_entropy(dist.probs)))


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
    evidence = float(unnorm.sum())
    if evidence <= 0.0:
        raise ZeroEvidence(f"outcome {y} has zero marginal probability under intervention {u}")
    return DiscreteDistribution(unnorm / evidence, labels=prior.labels)


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
    gain = hy - (beliefs * row_h).sum(axis=-1)
    worst = gain.min(initial=0.0)
    if worst < -GAIN_NOISE:
        raise InvalidDistribution(f"information gain {worst!r} is negative beyond noise")
    return pred, hy, np.maximum(gain, 0.0)


def expected_information_gain(
    belief: DiscreteDistribution, lik: LikelihoodModel, u: int
) -> InfoQuantity:
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
    return InfoQuantity(gain)


def _validated_joint(joint) -> np.ndarray:
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise InvalidJoint(f"joint must be a 2-D table, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidJoint("joint contains non-finite entries")
    if np.any(arr < -NEGATIVE_CLAMP):
        raise InvalidJoint("joint has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidJoint(f"joint sums to {total!r}; expected 1")
    return arr / total


def mutual_information_of_joint(joint) -> InfoQuantity:
    """Mutual information of a 2-D joint table, clamped at zero from below."""
    arr = _validated_joint(joint)
    px = arr.sum(axis=1)
    pk = arr.sum(axis=0)
    mask = arr > LOG_FLOOR
    if not mask.any():
        return InfoQuantity(0.0)
    outer = np.outer(px, pk)
    mi = float((arr[mask] * np.log(arr[mask] / outer[mask])).sum())
    return InfoQuantity(_clamped_info(mi))

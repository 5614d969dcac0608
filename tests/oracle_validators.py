"""The three probability validators as they were before they were merged.

Kept as the reference implementation for ``test_validators_oracle.py``:
``_as_prob_vector`` validated a distribution, ``likelihood_table`` is the
body of ``LikelihoodModel.__post_init__`` and ``_validated_joint`` validated
a joint table, each with its own finite, negative, clip and sum calls.
"""

from __future__ import annotations

import numpy as np

from thermosci.errors import InvalidDistribution, InvalidJoint
from thermosci.info_core import NEGATIVE_CLAMP, NORMALIZATION_TOL


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


def likelihood_table(table) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
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
    return arr


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


"""The field validators' failure messages, for each value that fails them and each place.

The validators that run on every construction test their plain condition first and
build a message only when it fails. These cases pin the messages they give: NaN,
-inf and a negative value in the first, a middle and the last field each checks. A
guard written as ``min(values) >= 0`` would let a NaN after the first field through.
``tests/test_optimized.py`` runs the same cases under ``python -O``.
"""

import math

import pytest

from thermosci import (
    BudgetScenario,
    DiscreteDistribution,
    PartitionSpec,
    RoundRecord,
    SubdomainBudget,
    per_subdomain_cap,
    scenario_from_partition,
)
from thermosci.errors import ThermosciError

#: each failing value, with its text in a message
BAD = ((math.nan, "nan"), (-math.inf, "-inf"), (-1.0, "-1.0"))
MASSES = DiscreteDistribution([0.2, 0.3, 0.5])
PARTITION = PartitionSpec(MASSES, (1.0, 2.0, 3.0), subdomain_entropies=(0.1, 0.2, 0.3))
SUBDOMAIN = {"p": 0.5, "h": 0.4, "beta_w": 2.0, "sum_hy": 0.3}
SCENARIO = {"h0": 0.7, "beta_w": 2.0, "sum_hy": 0.3}
RECORD = {"info_gain": 0.1, "outcome_entropy": 0.5, "stored_entropy": 0.2, "work_meas": 0.3,
          "work_erase": 0.3, "belief_entropy_after": 0.4}


def _with(values: dict, name: str, value: float) -> dict:
    return {**values, name: value}


def _cases():
    for value, shown in BAD:
        for i in range(3):
            budgets = [1.0, 1.0, 1.0]
            budgets[i] = value
            yield (f"PartitionSpec-budgets[{i}]-{shown}",
                   lambda b=tuple(budgets): PartitionSpec(MASSES, b, subdomain_entropies=(
                       0.1, 0.2, 0.3)),
                   "InvalidParameter", f"budgets[{i}] must be >= 0, got {shown}")
            sum_hy = [0.0, 0.0, 0.0]
            sum_hy[i] = value
            yield (f"scenario_from_partition-sum_hy[{i}]-{shown}",
                   lambda s=tuple(sum_hy): scenario_from_partition(PARTITION, 0.5, s),
                   "InvalidParameter", f"sum_hy[{i}] must be >= 0, got {shown}")
        yield (f"scenario_from_partition-h_gen-{shown}",
               lambda v=value: scenario_from_partition(PARTITION, v, (0.0, 0.0, 0.0)),
               "InvalidParameter", f"h_gen must be >= 0, got {shown}")
        for name in SUBDOMAIN:
            yield (f"SubdomainBudget-{name}-{shown}",
                   lambda kw=_with(SUBDOMAIN, name, value): SubdomainBudget(
                       **kw, what="subdomains[2]."),
                   "InvalidParameter", f"subdomains[2].{name} must be >= 0, got {shown}")
            yield (f"per_subdomain_cap-{name}-{shown}",
                   lambda kw=_with(SUBDOMAIN, name, value): per_subdomain_cap(**kw),
                   "InvalidParameter", f"subdomain {name} must be >= 0, got {shown}")
        for name in SCENARIO:
            yield (f"BudgetScenario-{name}-{shown}",
                   lambda kw=_with(SCENARIO, name, value): BudgetScenario(**kw),
                   "InvalidParameter", f"{name} must be >= 0, got {shown}")
        for name in ("belief_entropy_after", "info_gain", "outcome_entropy", "stored_entropy"):
            for path in ("", "records[3]."):
                rule = "must be >= -1e-12" if math.isfinite(value) else "must be finite"
                yield (f"RoundRecord-{path}{name}-{shown}",
                       lambda kw=_with(RECORD, name, value), p=path: RoundRecord(
                           3, 0, **kw, path=p),
                       "InvalidLedger", f"round 3: {path}{name} {rule}, got {shown}")
    # with more than one field failing, the first in the site's order is named
    yield ("PartitionSpec-first-failing", lambda: PartitionSpec(
        MASSES, (1.0, -1.0, math.nan), subdomain_entropies=(0.1, 0.2, 0.3)),
        "InvalidParameter", "budgets[1] must be >= 0, got -1.0")
    yield ("SubdomainBudget-first-failing",
           lambda: SubdomainBudget(0.5, math.nan, -1.0, -math.inf),
           "InvalidParameter", "subdomain h must be >= 0, got nan")
    yield ("RoundRecord-first-failing", lambda: RoundRecord(
        3, 0, **_with(_with(RECORD, "stored_entropy", -1.0), "info_gain", -2.0)),
        "InvalidLedger", "round 3: info_gain must be >= -1e-12, got -2.0")


CASES = [pytest.param(build, error, message, id=name) for name, build, error, message in _cases()]


def raised(build) -> list[str] | None:
    """The error class name and message ``build()`` raises, or None when it returns."""
    try:
        build()
    except ThermosciError as exc:
        return [type(exc).__name__, str(exc)]
    return None


@pytest.mark.parametrize("build, error, message", CASES)
def test_validator_failure_keeps_its_message(build, error, message):
    assert raised(build) == [error, message]


def test_the_valid_bases_pass():
    assert raised(lambda: PartitionSpec(MASSES, (1.0, 1.0, 1.0),
                                        subdomain_entropies=(0.1, 0.2, 0.3))) is None
    assert raised(lambda: scenario_from_partition(PARTITION, 0.5, (0.0, 0.0, 0.0))) is None
    assert raised(lambda: SubdomainBudget(**SUBDOMAIN)) is None
    assert raised(lambda: per_subdomain_cap(**SUBDOMAIN)) is None
    assert raised(lambda: BudgetScenario(**SCENARIO)) is None
    assert raised(lambda: RoundRecord(3, 0, **RECORD, path="records[3].")) is None

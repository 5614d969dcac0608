"""Closed-form information and efficiency caps, plus regime classification.

These are pure evaluators: they take scalar budget/entropy summaries (a
:class:`BudgetScenario`) and return the corresponding caps. They double as
test oracles for ledgers produced by :mod:`thermosci.cycle_sim`. Caps are
floored at zero: a negative information cap (erasure entropy exceeding the
budget) is vacuous, so it is clamped rather than reported.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass
from enum import Enum

from .errors import (
    InvalidDistribution,
    InvalidParameter,
    MissingPartition,
    NegativeGap,
    ThermosciError,
    ZeroBudget,
    ZeroPriorEntropy,
)

_GAP_TOL = 1e-12
_CONSISTENCY_TOL = 1e-10


def _check_at_least(low: float, what: str = "",
                    error: type[ThermosciError] = InvalidParameter, **fields: float) -> None:
    """Raise ``error`` naming the field unless each value is >= ``low``; NaN fails, +inf passes."""
    for name, value in fields.items():
        if not value >= low:
            raise error(f"{what}{name} must be >= {low:g}, got {value!r}")


def _json_count(value, path: str, error: type[ThermosciError] = InvalidParameter) -> int:
    """A JSON count as an int, else ``error`` naming ``path``: past 2**53 floats skip counts."""
    if type(value) in (int, float) and 0 <= value <= 2**53 and value == int(value):
        return int(value)  # NaN and inf fail the range before int() sees them
    shown = "an integer out of range" if type(value) is int and abs(value) > 2**53 else repr(value)
    raise error(f"{path} must be an integral count in [0, 2**53], got {shown}")


def _json_finite(value, path: str, error: type[ThermosciError] = InvalidParameter) -> float:
    """A JSON number as a finite float, else ``error`` naming ``path`` in a short message."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # NaN fails too
        return float(value)
    shown = "an integer past the float range" if type(value) is int else repr(value)
    raise error(f"{path} must be finite, got {shown}")


def _json_numbers(values, path: str, rank: int = 1):
    """``values`` as given, unless an entry in its first ``rank`` levels of lists is
    neither a list nor a JSON number: then InvalidDistribution naming that entry by its
    path, such as ``prior[0]``. A bool fails; the shape is left to the normaliser."""
    if isinstance(values, list):
        for i, value in enumerate(values):
            if isinstance(value, list):
                if rank > 1:
                    _json_numbers(value, f"{path}[{i}]", rank - 1)
            elif type(value) not in (int, float):
                raise InvalidDistribution(f"{path}[{i}] must be a number, got {value!r}")
    return values


@dataclass(frozen=True)
class SubdomainBudget:
    """One subdomain's share: mass, conditional prior entropy, budget, outcome entropy sum."""

    p: float
    h: float
    beta_w: float
    sum_hy: float
    what: InitVar[str] = "subdomain "  # how messages name the fields, such as "subdomains[0]."

    def __post_init__(self, what: str):  # each field compared on its own: NaN fails each test
        if not (self.p >= 0.0 and self.h >= 0.0 and self.beta_w >= 0.0 and self.sum_hy >= 0.0):
            _check_at_least(0.0, what, p=self.p, h=self.h, beta_w=self.beta_w, sum_hy=self.sum_hy)


@dataclass(frozen=True)
class BudgetScenario:
    """Scalar summary of an episode family: prior entropy, total work, outcome entropy.

    ``subdomains``, when present, carries the per-subdomain triples used by
    the federated caps; their mass-weighted budgets must reproduce the
    global ``beta_w``.
    """

    h0: float
    beta_w: float
    sum_hy: float
    subdomains: tuple[SubdomainBudget, ...] | None = None

    def __post_init__(self):
        if not (self.h0 >= 0.0 and self.beta_w >= 0.0 and self.sum_hy >= 0.0):
            _check_at_least(0.0, h0=self.h0, beta_w=self.beta_w, sum_hy=self.sum_hy)
        if self.subdomains is not None:
            subs = tuple(self.subdomains)
            if not subs:
                raise InvalidParameter("subdomains must be non-empty when present")
            object.__setattr__(self, "subdomains", subs)
            mass = sum(s.p for s in subs)
            if abs(mass - 1.0) > 1e-9:
                raise InvalidParameter(f"subdomain masses subdomains[*].p sum to {mass!r}, not 1")
            weighted = sum(s.p * s.beta_w for s in subs)
            gap = abs(weighted - self.beta_w)  # past 1, relative to the smaller side
            if gap > _CONSISTENCY_TOL and gap > _CONSISTENCY_TOL * min(weighted, self.beta_w):
                raise InvalidParameter(f"mass-weighted subdomain budgets subdomains[*].beta_w "
                                       f"give {weighted!r}, not beta_w {self.beta_w!r}")

    def to_json_dict(self) -> dict:
        d = {"h0": self.h0, "beta_w": self.beta_w, "sum_hy": self.sum_hy, "subdomains": None}
        if self.subdomains is not None:
            d["subdomains"] = [
                {"p": s.p, "h": s.h, "beta_w": s.beta_w, "sum_hy": s.sum_hy}
                for s in self.subdomains
            ]
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "BudgetScenario":
        def finite(d: dict, path: str, *keys: str) -> list[float]:
            return [_json_finite(d[key], f"{path}{key}") for key in keys]

        try:
            subs = data.get("subdomains")
            subdomains = None if subs is None else tuple(
                SubdomainBudget(*finite(s, f"subdomains[{i}].", "p", "h", "beta_w", "sum_hy"),
                                what=f"subdomains[{i}].")
                for i, s in enumerate(subs))
            return cls(*finite(data, "", "h0", "beta_w", "sum_hy"), subdomains)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"scenario JSON does not match schema: {exc}") from exc


def unpartitioned_info_cap(s: BudgetScenario) -> float:
    """Largest achievable information gain: min of prior entropy and budget headroom."""
    return max(0.0, min(s.h0, s.beta_w - s.sum_hy))


def unpartitioned_eta_cap(s: BudgetScenario) -> float:
    """Efficiency cap for an unpartitioned strategy; requires a positive budget."""
    if s.beta_w <= 0.0:
        raise ZeroBudget("efficiency cap undefined at zero budget")
    return max(0.0, min(s.h0 / s.beta_w, 1.0 - s.sum_hy / s.beta_w))


def per_subdomain_cap(p: float, h: float, beta_w: float, sum_hy: float) -> float:
    """Information cap for one subdomain's budgeted cycle."""
    if not (p >= 0.0 and h >= 0.0 and beta_w >= 0.0 and sum_hy >= 0.0):
        _check_at_least(0.0, "subdomain ", p=p, h=h, beta_w=beta_w, sum_hy=sum_hy)
    return max(0.0, min(h, beta_w - sum_hy))


def federated_info_cap(s: BudgetScenario) -> float:
    """Mass-weighted sum of the per-subdomain information caps."""
    if s.subdomains is None:
        raise MissingPartition("federated cap requires subdomain data")
    return sum(sub.p * per_subdomain_cap(sub.p, sub.h, sub.beta_w, sub.sum_hy)
               for sub in s.subdomains)


def federated_eta_cap(s: BudgetScenario) -> float:
    """Efficiency cap for a federated strategy over its subdomain mixture."""
    if s.beta_w <= 0.0:
        raise ZeroBudget("efficiency cap undefined at zero budget")
    if s.subdomains is None:
        raise MissingPartition("federated cap requires subdomain data")
    h_mix = sum(sub.p * sub.h for sub in s.subdomains)
    hy_mix = sum(sub.p * sub.sum_hy for sub in s.subdomains)
    return max(0.0, min(h_mix / s.beta_w, 1.0 - hy_mix / s.beta_w))


def partition_entropy_gap(h_gen: float, h_fed: float) -> float:
    """Entropy removed by conditioning on the partition: ``h_gen - h_fed``, >= 0."""
    _check_at_least(0.0, h_gen=h_gen, h_fed=h_fed)
    if h_fed > h_gen + _GAP_TOL:
        raise NegativeGap(
            f"conditional entropy {h_fed!r} exceeds unconditional {h_gen!r}: "
            "inconsistent partition"
        )
    return max(0.0, h_gen - h_fed)


class Regime(Enum):
    PRIOR_LIMITED = "prior_limited"
    BUDGET_LIMITED = "budget_limited"
    CROSSOVER = "crossover"


@dataclass(frozen=True)
class RegimeResult:
    regime: Regime
    ratio: float


def regime_classify(beta_w: float, h: float) -> RegimeResult:
    """Classify a budget as prior-limited, budget-limited, or crossover.

    The asymptotic regimes are made deterministic by explicit thresholds on
    the ratio ``beta_w / h``: above 10 prior-limited, below 0.1 budget-limited.
    """
    if math.isnan(h):
        raise InvalidParameter("h must be > 0, got nan")
    if h <= 0.0:
        raise ZeroPriorEntropy("regime classification requires prior entropy > 0")
    _check_at_least(0.0, beta_w=beta_w)
    ratio = beta_w / h
    if ratio > 10.0:
        return RegimeResult(Regime.PRIOR_LIMITED, ratio)
    if ratio < 0.1:
        return RegimeResult(Regime.BUDGET_LIMITED, ratio)
    return RegimeResult(Regime.CROSSOVER, ratio)


# ---------------------------------------------------------------------------
# ledger-facing checks


def scenario_from_ledger(ledger, h0: float) -> BudgetScenario:
    """Summarize a work ledger as a scenario: spent work and erased (stored) entropy."""
    return BudgetScenario(
        h0=h0,
        beta_w=ledger.budget_spent,
        sum_hy=float(sum(r.stored_entropy for r in ledger.records)),
    )


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: observed value against its limit."""

    name: str
    passed: bool
    observed: float
    limit: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars would break JSON emission downstream
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "observed", float(self.observed))
        object.__setattr__(self, "limit", float(self.limit))


def bound_report(ledger, h0: float | None = None) -> list[BoundCheck]:
    """Check a ledger against every applicable work/information bound.

    Covers the per-round work floor, the cumulative work floor, the
    efficiency cap, and (when ``h0`` is given) the budget-information cap,
    each within ``_CONSISTENCY_TOL``.
    """
    checks: list[BoundCheck] = []
    records = ledger.records

    floors = [r.info_gain + r.stored_entropy for r in records]
    works = [r.work_meas + r.work_erase for r in records]
    if records:
        slacks = [w - f for w, f in zip(works, floors)]
        worst = min(range(len(records)), key=lambda i: slacks[i])
        checks.append(BoundCheck(
            "round_work_floor",
            all(sl >= -_CONSISTENCY_TOL for sl in slacks),
            works[worst], floors[worst],
            f"worst round {records[worst].round_index}",
        ))
    else:
        checks.append(BoundCheck("round_work_floor", True, 0.0, 0.0, "empty ledger"))

    total_floor = float(sum(floors))
    total_work = float(sum(works))
    checks.append(BoundCheck(
        "total_work_floor", total_work >= total_floor - _CONSISTENCY_TOL, total_work, total_floor))

    total_info = float(sum(r.info_gain for r in records))
    if ledger.budget_spent > 0.0 and total_floor > 0.0:
        eta = total_info / ledger.budget_spent
        cap = total_info / total_floor
        ok = eta <= cap + _CONSISTENCY_TOL and cap <= 1.0 + _CONSISTENCY_TOL
        checks.append(BoundCheck("efficiency_cap", ok, eta, min(cap, 1.0)))
    else:
        checks.append(BoundCheck("efficiency_cap", True, 0.0, 1.0, "no work spent"))

    if h0 is not None:
        cap = unpartitioned_info_cap(scenario_from_ledger(ledger, h0))
        checks.append(BoundCheck("info_cap", total_info <= cap + _CONSISTENCY_TOL,
                                 total_info, cap))

    return checks

"""Subdomain partitions and the generalist / specialist / federated archetypes.

A partition splits the environment into ``n`` subdomains with masses
``p_i``, per-subdomain conditional priors (or bare entropies ``H_i``), and
per-subdomain work budgets ``W_i``. The three strategy archetypes are just
special partitions: a generalist is the trivial one-subdomain partition, a
specialist concentrates all mass and budget on one subdomain, and a
federated strategy spreads both across several.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BudgetScenario, SubdomainBudget, _check_at_least, _json_finite, _json_numbers
from .errors import (
    IndexOutOfRange,
    InvalidJoint,
    InvalidParameter,
    ZeroMassSubdomain,
)
from .info_core import DiscreteDistribution, _entropy, _normalised

_ENTROPY_TOL = 1e-10
#: the generalist's one-subdomain masses; immutable, so every partition shares it
_UNIT_MASS = DiscreteDistribution([1.0])


@dataclass(frozen=True)
class PartitionSpec:
    """A complete description of one K-partition.

    Either ``conditional_priors`` or ``subdomain_entropies`` must be given;
    when priors are present the entropies are derived from them (and any
    supplied entropies are cross-checked). Zero-mass subdomains may exist
    but must carry zero budget.
    """

    masses: DiscreteDistribution
    budgets: tuple[float, ...]
    conditional_priors: tuple[DiscreteDistribution, ...] | None = None
    subdomain_entropies: tuple[float, ...] | None = None

    def __post_init__(self):
        n = len(self.masses)
        budgets = tuple(float(b) for b in self.budgets)
        if len(budgets) != n:
            raise InvalidParameter(f"{len(budgets)} budgets for {n} subdomains")
        if not all(b >= 0.0 for b in budgets):  # not min(): a NaN after the first would pass
            _check_at_least(0.0, **{f"budgets[{i}]": b for i, b in enumerate(budgets)})
        object.__setattr__(self, "budgets", budgets)

        masses = self.masses.probs.tolist()
        for i, (p, w) in enumerate(zip(masses, budgets)):
            if p <= 0.0 and w > 0.0:
                raise ZeroMassSubdomain(
                    f"subdomain {i} has zero mass but positive budget {w!r}"
                )

        if self.conditional_priors is not None:
            priors = tuple(self.conditional_priors)
            if len(priors) != n:
                raise InvalidParameter(f"{len(priors)} conditional priors for {n} subdomains")
            object.__setattr__(self, "conditional_priors", priors)
            derived = tuple(_entropy(pr.probs) for pr in priors)
            if self.subdomain_entropies is not None:
                supplied = tuple(float(h) for h in self.subdomain_entropies)
                if len(supplied) != n or not all(  # NaN fails too
                    abs(a - b) <= _ENTROPY_TOL for a, b in zip(supplied, derived)
                ):
                    raise InvalidParameter(
                        "supplied subdomain entropies disagree with conditional priors"
                    )
            object.__setattr__(self, "subdomain_entropies", derived)
        else:
            if self.subdomain_entropies is None:
                raise InvalidParameter(
                    "need conditional_priors or subdomain_entropies"
                )
            entropies = tuple(float(h) for h in self.subdomain_entropies)
            if len(entropies) != n:
                raise InvalidParameter(f"{len(entropies)} entropies for {n} subdomains")
            _check_at_least(0.0, **{f"subdomain_entropies[{i}]": h
                                    for i, h in enumerate(entropies)})
            object.__setattr__(self, "subdomain_entropies", entropies)

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def total_budget(self) -> float:
        """Mass-weighted sum of the subdomain budgets."""
        return sum(p * w for p, w in zip(self.masses.probs.tolist(), self.budgets))

    def to_json_dict(self) -> dict:
        return {
            "masses": [float(p) for p in self.masses.probs],
            "conditional_priors": None if self.conditional_priors is None else [
                [float(v) for v in pr.probs] for pr in self.conditional_priors
            ],
            "entropies": list(self.subdomain_entropies),
            "budgets": list(self.budgets),
        }

    @classmethod
    @np.errstate(over="ignore")  # the normaliser names an overflowing sum; numpy need not warn
    def from_json_dict(cls, data: dict) -> "PartitionSpec":
        try:
            masses = DiscreteDistribution(_json_numbers(data["masses"], "masses"), what="masses")
            priors = data.get("conditional_priors")
            conditional = None
            if priors is not None:
                if not isinstance(priors, list):
                    raise InvalidParameter(f"conditional_priors must be a list, got {priors!r}")
                conditional = tuple(
                    DiscreteDistribution(_json_numbers(p, f"conditional_priors[{i}]"),
                                         what=f"conditional_priors[{i}]")
                    for i, p in enumerate(priors))
            entropies = data.get("entropies")
            if entropies is not None:
                entropies = tuple(_json_finite(h, f"entropies[{i}]")
                                  for i, h in enumerate(entropies))
            budgets = tuple(_json_finite(b, f"budgets[{i}]") for i, b in enumerate(data["budgets"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"partition JSON does not match schema: {exc}") from exc
        return cls(masses, budgets, conditional, entropies)


def h_fed(part: PartitionSpec) -> float:
    """Mass-weighted conditional prior entropy of the partition, in nats."""
    return sum(p * h for p, h in zip(part.masses.probs, part.subdomain_entropies))


def generalist_partition(prior: DiscreteDistribution, budget: float) -> PartitionSpec:
    """The trivial one-subdomain partition: full prior, full budget."""
    _check_at_least(0.0, budget=budget)
    return PartitionSpec(
        masses=_UNIT_MASS,
        budgets=(float(budget),),
        conditional_priors=(prior,),
    )


def specialist_partition(
    conditional_priors: list[DiscreteDistribution] | tuple[DiscreteDistribution, ...],
    i_star: int,
    budget: float,
) -> PartitionSpec:
    """All mass and budget on subdomain ``i_star``; the others stay unfunded."""
    priors = tuple(conditional_priors)
    n = len(priors)
    if not 0 <= i_star < n:
        raise IndexOutOfRange(f"subdomain index {i_star} outside [0, {n})")
    _check_at_least(0.0, budget=budget)
    masses = np.zeros(n)
    masses[i_star] = 1.0
    budgets = [0.0] * n
    budgets[i_star] = float(budget)
    return PartitionSpec(
        masses=DiscreteDistribution(masses),
        budgets=tuple(budgets),
        conditional_priors=priors,
    )


def build_partition_from_joint(joint, budgets) -> PartitionSpec:
    """Build a partition from a joint table ``p(state, subdomain)``.

    Masses are the subdomain (column) marginals; conditional priors are the
    normalized columns. Zero-mass columns get a uniform placeholder prior,
    which never enters any mass-weighted aggregate.
    """
    arr = _normalised(joint, 2, "joint", InvalidJoint)
    n_states, n_sub = arr.shape
    masses = arr.sum(axis=0)
    priors = []
    for k in range(n_sub):
        if masses[k] > 0.0:
            priors.append(DiscreteDistribution(arr[:, k] / masses[k]))
        else:
            priors.append(DiscreteDistribution.uniform(n_states))
    return PartitionSpec(
        masses=DiscreteDistribution(masses),
        budgets=tuple(float(b) for b in budgets),
        conditional_priors=tuple(priors),
    )


def scenario_from_partition(
    part: PartitionSpec,
    h_gen: float,
    sum_hy: tuple[float, ...] | list[float] | None = None,
) -> BudgetScenario:
    """Assemble the budget scenario a partition induces.

    ``h_gen`` is the unpartitioned prior entropy; ``sum_hy`` gives each
    subdomain's aggregate outcome entropy (zeros when omitted). The global
    outcome-entropy term is the mass-weighted mixture.
    """
    if sum_hy is None:
        sum_hy = (0.0,) * part.n
    sum_hy = tuple(float(v) for v in sum_hy)
    if len(sum_hy) != part.n:
        raise InvalidParameter(f"{len(sum_hy)} outcome-entropy sums for {part.n} subdomains")
    if not (h_gen >= 0.0 and all(v >= 0.0 for v in sum_hy)):
        _check_at_least(0.0, h_gen=h_gen, **{f"sum_hy[{i}]": v for i, v in enumerate(sum_hy)})
    subs = tuple(
        SubdomainBudget(p, h, w, s)
        for p, h, w, s in zip(part.masses.probs.tolist(), part.subdomain_entropies,
                              part.budgets, sum_hy)
    )
    global_hy = sum(sub.p * sub.sum_hy for sub in subs)
    return BudgetScenario(
        h0=float(h_gen),
        beta_w=part.total_budget,
        sum_hy=global_hy,
        subdomains=subs,
    )

"""Measure-update-erase episodes under a finite work budget.

An episode is a sequence of rounds. In each round the agent picks an
intervention, anticipates an outcome, updates its belief, and erases the
stored record of the outcome. Work is accounted in beta-normalized nats:

    round cost = kappa_meas * (info_gain + delta_f_mem) + kappa_erase * stored_entropy

with ``kappa >= 1`` modelling irreversibility on top of the reversible floor
and ``stored_entropy`` the entropy of the (optionally compressed) outcome
record. A round executes only if its full expected cost fits in the
remaining budget; partial rounds are never charged. A round whose cost and
information gain are both zero would change nothing, thermodynamically or
epistemically, so it terminates the episode instead of spinning.

Two evaluation modes are supported:

* ``ExpectedMode`` enumerates the outcome tree and keeps the exact mixture
  of posteriors, merging branches with equal outcome counts when the policy
  allows it, so each ledger row is an exact expectation and the
  telescoping identity  sum_t info_t == prior entropy - expected final
  posterior entropy  holds to float precision.
* ``SampledMode`` draws the true state once per trial from the prior,
  simulates outcome draws, and reports trial-averaged ledger rows plus a
  standard error for the cumulative information gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteMapping,
    IndexOutOfRange,
    InvalidLedger,
    InvalidParameter,
    NoWorkSpent,
    TreeTooLarge,
    ZeroEvidence,
)
from .info_core import (
    LN2,
    LOG_FLOOR,
    DiscreteDistribution,
    InfoQuantity,
    LikelihoodModel,
    Units,
    _entropies,
    _entropy,
    predictive_gain,
)

#: rounds whose total expected cost is at or below this are degenerate no-ops
ZERO_ROUND_TOL = 1e-15
#: allowed budget overdraft from float accumulation
BUDGET_SLACK = 1e-12

DEFAULT_NODE_CAP = 1_000_000
#: rounds of uniform draws generated per sampled trial before a longer block is needed
DRAW_BLOCK = 8


# ---------------------------------------------------------------------------
# environment and cost description


@dataclass(frozen=True)
class EnvironmentModel:
    """A discrete environment: state prior, likelihood tensor, intervention count."""

    prior: DiscreteDistribution
    likelihood: LikelihoodModel
    intervention_count: int | None = None

    def __post_init__(self):
        if len(self.prior) != self.likelihood.n_states:
            raise DimensionMismatch(
                f"prior support {len(self.prior)} does not match likelihood states "
                f"{self.likelihood.n_states}"
            )
        if self.intervention_count is None:
            object.__setattr__(self, "intervention_count", self.likelihood.n_interventions)
        elif self.intervention_count != self.likelihood.n_interventions:
            raise DimensionMismatch(
                f"declared {self.intervention_count} interventions but likelihood has "
                f"{self.likelihood.n_interventions}"
            )
        # outcome entropy of each (u, state) row, the H(Y|s) term of every gain
        row_h = _entropies(self.likelihood.table)
        row_h.flags.writeable = False
        object.__setattr__(self, "_row_entropies", row_h)

    @property
    def n_states(self) -> int:
        return self.likelihood.n_states

    @property
    def n_outcomes(self) -> int:
        return self.likelihood.n_outcomes

    def to_json_dict(self) -> dict:
        return {
            "prior": [float(p) for p in self.prior.probs],
            "interventions": self.likelihood.n_interventions,
            "likelihood": [[[float(v) for v in row] for row in self.likelihood.table[u]]
                           for u in range(self.likelihood.n_interventions)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EnvironmentModel":
        try:
            prior = DiscreteDistribution(data["prior"])
            lik = LikelihoodModel(data["likelihood"])
            count = int(data["interventions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(f"environment JSON does not match schema: {exc}") from exc
        return cls(prior, lik, count)


@dataclass(frozen=True)
class CostModel:
    """Irreversibility factors and memory free-energy change per round.

    ``kappa_* = 1`` with ``delta_f_mem = 0`` charges exactly the reversible
    floor; larger values model dissipative hardware.
    """

    kappa_meas: float = 1.0
    kappa_erase: float = 1.0
    delta_f_mem: float = 0.0

    def __post_init__(self):
        for name, low in (("kappa_meas", 1.0), ("kappa_erase", 1.0), ("delta_f_mem", 0.0)):
            value = getattr(self, name)
            if not low <= value < math.inf:
                raise InvalidParameter(f"{name} must be finite and >= {low:g}, got {value!r}")


@dataclass(frozen=True)
class CompressionMap:
    """A total map from outcome indices to statistic indices, applied before storage."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(m) for m in self.mapping)
        if len(mapping) < 1 or any(m < 0 for m in mapping):
            raise IncompleteMapping("mapping must be a non-empty tuple of indices >= 0")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, n_outcomes: int) -> "CompressionMap":
        return cls(tuple(range(n_outcomes)))

    @classmethod
    def constant(cls, n_outcomes: int) -> "CompressionMap":
        return cls((0,) * n_outcomes)

    def pushforward(self, outcome_probs: np.ndarray) -> np.ndarray:
        """Statistic probabilities of outcome probabilities; leading batch axes are kept."""
        n_outcomes = outcome_probs.shape[-1]
        if len(self.mapping) != n_outcomes:
            raise IncompleteMapping(
                f"mapping covers {len(self.mapping)} outcomes, distribution has {n_outcomes}"
            )
        return outcome_probs @ np.eye(max(self.mapping) + 1)[list(self.mapping)]


def stored_entropy(
    outcome_dist: DiscreteDistribution, compression: CompressionMap | None = None
) -> InfoQuantity:
    """Entropy of the stored record: the pushforward of the outcome distribution.

    With no compression map this is just the outcome entropy.
    """
    if compression is None:
        return InfoQuantity(_entropy(outcome_dist.probs))
    return InfoQuantity(_entropy(compression.pushforward(outcome_dist.probs)))


# ---------------------------------------------------------------------------
# policies

History = tuple[tuple[int, int], ...]

# A policy whose class sets ``history_free = True`` chooses from (belief, t)
# alone. Bayes updates commute, so the (u, y) counts are a sufficient
# statistic, and expected mode merges that policy's branches with equal
# counts; any other policy is asked about every ordered history.


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy seeds must be >= 0; fail here, naming the field
        raise InvalidParameter(f"seed must be >= 0, got {seed!r}")


@dataclass(frozen=True)
class FixedSequence:
    """Play a fixed list of interventions; the episode ends when it runs out."""

    interventions: tuple[int, ...]
    history_free = True

    def choose(self, belief: np.ndarray, env: EnvironmentModel, t: int, history: History):
        if t >= len(self.interventions):
            return None
        return int(self.interventions[t])


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through interventions in index order."""

    history_free = True

    def choose(self, belief: np.ndarray, env: EnvironmentModel, t: int, history: History):
        return t % env.intervention_count


@dataclass(frozen=True)
class RandomPolicy:
    """Uniformly random intervention, derived deterministically from the history.

    Seeding on ``(seed, round, history)`` makes the choice a function of the
    branch, so expected-mode enumeration and sampled-mode trials agree.
    """

    seed: int = 0
    history_free = False

    def __post_init__(self):
        _check_seed(self.seed)

    def choose(self, belief: np.ndarray, env: EnvironmentModel, t: int, history: History):
        material = [self.seed, t]
        for u, y in history:
            material.extend((u, y))
        rng = np.random.default_rng(np.random.SeedSequence(material))
        return int(rng.integers(env.intervention_count))


@dataclass(frozen=True)
class GreedyInfoMax:
    """Pick the intervention with the highest expected information gain.

    Ties are broken by the lowest intervention index.
    """

    history_free = True

    def choose(self, belief: np.ndarray, env: EnvironmentModel, t: int, history: History):
        table = env.likelihood.table
        beliefs = np.broadcast_to(belief, table.shape[:2])
        _, _, gains = predictive_gain(beliefs, table, env._row_entropies)
        return int(np.argmax(gains))


Policy = FixedSequence | RoundRobin | RandomPolicy | GreedyInfoMax


# ---------------------------------------------------------------------------
# modes


@dataclass(frozen=True)
class ExpectedMode:
    """Exhaustive outcome-tree enumeration; ledger rows are exact expectations."""


@dataclass(frozen=True)
class SampledMode:
    """Monte Carlo trials with per-trial deterministic substreams."""

    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        _check_seed(self.seed)
        if self.trials < 1:
            raise InvalidParameter("trials must be >= 1")


Mode = ExpectedMode | SampledMode


# ---------------------------------------------------------------------------
# ledger


@dataclass(frozen=True)
class RoundRecord:
    """One executed round: information gained, entropies handled, work charged.

    ``intervention`` is None when branches or trials at this round disagree
    on the choice (adaptive policies in expected mode).
    """

    round_index: int
    intervention: int | None
    info_gain: float
    outcome_entropy: float
    stored_entropy: float
    work_meas: float
    work_erase: float
    belief_entropy_after: float

    def __post_init__(self):
        for name in ("info_gain", "outcome_entropy", "stored_entropy",
                     "work_meas", "work_erase", "belief_entropy_after"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.info_gain < -BUDGET_SLACK:
            raise InvalidLedger(f"round {self.round_index}: negative info gain {self.info_gain!r}")
        if self.work_meas < self.info_gain - BUDGET_SLACK:
            raise InvalidLedger(
                f"round {self.round_index}: measurement work {self.work_meas!r} below "
                f"information gain {self.info_gain!r}"
            )
        if self.work_erase < self.stored_entropy - BUDGET_SLACK:
            raise InvalidLedger(
                f"round {self.round_index}: erasure work {self.work_erase!r} below "
                f"stored entropy {self.stored_entropy!r}"
            )
        if self.stored_entropy > self.outcome_entropy + BUDGET_SLACK:
            raise InvalidLedger(
                f"round {self.round_index}: stored entropy exceeds outcome entropy"
            )
        if self.belief_entropy_after < -BUDGET_SLACK:
            raise InvalidLedger(f"round {self.round_index}: negative belief entropy")


@dataclass(frozen=True)
class WorkLedger:
    """Ordered round records plus budget state for one episode."""

    records: tuple[RoundRecord, ...]
    budget_total: float
    budget_spent: float

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "budget_total", float(self.budget_total))
        object.__setattr__(self, "budget_spent", float(self.budget_spent))
        spent = sum(r.work_meas + r.work_erase for r in self.records)
        if abs(spent - self.budget_spent) > 1e-10:
            raise InvalidLedger(
                f"budget_spent {self.budget_spent!r} does not match record sum {spent!r}"
            )
        if self.budget_spent > self.budget_total + BUDGET_SLACK:
            raise InvalidLedger(
                f"budget_spent {self.budget_spent!r} exceeds budget_total {self.budget_total!r}"
            )

    @property
    def rounds_completed(self) -> int:
        return len(self.records)

    def to_json_dict(self, units: Units | str = Units.NATS) -> dict:
        units = Units(units)
        scale = 1.0 if units == Units.NATS else 1.0 / LN2
        recs = [
            {
                "round": r.round_index,
                "intervention": r.intervention,
                "info_gain": r.info_gain * scale,
                "outcome_entropy": r.outcome_entropy * scale,
                "stored_entropy": r.stored_entropy * scale,
                "work_meas": r.work_meas * scale,
                "work_erase": r.work_erase * scale,
                "belief_entropy_after": r.belief_entropy_after * scale,
            }
            for r in self.records
        ]
        return {
            "units": units.value,
            "budget_total": self.budget_total * scale,
            "budget_spent": self.budget_spent * scale,
            "rounds": self.rounds_completed,
            "records": recs,
            "totals": {
                "cumulative_info": sum(r.info_gain for r in self.records) * scale,
                "work_meas": sum(r.work_meas for r in self.records) * scale,
                "work_erase": sum(r.work_erase for r in self.records) * scale,
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WorkLedger":
        try:
            units = Units(data.get("units", "nats"))
            scale = 1.0 if units == Units.NATS else LN2
            records = tuple(
                RoundRecord(
                    round_index=int(r["round"]),
                    intervention=None if r["intervention"] is None else int(r["intervention"]),
                    info_gain=float(r["info_gain"]) * scale,
                    outcome_entropy=float(r["outcome_entropy"]) * scale,
                    stored_entropy=float(r["stored_entropy"]) * scale,
                    work_meas=float(r["work_meas"]) * scale,
                    work_erase=float(r["work_erase"]) * scale,
                    belief_entropy_after=float(r["belief_entropy_after"]) * scale,
                )
                for r in data["records"]
            )
            return cls(records, float(data["budget_total"]) * scale,
                       float(data["budget_spent"]) * scale)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidLedger(f"ledger JSON does not match schema: {exc}") from exc


@dataclass(frozen=True)
class EpisodeSummary:
    """Belief-level outcome of an episode, alongside the work ledger."""

    status: str  # "ok" | "budget_exhausted_immediately"
    mode: str  # "expected" | "sampled"
    stop_reason: str  # "budget" | "degenerate" | "max_rounds" | "policy_exhausted" | "mixed"
    prior_entropy: float
    posterior_entropy: float
    cumulative_info: float
    rounds: int
    trials: int | None = None
    cumulative_info_se: float | None = None


def cumulative_information(ledger: WorkLedger) -> InfoQuantity:
    """Total information gained over the episode, in nats."""
    return InfoQuantity(sum(r.info_gain for r in ledger.records))


def efficiency(ledger: WorkLedger) -> float:
    """Information gained per unit of spent work (both in nats)."""
    if ledger.budget_spent <= 0.0:
        raise NoWorkSpent("efficiency undefined: no work was spent")
    total_info = sum(r.info_gain for r in ledger.records)
    eta = total_info / ledger.budget_spent
    floor = sum(r.info_gain + r.stored_entropy for r in ledger.records)
    if floor > 0.0 and eta > total_info / floor + 1e-10:
        raise InvalidLedger(f"efficiency {eta!r} exceeds its work-floor cap")
    return eta


def round_work_lower_bound(record: RoundRecord) -> float:
    """Reversible floor ``info_gain + stored_entropy`` for one round, in nats."""
    bound = record.info_gain + record.stored_entropy
    if record.work_meas + record.work_erase < bound - BUDGET_SLACK:
        raise InvalidLedger(f"round {record.round_index} work below its reversible floor")
    return bound


# ---------------------------------------------------------------------------
# episode execution


def _choose(policy: Policy, belief: np.ndarray, env: EnvironmentModel,
            t: int, history: History):
    u = policy.choose(belief, env, t, history)
    if u is not None and not 0 <= u < env.intervention_count:
        raise IndexOutOfRange(
            f"policy chose intervention {u} outside [0, {env.intervention_count})"
        )
    return u


def _run_expected(env, policy, cost, budget, compression, max_rounds, node_cap):
    table, row_h = env.likelihood.table, env._row_entropies
    h_prior = _entropy(env.prior.probs)
    merge = getattr(policy, "history_free", False)
    # the frontier: one row per outcome history, or per count vector when merging
    masses = np.ones(1)
    beliefs = env.prior.probs[None]
    counts = np.zeros((1, env.intervention_count * env.n_outcomes), dtype=np.int32)
    edges = np.eye(counts.shape[1], dtype=np.int32)  # row u * Y + y counts one (u, y)
    histories: list[History] = [()]  # with merging, the history of the row's first member
    records: list[RoundRecord] = []
    spent = 0.0
    posterior_entropy = h_prior
    status, reason = "ok", "max_rounds"
    t = 0
    while max_rounds is None or t < max_rounds:
        choices = []
        for belief, history in zip(beliefs, histories):
            u = _choose(policy, belief, env, t, history)
            if u is None:
                break
            choices.append(u)
        if len(choices) < len(histories):
            reason = "policy_exhausted"
            break

        us = np.array(choices)
        pred, hy, info = predictive_gain(beliefs, table[us], row_h[us])
        hs = hy if compression is None else _entropies(compression.pushforward(pred))
        info_t, hy_t, hs_t = (float(masses @ v) for v in (info, hy, hs))

        work_meas = cost.kappa_meas * (info_t + cost.delta_f_mem)
        work_erase = cost.kappa_erase * hs_t
        round_cost = work_meas + work_erase
        if round_cost <= ZERO_ROUND_TOL:
            reason = "degenerate"
            break
        if round_cost > budget - spent + BUDGET_SLACK:
            reason = "budget"
            if t == 0:
                status = "budget_exhausted_immediately"
            break

        node, y = np.nonzero(pred > LOG_FLOOR)
        child_masses = masses[node] * pred[node, y]
        if merge:
            counts = counts[node] + edges[us[node] * env.n_outcomes + y]
        if merge and masses.size > 1:  # the children of one row all differ
            order = np.lexsort(counts.T)
            keys = counts[order]
            first = np.ones(node.size, dtype=bool)  # starts a run of equal sorted keys
            np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
            child_masses = np.bincount(first.cumsum() - 1, weights=child_masses[order])
            order = order[first]
            node, y, counts = node[order], y[order], keys[first]
        if node.size > node_cap:
            raise TreeTooLarge(
                f"outcome tree needs {node.size} nodes at round {t}, cap is {node_cap}"
            )
        beliefs = beliefs[node] * table[us[node], :, y] / pred[node, y][:, None]
        masses = child_masses
        histories = [histories[k] + ((choices[k], yk),)
                     for k, yk in zip(node.tolist(), y.tolist())]
        posterior_entropy = float(masses @ _entropies(beliefs))
        u_rec = choices[0] if all(u == choices[0] for u in choices) else None
        records.append(RoundRecord(t, u_rec, info_t, hy_t, hs_t,
                                   work_meas, work_erase, posterior_entropy))
        spent += round_cost
        t += 1

    ledger = WorkLedger(tuple(records), budget, spent)
    cum = sum(r.info_gain for r in records)
    # telescoping: outcome-side gains against the posterior-side entropy drop
    if abs(cum - (h_prior - posterior_entropy)) > 1e-10:
        raise InvalidLedger(
            f"cumulative information {cum!r} does not telescope to the entropy drop "
            f"{h_prior - posterior_entropy!r}"
        )
    summary = EpisodeSummary(status, "expected", reason, h_prior, posterior_entropy,
                             cum, len(records))
    return ledger, summary


def _uniforms(seed: int, trials, m: int) -> np.ndarray:
    """The first ``m`` uniforms of each listed trial, one row per trial.

    Trial ``k`` draws from child ``k`` of ``SeedSequence(seed)``, the child
    ``spawn`` gives it, so a longer block extends a shorter one.
    """
    return np.array([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))).random(m)
                     for k in trials])


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row CDFs built as ``Generator.choice`` builds them: uniform u picks ``#(cdf <= u)``."""
    cdf = probs.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _run_sampled(env, policy, cost, budget, compression, max_rounds, mode):
    table, row_h = env.likelihood.table, env._row_entropies
    h_prior = _entropy(env.prior.probs)
    n, n_outcomes = mode.trials, env.n_outcomes
    # draw 0 picks a trial's state, draw t + 1 its round-t outcome
    draws = _uniforms(mode.seed, range(n), 1 + DRAW_BLOCK)
    theta = (_cdf(env.prior.probs) <= draws[:, :1]).sum(axis=1)
    table_cdf = _cdf(table)

    # the frontier: one row per distinct history among the running trials
    beliefs, histories = env.prior.probs[None], [()]
    live = np.arange(n)  # running trials
    node = np.zeros(n, dtype=np.intp)  # frontier row of each running trial
    spent, cum, h_now = np.zeros(n), np.zeros(n), np.full(n, h_prior)
    reasons: set[str] = set()
    records: list[RoundRecord] = []
    t = 0
    while max_rounds is None or t < max_rounds:
        choices = [_choose(policy, b, env, t, h) for b, h in zip(beliefs, histories)]
        if None in choices:
            reasons.add("policy_exhausted")
            go = np.array([u is not None for u in choices])[node]
            live, node = live[go], node[go]
            if not live.size:
                break
            keep, node = np.unique(node, return_inverse=True)
            beliefs, histories = beliefs[keep], [histories[i] for i in keep]
            choices = [choices[i] for i in keep]

        us = np.array(choices)
        pred, hy, info = predictive_gain(beliefs, table[us], row_h[us])
        hs = hy
        if compression is not None:  # (1, Y) products per row; one 2-D product rounds apart
            hs = _entropies(compression.pushforward(pred[:, None]))[:, 0]
        work_meas = cost.kappa_meas * (info + cost.delta_f_mem)
        work_erase = cost.kappa_erase * hs
        round_cost = (work_meas + work_erase)[node]
        degenerate = round_cost <= ZERO_ROUND_TOL
        over = ~degenerate & (round_cost > budget - spent[live] + BUDGET_SLACK)
        reasons.update(w for w, hit in (("degenerate", degenerate), ("budget", over)) if hit.any())
        run = ~(degenerate | over)
        live, node = live[run], node[run]
        if not live.size:
            break

        if t + 1 == draws.shape[1]:  # trials outlive their block: draw longer ones
            draws = np.pad(draws, ((0, 0), (0, draws.shape[1])))
            draws[live] = _uniforms(mode.seed, live.tolist(), draws.shape[1])
        y = (table_cdf[us[node], theta[live]] <= draws[live, t + 1, None]).sum(axis=1)
        if not (pred[node, y] > 0.0).all():
            raise ZeroEvidence("a drawn outcome has zero predictive probability")
        cols = np.zeros((5, n))
        cols[:, live] = np.stack((info, hy, hs, work_meas, work_erase))[:, node]
        spent[live] += round_cost[run]
        cum[live] += info[node]
        u_rec = int(us[node[0]]) if (us[node] == us[node[0]]).all() else None

        children, node = np.unique(node * n_outcomes + y, return_inverse=True)
        parent, y_child = np.divmod(children, n_outcomes)
        beliefs = beliefs[parent] * table[us[parent], :, y_child] / pred[parent, y_child][:, None]
        histories = [histories[p] + ((choices[p], yc),)
                     for p, yc in zip(parent.tolist(), y_child.tolist())]
        h_now[live] = _entropies(beliefs)[node]
        records.append(RoundRecord(t, u_rec, *(math.fsum(c.tolist()) / n for c in cols),
                                   math.fsum(h_now.tolist()) / n))
        t += 1
    if live.size:
        reasons.add("max_rounds")

    ledger = WorkLedger(tuple(records), budget, sum(r.work_meas + r.work_erase for r in records))
    trial_cum = cum.tolist()
    cum_mean = math.fsum(trial_cum) / n
    se = None
    if n > 1:
        var = math.fsum((c - cum_mean) ** 2 for c in trial_cum) / (n - 1)
        se = math.sqrt(max(var, 0.0) / n)
    status = "budget_exhausted_immediately" if not records and reasons == {"budget"} else "ok"
    reason = reasons.pop() if len(reasons) == 1 else "mixed"
    summary = EpisodeSummary(status, "sampled", reason, h_prior, math.fsum(h_now.tolist()) / n,
                             cum_mean, len(records), n, se)
    return ledger, summary


def run_episode(
    env: EnvironmentModel,
    policy: Policy,
    cost: CostModel | None = None,
    budget: float = 0.0,
    mode: Mode | None = None,
    compression: CompressionMap | None = None,
    max_rounds: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[WorkLedger, EpisodeSummary]:
    """Run one budgeted episode and return its ledger plus a belief summary.

    ``budget`` is the beta-normalized total work available, in nats. The
    episode stops when the next round does not fit the remaining budget
    (status ``budget_exhausted_immediately`` if that happens before round 1),
    when ``max_rounds`` is reached, when a fixed-sequence policy runs out,
    or when a round would be a zero-cost zero-gain no-op. ``node_cap`` caps
    expected mode's frontier, counted in merged nodes: one per outcome-count
    vector under a history-free policy (``FixedSequence``, ``RoundRobin``,
    ``GreedyInfoMax``), one per ordered history otherwise.
    """
    cost = cost if cost is not None else CostModel()
    mode = mode if mode is not None else ExpectedMode()
    if not budget >= 0.0:
        raise InvalidParameter(f"budget must be >= 0, got {budget!r}")
    if math.isinf(budget) and max_rounds is None:
        # an unbounded budget never stops a sampled trial whose belief has converged
        raise InvalidParameter(
            f"budget must be finite unless max_rounds is given, got {budget!r}"
        )
    if max_rounds is not None and max_rounds < 0:
        raise InvalidParameter("max_rounds must be >= 0")
    if compression is not None and len(compression.mapping) != env.n_outcomes:
        raise IncompleteMapping(
            f"compression covers {len(compression.mapping)} outcomes, environment has "
            f"{env.n_outcomes}"
        )
    if isinstance(mode, ExpectedMode):
        return _run_expected(env, policy, cost, budget, compression, max_rounds, node_cap)
    return _run_sampled(env, policy, cost, budget, compression, max_rounds, mode)

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
from dataclasses import InitVar, dataclass

import numpy as np

from . import _streams
from .bounds import _check_at_least, _json_count, _json_finite, _json_numbers
from .errors import (
    DimensionMismatch,
    IncompleteMapping,
    IndexOutOfRange,
    InvalidLedger,
    InvalidParameter,
    NoWorkSpent,
    TooManyRounds,
    TreeTooLarge,
    ZeroEvidence,
)
from .info_core import (
    LN2,
    LOG_FLOOR,
    DiscreteDistribution,
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
#: most rounds an episode runs when no ``max_rounds`` is given: the merged expected
#: frontier grows a row a round, so rounds cost O(R^2); 2,000 RoundRobin rounds on the
#: README environment take 0.66-1.26 s in-process on a 2-core VM (README gives the method)
DEFAULT_ROUND_CAP = 2_000
#: most trials a sampled run takes. It does not bound memory: a trial's traced peak grows
#: with the state count S, about 250 + 56 * S bytes at 4 outcomes (README gives the method),
#: so 10**7 trials take about 3.6 GB at S = 2 and 11 GB at S = 16
MAX_TRIALS = 10**7


# ---------------------------------------------------------------------------
# environment and cost description


@dataclass(frozen=True)
class EnvironmentModel:
    """A discrete environment: state prior and likelihood tensor."""

    prior: DiscreteDistribution
    likelihood: LikelihoodModel

    def __post_init__(self):
        if len(self.prior) != self.likelihood.n_states:
            raise DimensionMismatch(
                f"prior support {len(self.prior)} does not match likelihood states "
                f"{self.likelihood.n_states}"
            )

    @property
    def intervention_count(self) -> int:
        return self.likelihood.n_interventions

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
    @np.errstate(over="ignore")  # the normaliser names an overflowing sum; numpy need not warn
    def from_json_dict(cls, data: dict) -> "EnvironmentModel":
        try:
            prior = DiscreteDistribution(_json_numbers(data["prior"], "prior"), what="prior")
            lik = LikelihoodModel(_json_numbers(data["likelihood"], "likelihood", 3),
                                  what="likelihood")
            count = _json_count(data["interventions"], "interventions", DimensionMismatch)
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(f"environment JSON does not match schema: {exc}") from exc
        env = cls(prior, lik)  # a prior/likelihood state mismatch reports first
        if count != env.intervention_count:
            raise DimensionMismatch(
                f"declared {count} interventions but likelihood has {env.intervention_count}")
        return env


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
        if len(self.mapping) < 1:
            raise IncompleteMapping("mapping must be a non-empty tuple of indices >= 0")
        for i, m in enumerate(self.mapping):  # an integral float such as 2.0 passes
            if not (0 <= m < math.inf and m == int(m)):
                raise IncompleteMapping(f"mapping[{i}] must be an integral index >= 0, "
                                        f"got {m!r}")
        object.__setattr__(self, "mapping", tuple(int(m) for m in self.mapping))

    def pushforward(self, outcome_probs: np.ndarray) -> np.ndarray:
        """Statistic probabilities of outcome probabilities; leading batch axes are kept."""
        n_outcomes = outcome_probs.shape[-1]
        if len(self.mapping) != n_outcomes:
            raise IncompleteMapping(
                f"mapping covers {len(self.mapping)} outcomes, distribution has {n_outcomes}"
            )
        kept = np.zeros((n_outcomes, max(self.mapping) + 1))  # the rows of an identity matrix
        kept[np.arange(n_outcomes), self.mapping] = 1.0
        return outcome_probs @ kept


# ---------------------------------------------------------------------------
# policies

# A policy's ``choose(beliefs, env, t, paths)`` chooses round ``t``'s intervention for
# every row of the ``(rows, S)`` belief matrix at once. It returns one index for every
# row, or an index array, in which -1 marks a row whose policy has run out: a lone -1
# stops every row. ``paths`` is the ``int32`` ``(rows, t, 2)`` array of each row's ordered
# (u, y) pairs. A class setting ``history_free = True`` chooses from (beliefs, t) alone:
# it is shown no paths (None), and none are kept. Bayes updates commute, so expected
# mode merges the branches of such a policy with equal (u, y) counts.


@dataclass(frozen=True)
class FixedSequence:
    """Play a fixed list of interventions; the episode ends when it runs out."""

    interventions: tuple[int, ...]
    history_free = True

    def choose(self, beliefs: np.ndarray, env: EnvironmentModel, t: int, paths: np.ndarray | None):
        return int(self.interventions[t]) if t < len(self.interventions) else -1


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through interventions in index order."""

    history_free = True

    def choose(self, beliefs: np.ndarray, env: EnvironmentModel, t: int, paths: np.ndarray | None):
        return t % env.intervention_count


@dataclass(frozen=True)
class RandomPolicy:
    """Uniformly random intervention, derived deterministically from the history.

    Seeding on ``(seed, round, history)`` makes the choice a function of the
    branch, so expected-mode enumeration and sampled-mode trials agree. Each
    row's choice is ``np.random.default_rng(np.random.SeedSequence([seed, t,
    u0, y0, u1, y1, ...])).integers(intervention_count)``, bit for bit.
    """

    seed: int = 0
    history_free = False

    def __post_init__(self):  # numpy seeds must be >= 0; fail here, naming the field
        _check_at_least(0, seed=self.seed)

    def choose(self, beliefs: np.ndarray, env: EnvironmentModel, t: int, paths: np.ndarray):
        head = _streams.words(self.seed) + _streams.words(t)
        entropy = np.empty((len(paths), len(head) + 2 * paths.shape[1]), dtype=np.uint32)
        entropy[:, :len(head)] = head
        entropy[:, len(head):] = paths.reshape(len(paths), -1)
        return _streams.integers(_streams.streams(entropy), env.intervention_count)


@dataclass(frozen=True)
class GreedyInfoMax:
    """Pick the intervention with the highest expected information gain.

    Ties are broken by the lowest intervention index.
    """

    history_free = True

    def choose(self, beliefs: np.ndarray, env: EnvironmentModel, t: int, paths: np.ndarray | None):
        # (rows, 1, S) beliefs against the (U, S, Y) tables: one gain per row and intervention
        _, _, gains = predictive_gain(beliefs[:, None], env.likelihood.table,
                                      env.likelihood.row_entropies)
        return gains.argmax(axis=1)


Policy = FixedSequence | RoundRobin | RandomPolicy | GreedyInfoMax


# ---------------------------------------------------------------------------
# modes


@dataclass(frozen=True)
class ExpectedMode:
    """Exhaustive outcome-tree enumeration; ledger rows are exact expectations."""


@dataclass(frozen=True)
class SampledMode:
    """Monte Carlo trials with seeded counter-based draws, one uniform per trial and round."""

    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        _check_at_least(0, seed=self.seed)
        _check_at_least(1, trials=self.trials)
        if self.trials > MAX_TRIALS:
            raise InvalidParameter(f"trials must be <= {MAX_TRIALS}, got {self.trials!r}")


Mode = ExpectedMode | SampledMode


# ---------------------------------------------------------------------------
# ledger

#: the float fields of a round record, in ledger JSON order
_RECORD_FLOATS = ("info_gain", "outcome_entropy", "stored_entropy", "work_meas", "work_erase",
                  "belief_entropy_after")


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
    path: InitVar[str] = ""  # a JSON path, such as "records[3].", to name fields by

    def __post_init__(self, path: str):  # the field checks build their text only on failure
        where = f"round {self.round_index}: "
        for name in _RECORD_FLOATS:
            value = self.__dict__[name] = float(self.__dict__[name])
            if not math.isfinite(value):
                raise InvalidLedger(f"{where}{path}{name} must be finite, got {value!r}")
        # may not be negative; all finite by now, so min() meets no NaN
        if min(self.belief_entropy_after, self.info_gain, self.outcome_entropy,
               self.stored_entropy) < -BUDGET_SLACK:
            for name in ("belief_entropy_after", *_RECORD_FLOATS[:3]):
                _check_at_least(-BUDGET_SLACK, where + path, InvalidLedger,
                                **{name: getattr(self, name)})
        at = (lambda name: f" {path}{name}") if path else (lambda name: "")
        if self.work_meas < self.info_gain - BUDGET_SLACK:
            raise InvalidLedger(f"{where}measurement work{at('work_meas')} {self.work_meas!r} "
                                f"below information gain{at('info_gain')} {self.info_gain!r}")
        if self.work_erase < self.stored_entropy - BUDGET_SLACK:
            raise InvalidLedger(f"{where}erasure work{at('work_erase')} {self.work_erase!r} below "
                                f"stored entropy{at('stored_entropy')} {self.stored_entropy!r}")
        if self.stored_entropy > self.outcome_entropy + BUDGET_SLACK:
            raise InvalidLedger(f"{where}stored entropy{at('stored_entropy')} exceeds "
                                f"outcome entropy{at('outcome_entropy')}")


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
        if math.isnan(self.budget_total):  # +inf is an unbounded budget
            raise InvalidLedger("budget_total must not be NaN")
        if not math.isfinite(self.budget_spent):
            raise InvalidLedger(f"budget_spent must be finite, got {self.budget_spent!r}")
        # both tolerances scale with magnitude: a ledger read back from bits is a few ulps off;
        # the sum's is relative, past 1, to the smaller side, so an overflowing sum still fails
        spent = sum(r.work_meas + r.work_erase for r in self.records)
        gap = abs(spent - self.budget_spent)
        if gap > 1e-10 and gap > 1e-10 * min(abs(spent), abs(self.budget_spent)):
            raise InvalidLedger(f"budget_spent {self.budget_spent!r} does not match the sum "
                                f"of records[*].work_meas and records[*].work_erase, {spent!r}")
        if self.budget_spent > self.budget_total + BUDGET_SLACK * (1.0 + abs(self.budget_spent)):
            raise InvalidLedger(f"budget_spent {self.budget_spent!r} exceeds budget_total "
                                f"{self.budget_total!r}")

    @property
    def rounds_completed(self) -> int:
        return len(self.records)

    def to_json_dict(self, units: Units | str = Units.NATS) -> dict:
        """The ledger as JSON values in ``units``; raises ``InvalidLedger`` naming the first
        field whose finite nats value is past the float range in those units."""
        units = Units(units)
        nats_per_unit = 1.0 if units == Units.NATS else LN2  # divided by: one rounding

        def scaled(value: float, name: str, i: int | None = None) -> float:
            out = value / nats_per_unit
            if out == math.inf and value < math.inf:  # an infinite budget stays unbounded
                where = name if i is None else f"records[{i}].{name}"
                raise InvalidLedger(f"{where} {value!r} nats is past the float range "
                                    f"in {units.value}")
            return out

        records = self.records
        return {  # built in file order, so the first field past the range is named
            "units": units.value,
            "budget_total": scaled(self.budget_total, "budget_total"),
            "budget_spent": scaled(self.budget_spent, "budget_spent"),
            "rounds": self.rounds_completed,
            "records": [{"round": r.round_index, "intervention": r.intervention,
                         **{name: scaled(getattr(r, name), name, i) for name in _RECORD_FLOATS}}
                        for i, r in enumerate(records)],
            "totals": {
                "cumulative_info": scaled(sum(r.info_gain for r in records),
                                          "totals.cumulative_info"),
                "work_meas": scaled(sum(r.work_meas for r in records), "totals.work_meas"),
                "work_erase": scaled(sum(r.work_erase for r in records), "totals.work_erase"),
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WorkLedger":
        try:
            units = data.get("units", "nats")
            if units not in ("nats", "bits"):
                raise InvalidLedger(f"units must be 'nats' or 'bits', got {units!r}")
            scale = 1.0 if units == "nats" else LN2
            records = tuple(
                RoundRecord(_json_count(r["round"], f"records[{i}].round", InvalidLedger),
                            None if r["intervention"] is None else _json_count(
                                r["intervention"], f"records[{i}].intervention", InvalidLedger),
                            *(_json_finite(r[name], f"records[{i}].{name}", InvalidLedger) * scale
                              for name in _RECORD_FLOATS), path=f"records[{i}].")
                for i, r in enumerate(data["records"])
            )
            total = data["budget_total"]
            if not (type(total) is float and total == math.inf):  # Infinity: an unbounded budget
                total = _json_finite(total, "budget_total", InvalidLedger)
            _json_count(data["rounds"], "rounds", InvalidLedger)  # derived, so range-checked only
            for name in ("cumulative_info", "work_meas", "work_erase"):  # so are the totals
                _json_finite(data["totals"][name], f"totals.{name}", InvalidLedger)
            return cls(records, total * scale,
                       _json_finite(data["budget_spent"], "budget_spent", InvalidLedger) * scale)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def cumulative_information(ledger: WorkLedger) -> float:
    """Total information gained over the episode, in nats."""
    return sum((r.info_gain for r in ledger.records), 0.0)


def efficiency(ledger: WorkLedger) -> float:
    """Information gained per unit of spent work (both in nats)."""
    if ledger.budget_spent <= 0.0:
        raise NoWorkSpent("efficiency undefined: no work was spent")
    total_info = cumulative_information(ledger)
    eta = total_info / ledger.budget_spent
    floor = sum(r.info_gain + r.stored_entropy for r in ledger.records)
    if floor > 0.0 and eta > total_info / floor + 1e-10:
        raise InvalidLedger(f"efficiency {eta!r} exceeds its work-floor cap")
    return eta


# ---------------------------------------------------------------------------
# episode execution


class _Frontier:
    """The distinct belief rows of a round, and how they split into children.

    Merging, a row's key is its ``(u, y)`` counts, one column per edge ``u * Y + y``, kept
    and lexsorted as float64 ``words`` (3 bits a count for 7 rounds, then wider); else
    ``parent * Y + y``, numbered by a presence array. Rows follow key order; equal keys share
    the row of the first child; only a history-free policy's rows merge, and only in expected
    mode. ``paths``, each row's ordered ``(u, y)`` pairs, ``int32`` ``(rows, t, 2)``, is kept
    only if the policy is not history-free.
    """

    def __init__(self, env: EnvironmentModel, policy: Policy, sampled: bool, cap: float):
        self.env, self.policy, self.cap, self.rounds = env, policy, cap, 0
        self.beliefs = env.prior.probs[None]
        free = getattr(policy, "history_free", False)
        self.words = (self._pack(3, np.zeros((1, env.intervention_count * env.n_outcomes)))
                      if free and not sampled else None)
        self.paths = None if free else np.zeros((1, 0, 2), dtype=np.int32)

    def choose(self, t: int) -> np.ndarray:
        """Each row's intervention at round ``t``; -1 where the policy has run out."""
        count = self.env.intervention_count
        us = self.policy.choose(self.beliefs, self.env, t, self.paths)
        if isinstance(us, np.ndarray):
            wrong = us[(us < -1) | (us >= count)]
        else:  # one index for every row
            wrong = [] if -1 <= us < count else [us]
            us = np.full(len(self.beliefs), us)
        if len(wrong):
            raise IndexOutOfRange(f"policy chose intervention {wrong[0]} outside [0, {count})")
        return us

    def _pack(self, bits: int, counts: np.ndarray) -> np.ndarray:
        """``counts``, each below ``2**bits``, as words: ``52 // bits`` to a float64 word, the
        last column most significant (exact: every sum stays below 2**52). Sets ``packing``."""
        per, col = 52 // bits, np.arange(counts.shape[1])
        weights = np.zeros((col.size, -(-col.size // per)))
        weights[col, col // per] = 2.0 ** (bits * (col % per))
        self.packing = bits, weights
        return counts @ weights

    def advance(self, us: np.ndarray, pred: np.ndarray, parent: np.ndarray,
                y: np.ndarray) -> np.ndarray:
        """Move to the children ``(parent[i], y[i])``; return each one's row."""
        n_outcomes = self.env.n_outcomes
        rows = np.arange(parent.size)
        if self.words is None:
            keys = parent * n_outcomes + y
            if (keys[1:] <= keys[:-1]).any():  # else distinct, and numbered in order already
                flag = np.zeros(len(self.beliefs) * n_outcomes, dtype=bool)
                flag[keys] = True  # number the keys in increasing order, by presence
                rows = (flag.cumsum() - 1)[keys]
                parent, y = np.divmod(np.flatnonzero(flag), n_outcomes)
        else:
            bits = (self.rounds + 1).bit_length()  # every count after this round is below 2**bits
            if bits > self.packing[0]:  # unpack the counts, and pack them wider
                old, weights = self.packing
                col, per = np.arange(len(weights)), 52 // old
                counts = (self.words.astype(np.int64)[:, col // per] >> old * (col % per)) & (
                    (1 << old) - 1)
                self.words = self._pack(bits, counts)
            # each child adds one to its parent's count of edge ``u * Y + y``
            words = self.words[parent] + self.packing[1][us[parent] * n_outcomes + y]
            if len(self.beliefs) > 1:  # the children of one row all differ
                order = np.lexsort(words.T)  # the order of np.lexsort over the count columns
                words = words[order]  # ``first`` marks where each run of equal words starts
                first = np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1)))
                rows[order] = first.cumsum() - 1
                order = order[first]
                parent, y, words = parent[order], y[order], words[first]
            self.words = words
        if parent.size > self.cap:
            raise TreeTooLarge(f"outcome tree needs {parent.size} nodes at round "
                               f"{self.rounds}, cap is {self.cap}")
        used = us[parent]
        if self.paths is not None:  # one pass: the gather fills all but the new last step
            paths = np.empty((parent.size, self.paths.shape[1] + 1, 2), dtype=np.int32)
            np.take(self.paths, parent, axis=0, out=paths[:, :-1], mode="clip")  # rows in range
            paths[:, -1, 0], paths[:, -1, 1] = used, y
            self.paths = paths
        table = self.env.likelihood.table
        self.beliefs = self.beliefs[parent] * table[used, :, y] / pred[parent, y][:, None]
        self.rounds += 1
        return rows


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Row CDFs built as ``Generator.choice`` builds them: uniform u picks ``#(cdf <= u)``."""
    cdf = probs.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _run(env, policy, cost, budget, compression, max_rounds, node_cap, mode):
    table, row_h = env.likelihood.table, env.likelihood.row_entropies
    h_prior = _entropy(env.prior.probs)
    sampled = isinstance(mode, SampledMode)
    # Walkers: in sampled mode one per trial on one frontier row, held in arrays; in
    # expected mode one, the whole tree, held in floats. Only expected mode merges rows:
    # sampled rows stay keyed by ordered history, as a merged row's belief would come from
    # another order of updates.
    n = mode.trials if sampled else 1
    frontier = _Frontier(env, policy, sampled, math.inf if sampled else node_cap)
    live = np.arange(n)  # running walkers
    if sampled:
        # counter-based draws: uniform 0 of trial k picks its state, uniform t + 1 its round-t
        # outcome, each the first index whose CDF exceeds it. An outcome counts the Y - 1
        # leading CDF columns of row ``u * S + state`` at or below it (the last column is 1.0)
        theta = np.searchsorted(_cdf(env.prior.probs), _streams.uniforms(mode.seed, 0, live),
                                side="right")
        n_states, cdf_cols = env.n_states, _cdf(table).reshape(-1, env.n_outcomes).T[:-1].copy()
        node = np.zeros(n, dtype=np.intp)  # frontier row of each running trial
    # Each frontier row's weight: its running trials in sampled mode, its mass in expected
    # mode. Every ledger value is a weighted row sum over n in numpy's pairwise order, the
    # same bits under any BLAS build or thread count; n is 1 in expected mode.
    weights = np.full(1, float(n))
    spent, cum = (np.zeros(n), np.zeros(n)) if sampled else (0.0, 0.0)  # work, gain per walker
    stopped, h_rows = 0.0, np.full(1, h_prior)  # stopped trials' summed entropy; each row's
    reasons: set[str] = set()
    records: list[RoundRecord] = []
    t, rounds = 0, DEFAULT_ROUND_CAP if max_rounds is None else max_rounds
    while t < rounds:
        us = frontier.choose(t)  # a -1 row is evaluated on the last table; its walkers stop
        pred, hy, info = predictive_gain(frontier.beliefs, table[us], row_h[us])
        hs = hy
        if compression is not None:  # (1, Y) products per row; one 2-D product rounds apart
            hs = _entropies(compression.pushforward(pred[:, None]))[:, 0]
        work_meas = cost.kappa_meas * (info + cost.delta_f_mem)
        work_erase = cost.kappa_erase * hs
        columns = (info, hy, hs, work_meas, work_erase)  # the record's, each by row
        sums = (np.add.reduce(np.array(columns) * weights, axis=-1) / n).tolist()
        # a trial pays its own row's cost; the tree pays its record's
        gain, round_cost = ((info[node], (work_meas + work_erase)[node]) if sampled
                            else (sums[0], sums[3] + sums[4]))
        run = (round_cost > ZERO_ROUND_TOL) & (round_cost <= budget - spent + BUDGET_SLACK)
        if us.min() < 0 or not (run.all() if sampled else run):  # only then find out why
            # a tree stops whole when a branch of nonzero mass runs out
            exhausted = (us < 0)[node] if sampled else weights[us < 0].any()
            exhausted, run, round_cost = np.atleast_1d(exhausted, run, round_cost)
            degenerate = ~exhausted & (round_cost <= ZERO_ROUND_TOL)
            run &= ~exhausted
            for why, hit in (("policy_exhausted", exhausted), ("degenerate", degenerate),
                             ("budget", ~(exhausted | degenerate | run))):
                if hit.any():
                    reasons.add(why)
            live = live[run]
            if not live.size:
                break
            # only sampled mode gets here: expected mode has one walker
            stopped += (h_rows * np.bincount(node[~run], minlength=h_rows.size)).sum()
            node, theta = node[run], theta[run]
            gain, round_cost, spent = gain[run], round_cost[run], spent[run]
            weights = np.bincount(node, minlength=weights.size)  # the record's trials run
            sums = (np.add.reduce(np.array(columns) * weights, axis=-1) / n).tolist()
        spent += round_cost
        if sampled:
            cum[live] += gain
            draw, row = _streams.uniforms(mode.seed, t + 1, live), us[node] * n_states + theta
            parent, y = node, sum(col[row] <= draw for col in cdf_cols)  # one 1-D gather each
            if not (pred[node, y] > 0.0).all():
                raise ZeroEvidence("a drawn outcome has zero predictive probability")
        else:
            cum += gain
            parent, y = np.nonzero(pred > LOG_FLOOR)
        used = us[parent]
        u_rec = int(used[0]) if (used == used[0]).all() else None
        node = frontier.advance(us, pred, parent, y)  # the row of each trial, or of each branch
        weights = np.bincount(node, None if sampled else weights[parent] * pred[parent, y])
        h_rows = _entropies(frontier.beliefs)
        h_after = (stopped + np.add.reduce(h_rows * weights)) / n
        records.append(RoundRecord(t, u_rec, *sums, h_after))
        t += 1
    if live.size:
        if max_rounds is None:
            raise TooManyRounds("episode still running after the default cap of "
                                f"{DEFAULT_ROUND_CAP:,} rounds; pass max_rounds "
                                "(--max-rounds) to run longer")
        reasons.add("max_rounds")

    ledger = WorkLedger(tuple(records), budget, sum(r.work_meas + r.work_erase for r in records))
    h_end = records[-1].belief_entropy_after if records else h_prior + 0.0  # -0.0 as 0.0
    cum_mean = float(cum.mean()) if sampled else cum
    se = float(cum.std(ddof=1)) / math.sqrt(n) if n > 1 else None
    status = "budget_exhausted_immediately" if not records and reasons == {"budget"} else "ok"
    reason = reasons.pop() if len(reasons) == 1 else "mixed"
    # telescoping: outcome-side gains against the posterior-side entropy drop
    if not sampled and abs(cum_mean - (h_prior - h_end)) > 1e-10:
        raise InvalidLedger(f"cumulative information {cum_mean!r} does not telescope to "
                            f"the entropy drop {h_prior - h_end!r}")
    return ledger, EpisodeSummary(status, "sampled" if sampled else "expected", reason, h_prior,
                                  h_end, cum_mean, len(records), n if sampled else None, se)


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
    when ``max_rounds`` is reached, when the policy runs out, or when a
    round would be a zero-cost zero-gain no-op; in sampled mode each trial
    stops on its own. Without ``max_rounds`` an episode still running after
    ``DEFAULT_ROUND_CAP`` rounds raises ``TooManyRounds``. The policy's
    ``choose`` is called once per round for all frontier rows, with each
    row's ordered ``(u, y)`` pairs as ``paths`` unless it is history-free.
    ``node_cap`` caps expected mode's frontier, counted in merged nodes: one
    per outcome-count vector under a history-free policy (``FixedSequence``,
    ``RoundRobin``, ``GreedyInfoMax``), one per ordered history otherwise.
    Sampled mode never merges: a merged row's belief would come from another
    order of updates, which can flip a greedy near-tie. In either mode every
    ledger value is a weighted row sum over the frontier, in numpy's pairwise
    order: rows weigh their trial counts, or their branch masses, so no value
    depends on the BLAS thread count. Sampled sums lie within about 1e-15 of
    the sums over trials. The seed fixes each trial's counter-based draws,
    whatever the trial count.
    """
    cost = cost if cost is not None else CostModel()
    mode = mode if mode is not None else ExpectedMode()
    _check_at_least(0.0, budget=budget)
    if math.isinf(budget) and max_rounds is None:
        # an unbounded budget never stops a sampled trial whose belief has converged
        raise InvalidParameter(
            f"budget must be finite unless max_rounds is given, got {budget!r}"
        )
    if max_rounds is not None:
        _check_at_least(0, max_rounds=max_rounds)
    if compression is not None and len(compression.mapping) != env.n_outcomes:
        raise IncompleteMapping(
            f"compression covers {len(compression.mapping)} outcomes, environment has "
            f"{env.n_outcomes}"
        )
    ln_y = math.log(env.n_outcomes)  # gain and stored entropy are each at most ln Y
    bound = (cost.kappa_meas * (cost.delta_f_mem + ln_y) + cost.kappa_erase * ln_y) / LN2
    times = max(mode.trials if isinstance(mode, SampledMode) else 1,  # trial-weighted sums,
                max_rounds if math.isinf(budget) else 1)  # or an unbudgeted episode's total
    if math.isinf(bound * times):
        raise InvalidParameter("kappa_meas, kappa_erase and delta_f_mem put the work past the "
                               f"float range: {times} x {bound!r} bits")
    return _run(env, policy, cost, budget, compression, max_rounds, node_cap, mode)

"""Shared builders and independent oracles for the test suite.

The enumeration oracle below re-derives episode quantities through a
different route than the library (joint-table KL form instead of entropy
differences), so agreement between the two is a real check.
"""

from __future__ import annotations

import numpy as np

from thermosci import DiscreteDistribution, EnvironmentModel, LikelihoodModel


def entropy_of(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum()) if p.size else 0.0


def random_environment(rng: np.random.Generator, max_states: int = 5,
                       max_outcomes: int = 4, max_interventions: int = 3) -> EnvironmentModel:
    """One random environment from five draws of ``rng``: three sizes, then Dirichlet(1)
    prior and likelihood rows. Tests pin episodes on these bits."""
    n_states = int(rng.integers(2, max_states + 1))
    n_outcomes = int(rng.integers(2, max_outcomes + 1))
    n_interventions = int(rng.integers(1, max_interventions + 1))
    prior = rng.dirichlet(np.ones(n_states))
    table = rng.dirichlet(np.ones(n_outcomes), size=(n_interventions, n_states))
    return EnvironmentModel(DiscreteDistribution(prior), LikelihoodModel(table))


def noiseless_binary_env() -> EnvironmentModel:
    return EnvironmentModel(
        DiscreteDistribution([0.5, 0.5]),
        LikelihoodModel([[[1.0, 0.0], [0.0, 1.0]]]),
    )


def asym_binary_env(prior=(0.5, 0.5)) -> EnvironmentModel:
    # p(y=1 | state0) = 0.8, p(y=1 | state1) = 0.4
    return EnvironmentModel(
        DiscreteDistribution(list(prior)),
        LikelihoodModel([[[0.2, 0.8], [0.6, 0.4]]]),
    )


def bsc_env(flip: float = 0.25) -> EnvironmentModel:
    return EnvironmentModel(
        DiscreteDistribution([0.5, 0.5]),
        LikelihoodModel([[[1.0 - flip, flip], [flip, 1.0 - flip]]]),
    )


def constant_likelihood_env() -> EnvironmentModel:
    return EnvironmentModel(
        DiscreteDistribution([0.5, 0.5]),
        LikelihoodModel([[[0.5, 0.5], [0.5, 0.5]]]),
    )


def three_state_env() -> EnvironmentModel:
    return EnvironmentModel(
        DiscreteDistribution([0.5, 0.3, 0.2]),
        LikelihoodModel([
            [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
            [[0.6, 0.3, 0.1], [0.1, 0.8, 0.1], [0.3, 0.1, 0.6]],
        ]),
    )


def enumerate_episode(env: EnvironmentModel, u_of_round, n_rounds: int):
    """Brute-force outcome-tree enumeration for a non-adaptive intervention plan.

    Per-round information gain is computed from the joint table in KL form,
    sum_{s,y} p(s,y) ln[p(s,y) / (p(s) p(y))], independently of the
    library's entropy-difference route. Returns (per-round info gains,
    per-round outcome entropies, expected leaf posterior entropy).
    """
    nodes = [(1.0, np.array(env.prior.probs, dtype=float))]
    infos, outcome_entropies = [], []
    for t in range(n_rounds):
        table = np.array(env.likelihood.table[u_of_round(t)], dtype=float)
        info_t = 0.0
        hy_t = 0.0
        children = []
        for weight, belief in nodes:
            joint = belief[:, None] * table
            pred = joint.sum(axis=0)
            mask = joint > 1e-15
            denom = np.outer(belief, pred)
            info_t += weight * float(
                (joint[mask] * np.log(joint[mask] / denom[mask])).sum()
            )
            hy_t += weight * entropy_of(pred)
            for y in range(pred.size):
                if pred[y] > 1e-15:
                    children.append((weight * float(pred[y]), joint[:, y] / pred[y]))
        infos.append(info_t)
        outcome_entropies.append(hy_t)
        nodes = children
    leaf_entropy = sum(w * entropy_of(b) for w, b in nodes)
    return infos, outcome_entropies, leaf_entropy


class Recording:
    """Delegates to ``inner`` and records every ``(round, history)`` it is asked about.

    A history is a row's ordered ``(u, y)`` pairs as a tuple, or None when the
    engine shows no paths. It is history-free exactly when ``inner`` is, unless
    ``history_free`` says otherwise: a sampled run, which never merges, can then
    be shown every trial's history with the same bits.
    """

    def __init__(self, inner, history_free=None):
        self.inner, self.calls = inner, []
        self.history_free = (getattr(inner, "history_free", False) if history_free is None
                             else history_free)

    def choose(self, beliefs, env, t, paths):
        histories = ([None] * len(beliefs) if paths is None
                     else [tuple(map(tuple, p)) for p in paths.tolist()])
        self.calls.extend((t, history) for history in histories)
        return self.inner.choose(beliefs, env, t, paths)

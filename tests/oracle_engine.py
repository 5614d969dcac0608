"""The expected- and sampled-mode engines as they were before the shared gain kernel.

Kept as the reference implementation for ``test_engine_oracle.py``: each
round is evaluated node by node with an explicit posterior for every
outcome, and the information gain is the posterior-side drop
``H(b) - E[H(post)]``. Entropies, greedy choices and compression
pushforwards use their own copies too, so this module shares no entropy,
gain or posterior code with :mod:`thermosci.cycle_sim`. Sampled trials run
one at a time, each drawing its uniforms from a SplitMix64 written here in
Python ints, and ``RandomPolicy`` chooses through numpy's own ``SeedSequence``
generator, so it shares no random-number code with :mod:`thermosci._streams`.
Any other policy is asked about one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from thermosci.cycle_sim import (
    BUDGET_SLACK,
    ZERO_ROUND_TOL,
    CompressionMap,
    EpisodeSummary,
    ExpectedMode,
    GreedyInfoMax,
    Policy,
    RandomPolicy,
    RoundRecord,
    WorkLedger,
)
from thermosci.errors import IndexOutOfRange, TreeTooLarge, ZeroEvidence
from thermosci.info_core import LOG_FLOOR

History = tuple[tuple[int, int], ...]


def _entropy(probs: np.ndarray) -> float:
    mask = probs > LOG_FLOOR
    if not mask.any():
        return 0.0
    q = probs[mask]
    return float(-(q * np.log(q)).sum())


_MASK64 = (1 << 64) - 1


def _splitmix_out(state: int) -> int:
    """SplitMix64's output function (Steele, Lea & Flood 2014) on a 64-bit state."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_uniform(seed: int, t: int, k: int) -> float:
    """Uniform ``t`` of trial ``k``: the top 53 bits of SplitMix64 output ``k`` from the key
    folded out of ``t``, the count of the seed's 32-bit words, and those words."""
    seed_words = []
    while True:
        seed_words.append(seed % 2**32)
        seed //= 2**32
        if seed == 0:
            break
    key = 0
    for word in [t, len(seed_words)] + seed_words:
        key = _splitmix_out(key + word)
    state = key + (k + 1) * 0x9E3779B97F4A7C15  # k + 1 steps of the generator seeded with key
    return (_splitmix_out(state) >> 11) / 2**53


def _pick(probs: np.ndarray, u: float) -> int:
    """The index ``Generator.choice`` would pick for uniform ``u``: ``#(cdf <= u)``."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int((cdf <= u).sum())


def _parent_pushforward(compression: CompressionMap, probs: np.ndarray) -> np.ndarray:
    return np.bincount(np.asarray(compression.mapping), weights=probs)


def reference_random_choice(seed: int, t: int, history: History, count: int) -> int:
    """``RandomPolicy(seed)``'s choice at round ``t`` after ``history``, the ordered (u, y)
    pairs so far, from numpy's own ``SeedSequence`` and generator."""
    material = [seed, t]
    for u, y in history:
        material.extend((u, y))
    return int(np.random.default_rng(np.random.SeedSequence(material)).integers(count))


def _parent_choice(policy, belief, env, t, history):
    if isinstance(policy, RandomPolicy):
        return reference_random_choice(policy.seed, t, history, env.intervention_count)
    if not isinstance(policy, GreedyInfoMax):  # asked about one row, as the engine asks
        paths = (None if getattr(policy, "history_free", False)
                 else np.array(history, dtype=np.int32).reshape(1, t, 2))
        u = policy.choose(belief[None], env, t, paths)
        if isinstance(u, np.ndarray):  # -1: this row's policy has run out
            return None if u[0] == -1 else int(u[0])
        return u
    table = env.likelihood.table
    gains = np.empty(env.intervention_count)
    for u in range(env.intervention_count):
        row_h = np.array([_entropy(table[u, s]) for s in range(env.n_states)])
        gains[u] = _entropy(belief @ table[u]) - float(belief @ row_h)
    return int(np.argmax(gains))


def run_reference(env, policy, cost, budget, mode, compression=None, max_rounds=None,
                  node_cap=1_000_000):
    """``run_episode`` on the reference engines (arguments already validated)."""
    if isinstance(mode, ExpectedMode):
        return _run_expected(env, policy, cost, budget, compression, max_rounds, node_cap)
    return _run_sampled(env, policy, cost, budget, compression, max_rounds, mode, node_cap)


def _round_quantities(belief: np.ndarray, table_u: np.ndarray,
                      compression: CompressionMap | None):
    """Expected info gain, outcome entropy, stored entropy, predictive, posteriors."""
    pred = belief @ table_u
    expected_post = 0.0
    posts: list[np.ndarray | None] = [None] * table_u.shape[1]
    for y in range(table_u.shape[1]):
        py = float(pred[y])
        if py > LOG_FLOOR:
            post = belief * table_u[:, y] / py
            posts[y] = post
            expected_post += py * _entropy(post)
    info = max(0.0, _entropy(belief) - expected_post)
    hy = _entropy(pred)
    hs = hy if compression is None else _entropy(_parent_pushforward(compression, pred))
    return info, hy, hs, pred, posts


def _choose(policy: Policy, belief: np.ndarray, env: EnvironmentModel,
            t: int, history: History):
    u = _parent_choice(policy, belief, env, t, history)
    if u is not None and not 0 <= u < env.intervention_count:
        raise IndexOutOfRange(
            f"policy chose intervention {u} outside [0, {env.intervention_count})"
        )
    return u


def _run_expected(env, policy, cost, budget, compression, max_rounds, node_cap):
    table = env.likelihood.table
    h_prior = _entropy(env.prior.probs)
    nodes: list[tuple[float, np.ndarray, History]] = [(1.0, env.prior.probs, ())]
    records: list[RoundRecord] = []
    spent = 0.0
    posterior_entropy = h_prior
    status, reason = "ok", "max_rounds"
    t = 0
    while max_rounds is None or t < max_rounds:
        choices = []
        for _, belief, history in nodes:
            u = _choose(policy, belief, env, t, history)
            if u is None:
                choices = None
                break
            choices.append(u)
        if choices is None:
            reason = "policy_exhausted"
            break

        info_t = hy_t = hs_t = 0.0
        per_node = []
        for (p_node, belief, _), u in zip(nodes, choices):
            info, hy, hs, pred, posts = _round_quantities(belief, table[u], compression)
            info_t += p_node * info
            hy_t += p_node * hy
            hs_t += p_node * hs
            per_node.append((pred, posts))

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

        new_nodes: list[tuple[float, np.ndarray, History]] = []
        for (p_node, _, history), u, (pred, posts) in zip(nodes, choices, per_node):
            for y, post in enumerate(posts):
                if post is not None:
                    new_nodes.append((p_node * float(pred[y]), post, history + ((u, y),)))
        if len(new_nodes) > node_cap:
            raise TreeTooLarge(
                f"outcome tree needs {len(new_nodes)} nodes at round {t}, cap is {node_cap}"
            )
        posterior_entropy = sum(p * _entropy(b) for p, b, _ in new_nodes)
        u_rec = choices[0] if all(u == choices[0] for u in choices) else None
        records.append(RoundRecord(t, u_rec, info_t, hy_t, hs_t,
                                   work_meas, work_erase, posterior_entropy))
        spent += round_cost
        nodes = new_nodes
        t += 1

    ledger = WorkLedger(tuple(records), budget, spent)
    cum = sum(r.info_gain for r in records)
    # telescoping identity of the exact enumeration
    assert abs(cum - (h_prior - posterior_entropy)) <= 1e-10, (
        "cumulative information does not telescope to the entropy drop"
    )
    summary = EpisodeSummary(status, "expected", reason, h_prior, posterior_entropy,
                             cum, len(records))
    return ledger, summary


def _run_sampled(env, policy, cost, budget, compression, max_rounds, mode, node_cap):
    table = env.likelihood.table
    h_prior = _entropy(env.prior.probs)

    trial_rows: list[list[tuple]] = []  # per trial: (u, info, hy, hs, wm, we, h_after)
    trial_cum: list[float] = []
    trial_final_h: list[float] = []
    reasons: set[str] = set()

    for k in range(mode.trials):
        theta = _pick(env.prior.probs, reference_uniform(mode.seed, 0, k))
        belief = env.prior.probs
        history: History = ()
        rows: list[tuple] = []
        spent_k = 0.0
        cum_k = 0.0
        t = 0
        reason = "max_rounds"
        while max_rounds is None or t < max_rounds:
            u = _choose(policy, belief, env, t, history)
            if u is None:
                reason = "policy_exhausted"
                break
            info, hy, hs, pred, posts = _round_quantities(belief, table[u], compression)
            work_meas = cost.kappa_meas * (info + cost.delta_f_mem)
            work_erase = cost.kappa_erase * hs
            round_cost = work_meas + work_erase
            if round_cost <= ZERO_ROUND_TOL:
                reason = "degenerate"
                break
            if round_cost > budget - spent_k + BUDGET_SLACK:
                reason = "budget"
                break
            y = _pick(table[u, theta], reference_uniform(mode.seed, t + 1, k))
            post = posts[y]
            if post is None:
                py = float(pred[y])
                if py <= 0.0:
                    raise ZeroEvidence(f"drawn outcome {y} has zero predictive probability")
                post = belief * table[u][:, y] / py
            belief = post
            rows.append((u, info, hy, hs, work_meas, work_erase, _entropy(belief)))
            spent_k += round_cost
            cum_k += info
            history = history + ((u, y),)
            t += 1
        reasons.add(reason)
        trial_rows.append(rows)
        trial_cum.append(cum_k)
        trial_final_h.append(_entropy(belief))

    trials = mode.trials
    tau_max = max(len(rows) for rows in trial_rows)
    records: list[RoundRecord] = []
    for t in range(tau_max):
        active_us: set[int] = set()
        cols = [[] for _ in range(5)]
        h_after_col = []
        for k in range(trials):
            rows = trial_rows[k]
            if t < len(rows):
                u, i_, hy_, hs_, wm_, we_, ha_ = rows[t]
                active_us.add(u)
                vals = (i_, hy_, hs_, wm_, we_)
                h_after_col.append(ha_)
            else:
                vals = (0.0, 0.0, 0.0, 0.0, 0.0)
                h_after_col.append(trial_final_h[k])
            for c, v in zip(cols, vals):
                c.append(v)
        info, hy, hs, wm, we = (math.fsum(c) / trials for c in cols)
        h_after = math.fsum(h_after_col) / trials
        u_rec = active_us.pop() if len(active_us) == 1 else None
        records.append(RoundRecord(t, u_rec, info, hy, hs, wm, we, h_after))

    spent = float(sum(r.work_meas + r.work_erase for r in records))
    ledger = WorkLedger(tuple(records), budget, spent)
    cum_mean = math.fsum(trial_cum) / trials
    if trials > 1:
        var = math.fsum((c - cum_mean) ** 2 for c in trial_cum) / (trials - 1)
        se = math.sqrt(max(var, 0.0) / trials)
    else:
        se = None
    posterior_entropy = math.fsum(trial_final_h) / trials
    status = "ok"
    if tau_max == 0 and reasons == {"budget"}:
        status = "budget_exhausted_immediately"
    reason = reasons.pop() if len(reasons) == 1 else "mixed"
    summary = EpisodeSummary(status, "sampled", reason, h_prior, posterior_entropy,
                             cum_mean, len(records), trials, se)
    return ledger, summary

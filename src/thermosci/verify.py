"""Seeded randomized property suites, runnable from the CLI or from tests.

Each suite returns a list of checks, ``{"name", "passed", "detail"}`` dicts;
a suite passes when every check does. A randomized check is a nested
function named after its check that returns the detail of its first failure,
or ``None`` when it passes. The suites intentionally re-derive expectations
through independent routes (brute-force enumeration, direct formula
evaluation) rather than trusting the code paths they exercise.

Each randomized check draws its instances' sizes, uniforms, Dirichlet
vectors and environments in one batch before its loop, with the counts,
ranges and distributions of one-at-a-time draws; only a random policy is
drawn per instance. A passing report's bytes depend on the seed only through
the sampled check's gap and SE and the ``mi=`` detail.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bounds_mod
from . import toy_model as toy
from .cycle_sim import (
    CompressionMap,
    CostModel,
    EnvironmentModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    RoundRobin,
    SampledMode,
    cumulative_information,
    efficiency,
    run_episode,
)
from .info_core import (
    DiscreteDistribution,
    LikelihoodModel,
    _entropy,
    entropy,
    expected_information_gain,
    mutual_information_of_joint,
    posterior_update,
    predictive_outcome_dist,
)
from .strategies import generalist_partition, scenario_from_partition


def _check(name: str, condition: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(condition), "detail": detail}


def _run(*checks) -> list[dict]:
    """Call each check in order; a check returns its first failure's detail, or None."""
    details = [check() for check in checks]
    return [_check(c.__name__, d is None, d or "") for c, d in zip(checks, details)]


# ---------------------------------------------------------------------------
# shared random builders
_MAX_SIZES = (5, 4, 3)  # the largest environment drawn: states, outcomes, interventions


def _random_environments(rng: np.random.Generator, count: int):
    """``count`` environments of sizes from (2, 2, 1) to ``_MAX_SIZES``, all drawn up front."""
    n_s, n_y, n_u = _MAX_SIZES
    sizes = rng.integers((2, 2, 1), np.add(_MAX_SIZES, 1), size=(count, 3))
    priors = _dirichlet_block(rng, (count, n_s), sizes[:, :1])
    tables = _dirichlet_block(rng, (count, n_u, n_s, n_y), sizes[:, 1, None, None, None])
    return (EnvironmentModel(DiscreteDistribution(prior[:s]), LikelihoodModel(table[:u, :s, :y]))
            for (s, y, u), prior, table in zip(sizes.tolist(), priors, tables))


def random_policy(rng: np.random.Generator, env: EnvironmentModel):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        seq = tuple(int(u) for u in rng.integers(0, env.intervention_count, size=8))
        return FixedSequence(seq)
    if kind == 1:
        return RoundRobin()
    if kind == 2:
        return RandomPolicy(int(rng.integers(0, 2**31)))
    return GreedyInfoMax()


def _dirichlet_block(rng: np.random.Generator, shape: tuple, sizes) -> np.ndarray:
    """Dirichlet(1, ..., 1) vectors on the last axis of a ``shape`` block, cut to ``sizes``
    (broadcast): unit exponentials zeroed past the size, over their sum (numpy's alpha = 1)."""
    block = rng.standard_exponential(shape)
    block *= np.arange(shape[-1]) < sizes
    block /= block.sum(axis=-1, keepdims=True)
    return block


def _dirichlet_rows(rng: np.random.Generator, sizes: np.ndarray):
    """Lazy views of Dirichlet(1, ..., 1) vectors of lengths ``sizes``, from one draw."""
    block = _dirichlet_block(rng, (len(sizes), int(np.max(sizes))), np.asarray(sizes)[:, None])
    return (row[:n] for row, n in zip(block, sizes))


def _own_entropy(probs: np.ndarray, axis=None):
    """Shannon entropy in nats along ``axis``, written apart from info_core's kernels."""
    return -(probs * np.log(np.where(probs > 0.0, probs, 1.0))).sum(axis=axis)


# ---------------------------------------------------------------------------
# info suite


def verify_info(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    trials = 200

    def entropy_maximized_by_uniform():
        for probs in _dirichlet_rows(rng, rng.integers(2, 7, size=trials)):
            d = DiscreteDistribution(probs)
            if entropy(d) > math.log(len(d)) + 1e-12:
                return f"entropy above uniform bound for {d.probs}"

    def information_gain_bounded_and_consistent():
        # a belief is a Dirichlet(1) prefix, cut to the environment's state count
        for pick, w, env in zip(rng.random(trials),
                                rng.standard_exponential((trials, _MAX_SIZES[0])),
                                _random_environments(rng, trials)):
            w = w[:env.n_states]
            belief = DiscreteDistribution(w / w.sum())
            u = int(pick * env.intervention_count)
            gain = expected_information_gain(belief, env.likelihood, u)
            if gain > entropy(belief) + 1e-12:
                return f"gain {gain} exceeds belief entropy"
            # independent posterior-side evaluation: one posterior column per outcome
            lik = env.likelihood.table[u]
            pred = belief.probs @ lik
            seen = pred > 1e-15
            post = belief.probs[:, None] * lik[:, seen] / pred[seen]
            alt = float(_own_entropy(belief.probs) - pred[seen] @ _own_entropy(post, axis=0))
            if abs(gain - max(alt, 0.0)) > 1e-10:
                return f"formulas disagree: {gain} vs {alt}"

    def belief_martingale():
        for pick, env in zip(rng.random(trials), _random_environments(rng, trials)):
            u = int(pick * env.intervention_count)
            pred = predictive_outcome_dist(env.prior, env.likelihood, u)
            mixture = np.zeros(env.n_states)
            for y in range(env.n_outcomes):
                if pred.probs[y] > 0.0:
                    post = posterior_update(env.prior, env.likelihood, u, y).probs
                    mixture += pred.probs[y] * post
            if np.max(np.abs(mixture - env.prior.probs)) > 1e-12:
                return "posterior mixture does not reproduce the prior"

    def mutual_information_symmetric():
        sizes, row_counts = rng.integers((4, 2), (13, 5), size=(trials, 2)).T
        for joint, rows in zip(_dirichlet_rows(rng, sizes), row_counts.tolist()):
            while joint.size % rows:
                rows -= 1
            table = joint.reshape(rows, -1)
            a = mutual_information_of_joint(table)
            b = mutual_information_of_joint(table.T)
            if abs(a - b) > 1e-12:
                return f"asymmetric MI: {a} vs {b}"

    results = _run(entropy_maximized_by_uniform, information_gain_bounded_and_consistent,
                   belief_martingale, mutual_information_symmetric)
    px = rng.dirichlet(np.ones(4))
    pk = rng.dirichlet(np.ones(3))
    product_mi = mutual_information_of_joint(np.outer(px, pk))
    return results + [_check("independent_joint_has_zero_mi", product_mi <= 1e-12,
                             f"mi={product_mi}")]


# ---------------------------------------------------------------------------
# cycle suite


def verify_cycle(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    n_envs = 25

    def telescoping_identity():
        for budget, env in zip(rng.uniform(0.5, 5.0, size=n_envs).tolist(),
                               _random_environments(rng, n_envs)):
            policy = random_policy(rng, env)
            _, summary = run_episode(env, policy, CostModel(), budget,
                                     ExpectedMode(), max_rounds=4)
            gap = abs(summary.cumulative_info -
                      (summary.prior_entropy - summary.posterior_entropy))
            if gap > 1e-10:
                return f"telescoping gap {gap}"

    def work_bounds_hold():
        draws = rng.uniform((1.0, 1.0, 0.0, 0.5), (3.0, 3.0, 0.5, 6.0), size=(n_envs, 4))
        for (kappa_meas, kappa_erase, delta_f, budget), env in zip(
                draws.tolist(), _random_environments(rng, n_envs)):
            policy = random_policy(rng, env)
            cost = CostModel(kappa_meas, kappa_erase, delta_f)
            ledger, _ = run_episode(env, policy, cost, budget, ExpectedMode(), max_rounds=4)
            for r in ledger.records:
                if r.work_meas + r.work_erase < r.info_gain + r.stored_entropy - 1e-10:
                    return f"round {r.round_index} below its work floor"
            floor = sum(r.info_gain + r.stored_entropy for r in ledger.records)
            work = ledger.budget_spent
            if work < floor - 1e-10:
                return "total work below cumulative floor"
            if work > 0.0 and floor > 0.0:
                eta = efficiency(ledger)
                cap = sum(r.info_gain for r in ledger.records) / floor
                if eta > cap + 1e-10 or cap > 1.0 + 1e-10:
                    return f"efficiency {eta} above cap {cap}"

    def info_cap_respected():
        for budget, env in zip(rng.uniform(0.5, 5.0, size=n_envs).tolist(),
                               _random_environments(rng, n_envs)):
            policy = random_policy(rng, env)
            ledger, summary = run_episode(env, policy, CostModel(), budget,
                                          ExpectedMode(), max_rounds=4)
            scenario = bounds_mod.scenario_from_ledger(ledger, summary.prior_entropy)
            cap = bounds_mod.unpartitioned_info_cap(scenario)
            cum = cumulative_information(ledger)
            if ledger.budget_spent > 0.0 and cum > cap + 1e-10:
                return f"cumulative info {cum} above cap {cap}"

    def compression_never_hurts():
        for picks, env in zip(rng.random((10, _MAX_SIZES[1])), _random_environments(rng, 10)):
            merge = tuple(int(v) for v in picks[:env.n_outcomes] * max(1, env.n_outcomes - 1))
            compression = CompressionMap(merge)
            policy = RoundRobin()
            plain, _ = run_episode(env, policy, CostModel(), 50.0, ExpectedMode(), max_rounds=3)
            squeezed, _ = run_episode(env, policy, CostModel(), 50.0, ExpectedMode(),
                                      compression=compression, max_rounds=3)
            for a, b in zip(plain.records, squeezed.records):
                if b.stored_entropy > a.outcome_entropy + 1e-12:
                    return "compression raised stored entropy"
            if (plain.budget_spent > 0.0 and squeezed.budget_spent > 0.0
                    and efficiency(squeezed) < efficiency(plain) - 1e-12):
                return "compression lowered fixed-horizon efficiency"

    def greedy_argmax_round_one():
        for env in _random_environments(rng, 10):
            greedy_ledger, _ = run_episode(env, GreedyInfoMax(), CostModel(), 50.0,
                                           ExpectedMode(), max_rounds=1)
            best = max(
                run_episode(env, FixedSequence((u,)), CostModel(), 50.0,
                            ExpectedMode(), max_rounds=1)[0].records[0].info_gain
                for u in range(env.intervention_count)
            )
            got = greedy_ledger.records[0].info_gain
            if got < best - 1e-12:
                return f"greedy gain {got} below best fixed {best}"

    results = _run(telescoping_identity, work_bounds_hold, info_cap_respected,
                   compression_never_hurts, greedy_argmax_round_one)

    # sampled trials track expected-mode information (4 standard errors + noise floor)
    prior = DiscreteDistribution([0.5, 0.5])
    lik = LikelihoodModel([[[0.2, 0.8], [0.6, 0.4]]])
    env = EnvironmentModel(prior, lik)
    ledger_e, summary_e = run_episode(env, RoundRobin(), CostModel(), 1.6, ExpectedMode())
    ledger_s, summary_s = run_episode(env, RoundRobin(), CostModel(), 1.6,
                                      SampledMode(seed=seed, trials=4000))
    se = summary_s.cumulative_info_se or 0.0
    gap = abs(summary_s.cumulative_info - summary_e.cumulative_info)
    return results + [_check(
        "sampled_matches_expected", gap <= 4.0 * se + 1e-12,
        f"gap {gap:.3e}, se {se:.3e}, tau_e={ledger_e.rounds_completed}, "
        f"tau_s={ledger_s.rounds_completed}")]


# ---------------------------------------------------------------------------
# bounds suite


def verify_bounds(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    trials = 500

    def caps_monotone():
        for draws in rng.uniform(0.0, (3.0, 5.0, 3.0, 2.0), size=(trials, 4)):
            h0, bw, shy, bump = draws.tolist()
            cap = bounds_mod.unpartitioned_info_cap(bounds_mod.BudgetScenario(h0, bw, shy))
            more_work = bounds_mod.BudgetScenario(h0, bw + bump, shy)
            more_noise = bounds_mod.BudgetScenario(h0, bw, shy + bump)
            if bounds_mod.unpartitioned_info_cap(more_work) < cap - 1e-12:
                return "info cap not monotone in budget"
            if bounds_mod.unpartitioned_info_cap(more_noise) > cap + 1e-12:
                return "info cap not antitone in outcome entropy"

    def generalist_reduces_exactly():
        sizes = rng.integers(2, 7, size=trials)
        levels = rng.uniform((0.05, 0.0), (5.0, 2.0), size=(trials, 2))
        for probs, draws in zip(_dirichlet_rows(rng, sizes), levels):
            prior = DiscreteDistribution(probs)
            budget, shy = draws.tolist()
            part = generalist_partition(prior, budget)
            scenario = scenario_from_partition(part, _entropy(prior.probs), (shy,))
            fed = bounds_mod.federated_eta_cap(scenario)
            flat = bounds_mod.unpartitioned_eta_cap(scenario)
            if fed != flat:
                return f"generalist reduction broke: {fed!r} != {flat!r}"

    def federated_below_global_caps():
        sizes = rng.integers(2, 5, size=trials)
        # entropy, outcome entropy and headroom of up to four subdomains per instance
        levels = rng.uniform(0.0, (2.0, 1.0, 4.0), size=(trials, 4, 3))
        for p, draws in zip(_dirichlet_rows(rng, sizes), levels):
            h, shy, room = draws[:p.size].T
            # non-negative per-subdomain headroom keeps the zero floor inactive,
            # where the two displayed global caps are sharp
            w = shy + room
            subs = tuple(bounds_mod.SubdomainBudget(*args) for args in
                         zip(p.tolist(), h.tolist(), w.tolist(), shy.tolist()))
            beta_w, sum_hy, cap_h = (float(p @ v) for v in (w, shy, h))
            scenario = bounds_mod.BudgetScenario(float(np.max(h)), beta_w, sum_hy, subs)
            fed = bounds_mod.federated_info_cap(scenario)
            if fed > min(cap_h, beta_w - sum_hy) + 1e-12:
                return "federated cap exceeds its global caps"

    def entropy_gap_matches_mutual_information():
        n_states, n_subs = rng.integers((2, 2), (9, 5), size=(trials // 5, 2)).T
        for flat, n_sub in zip(_dirichlet_rows(rng, n_states * n_subs), n_subs.tolist()):
            joint = flat.reshape(-1, n_sub)
            h_gen = _entropy(joint.sum(axis=1))
            masses = joint.sum(axis=0)
            h_cond = sum(masses[k] * _entropy(joint[:, k] / masses[k])
                         for k in range(n_sub) if masses[k] > 0.0)
            gap = bounds_mod.partition_entropy_gap(h_gen, h_cond)
            mi = mutual_information_of_joint(joint)
            if abs(gap - mi) > 1e-10:
                return f"gap {gap} != mutual information {mi}"

    r = bounds_mod.regime_classify(100.0, 1.0)
    b = bounds_mod.regime_classify(0.01, 1.0)
    c = bounds_mod.regime_classify(1.0, 1.0)
    return _run(caps_monotone, generalist_reduces_exactly, federated_below_global_caps,
                entropy_gap_matches_mutual_information) + [_check(
        "regime_thresholds",
        r.regime is bounds_mod.Regime.PRIOR_LIMITED
        and b.regime is bounds_mod.Regime.BUDGET_LIMITED
        and c.regime is bounds_mod.Regime.CROSSOVER and c.ratio == 1.0)]


# ---------------------------------------------------------------------------
# toy suite


def verify_toy(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    params, asym = toy.ToyParams.symmetric(), toy.ToyParams.asymmetric()
    axes = toy.SweepAxes.default_n()
    grid_d = toy.sweep(toy.Pair.FED_GEN, asym, axes)

    def eta_law_shape():
        for draws in rng.uniform((1e-3, 1e-3, 0.0), (1e3, 1.0, 3.0), size=(300, 3)):
            omega, c, alpha = draws.tolist()
            eta = toy.eta_toy(omega, c, alpha)
            if not 0.0 < eta <= 1.0:
                return f"eta {eta} outside (0, 1]"
            if toy.eta_toy(omega, min(1.0, c + 0.1), alpha) < eta - 1e-12:
                return "eta not nondecreasing in c"
            if toy.eta_toy(omega, c, alpha + 0.5) > eta + 1e-12:
                return "eta not nonincreasing in alpha"
            if toy.eta_toy(omega * 1.5, c, alpha) > eta + 1e-12:
                return "eta not nonincreasing in omega"

    def federated_compression_shape():
        prev = None
        for n in np.linspace(1.0, 40.0, 80):
            val = toy.c_fed(float(n), 0.05, 1.0)
            if not 0.05 < val <= 1.0 + 1e-12:
                return f"c_fed({n}) = {val} outside (c_min, 1]"
            if prev is not None and val >= prev:
                return "c_fed not strictly decreasing"
            prev = val

    def symmetric_ordering():  # one symmetric grid at a time, each dropped once checked
        worst = float(np.max(toy.sweep(toy.Pair.FED_GEN, params, axes).delta))
        if not worst <= 1e-15:  # NaN fails too
            return f"max delta {worst}"
        if not np.all(toy.sweep(toy.Pair.FED_SPEC, params, axes).delta >= -1e-15):
            return "federated fell below the focused specialist"

    def pointwise_evaluations_consistent():
        cells = rng.integers(0, (3, grid_d.axis2.size, grid_d.omega.size), size=(200, 3))
        for (k, j, i), c_spec in zip(cells.tolist(), rng.uniform(0.06, 1.0, 200).tolist()):
            pair = toy.Pair(["spec-gen", "fed-gen", "fed-spec"][k])
            axis_value = c_spec if pair == toy.Pair.SPEC_GEN else float(grid_d.axis2[j])
            omega = float(grid_d.omega[i])
            d = toy.delta_eta(pair, omega, asym, axis_value)
            e1, e2 = toy.strategy_etas(pair, omega, asym, axis_value)
            if abs(d - (e1 - e2)) > 1e-15 or not (0.0 < e1 <= 1.0 and 0.0 < e2 <= 1.0):
                return f"inconsistent point evaluation at {pair} {omega}"

    def contour_points_near_zero():
        points = np.concatenate([np.empty((0, 2)), *grid_d.contours])
        # tolerance: the delta variation across the containing grid cell
        i = np.clip(np.searchsorted(grid_d.omega, points[:, 0]), 1, grid_d.omega.size - 1)
        j = np.clip(np.searchsorted(grid_d.axis2, points[:, 1]), 1, grid_d.axis2.size - 1)
        corners = np.stack([grid_d.delta[j - dj, i - di] for dj in (0, 1) for di in (0, 1)])
        spans = corners.max(axis=0) - corners.min(axis=0)
        for (omega, n), local in zip(points.tolist(), spans.tolist()):
            val = abs(toy.delta_eta(toy.Pair.FED_GEN, omega, asym, n))
            if val > max(1e-9, local):
                return f"contour point off-zero by {val:.3e} (local {local:.3e})"

    log_step = math.log(grid_d.omega[1] / grid_d.omega[0])
    targets = ((float(omega), (1.0 + asym.alpha_gen) * toy.c_fed(float(n), asym.c_min, asym.gamma))
               for line in grid_d.contours for omega, n in line)
    worst = max((abs(math.log(omega) - math.log(target)) / log_step for omega, target in targets),
                default=0.0)
    probe_pos = toy.delta_eta(toy.Pair.FED_GEN, 0.4, asym, 4.0)
    probe_neg = toy.delta_eta(toy.Pair.FED_GEN, 0.6, asym, 4.0)
    low = toy.delta_eta(toy.Pair.FED_SPEC, 0.01, asym, 8.0)
    high = toy.delta_eta(toy.Pair.FED_SPEC, 50.0, asym, 8.0)
    return [
        *_run(eta_law_shape, federated_compression_shape, symmetric_ordering,
              pointwise_evaluations_consistent),
        _check("fed_gen_boundary_matches_analysis",
               bool(grid_d.contours) and worst <= 1.0 + 1e-6,
               f"worst contour offset {worst:.3f} cells" if grid_d.contours
               else "no contour extracted on the asymmetric fed-gen grid"),
        _check("fed_gen_sign_probes", probe_pos > 0.0 > probe_neg,
               f"delta(0.4)={probe_pos:.6f}, delta(0.6)={probe_neg:.6f}"),
        _check("fed_spec_crossover", low < 0.0 < high,
               f"delta(0.01)={low:.6f}, delta(50)={high:.6f}"),
        *_run(contour_points_near_zero),
    ]


# ---------------------------------------------------------------------------
# runner

_SUITES = {
    "info": verify_info,
    "cycle": verify_cycle,
    "bounds": verify_bounds,
    "toy": verify_toy,
}


def run_suite(scope: str, seed: int) -> dict:
    """Run one or all suites; returns a JSON-ready report."""
    if scope != "all" and scope not in _SUITES:
        raise ValueError(f"unknown scope {scope!r}; expected one of "
                         f"{sorted(_SUITES)} or 'all'")
    bounds_mod._check_at_least(0, seed=seed)
    scopes = sorted(_SUITES) if scope == "all" else [scope]
    checks = [{"suite": name, **check} for name in scopes for check in _SUITES[name](seed)]
    return {
        "scope": scope,
        "seed": seed,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }

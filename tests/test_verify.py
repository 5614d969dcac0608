import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import bounds, toy_model, verify
from thermosci.errors import InvalidParameter

from helpers import random_environment


@pytest.mark.parametrize("scope", ["info", "cycle", "bounds", "toy"])
def test_each_suite_passes(scope):
    report = verify.run_suite(scope, seed=42)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], failing


def test_suites_pass_on_other_seeds():
    for seed in (0, 7, 2026):
        for scope in ("bounds", "info", "cycle", "toy"):
            assert verify.run_suite(scope, seed)["all_passed"], (scope, seed)


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("everything", seed=1)


def test_negative_seed_rejected():
    with pytest.raises(InvalidParameter, match="seed must be >= 0"):
        verify.run_suite("all", seed=-1)


def test_mutated_efficiency_law_is_caught(monkeypatch):
    # canary: drop the ceiling branch and the toy suite must notice
    monkeypatch.setattr(toy_model, "eta_toy",
                        lambda omega, c, alpha: c / omega)
    report = verify.run_suite("toy", seed=42)
    assert report["all_passed"] is False


def test_random_environment_respects_caps():
    rng = np.random.default_rng(3)
    for _ in range(50):
        env = random_environment(rng)
        assert 2 <= env.n_states <= 5
        assert 2 <= env.n_outcomes <= 4
        assert 1 <= env.intervention_count <= 3
        assert abs(float(env.prior.probs.sum()) - 1.0) <= 1e-12


def test_random_environments_reach_every_size_and_sum_to_one():
    envs = list(verify._random_environments(np.random.default_rng(11), 3000))
    assert len(envs) == 3000
    sizes = {(e.n_states, e.n_outcomes, e.intervention_count) for e in envs}
    assert sizes == set(itertools.product(range(2, 6), range(2, 5), range(1, 4)))
    for env in envs:
        assert env.likelihood.table.shape == (env.intervention_count, env.n_states,
                                              env.n_outcomes)
        assert abs(float(env.prior.probs.sum()) - 1.0) <= 1e-12
        assert np.max(np.abs(env.likelihood.table.sum(axis=2) - 1.0)) <= 1e-12
    # Dirichlet(1, 1): prior[0] is uniform on [0, 1], of mean 1/2 and variance 1/12
    first = np.array([e.prior.probs[0] for e in envs if e.n_states == 2])
    assert abs(first.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / first.size)


def test_random_environments_draw_before_building_the_first():
    rng = np.random.default_rng(5)
    envs = verify._random_environments(rng, 4)
    after = rng.random()  # the stream has moved past every environment's draws
    again = np.random.default_rng(5)
    again.integers((2, 2, 1), (6, 5, 4), size=(4, 3))
    again.standard_exponential((4, 5))
    again.standard_exponential((4, 3, 5, 4))
    assert after == again.random()
    assert len(list(envs)) == 4


def test_check_names_and_order_are_pinned():
    report = verify.run_suite("all", seed=42)
    assert [(c["suite"], c["name"]) for c in report["checks"]] == [
        ("bounds", "caps_monotone"),
        ("bounds", "generalist_reduces_exactly"),
        ("bounds", "federated_below_global_caps"),
        ("bounds", "entropy_gap_matches_mutual_information"),
        ("bounds", "regime_thresholds"),
        ("cycle", "telescoping_identity"),
        ("cycle", "work_bounds_hold"),
        ("cycle", "info_cap_respected"),
        ("cycle", "compression_never_hurts"),
        ("cycle", "greedy_argmax_round_one"),
        ("cycle", "sampled_matches_expected"),
        ("info", "entropy_maximized_by_uniform"),
        ("info", "information_gain_bounded_and_consistent"),
        ("info", "belief_martingale"),
        ("info", "mutual_information_symmetric"),
        ("info", "independent_joint_has_zero_mi"),
        ("toy", "eta_law_shape"),
        ("toy", "federated_compression_shape"),
        ("toy", "symmetric_ordering"),
        ("toy", "pointwise_evaluations_consistent"),
        ("toy", "fed_gen_boundary_matches_analysis"),
        ("toy", "fed_gen_sign_probes"),
        ("toy", "fed_spec_crossover"),
        ("toy", "contour_points_near_zero"),
    ]


def _zero_gain(monkeypatch):
    monkeypatch.setattr(verify, "expected_information_gain", lambda belief, likelihood, u: 0.0)


def _inflated_efficiency(monkeypatch):
    monkeypatch.setattr(verify, "efficiency", lambda ledger: 2.0)


def _zero_entropy_gap(monkeypatch):
    monkeypatch.setattr(bounds, "partition_entropy_gap", lambda h_gen, h_fed: 0.0)


def _flat_grid_delta(monkeypatch):
    # contours stay where they are, but every grid cell reads zero, so the
    # per-cell tolerance of the contour check collapses to its 1e-9 floor
    real = toy_model.sweep

    def sweep(pair, params, axes):
        grid = real(pair, params, axes)
        grid.contours  # traced on first read: read while delta is as swept
        grid.delta = grid.delta * 0.0
        return grid

    monkeypatch.setattr(toy_model, "sweep", sweep)


@pytest.mark.parametrize("scope, fault, name, detail", [
    ("info", _zero_gain, "information_gain_bounded_and_consistent", "formulas disagree: 0.0 vs "),
    ("cycle", _inflated_efficiency, "work_bounds_hold", "efficiency 2.0 above cap "),
    ("bounds", _zero_entropy_gap, "entropy_gap_matches_mutual_information",
     "gap 0.0 != mutual information "),
    ("toy", _flat_grid_delta, "contour_points_near_zero", "contour point off-zero by "),
])
def test_injected_fault_names_its_check(monkeypatch, scope, fault, name, detail):
    fault(monkeypatch)
    report = verify.run_suite(scope, seed=42)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == [name]
    assert failing[0]["detail"].startswith(detail)
    assert report["all_passed"] is False


#: the library entry points the randomized checks call, by the module they are looked up in
_COUNTED = {
    verify: ("entropy", "expected_information_gain", "predictive_outcome_dist",
             "posterior_update", "mutual_information_of_joint", "generalist_partition",
             "run_episode"),
    bounds: ("unpartitioned_info_cap", "federated_info_cap", "partition_entropy_gap"),
    toy_model: ("eta_toy", "delta_eta"),
}


def _counts_instances(name, args):
    """Whether a call starts an instance: one per drawn instance, whatever its sizes."""
    if name == "posterior_update":  # one call per outcome; every drawn outcome has mass
        return args[3] == 0
    if name == "run_episode":  # greedy_argmax_round_one fans out one run per intervention
        policy = args[1]
        return not (isinstance(policy, verify.FixedSequence) and len(policy.interventions) == 1)
    return True


def _counting(monkeypatch, calls, sizes):
    for module, names in _COUNTED.items():
        for name in names:
            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                if _name == "entropy":
                    sizes.append(len(args[0]))
                if _counts_instances(_name, args):
                    calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


def test_each_check_keeps_its_instance_count(monkeypatch):
    counts, sizes = {}, []
    for scope in ("info", "cycle", "bounds", "toy"):
        calls = counts[scope] = {}
        _counting(monkeypatch, calls, sizes if scope == "info" else [])
        assert verify.run_suite(scope, seed=42)["all_passed"]
        monkeypatch.undo()
    assert counts == {
        "info": {"entropy": 400, "expected_information_gain": 200,
                 "predictive_outcome_dist": 200, "posterior_update": 200,
                 "mutual_information_of_joint": 401},
        "cycle": {"run_episode": 107, "unpartitioned_info_cap": 25},
        "bounds": {"unpartitioned_info_cap": 1500, "generalist_partition": 500,
                   "federated_info_cap": 500, "partition_entropy_gap": 100,
                   "mutual_information_of_joint": 100},
        "toy": {"delta_eta": 355, "eta_toy": 2310},
    }
    # the first 200 entropy calls are entropy_maximized_by_uniform's draws
    assert sorted(set(sizes[:200])) == [2, 3, 4, 5, 6]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
def test_dirichlet_rows_have_their_sizes_and_sum_to_one(sizes, seed):
    rows = list(verify._dirichlet_rows(np.random.default_rng(seed), np.array(sizes)))
    assert [row.size for row in rows] == sizes
    for row in rows:
        assert row.min() >= 0.0
        assert abs(float(row.sum()) - 1.0) <= 1e-12

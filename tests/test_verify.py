from types import SimpleNamespace

import pytest

from thermosci import bounds, toy_model, verify
from thermosci.errors import InvalidParameter


@pytest.mark.parametrize("scope", ["info", "cycle", "bounds", "toy"])
def test_each_suite_passes(scope):
    report = verify.run_suite(scope, seed=42)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], failing


def test_suites_pass_on_other_seeds():
    for seed in (0, 7, 2026):
        assert verify.run_suite("bounds", seed)["all_passed"]
        assert verify.run_suite("info", seed)["all_passed"]


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
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(50):
        env = verify.random_environment(rng)
        assert 2 <= env.n_states <= 5
        assert 2 <= env.n_outcomes <= 4
        assert 1 <= env.intervention_count <= 3
        assert abs(float(env.prior.probs.sum()) - 1.0) <= 1e-12


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
    monkeypatch.setattr(verify, "expected_information_gain",
                        lambda belief, likelihood, u: SimpleNamespace(value=0.0))


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

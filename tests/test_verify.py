import pytest

from thermosci import verify
from thermosci import toy_model
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

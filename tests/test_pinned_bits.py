"""Pinned bits: expected-mode ledgers and summaries, and the CLI's JSON files.

Each digest is the sha256 of a ``repr`` or of a file's bytes, recorded from
the engine before the expected-mode walker was carried as Python floats and
before the JSON files were written in one call. Any change to the float
operations behind a ledger, a summary or a file moves a digest. Ten of the
``run_episode`` cases below were re-recorded when expected mode stopped
summing each round's values as a BLAS product of the branch masses and took
sampled mode's weighted pairwise row sum, so that its bits no longer follow
the BLAS thread count: their floats moved by at most 4.3e-16 relative, and
every other field held. The other digests held. The random A/A run of
``tools/parity.py``, and its rule for each mode, are here too.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from thermosci.cli import main
from thermosci.cycle_sim import (
    CompressionMap,
    CostModel,
    EnvironmentModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    RoundRobin,
    SampledMode,
    run_episode,
)

from helpers import asym_binary_env, noiseless_binary_env, three_state_env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README_ENV = {"prior": [0.5, 0.5], "interventions": 1,
              "likelihood": [[[0.2, 0.8], [0.6, 0.4]]]}
POLICIES = {"fixed": FixedSequence((1, 0, 0, 1, 1, 0)), "roundrobin": RoundRobin(),
            "random": RandomPolicy(7), "greedy": GreedyInfoMax()}


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


POLICY_CASES = [
    ("fixed", False,
     "aaca302d171a1b4c4a716ecb229a12c2b746bca2bb8a2a93d2591e35e0127b69",
     "3029ecd233912f90dd4740d97730901c1de63c6febcf42c468285b1df8b37e3b"),
    ("fixed", True,
     "9323fd4a3a9dd98f0c524d60a538dada6987d52513478292316c2a75c04c01e3",
     "3029ecd233912f90dd4740d97730901c1de63c6febcf42c468285b1df8b37e3b"),
    ("roundrobin", False,
     "7b6ee1034799da22ea63d580a9abfc01d9178f09a6a96fdfabc18eaf0af1528f",
     "2660fb4df8f8a4435cca426bbc71cbbc677e19697da68c61b3cc52031b1ac365"),
    ("roundrobin", True,
     "9ccb536afbe9fa43d66216988d15632ecdd3cdd183c020a9a88746fbc6fe91f7",
     "2660fb4df8f8a4435cca426bbc71cbbc677e19697da68c61b3cc52031b1ac365"),
    ("random", False,
     "d3e63bf51c3595be66a2bf8e5cd099159e37a06f953437037962242fd4902a53",
     "cf9e03027eb2901369ccf6da0611a1ae0715ef72fba918108a7f787b50291c21"),
    ("random", True,
     "e01cc333e50e17b577729f066f8fa1cc6811d45afab8753536cd5bc037f90e38",
     "cf9e03027eb2901369ccf6da0611a1ae0715ef72fba918108a7f787b50291c21"),
    ("greedy", False,
     "28098cfb16ed24e25994d986683792d81ceefde7ddd99f680fd173f56a2ad835",
     "2de429b01b4f9ffeb5e46e5cb9b9758f2e4edcbd04919008d56e47d8a19532e4"),
    ("greedy", True,
     "6b22b2d47d817dfd24c83823160cd5516cb4ff6731b5944376c0391de35fa1ef",
     "2de429b01b4f9ffeb5e46e5cb9b9758f2e4edcbd04919008d56e47d8a19532e4"),
]


# ids name the case, not its digests, so re-recording a pin keeps the test's name
@pytest.mark.parametrize("policy, compressed, ledger_sha, summary_sha", POLICY_CASES,
                         ids=[f"{case[0]}-{'compressed' if case[1] else 'plain'}"
                              for case in POLICY_CASES])
def test_expected_policy_bits_are_pinned(policy, compressed, ledger_sha, summary_sha):
    compression = CompressionMap((0, 0, 1)) if compressed else None
    ledger, summary = run_episode(three_state_env(), POLICIES[policy], CostModel(1.5, 1.25, 0.01),
                                  50.0, compression=compression, max_rounds=6)
    assert summary.stop_reason == "max_rounds"
    assert (_sha(repr(ledger)), _sha(repr(summary))) == (ledger_sha, summary_sha)


STOP_CASES = [
    ("policy_exhausted", three_state_env, FixedSequence((0, 1, 0)), 50.0, 6,
     "537edc5bdedec4e4cd6eda39f8859da724da41043d288932760ab9450f457ec6",
     "adfa18c4a4dbf34f5e378ef9713c38efb08e7f67a1baf5cdfabcfc1fc874ca9c"),
    ("degenerate", noiseless_binary_env, RoundRobin(), 50.0, 5,
     "a36ea5f4e2d5df3f363f08b6101c0e4346db61a3243dc9e6f88ca9c2ab7e5990",
     "41326a49125a3b1ac5da3c93f4b2ae17fb6676d572af2044874d5173fddf6afd"),
    ("budget", asym_binary_env, RoundRobin(), 2.0, 50,
     "5f3c677ba4633d5e388bcf111192b3bf1012f7e617a1aa6ea3e880e1f6ac2a8b",
     "5a9165a161808b03f2288fc6180e7d4788a527f0c8051a73ef31baa6ccf7ab49"),
    ("max_rounds", asym_binary_env, GreedyInfoMax(), 50.0, 9,
     "9ec95d28008b78b2f36c621697ee6750b57f71b15fd290cb6d04d06831c21bf3",
     "d4a28a68f3b886fd61db6dd47c0476b9b0985449144e20ab620f793ff4f903fc"),
    ("budget_exhausted_immediately", three_state_env, GreedyInfoMax(), 0.0, 4,
     "cd5ee64c87c4ac352c156c8f9ec4a0161a25c87dd9cd444e8bfb57a999a347e3",
     "379479f4fa2847c216e784176eb2670c2f12d7fb07bc53b27715c8671cb010f4"),
]


@pytest.mark.parametrize("stop, env, policy, budget, max_rounds, ledger_sha, summary_sha",
                         STOP_CASES, ids=[case[0] for case in STOP_CASES])
def test_expected_stop_bits_are_pinned(stop, env, policy, budget, max_rounds, ledger_sha,
                                       summary_sha):
    ledger, summary = run_episode(env(), policy, CostModel(), budget, max_rounds=max_rounds)
    assert stop in (summary.stop_reason, summary.status)
    assert (_sha(repr(ledger)), _sha(repr(summary))) == (ledger_sha, summary_sha)


def test_readme_simulate_ledger_file_is_pinned(tmp_path, capsys):
    env, out, report = tmp_path / "env.json", tmp_path / "ledger.json", tmp_path / "report.json"
    env.write_text(json.dumps(README_ENV))
    assert main(["simulate", "--env", str(env), "--policy", "greedy", "--budget", "1.386",
                 "--kappa-meas", "1", "--kappa-erase", "1", "--mode", "expected",
                 "--out", str(out), "--report", str(report)]) == 0
    assert _sha(out.read_bytes()) == (
        "412068ce1baa56fd3e139cb7b57e68b2155879dee678c321e9fa51ee00aa3038")
    assert _sha(report.read_bytes()) == (
        "75a7807ba2c654cff44a20468a98448fdf55d8076b6f050eb37cdadaeff295e3")


def test_verify_report_file_is_pinned(tmp_path, capsys):
    # the report's sampled check prints a gap and an SE, and independent_joint_has_zero_mi
    # prints the mi of product vectors drawn after the info checks, so this digest moves
    # with either stream
    out = tmp_path / "report.json"
    assert main(["verify", "--scope", "all", "--seed", "42", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "bc991bba169c764257c227429c5666def8f1ae1b426d9a89f92aac1d445bcfd4")


def test_parity_tool_passes_a_against_a():
    done = subprocess.run([sys.executable, os.path.join(REPO, "tools", "parity.py"),
                           "--parent", REPO, "--change", REPO, "--cases", "12"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("12 cases: every expected-mode case is within 1e-12 (0 moved), "
                           "every sampled case is within 1e-12\n")


@pytest.fixture
def parity(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "tools"))
    import parity

    return parity


def test_parity_tool_names_the_first_differing_case(parity, monkeypatch, capsys):
    sides = {"p": [["a", "b"], ["c", "d"], ["e", "f"]], "c": [["a", "b"], ["c", "x"], ["e", "y"]]}
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "3"]) == 1
    assert capsys.readouterr().out == f"case 1 differs: {json.dumps(parity.make_case(1))}\n"


def _result_and_nudged(parity, mode, nudge):
    """The tool's result of a run, and of the same run with its last posterior entropy nudged."""
    ledger, summary = run_episode(asym_binary_env(), RoundRobin(), CostModel(), 1.6, mode)
    last = ledger.records[-1]
    moved = dataclasses.replace(last, belief_entropy_after=nudge(last.belief_entropy_after))
    nudged = dataclasses.replace(ledger, records=(*ledger.records[:-1], moved))
    return parity.result_of(ledger, summary), parity.result_of(nudged, summary)


def _one_ulp_up(x):
    return math.nextafter(x, math.inf)


def test_parity_tool_passes_a_sampled_case_one_ulp_off(parity):
    want, got = _result_and_nudged(parity, SampledMode(seed=7, trials=300), _one_ulp_up)
    assert want != got
    assert parity.first_difference([want], [got]) is None


def test_parity_tool_names_a_sampled_case_1e_9_off(parity, monkeypatch, capsys):
    want, got = _result_and_nudged(parity, SampledMode(seed=7, trials=300), lambda x: x + 1e-9)
    sides = {"p": [want, want], "c": [want, got]}
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "2"]) == 1
    assert capsys.readouterr().out == f"case 1 differs: {json.dumps(parity.make_case(1))}\n"


def test_parity_tool_passes_an_expected_case_one_ulp_off_and_counts_it_moved(
        parity, monkeypatch, capsys):
    want, got = _result_and_nudged(parity, ExpectedMode(), _one_ulp_up)
    sides = {"p": [want, want], "c": [want, got]}
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "2"]) == 0
    assert capsys.readouterr().out == ("2 cases: every expected-mode case is within 1e-12 "
                                       "(1 moved), every sampled case is within 1e-12\n")


def test_parity_tool_names_an_expected_case_1e_9_off(parity, monkeypatch, capsys):
    # never judged statistically: an expected-mode case has no random draws to blame
    want, got = _result_and_nudged(parity, ExpectedMode(), lambda x: x + 1e-9)
    sides = {"p": [want, want], "c": [want, got]}
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "2"]) == 1
    assert capsys.readouterr().out == f"case 1 differs: {json.dumps(parity.make_case(1))}\n"


def _sides(parity, on_parent, on_change, cases=10):
    """Parent and change results of sampled cases that differ by 1e-9: on each side, the first
    ``on_*`` cases lie 0.1 from their expected-mode value, with an SE of 0.01."""
    want, got = _result_and_nudged(parity, SampledMode(seed=7, trials=300), lambda x: x + 1e-9)
    return {tag: [dict(result, judge=[0.5, 0.01, 0.6 if i < beyond else 0.5])
                  for i in range(cases)]
            for tag, result, beyond in (("p", want, on_parent), ("c", got, on_change))}


@pytest.mark.parametrize("on_change, code, verdict", [(8, 0, "within"), (9, 1, "more than")])
def test_parity_tool_counts_sampled_cases_beyond_3_se(parity, monkeypatch, capsys, on_change,
                                                      code, verdict):
    # 4 cases beyond on the parent allow 4 + 2 * sqrt(4) = 8 on the change
    sides = _sides(parity, 4, on_change)
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "10"]) == code
    assert capsys.readouterr().out == (
        "10 cases: every expected-mode case is within 1e-12 (0 moved); 10 sampled cases "
        "differ by more than 1e-12 (0 with no expected-mode run); of the 10 judged, "
        f"{on_change} lie beyond 3 SE of expected mode on the change and 4 on the parent, "
        f"{verdict} the 8.0 allowed\n")


def test_parity_tool_does_not_judge_a_case_with_no_expected_mode_run(parity, monkeypatch,
                                                                     capsys):
    sides = _sides(parity, 0, 2, cases=3)
    sides["c"][0]["judge"][2] = None  # its expected-mode tree was too large
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "3"]) == 1
    assert capsys.readouterr().out == (
        "3 cases: every expected-mode case is within 1e-12 (0 moved); 3 sampled cases "
        "differ by more than 1e-12 (1 with no expected-mode run); of the 2 judged, "
        "1 lie beyond 3 SE of expected mode on the change and 0 on the parent, "
        "more than the 0.0 allowed\n")


def test_parity_tool_judges_a_case_with_no_expected_mode_run_against_10x_the_trials(
        parity, monkeypatch, capsys):
    sides = _sides(parity, 0, 0, cases=3)
    # 0.035 from the larger run is beyond 3 * 0.01, but within 3 SE of both runs combined
    sides["p"][0]["judge"] = [0.5, 0.01, None, 0.535, 0.01]
    sides["c"][0]["judge"] = [0.5, 0.01, None, 0.6, 0.01]
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "3"]) == 1
    assert capsys.readouterr().out == (
        "3 cases: every expected-mode case is within 1e-12 (0 moved); 3 sampled cases "
        "differ by more than 1e-12 (1 with no expected-mode run); of the 3 judged, "
        "1 lie beyond 3 SE of expected mode on the change and 0 on the parent, "
        "more than the 0.0 allowed\n")
    # run_case draws the larger run on the next seed, so its trials are not the case's own
    case = dict(parity.make_case(1), prior=[0.5, 0.5],
                likelihood=[[[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]], policy="random",
                policy_seed=7, compression=None, cost=[1.0, 1.0, 0.0], budget=50.0,
                mode=[7, 200], max_rounds=12)
    env = EnvironmentModel.from_json_dict({"prior": case["prior"], "interventions": 1,
                                           "likelihood": case["likelihood"]})
    args = (env, RandomPolicy(7), CostModel(), 50.0)
    _, sampled = run_episode(*args, SampledMode(7, 200), None, 12)
    _, larger = run_episode(*args, SampledMode(8, 2000), None, 12)
    assert parity.run_case(case)["judge"] == [sampled.cumulative_info,
                                              sampled.cumulative_info_se, None,
                                              larger.cumulative_info, larger.cumulative_info_se]


def test_parity_tool_names_a_sampled_case_that_raises_on_one_side(parity, monkeypatch, capsys):
    sides = _sides(parity, 0, 0, cases=2)
    sides["c"][1] = ["error digest", "error digest"]
    monkeypatch.setattr(parity, "results", lambda checkout, cases: sides[checkout])
    assert parity.main(["--parent", "p", "--change", "c", "--cases", "2"]) == 1
    assert capsys.readouterr().out == f"case 1 differs: {json.dumps(parity.make_case(1))}\n"


def test_parity_tool_judges_a_sampled_case_by_its_own_expected_mode_run(parity):
    case = dict(parity.make_case(1), prior=README_ENV["prior"],
                likelihood=README_ENV["likelihood"], policy="roundrobin", compression=None,
                cost=[1.0, 1.0, 0.0], budget=1.6, mode=[7, 2000], max_rounds=60)
    args = (asym_binary_env(), RoundRobin(), CostModel(), 1.6)
    _, sampled = run_episode(*args, SampledMode(7, 2000), None, 60)
    _, exact = run_episode(*args, ExpectedMode(), None, 60)
    assert parity.run_case(case)["judge"] == [sampled.cumulative_info,
                                              sampled.cumulative_info_se,
                                              exact.cumulative_info]
    # the random policy's unmerged tree outgrows the cap: there is no value to judge against
    case.update(policy="random", likelihood=[[[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]], budget=50.0)
    assert parity.run_case(case)["judge"][2] is None

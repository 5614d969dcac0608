import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import cli
from thermosci.cli import _build_parser, main
from thermosci.cycle_sim import (
    DEFAULT_ROUND_CAP,
    CostModel,
    EnvironmentModel,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    SampledMode,
    run_episode,
)
from thermosci.toy_model import SecondAxis, SweepAxes, c_fed, read_grid_csv, sweep

from helpers import asym_binary_env, noiseless_binary_env, three_state_env

LN2 = math.log(2.0)


@pytest.fixture()
def env_file(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(noiseless_binary_env().to_json_dict()))
    return path


def test_simulate_noiseless_round(tmp_path, env_file, capsys):
    ledger_path = tmp_path / "ledger.json"
    report_path = tmp_path / "report.json"
    code = main([
        "simulate", "--env", str(env_file), "--budget", str(2 * LN2),
        "--policy", "greedy", "--out", str(ledger_path), "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "efficiency=0.5" in out
    assert out.count("PASS") == 4 and "FAIL" not in out

    ledger = json.loads(ledger_path.read_text())
    assert ledger["units"] == "nats"
    assert ledger["rounds"] == 1
    assert ledger["records"][0]["info_gain"] == pytest.approx(LN2, abs=1e-12)
    report = json.loads(report_path.read_text())
    assert all(c["passed"] for c in report["checks"])


def test_simulate_bits_units(tmp_path, env_file):
    ledger_path = tmp_path / "ledger.json"
    code = main([
        "simulate", "--env", str(env_file), "--budget", "2", "--units", "bits",
        "--policy", "roundrobin", "--out", str(ledger_path),
    ])
    assert code == 0
    ledger = json.loads(ledger_path.read_text())
    assert ledger["units"] == "bits"
    assert ledger["budget_spent"] == pytest.approx(2.0, abs=1e-12)
    assert ledger["records"][0]["info_gain"] == pytest.approx(1.0, abs=1e-12)


def test_simulate_bits_checks_are_nats_divided_by_ln2(tmp_path, capsys):
    # the checks used to be printed and reported in nats beside a bits cumulative_info
    env, reports, lines = _readme_env_file(tmp_path), {}, {}
    for units in ("nats", "bits"):
        reports[units] = tmp_path / f"{units}.json"
        assert main(["simulate", "--env", str(env), "--policy", "roundrobin", "--budget", "inf",
                     "--max-rounds", "3", "--units", units,
                     "--report", str(reports[units])]) == 0
        lines[units] = capsys.readouterr().out.splitlines()
    nats, bits = (json.loads(reports[u].read_text())["checks"] for u in ("nats", "bits"))
    assert [c["name"] for c in bits] == ["round_work_floor", "total_work_floor",
                                         "efficiency_cap", "info_cap"]
    for n, b in zip(nats, bits):
        scale = 1.0 if n["name"] == "efficiency_cap" else LN2
        assert (b["observed"], b["limit"]) == (n["observed"] / scale, n["limit"] / scale)
    info_cap = next(c for c in bits if c["name"] == "info_cap")
    assert f"cumulative_info={info_cap['observed']:.9g} bits" in lines["bits"]
    assert f"PASS info_cap: observed={info_cap['observed']:.9g} " in lines["bits"][-1]


def test_simulate_rejects_sub_unity_kappa(tmp_path, env_file, capsys):
    code = main([
        "simulate", "--env", str(env_file), "--budget", "1", "--kappa-meas", "0.5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"


def test_simulate_rejects_nan_kappa(env_file, capsys):
    code = main(["simulate", "--env", str(env_file), "--budget", "1", "--kappa-meas", "nan",
                 "--max-rounds", "3"])
    assert code == 2
    assert "kappa_meas" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "sampled:5", "--seed", "-1"],
    ["simulate", "--policy", "random", "--seed", "-3"],
    ["verify", "--seed", "-1"],
])
def test_negative_seed_exits_2(env_file, capsys, argv):
    if argv[0] == "simulate":
        argv = [*argv, "--env", str(env_file), "--budget", "1"]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"
    assert "seed" in payload["message"]


@pytest.mark.parametrize("field, message", [
    ("prior", "prior contains non-finite entries"),
    ("likelihood", "likelihood has negative entries"),
])
def test_simulate_names_the_bad_probability_field(tmp_path, capsys, field, message):
    env = noiseless_binary_env().to_json_dict()
    if field == "prior":
        env["prior"] = [math.nan, 0.5]
    else:
        env["likelihood"][0][0] = [1.5, -0.5]
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    assert main(["simulate", "--env", str(path), "--budget", "1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidDistribution", "message": message}


@pytest.mark.parametrize("field, value, message", [
    ("prior", [1e308, 1e308], "prior sums to inf; expected 1 within 1e-09"),
    ("prior", [1e308, 1e308, math.inf], "prior contains non-finite entries"),
    ("likelihood", [[[1e308, 1e308], [0.6, 0.4]]],
     "likelihood rows must sum to 1 within 1e-09 (worst deviation inf)"),
], ids=["prior", "prior-with-inf", "likelihood-row"])
def test_simulate_names_an_overflowing_sum_without_a_numpy_warning(tmp_path, capsys, field,
                                                                    value, message):
    env = asym_binary_env().to_json_dict()
    env[field] = value
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as under python -W error::RuntimeWarning
        assert main(["simulate", "--env", str(path), "--budget", "1"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "InvalidDistribution", "message": message}


@pytest.mark.parametrize("flags, policy, mode", [
    (["--policy", "random", "--seed", "3"], RandomPolicy(3), ExpectedMode()),
    (["--policy", "fixed:1,0,1"], FixedSequence((1, 0, 1)), ExpectedMode()),
    (["--mode", "sampled", "--seed", "5"], GreedyInfoMax(), SampledMode(seed=5)),
], ids=["random", "fixed", "bare-sampled"])
def test_simulate_runs_the_policy_and_mode_it_parses(tmp_path, capsys, flags, policy, mode):
    doc = three_state_env().to_json_dict()
    path, out = tmp_path / "env.json", tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--env", str(path), "--budget", "5", "--out", str(out),
                 *flags]) == 0
    ledger, _ = run_episode(EnvironmentModel.from_json_dict(doc), policy, CostModel(), 5.0, mode)
    assert json.loads(out.read_text()) == json.loads(json.dumps(ledger.to_json_dict()))
    assert ledger.rounds_completed >= 3  # past the first choice of each policy


@pytest.mark.parametrize("flags, message", [
    (["--policy", "best"],
     "unknown policy 'best'; expected fixed:u0,u1,... | roundrobin | random | greedy"),
    (["--policy", "fixed:0,x"], "bad fixed policy 'fixed:0,x'"),
    (["--policy", "fixed:0,,1"], "bad fixed policy 'fixed:0,,1'"),
    (["--policy", "fixed:"], "fixed policy needs at least one intervention"),
    (["--policy", "fixed:-1"], "fixed policy 'fixed:-1' names intervention -1 outside [0, 2)"),
    (["--policy", "fixed:0,2"], "fixed policy 'fixed:0,2' names intervention 2 outside [0, 2)"),
    (["--mode", "exact"], "unknown mode 'exact'; expected expected | sampled[:N]"),
    (["--mode", "sampled:ten"], "bad mode 'sampled:ten'"),
], ids=["unknown-policy", "bad-fixed-token", "empty-fixed-token", "empty-fixed-list",
        "negative-fixed-index", "fixed-index-past-the-count", "unknown-mode", "bad-sampled-n"])
def test_simulate_parse_error_exits_2_before_the_episode(tmp_path, capsys, monkeypatch, flags,
                                                         message):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(three_state_env().to_json_dict()))  # 2 interventions
    monkeypatch.setattr(cli, "run_episode", lambda *a, **k: pytest.fail("the episode ran"))
    assert main(["simulate", "--env", str(path), "--budget", "2", *flags]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "InvalidParameter", "message": message}


def test_simulate_zero_budget_trivially_passes(tmp_path, env_file, capsys):
    code = main(["simulate", "--env", str(env_file), "--budget", "0"])
    assert code == 0
    assert "rounds=0" in capsys.readouterr().out


def test_simulate_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"prior": [0.5, 0.5]}))
    code = main(["simulate", "--env", str(bad), "--budget", "1"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DimensionMismatch"


def test_simulate_report_is_plain_json(tmp_path):
    # budget-bound episode on an asymmetric channel: every report field must
    # serialize through the stdlib json encoder (no numpy scalars)
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(asym_binary_env().to_json_dict()))
    report_path = tmp_path / "report.json"
    code = main([
        "simulate", "--env", str(env_path), "--budget", "1.6",
        "--policy", "roundrobin", "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert all(isinstance(c["passed"], bool) for c in report["checks"])
    assert report["rounds"] == 2


def test_simulate_sampled_mode(tmp_path, capsys):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(asym_binary_env().to_json_dict()))
    code = main([
        "simulate", "--env", str(env_path), "--budget", "1.6",
        "--policy", "roundrobin", "--mode", "sampled:500", "--seed", "4",
    ])
    assert code == 0
    assert "rounds=2" in capsys.readouterr().out


def test_sweep_panel_c_has_no_positive_entries(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--panel", "C", "--out", str(out)]) == 0
    grid = read_grid_csv(out)
    assert float(grid.delta.max()) <= 1e-15


def test_sweep_panel_b_ceiling_column(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["sweep", "--panel", "B", "--out", str(out)]) == 0
    grid = read_grid_csv(out)
    assert np.allclose(grid.delta[:, 0], 1.0 / 1.2 - 1.0 / 1.8, atol=1e-9)


def test_sweep_panel_a_top_row_is_zero(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["sweep", "--panel", "A", "--out", str(out)]) == 0
    grid = read_grid_csv(out)
    assert np.max(np.abs(grid.delta[-1])) == 0.0  # c_spec = 1 duplicates the generalist


def test_sweep_needs_pair_or_panel(capsys):
    assert main(["sweep", "--out", "/tmp/unused.csv"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"


def test_sweep_refuses_a_pair_beside_a_panel(tmp_path, capsys, monkeypatch):
    # the panel's own pair was swept, and --pair dropped without a word
    monkeypatch.setattr(cli, "sweep", lambda *args: pytest.fail("a grid was evaluated"))
    out = tmp_path / "g.csv"
    assert main(["sweep", "--panel", "D", "--pair", "spec-gen", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"
    assert "--pair" in payload["message"] and "--panel" in payload["message"]
    assert not out.exists()


def test_sweep_rejects_nan_alpha(tmp_path, capsys):
    code = main(["sweep", "--pair", "fed-gen", "--alpha-gen", "nan",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"
    assert "alpha_gen" in payload["message"]
    assert not (tmp_path / "g.csv").exists()


def test_sweep_rejects_a_grid_over_the_cell_cap(tmp_path, capsys):
    # the cap is checked on the step counts, before any grid array exists
    out = tmp_path / "g.csv"
    assert main(["sweep", "--panel", "D", "--omega-steps", "100000000", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"
    assert "omega_steps=100000000" in payload["message"]
    assert "n axis steps=100" in payload["message"]
    assert not out.exists()


def test_sweep_svg_emission(tmp_path):
    out = tmp_path / "d.csv"
    svg = tmp_path / "d.svg"
    assert main(["sweep", "--panel", "D", "--n-steps", "20", "--omega-steps", "40",
                 "--out", str(out), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_contour_round_trip(tmp_path, capsys):
    grid_path = tmp_path / "d.csv"
    contour_path = tmp_path / "d.json"
    assert main(["sweep", "--panel", "D", "--out", str(grid_path)]) == 0
    capsys.readouterr()
    assert main(["contour", "--grid", str(grid_path), "--pair", "fed-gen",
                 "--out", str(contour_path)]) == 0
    assert "contour_components=1" in capsys.readouterr().out
    payload = json.loads(contour_path.read_text())
    assert payload["pair"] == "fed-gen"
    assert len(payload["polylines"]) == 1
    assert len(payload["polylines"][0]) > 50


def test_contour_panel_c_has_no_components(tmp_path, capsys):
    grid_path = tmp_path / "c.csv"
    contour_path = tmp_path / "c.json"
    assert main(["sweep", "--panel", "C", "--out", str(grid_path)]) == 0
    capsys.readouterr()
    assert main(["contour", "--grid", str(grid_path), "--out", str(contour_path)]) == 0
    payload = json.loads(contour_path.read_text())
    assert payload["polylines"] == []


def test_contour_rejects_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["contour", "--grid", str(empty), "--out", str(tmp_path / "x.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "MalformedGrid"


def test_verify_all_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--scope", "all", "--seed", "42", "--out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert {c["suite"] for c in report["checks"]} == {"info", "cycle", "bounds", "toy"}


def test_verify_single_scope(capsys):
    assert main(["verify", "--scope", "bounds", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[bounds]" in out and "[toy]" not in out


def test_verify_scenario_without_a_ledger_fails_before_any_suite(tmp_path, capsys,
                                                                 monkeypatch):
    # the scenario is only read against a ledger; alone it used to be dropped unopened
    monkeypatch.setattr(cli, "run_suite", lambda *a: pytest.fail("a suite ran"))
    code = main(["verify", "--scope", "info", "--scenario", str(tmp_path / "missing.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter", "message": "--scenario needs --ledger"}


def test_verify_checks_ledger_against_scenario(tmp_path, env_file, capsys):
    ledger_path = tmp_path / "ledger.json"
    assert main(["simulate", "--env", str(env_file), "--budget", str(2 * LN2),
                 "--out", str(ledger_path)]) == 0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        {"h0": LN2, "beta_w": 2 * LN2, "sum_hy": LN2, "subdomains": None}))
    capsys.readouterr()
    code = main(["verify", "--scope", "bounds", "--seed", "1",
                 "--ledger", str(ledger_path), "--scenario", str(scenario_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario_info_cap" in out and "scenario_eta_cap" in out


def test_verify_flags_violating_scenario(tmp_path, env_file, capsys):
    ledger_path = tmp_path / "ledger.json"
    assert main(["simulate", "--env", str(env_file), "--budget", str(2 * LN2),
                 "--out", str(ledger_path)]) == 0
    # a scenario claiming a tighter budget than the ledger actually spent
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        {"h0": LN2, "beta_w": LN2, "sum_hy": LN2, "subdomains": None}))
    capsys.readouterr()
    code = main(["verify", "--scope", "bounds", "--seed", "1",
                 "--ledger", str(ledger_path), "--scenario", str(scenario_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["h0", "beta_w"])
def test_verify_rejects_nan_scenario_field(tmp_path, env_file, capsys, field):
    ledger_path = tmp_path / "ledger.json"
    assert main(["simulate", "--env", str(env_file), "--budget", str(2 * LN2),
                 "--out", str(ledger_path)]) == 0
    scenario = {"h0": LN2, "beta_w": 2 * LN2, "sum_hy": LN2, "subdomains": None}
    scenario[field] = math.nan
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    capsys.readouterr()
    code = main(["verify", "--scope", "bounds", "--seed", "1",
                 "--ledger", str(ledger_path), "--scenario", str(scenario_path)])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("path", ["h0", "beta_w", "sum_hy", "subdomains[0].h",
                                  "subdomains[0].sum_hy"])
def test_verify_rejects_infinite_scenario_field(tmp_path, env_file, capsys, path):
    ledger_path = tmp_path / "ledger.json"
    assert main(["simulate", "--env", str(env_file), "--budget", str(2 * LN2),
                 "--out", str(ledger_path)]) == 0
    scenario = {"h0": LN2, "beta_w": 2 * LN2, "sum_hy": LN2,
                "subdomains": [{"p": 1.0, "h": LN2, "beta_w": 2 * LN2, "sum_hy": LN2}]}
    scenario_path = tmp_path / "scenario.json"
    argv = ["verify", "--scope", "bounds", "--seed", "1",
            "--ledger", str(ledger_path), "--scenario", str(scenario_path)]
    scenario_path.write_text(json.dumps(scenario))
    assert main(argv) == 0  # the scenario is valid before the field is set
    target = scenario["subdomains"][0] if path.startswith("subdomains") else scenario
    target[path.rsplit(".", 1)[-1]] = math.inf
    scenario_path.write_text(json.dumps(scenario))
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{path} must be finite, got inf" in capsys.readouterr().err


def _saved_ledger(tmp_path, env_file, *extra):
    path = tmp_path / "ledger.json"
    assert main(["simulate", "--env", str(env_file), "--out", str(path), *extra]) == 0
    return path


def _verify_ledger(path):
    return main(["verify", "--scope", "bounds", "--seed", "1", "--ledger", str(path)])


@pytest.mark.parametrize("field, value", [("budget_total", math.nan),
                                          ("budget_spent", math.nan),
                                          ("budget_spent", math.inf),
                                          ("info_gain", math.nan),
                                          ("work_erase", -math.inf)])
def test_verify_rejects_non_finite_ledger_values(tmp_path, env_file, capsys, field, value):
    path = _saved_ledger(tmp_path, env_file, "--budget", str(2 * LN2))
    data = json.loads(path.read_text())
    target = data["records"][0] if field in data["records"][0] else data
    target[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _verify_ledger(path) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["round", "intervention"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 1.5, -1, 1e308, "0"])
def test_verify_rejects_a_ledger_count_by_its_path(tmp_path, env_file, capsys, field, value):
    path = _saved_ledger(tmp_path, env_file, "--budget", str(2 * LN2))
    data = json.loads(path.read_text())
    data["records"][0][field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _verify_ledger(path) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidLedger", "message":
                       f"records[0].{field} must be an integral count in [0, 2**53], "
                       f"got {value!r}"}


def test_verify_accepts_an_integral_float_ledger_count(tmp_path, env_file, capsys):
    path = _saved_ledger(tmp_path, env_file, "--budget", str(2 * LN2))
    data = json.loads(path.read_text())
    data["records"][0]["round"] = 0.0
    data["records"][0]["intervention"] = 2.0**53
    path.write_text(json.dumps(data))
    assert _verify_ledger(path) == 0


@pytest.mark.parametrize("field", ["outcome_entropy", "stored_entropy"])
def test_verify_rejects_a_negative_ledger_entropy(tmp_path, env_file, capsys, field):
    path = _saved_ledger(tmp_path, env_file, "--budget", str(2 * LN2))
    data = json.loads(path.read_text())
    data["records"][0][field] = -1.0
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _verify_ledger(path) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidLedger",
                       "message": f"round 0: records[0].{field} must be >= -1e-12, got -1.0"}


def test_infinite_budget_ledger_round_trips(tmp_path, env_file, capsys):
    path = _saved_ledger(tmp_path, env_file, "--budget", "inf", "--max-rounds", "3")
    assert '"budget_total": Infinity' in path.read_text()
    capsys.readouterr()
    assert _verify_ledger(path) == 0


# a bits ledger read back is a few ulps off in nats: at 1e7 its spent work no longer
# matches its summed records within 1e-10, and spending within 1e-12 of the budget
# (1.08430576... bits here) makes it overdraw by more than 1e-12
@pytest.mark.parametrize("flags", [
    ("--policy", "greedy", "--budget", "1e7", "--kappa-meas", "1e6", "--kappa-erase", "1e6"),
    ("--policy", "greedy", "--budget", "1e12", "--kappa-meas", "1e9", "--kappa-erase", "1e9"),
    ("--policy", "greedy", "--budget", "1e3"),
    ("--policy", "fixed:0,1", "--budget", "1.0843057617770913"),
    ("--policy", "greedy", "--budget", "inf", "--kappa-meas", "1e305", "--delta-f", "2"),
], ids=["1e7-kappa-1e6", "1e12-kappa-1e9", "1e3", "spent-at-budget", "inf-kappa-1e305"])
def test_a_bits_ledger_written_by_simulate_verifies(tmp_path, capsys, flags):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps({
        "prior": [0.2, 0.3, 0.5], "interventions": 2,
        "likelihood": [[[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]],
                       [[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]]}))
    path = _saved_ledger(tmp_path, env_path, *flags, "--units", "bits", "--max-rounds", "50")
    capsys.readouterr()
    assert main(["verify", "--scope", "info", "--seed", "1", "--ledger", str(path)]) == 0


# A round costs at most kappa_meas (delta_f_mem + ln Y) + kappa_erase ln Y. Where that bound,
# in bits, passes the float range once multiplied by the trial count or by an unbudgeted
# episode's rounds, numpy used to warn of an overflow mid-episode, or the last case wrote
# a bits ledger holding Infinity that verify refused
@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("flags", [
    ("--budget", "1e308", "--max-rounds", "3", "--kappa-meas", "1e308", "--delta-f", "10"),
    ("--budget", "1e308", "--max-rounds", "3", "--kappa-meas", "1e308", "--delta-f", "10",
     "--mode", "sampled:100"),
    ("--budget", "inf", "--max-rounds", "3", "--kappa-meas", "1e308", "--delta-f", "1e308"),
    ("--mode", "sampled:100", "--budget", "1e308", "--max-rounds", "3", "--kappa-meas", "1e308",
     "--kappa-erase", "1e308"),
    ("--budget", "inf", "--max-rounds", "1", "--kappa-meas", "1e308", "--delta-f", "2"),
], ids=["delta-f-expected", "delta-f-sampled", "inf-budget", "kappa-erase-sampled",
        "inf-budget-one-round"])
def test_work_past_the_float_range_is_refused_before_round_0(tmp_path, capsys, flags, units):
    path = tmp_path / "ledger.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--env", str(_readme_env_file(tmp_path)), *flags,
                     "--units", units, "--out", str(path)])
    assert code == 2
    assert not path.exists()
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameter"
    assert payload["message"].startswith("kappa_meas, kappa_erase and delta_f_mem put the work "
                                         "past the float range")


@pytest.mark.parametrize("policy", ["roundrobin", "greedy", "fixed:0"])
def test_negative_seed_exits_2_in_expected_mode(env_file, capsys, policy):
    # expected mode draws nothing, but a seed it is given must still be valid
    assert main(["simulate", "--env", str(env_file), "--budget", "1", "--policy", policy,
                 "--seed", "-5"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter", "message": "seed must be >= 0, got -5"}


# ---------------------------------------------------------------------------
# the default round cap: each run below used to go on for more than 10 s

_NEAR_NOISELESS = 1e-9


def _sharp_env_file(tmp_path):
    path = tmp_path / "sharp.json"
    e = _NEAR_NOISELESS
    path.write_text(json.dumps({"prior": [0.5, 0.5], "interventions": 1,
                                "likelihood": [[[1.0 - e, e], [e, 1.0 - e]]]}))
    return path


def _readme_env_file(tmp_path):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(asym_binary_env().to_json_dict()))
    return path


@pytest.mark.parametrize("env, budget, mode", [
    (_readme_env_file, "1e300", "expected"),
    (_readme_env_file, "1e300", "sampled:1"),
    (_sharp_env_file, "5", "expected"),
    (_sharp_env_file, "5", "sampled"),
], ids=["readme-huge-budget-expected", "readme-huge-budget-sampled",
        "near-noiseless-expected", "near-noiseless-sampled"])
def test_runaway_episode_stops_at_the_round_cap(tmp_path, capsys, env, budget, mode):
    start = time.perf_counter()
    code = main(["simulate", "--env", str(env(tmp_path)), "--budget", budget,
                 "--policy", "roundrobin", "--mode", mode])
    assert time.perf_counter() - start < 30.0
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "TooManyRounds"
    assert f"{DEFAULT_ROUND_CAP:,} rounds" in payload["message"]
    assert "--max-rounds" in payload["message"]


def test_explicit_max_rounds_runs_past_the_round_cap(tmp_path, capsys):
    rounds = DEFAULT_ROUND_CAP + 100
    assert main(["simulate", "--env", str(_sharp_env_file(tmp_path)), "--budget", "5",
                 "--policy", "roundrobin", "--mode", "sampled:1",
                 "--max-rounds", str(rounds)]) == 0
    assert capsys.readouterr().out.startswith(f"status=ok stop=max_rounds rounds={rounds}\n")


def test_negative_max_rounds_names_the_value(env_file, capsys):
    assert main(["simulate", "--env", str(env_file), "--budget", "1",
                 "--max-rounds", "-1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter",
                       "message": "max_rounds must be >= 0, got -1"}


@pytest.mark.parametrize("field, value, message", [
    ("prior", ["0.5", 0.5], "prior[0] must be a number, got '0.5'"),
    ("prior", [True, 0], "prior[0] must be a number, got True"),
    ("likelihood", [[["0.8", 0.2], [0.6, 0.4]]], "likelihood[0][0][0] must be a number, got '0.8'"),
], ids=["string-prior", "boolean-prior", "string-likelihood"])
def test_simulate_names_a_probability_that_is_not_a_json_number(tmp_path, capsys, field, value,
                                                                 message):
    # numpy would read "0.5" as 0.5 and true as 1.0, and the episode would run
    env = {**asym_binary_env().to_json_dict(), field: value}
    (tmp_path / "env.json").write_text(json.dumps(env))
    assert main(["simulate", "--env", str(tmp_path / "env.json"), "--budget", "2"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidDistribution", "message": message}


# ---------------------------------------------------------------------------
# non-finite grid entries

@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_contour_names_the_non_finite_grid_column(tmp_path, capsys, column, value):
    assert main(["sweep", "--panel", "D", "--omega-steps", "4", "--n-steps", "3",
                 "--out", str(tmp_path / "grid.csv")]) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    fields = lines[1].split(",")  # the first omega cell, which sizes the omega axis
    fields[column] = value
    lines[1] = ",".join(fields)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["contour", "--grid", str(tmp_path / "bad.csv"),
                 "--out", str(tmp_path / "c.json")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    name = ("omega", "axis2", "eta_first", "eta_second", "delta_eta")[column]
    assert payload == {"error": "MalformedGrid",
                       "message": f"{name} contains non-finite values"}


@pytest.mark.parametrize("omega, axis2, message", [
    ((-1.0, 2.0), (1.0, 2.0), "omega must be > 0 and strictly increasing along each row"),
    ((2.0, 1.0), (1.0, 2.0), "omega must be > 0 and strictly increasing along each row"),
    ((1.0, 2.0), (2.0, 1.0), "axis2 must be strictly increasing between rows"),
], ids=["negative-omega", "decreasing-omega", "decreasing-axis2"])
def test_contour_rejects_a_grid_sweep_could_not_write(tmp_path, capsys, omega, axis2, message):
    rows = [f"{o!r},{a!r},0.5,0.5,0.0" for a in axis2 for o in omega]
    (tmp_path / "bad.csv").write_text("omega,axis2,eta_first,eta_second,delta_eta\n"
                                      + "\n".join(rows) + "\n")
    assert main(["contour", "--grid", str(tmp_path / "bad.csv"),
                 "--out", str(tmp_path / "c.json")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "MalformedGrid", "message": message}
    assert not (tmp_path / "c.json").exists()


# ---------------------------------------------------------------------------
# toy-law ranges: the message names the field

@pytest.mark.parametrize("panel, flags, message", [
    ("D", ["--alpha-gen", "-1"], "alpha_gen must be >= 0, got -1.0"),
    ("D", ["--omega-min", "-1"], "omega_min must be finite and > 0, got -1.0"),
    ("D", ["--n-min", "5", "--n-max", "2"], "n axis minimum must be below maximum, got 5.0"),
    ("A", ["--cspec-max", "2"], "c_spec axis maximum must be <= 1, got 2.0"),
    ("D", ["--n-min", "0.5"], "n axis minimum must be >= 1, got 0.5"),
    # the maximum's own range is checked before the order, so the message names it
    ("D", ["--n-max=-1"], "n axis maximum must be >= 1, got -1.0"),
    ("A", ["--cspec-max=-1"], "c_spec axis maximum must be > 0, got -1.0"),
    ("A", ["--cspec-min", "0"], "c_spec axis minimum must be > 0, got 0.0"),
    # bounds too close to give distinct values fail before any grid is evaluated
    ("D", ["--n-min", "1", "--n-max", "1.000000000000001", "--n-steps", "50"],
     "n axis minimum and maximum are too close for 50 distinct steps, "
     "got 1.0 and 1.000000000000001"),
    ("D", ["--omega-min", "1", "--omega-max", "1.0000000000000002", "--omega-steps", "50"],
     "omega_min and omega_max are too close for 50 distinct steps, "
     "got 1.0 and 1.0000000000000002"),
    # distinct as floats, but not in the grid file's 9 significant digits
    ("D", ["--n-min", "1", "--n-max", "1.0000001", "--n-steps", "200"],
     "n axis minimum and maximum are too close for 200 distinct steps, got 1.0 and 1.0000001"),
    ("D", ["--omega-min", "1", "--omega-max", "1.000000001", "--omega-steps", "50"],
     "omega_min and omega_max are too close for 50 distinct steps, got 1.0 and 1.000000001"),
    # a flag of the axis the pair does not sweep is refused, not dropped
    ("A", ["--n-max", "0.5"], "--n-max does not apply to the c_spec axis"),
    ("B", ["--n-steps", "3"], "--n-steps does not apply to the c_spec axis"),
    ("D", ["--cspec-min", "0.5"], "--cspec-min does not apply to the n axis"),
    ("F", ["--cspec-max", "1"], "--cspec-max does not apply to the n axis"),
])
def test_sweep_range_error_names_the_field(tmp_path, capsys, monkeypatch, panel, flags,
                                           message):
    monkeypatch.setattr(cli, "sweep", lambda *a: pytest.fail("the grid was evaluated"))
    assert main(["sweep", "--panel", panel, "--out", str(tmp_path / "grid.csv"), *flags]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter", "message": message}


@pytest.mark.parametrize("omega_steps", [2, 3, 200])
@pytest.mark.parametrize("panel", sorted(cli._PANELS))
def test_contour_of_a_sweep_file_gives_the_sweep_contours(tmp_path, capsys, panel,
                                                           omega_steps):
    # the file's omega axis is read on the log scale sweep evaluated it on, at any size
    csv, out = tmp_path / "grid.csv", tmp_path / "c.json"
    assert main(["sweep", "--panel", panel, "--omega-steps", str(omega_steps),
                 "--out", str(csv)]) == 0
    assert main(["contour", "--grid", str(csv), "--out", str(out)]) == 0
    pair, preset = cli._PANELS[panel]
    kind = pair.axis_kind
    second = SecondAxis(kind, *((0.05, 1.0) if kind == "c_spec" else (1.0, 20.0)), 100)
    grid = sweep(pair, preset(), SweepAxes(second, omega_steps=omega_steps))
    lines = [np.array(line) for line in json.loads(out.read_text())["polylines"]]
    assert len(grid.contours) == (panel not in "AC")  # symmetric A and C: no sign change
    assert [line.shape for line in lines] == [line.shape for line in grid.contours]
    for got, want in zip(lines, grid.contours):
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0.0)


def test_contour_reads_a_linear_omega_axis_on_a_log_scale(tmp_path, capsys):
    # delta crosses zero halfway between omega 1 and 2: at sqrt(2) in log omega, not 1.5
    path = tmp_path / "linear.csv"
    path.write_text("omega,axis2,eta_first,eta_second,delta_eta\n" + "".join(
        f"{w},{a},0.5,0.5,{d}\n" for a in (1, 2) for w, d in ((1, -0.5), (2, 0.5), (3, 0.5))))
    assert main(["contour", "--grid", str(path), "--out", str(tmp_path / "c.json")]) == 0
    (line,) = json.loads((tmp_path / "c.json").read_text())["polylines"]
    assert line == [[pytest.approx(math.sqrt(2.0), rel=1e-15), 1.0],
                    [pytest.approx(math.sqrt(2.0), rel=1e-15), 2.0]]


def test_contour_reads_a_grid_whose_steps_differ_only_in_the_ninth_digit(tmp_path):
    # steps of 5e-8 on n: the written axis2 texts 1, 1.00000005, 1.0000001, ... stay distinct
    grid = tmp_path / "g.csv"
    assert main(["sweep", "--panel", "D", "--n-min", "1", "--n-max", "1.00001",
                 "--n-steps", "200", "--out", str(grid)]) == 0
    assert main(["contour", "--grid", str(grid), "--out", str(tmp_path / "c.json")]) == 0
    assert read_grid_csv(grid).axis2.size == 200


# ---------------------------------------------------------------------------
# the toy law past the float range

def test_sweep_with_a_huge_gamma_reaches_the_c_min_limit(tmp_path, capsys):
    # 20**400 overflows a float; the law's limit there is c_fed = c_min
    out = tmp_path / "d.csv"
    assert main(["sweep", "--panel", "D", "--gamma", "400", "--out", str(out)]) == 0
    grid = read_grid_csv(out)
    n = grid.axis2[grid.axis2 > 1.0]
    assert n.size == grid.axis2.size - 1
    assert all(c_fed(float(v), 0.05, 400.0) == 0.05 for v in n)
    ceiling = np.minimum(0.05 / grid.omega, 1.0 / 1.4)  # panel D: alpha_fed = 0.4
    assert np.allclose(grid.eta_first[grid.axis2 > 1.0], ceiling, rtol=1e-8, atol=0.0)


# ---------------------------------------------------------------------------
# the environment's intervention count

@pytest.mark.parametrize("count", [1.5, math.nan, 1e300])
def test_simulate_rejects_a_non_integral_intervention_count(tmp_path, capsys, count):
    env = noiseless_binary_env().to_json_dict()
    env["interventions"] = count
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    assert main(["simulate", "--env", str(path), "--budget", "1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DimensionMismatch"
    assert "interventions" in payload["message"]


@pytest.mark.parametrize("count, message", [
    (1e300, "interventions must be an integral count in [0, 2**53], got 1e+300"),
    (3, "declared 3 interventions but likelihood has 1"),
    (3.0, "declared 3 interventions but likelihood has 1"),
])
def test_simulate_prints_the_declared_intervention_count(tmp_path, capsys, count, message):
    env = asym_binary_env().to_json_dict()
    env["interventions"] = count
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    assert main(["simulate", "--env", str(path), "--budget", "1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "DimensionMismatch", "message": message}


# ---------------------------------------------------------------------------
# main may be called many times in one process, on one parser

def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_main_keeps_no_flag_from_an_earlier_call(env_file, capsys):
    argv = ["simulate", "--env", str(env_file), "--budget", "2", "--policy", "roundrobin"]
    assert main([*argv, "--units", "bits", "--max-rounds", "1"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    fresh = subprocess.run([sys.executable, "-m", "thermosci.cli", *argv],
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert capsys.readouterr().out == fresh.stdout


def test_main_runs_after_a_rejected_call(env_file, capsys):
    argv = ["simulate", "--env", str(env_file), "--budget", "2", "--policy", "roundrobin"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-such-flag"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: thermosci")
    assert main(argv) == 0
    assert capsys.readouterr().out == before


_MAIN_THEN_MODULES = """
import sys
from thermosci.cli import main
code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("policy", ["greedy", "roundrobin", "random"])
def test_sampled_simulate_does_not_import_numpy_random(tmp_path, policy):
    # the draws are counter-based uint64 arithmetic; importing numpy.random would add about
    # 5.5 MB of resident memory to every sampled run
    argv = ["simulate", "--env", str(_readme_env_file(tmp_path)), "--budget", "2",
            "--policy", policy, "--mode", "sampled:100", "--seed", "7",
            "--out", str(tmp_path / "ledger.json")]
    fresh = subprocess.run([sys.executable, "-c", _MAIN_THEN_MODULES, *argv],
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines()[-1] == "0 False"


# ---------------------------------------------------------------------------
# fuzz gate: every numeric flag of simulate and sweep, one bad value at a time

def _numeric_flags():
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [(command, action.option_strings[0], action.dest)
            for command in ("simulate", "sweep")
            for action in commands[command]._actions if action.type in (int, float)]


#: the field a flag's error names, where that is not the flag's dest
_FIELD = {"delta_f": "delta_f_mem", "cmin": "c_min",
          "n_min": "n axis", "n_max": "n axis", "n_steps": "n axis steps",
          "cspec_min": "c_spec axis", "cspec_max": "c_spec axis",
          "cspec_steps": "c_spec axis steps"}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_numeric_flags()), st.sampled_from(["nan", "inf", "-inf", "-1", "huge"]))
def test_numeric_flags_fail_by_name(tmp_path_factory, flag, value):
    command, option, dest = flag
    if value == "huge":
        value = "1000000000" if dest.endswith("steps") else "1e308"
    out = tmp_path_factory.getbasetemp() / "fuzz"
    out.mkdir(exist_ok=True)
    if command == "simulate":
        env = out / "env.json"
        env.write_text(json.dumps(asym_binary_env().to_json_dict()))
        argv = ["simulate", "--env", str(env), "--budget", "1", "--max-rounds", "20"]
    else:  # the c_spec flags shape only the c_spec axis of panel A
        argv = ["sweep", "--panel", "A" if "cspec" in dest else "D", "--out", str(out / "g.csv")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, f"{option}={value}"])  # "=": argparse takes -inf as a value
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    if code == 2:
        err = stderr.getvalue()
        assert _FIELD.get(dest, dest) in err or option in err, err


@pytest.mark.parametrize("flag, typed, message", [
    ("--budget", "-1", "budget must be >= 0, got -1.0"),
    ("--delta-f", "-0.5", "delta_f_mem must be finite and >= 0, got -0.5"),
])
def test_simulate_bits_error_shows_the_typed_value(env_file, capsys, flag, typed, message):
    argv = ["simulate", "--env", str(env_file), "--budget", "1", "--units", "bits"]
    assert main(argv + [flag, typed]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter", "message": message}


def test_simulate_rejects_too_many_trials_before_running(env_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_episode", lambda *a, **k: pytest.fail("the episode ran"))
    assert main(["simulate", "--env", str(env_file), "--budget", "1",
                 "--mode", "sampled:10000001"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "InvalidParameter",
                       "message": "trials must be <= 10000000, got 10000001"}

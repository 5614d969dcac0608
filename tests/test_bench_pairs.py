"""``tools/bench_pairs.py`` without perfbench: spreads, summaries, shas and workload choice."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


#: the end_to_end list of BENCHMARK.json, for the one metric these results carry
E2E = [{"name": "pass_cal", "unit": "cal", "better": "lower", "bound": 0.25}]


def _result(pass_cal, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"pass_cal": {"value": pass_cal, "unit": "cal"}}}


def test_spread_gives_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "runs": [5.0, 1.0, 3.0, 2.0, 4.0]}


def test_summarise_counts_pair_wins_and_failures():
    results = {"parent": [_result(4.0), _result(3.0), _result(5.0)],
               "change": [_result(3.0), _result(3.0), _result(2.0, failed=1)]}
    summary = bench_pairs.summarise(results, E2E)
    assert summary["pairs"] == 3
    assert summary["correct_all_runs"] is True
    assert summary["attempted_jobs"] == {"parent": 30, "change": 30}
    assert summary["failed_jobs"] == {"parent": 0, "change": 1}
    metric = summary["metrics"]["pass_cal"]
    assert metric["change_lower_in_pairs"] == 2  # the tie in pair 2 counts for neither
    assert metric["parent"]["median"] == 4.0 and metric["change"]["median"] == 3.0
    assert metric["change_over_parent_median"] == 0.75


def test_summarise_gives_the_median_of_per_pair_ratios():
    results = {"parent": [_result(4.0), _result(2.0), _result(10.0)],
               "change": [_result(2.0), _result(3.0), _result(9.0)]}
    metric = bench_pairs.summarise(results, E2E)["metrics"]["pass_cal"]
    assert metric["change_over_parent_pair_median"] == 0.9  # of 0.5, 1.5 and 0.9
    assert metric["change_over_parent_median"] == 0.75  # 3.0 over 4.0


def test_pair_interval_lies_below_one_when_the_change_reads_lower_in_every_pair():
    parent = [10.0, 11.0, 9.5, 10.2, 12.0, 9.8, 10.4, 10.1, 11.5, 9.9]
    change = [p * r for p, r in zip(parent, (0.8, 0.95, 0.7, 0.9, 0.85, 0.99, 0.75, 0.9,
                                              0.8, 0.97))]
    results = {"parent": [_result(v) for v in parent], "change": [_result(v) for v in change]}
    metric = bench_pairs.summarise(results, E2E)["metrics"]["pass_cal"]
    lo, hi = metric["change_over_parent_pair_ci95"]
    assert 0.7 <= lo <= hi < 1.0


def test_pair_interval_is_the_same_on_every_call():
    results = {"parent": [_result(v) for v in (4.0, 2.0, 10.0, 3.0, 7.0)],
               "change": [_result(v) for v in (2.0, 3.0, 9.0, 3.3, 6.0)]}
    first, again = (bench_pairs.summarise(results, E2E)["metrics"]["pass_cal"]
                    ["change_over_parent_pair_ci95"] for _ in range(2))
    assert first == again
    assert first[0] < 0.9 < first[1]  # brackets the median ratio


@pytest.mark.parametrize("parent, change, better, expected", [
    # better in 9 of 10 pairs, median lower by 2.0 against a parent IQR of 1.5
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 12], [8, 9, 8, 9, 8, 9, 8, 9, 8, 13], "lower", "gain"),
    # a tie counts for neither side: better in 8, one tie, worse in 1
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 12], [8, 9, 8, 9, 8, 9, 8, 9, 10, 13], "lower",
     "no worse"),
    # better in every pair, but the medians differ by less than the parent's IQR
    ([10, 12, 10, 12, 10, 12, 10, 12, 10, 12], [9.9, 11.9] * 5, "lower", "no worse"),
    # the same runs for a metric where higher is better
    ([8, 9, 8, 9, 8, 9, 8, 9, 8, 13], [10, 11, 10, 11, 10, 11, 10, 11, 10, 12], "higher",
     "gain"),
    ([10.0] * 10, [12.6] * 10, "lower", "regression"),  # 26% worse, past the bound of 25%
    ([10.0] * 10, [12.4] * 10, "lower", "no worse"),  # 24% worse, within it
    ([10.0] * 10, [7.4] * 10, "higher", "regression"),
    # the parent's runs spread wider than the bound; the change's do not all beat them
    ([6, 14, 6, 14, 6, 14, 6, 14, 6, 14], [10.0] * 10, "lower", "unresolved"),
    # ... unless every change run beats every parent run (the medians differ by 9.5,
    # less than the parent's IQR of 10, so it is no gain)
    ([20, 30, 20, 30, 20, 30, 20, 30, 20, 30], [15.0, 16.0] * 5, "lower", "no worse"),
])
def test_verdict_follows_the_rules(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25) == expected


def test_summarise_gives_a_verdict_only_to_metrics_with_a_bound():
    results = {side: [{"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"pass_cal": {"value": v, "unit": "cal"},
                                   "cli.main.self_ms": {"value": v, "unit": "ms"}}}
                      for v in (1.0, 1.0)] for side in bench_pairs.SIDES}
    metrics = bench_pairs.summarise(results, E2E)["metrics"]
    assert metrics["pass_cal"]["verdict"] == "no worse"
    assert "verdict" not in metrics["cli.main.self_ms"]


def test_summarise_reports_an_incorrect_run():
    results = {"parent": [_result(1.0), _result(1.0)],
               "change": [_result(1.0), _result(1.0, correct=False)]}
    assert bench_pairs.summarise(results, E2E)["correct_all_runs"] is False


def _git(cwd, *args):
    return subprocess.run(["git", "-C", str(cwd), "-c", "user.name=bench",
                           "-c", "user.email=bench@example.com", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture()
def repo(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q")
    (root / "BENCHMARK.json").write_text("{}\n")
    _git(root, "add", "BENCHMARK.json")
    _git(root, "commit", "-q", "-m", "first")
    return root


def test_checkout_sha_reads_the_head_of_a_git_checkout(repo):
    assert bench_pairs.checkout_sha(str(repo)) == _git(repo, "rev-parse", "HEAD")


def test_checkout_sha_is_none_for_a_plain_directory(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.checkout_sha(str(plain)) is None


def test_checkout_sha_reads_a_worktree_whose_git_is_a_file(repo):
    tree = repo.parent / "tree"
    _git(repo, "worktree", "add", "-q", "--detach", str(tree), "HEAD")
    assert (tree / ".git").is_file()
    assert bench_pairs.checkout_sha(str(tree)) == _git(repo, "rev-parse", "HEAD")


def test_checkout_sha_ignores_the_repository_around_a_plain_copy(repo):
    copy = repo / "copy"  # as a git archive export unpacked inside another checkout
    copy.mkdir()
    (copy / "BENCHMARK.json").write_text("{}\n")
    assert bench_pairs.checkout_sha(str(copy)) is None


def _checkouts(tmp_path):
    spec = {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
            "end_to_end": E2E}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pr", "0", "--pairs", "2"]


def _fake_runs(monkeypatch, tmp_path) -> list:
    ran = []

    def fake_run_once(checkout, workload, seed, seconds):  # no perfbench process
        ran.append((pathlib.Path(checkout).name, workload))
        return _result(1.0), {"host": "test"}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    return ran


def test_main_runs_only_the_named_workloads_in_file_order(tmp_path, monkeypatch):
    ran = _fake_runs(monkeypatch, tmp_path)
    argv = _checkouts(tmp_path) + ["--workload", "c", "--workload", "a", "--workload", "c"]
    assert bench_pairs.main(argv) == 0
    assert [w for _, w in ran] == ["a"] * 4 + ["c"] * 4
    assert [side for side, _ in ran[:4]] == ["parent", "change", "change", "parent"]
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert sorted(bench["workloads"]) == ["a/seed1", "c/seed1"]


def test_main_runs_every_workload_by_default(tmp_path, monkeypatch):
    ran = _fake_runs(monkeypatch, tmp_path)
    assert bench_pairs.main(_checkouts(tmp_path)) == 0
    assert [w for _, w in ran] == ["a"] * 4 + ["b"] * 4 + ["c"] * 4


def test_main_gives_identical_sides_the_pair_interval_one(tmp_path, monkeypatch):
    _fake_runs(monkeypatch, tmp_path)  # every run of either side reads 1.0
    assert bench_pairs.main(_checkouts(tmp_path)) == 0
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    for entry in bench["workloads"].values():
        assert entry["metrics"]["pass_cal"]["change_over_parent_pair_ci95"] == [1.0, 1.0]
    assert "bootstrap" in bench["method"]


def test_main_rejects_an_unknown_workload_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_checkouts(tmp_path) + ["--workload", "a", "--workload", "zz"])
    assert exc.value.code == 2
    assert "unknown workload zz; BENCHMARK.json has a, b, c" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_0.json").exists()


@pytest.mark.parametrize("git_side", bench_pairs.SIDES)
def test_main_refuses_a_git_checkout_against_a_plain_copy(repo, tmp_path, monkeypatch, capsys,
                                                          git_side):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.chdir(tmp_path)
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "BENCHMARK.json").write_text("{}\n")
    sides = {side: str(repo if side == git_side else plain) for side in bench_pairs.SIDES}
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", sides["parent"], "--change", sides["change"],
                          "--pr", "0", "--pairs", "2"])
    assert exc.value.code == 2
    kinds = {side: "git working tree" if side == git_side else "plain copy"
             for side in bench_pairs.SIDES}
    assert (f"--parent is a {kinds['parent']} but --change is a {kinds['change']}; "
            "compare checkouts of one kind") in capsys.readouterr().err
    assert not (tmp_path / "BENCH_0.json").exists()


def test_main_keeps_the_runs_in_pair_order_and_names_who_ran_first(tmp_path, monkeypatch):
    values = iter([3.0, 2.0, 1.0, 5.0, 4.0, 6.0])  # pairs 1 and 3 run the parent first

    def fake_run_once(checkout, workload, seed, seconds):
        return _result(next(values)), {"host": "test"}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    argv = _checkouts(tmp_path)[:-1] + ["3", "--workload", "a"]
    assert bench_pairs.main(argv) == 0
    entry = json.loads((tmp_path / "BENCH_0.json").read_text())["workloads"]["a/seed1"]
    assert entry["first_in_pair"] == ["parent", "change", "parent"]
    metric = entry["metrics"]["pass_cal"]
    assert metric["parent"]["runs"] == [3.0, 5.0, 4.0]
    assert metric["change"]["runs"] == [2.0, 1.0, 6.0]
    assert metric["change_lower_in_pairs"] == 2
    assert metric["change_over_parent_pair_median"] == 0.6667  # of 2/3, 1/5 and 6/4


def _with_control(tmp_path) -> list[str]:
    argv = _checkouts(tmp_path)
    control = tmp_path / "twin01"  # as long a path as tmp_path / "parent"
    control.mkdir()
    (control / "BENCHMARK.json").write_text((tmp_path / "parent" / "BENCHMARK.json").read_text())
    return argv + ["--control", str(control)]


def test_main_runs_the_control_beside_the_parent_and_gives_identical_sides_one(tmp_path,
                                                                                 monkeypatch):
    ran = _fake_runs(monkeypatch, tmp_path)  # every run of every side reads 1.0
    assert bench_pairs.main(_with_control(tmp_path) + ["--workload", "a"]) == 0
    assert [side for side, _ in ran] == ["twin01", "parent", "change",
                                         "change", "parent", "twin01"]
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    entry = bench["workloads"]["a/seed1"]
    assert entry["first_in_pair"] == ["control", "change"]
    assert entry["failed_jobs"] == {"parent": 0, "change": 0, "control": 0}
    metric = entry["metrics"]["pass_cal"]
    assert metric["control"]["runs"] == [1.0, 1.0]
    assert metric["control_over_parent_pair_median"] == 1.0
    assert metric["control_over_parent_pair_ci95"] == [1.0, 1.0]
    assert metric["change_over_parent_pair_ci95"] == [1.0, 1.0]
    assert "A/A control" in bench["method"]


def test_summarise_gives_the_control_the_change_s_bootstrap():
    parent = [4.0, 2.0, 10.0, 3.0, 7.0]
    other = [2.0, 3.0, 9.0, 3.3, 6.0]
    results = {side: [_result(v) for v in runs]
               for side, runs in (("parent", parent), ("change", other), ("control", other))}
    metric = bench_pairs.summarise(results, E2E)["metrics"]["pass_cal"]
    assert metric["control_over_parent_pair_median"] == metric["change_over_parent_pair_median"]
    assert metric["control_over_parent_pair_ci95"] == metric["change_over_parent_pair_ci95"]


def test_main_leaves_the_control_out_without_the_flag(tmp_path, monkeypatch):
    _fake_runs(monkeypatch, tmp_path)
    assert bench_pairs.main(_checkouts(tmp_path) + ["--workload", "a"]) == 0
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    entry = bench["workloads"]["a/seed1"]
    assert set(entry["failed_jobs"]) == {"parent", "change"}
    assert not any(key.startswith("control") for key in entry["metrics"]["pass_cal"])
    assert "control" not in bench["method"]


def test_main_refuses_a_control_at_a_path_of_another_length(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.chdir(tmp_path)
    argv = _with_control(tmp_path)
    (tmp_path / "twin001").mkdir()
    (tmp_path / "twin001" / "BENCHMARK.json").write_text((tmp_path / "twin01" /
                                                          "BENCHMARK.json").read_text())
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv[:-1] + [str(tmp_path / "twin001")])
    assert exc.value.code == 2
    assert "--control and --parent must be paths of the same length" in capsys.readouterr().err


def test_main_refuses_a_control_at_another_commit(repo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.chdir(tmp_path)
    twin = tmp_path / "twin"  # as long a path as tmp_path / "repo"
    _git(repo, "worktree", "add", "-q", "--detach", str(twin), "HEAD")
    _git(twin, "commit", "-q", "--allow-empty", "-m", "second")  # the same spec, a new sha
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(repo), "--change", str(repo), "--control", str(twin),
                          "--pr", "0", "--pairs", "2"])
    assert exc.value.code == 2
    assert "--control is at " in capsys.readouterr().err

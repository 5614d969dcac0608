"""Self-tests of the benchmark harness (not of thermosci).

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _snapshot(workload, seed, workdir):
    jobs = workloads.build(workload, seed, str(workdir))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    argv = [[a.replace(str(workdir), "<dir>") for a in job.argv] for job in jobs]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_other_seed_other_inputs(workload, tmp_path):
    a = _snapshot(workload, 7, tmp_path / "a")
    b = _snapshot(workload, 7, tmp_path / "b")
    c = _snapshot(workload, 8, tmp_path / "c")
    assert a == b
    assert a != c


def _span(sid, parent, start, end, leaves=None):
    return {"trace": "t", "id": sid, "parent": parent, "name": f"s{sid}",
            "start": start, "end": end, "attrs": {}, "leaves": leaves or {}}


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, leaves={"leaf": [3, 0.5]}),
        _span(2, 0, 3.0, 6.0),          # overlaps span 1: covered once
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 8.0, 12.0),         # runs past its parent: clipped at 10
    ]
    st = spans.self_times(tree)
    assert st[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert st[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(4.0)


@pytest.fixture(scope="module")
def cli():
    return worker.import_program(ROOT)


def test_trace_file_round_trips_line_by_line(cli, tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps(workloads.README_ENV))
    job = workloads.simulate_job("t", str(tmp_path), str(env), "greedy", 5.0,
                                 "sampled:50", 3, 1)
    tracer = spans.Tracer()
    with tracer.installed():
        _, rc, _ = worker.run_job(cli, job)
    assert rc == 0
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "cycle_sim.run_episode", "bounds.bound_report"} <= names
    path = tmp_path / "trace.jsonl"
    spans.write_jsonl(str(path), tracer.spans)
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == tracer.spans
    layers = spans.layer_metrics(tracer.spans, tracer.orphan_leaves)
    assert set(layers) == set(spans.LAYER_NAMES)
    assert layers["cycle_sim.policy.choose.calls"] == 50 * 3
    assert layers["cycle_sim.sampled.trials"] == 50


def test_wrong_golden_digest_fails_the_job_without_crashing(cli, tmp_path):
    with open(worker.GOLDEN_PATH) as fh:
        golden = json.load(fh)
    panel_a = [job for job in workloads.build("phase-diagram", 1, str(tmp_path))
               if job.spec.get("panel") == "A"]
    tally = worker.Tally()
    worker.run_passes(cli, panel_a, 0.0, golden, tally)
    assert tally.attempted == 2 and tally.failures == []

    golden["panels"]["A"]["svg"] = "0" * 64
    tally = worker.Tally()
    worker.run_passes(cli, panel_a, 0.0, golden, tally)
    assert tally.attempted == 2
    assert len(tally.failures) == 1 and "svg sha256" in tally.failures[0]

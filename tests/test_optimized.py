"""The invariants are raised as errors, never asserted, so they hold under ``python -O``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from thermosci.cli import main

from helpers import noiseless_binary_env
from test_validator_messages import CASES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    """``python -O -W error::RuntimeWarning`` on ``args``, importing this checkout's
    package and test modules."""
    path = os.pathsep.join(p for p in (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-W", "error::RuntimeWarning", *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_no_assert_statement_in_the_package():
    modules = sorted((SRC / "thermosci").glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_ledger_below_its_work_floor_exits_2_under_python_O(tmp_path):
    env_path, ledger_path = tmp_path / "env.json", tmp_path / "ledger.json"
    env_path.write_text(json.dumps(noiseless_binary_env().to_json_dict()))
    assert main(["simulate", "--env", str(env_path), "--budget", "2",
                 "--out", str(ledger_path)]) == 0
    ledger = json.loads(ledger_path.read_text())
    record = ledger["records"][0]
    assert record["info_gain"] > 0.0
    record["work_meas"] = record["info_gain"] / 2  # below the measurement floor
    ledger_path.write_text(json.dumps(ledger))
    proc = _run_optimized("-m", "thermosci.cli", "verify", "--scope", "bounds", "--seed", "1",
                          "--ledger", str(ledger_path))
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "InvalidLedger"
    assert "measurement work" in payload["message"]


def test_validator_messages_hold_under_python_O():
    proc = _run_optimized("-c", "import json, test_validator_messages as t; "
                                "print(json.dumps([t.raised(c.values[0]) for c in t.CASES]))")
    assert proc.returncode == 0, proc.stderr
    want = [list(case.values[1:]) for case in CASES]
    assert json.loads(proc.stdout) == want

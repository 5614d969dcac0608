"""The invariants are raised as errors, never asserted, so they hold under ``python -O``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from thermosci.cli import main

from helpers import noiseless_binary_env

SRC = Path(__file__).resolve().parents[1] / "src"


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
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-m", "thermosci.cli", "verify", "--scope",
                           "bounds", "--seed", "1", "--ledger", str(ledger_path)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert payload["error"] == "InvalidLedger"
    assert "measurement work" in payload["message"]

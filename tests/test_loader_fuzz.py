"""Loader fuzz gate: one leaf of a valid document changed at a time.

For the env (``simulate --env``), ledger (``verify --ledger``) and scenario
(``verify --scenario``) files, and for ``PartitionSpec.from_json_dict``
in-process, no traceback may escape; an exit of 2 must name the changed
leaf's path; NaN, +-Infinity, strings and ``10**400`` must exit 2. One string
is the leaf's own value written as a JSON string, such as ``"0.5"``: unlike
``"5"``, it keeps a probability vector's sum at one. A check
across entries, such as a sum over records, names the path with ``[*]`` for
the index. The grid CSV (``contour --grid``) gets one cell or line edit at a
time instead: it must read as a ``SweepGrid`` or raise ``MalformedGrid``,
with no warning.
"""

import contextlib
import copy
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermosci.cli import main
from thermosci.errors import MalformedGrid, ThermosciError
from thermosci.strategies import PartitionSpec
from thermosci.toy_model import (
    Pair,
    SecondAxis,
    SweepAxes,
    SweepGrid,
    ToyParams,
    read_grid_csv,
    sweep,
    write_grid_csv,
)

from helpers import asym_binary_env

#: stands for the changed leaf's own value written as a JSON string
OWN_AS_STRING = "<own value as a JSON string>"
#: each value a leaf may become; 1.5 stands in for a count that is not integral
VALUES = (math.nan, math.inf, -math.inf, -1, 1e308, 10**400, "5", True, 1.5, OWN_AS_STRING)

ENV = asym_binary_env().to_json_dict()
SCENARIO = {"h0": 0.69, "beta_w": 3.0, "sum_hy": 1.0,
            "subdomains": [{"p": 0.5, "h": 0.1, "beta_w": 3.0, "sum_hy": 0.5},
                           {"p": 0.5, "h": 0.1, "beta_w": 3.0, "sum_hy": 0.5}]}
PARTITIONS = ({"masses": [0.5, 0.5], "conditional_priors": [[0.5, 0.5], [1.0, 0.0]],
               "entropies": [math.log(2.0), 0.0], "budgets": [1.0, 2.0]},
              {"masses": [0.25, 0.75], "conditional_priors": None, "entropies": [0.5, 0.1],
               "budgets": [1.0, 2.0]})


def _leaves(doc, path=""):
    """Paths of every scalar in ``doc``, as the loaders name them: ``records[0].round``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path


def _changed(doc, path: str, value):
    """A deep copy of ``doc`` with the leaf at ``path`` set to ``value``, or for
    ``OWN_AS_STRING`` to its own value as a JSON string."""
    out = copy.deepcopy(doc)
    *parents, last = (int(token[1:-1]) if token.startswith("[") else token
                      for token in re.findall(r"[^.\[\]]+|\[\d+\]", path))
    target = out
    for key in parents:
        target = target[key]
    target[last] = json.dumps(target[last]) if value == OWN_AS_STRING else value
    return out


def _names_leaf(message: str, path: str) -> bool:
    """Whether ``message`` names ``path``: its trailing list indices dropped (a vector
    is named as a whole), and any other index given as itself or as ``[*]``."""
    path = re.sub(r"(\[\d+\])+$", "", path)
    pattern = re.sub(r"\\\[(\d+)\\\]", r"\\[(?:\1|\\*)\\]", re.escape(path))
    return re.search(pattern, message) is not None


def _must_exit_2(path: str, value) -> bool:
    if path == "budget_total" and value == math.inf:
        return False  # a ledger's Infinity budget_total is an unbounded budget
    return (isinstance(value, str) or value == 10**400
            or (isinstance(value, float) and not math.isfinite(value)))


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(code: int, message: str, path: str, value):
    if code == 2:
        assert _names_leaf(message, path), (path, value, message)
    if _must_exit_2(path, value):
        assert code == 2, (path, value, code)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "env.json").write_text(json.dumps(ENV))
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert _run(["simulate", "--env", str(root / "env.json"), "--budget", "3",
                 "--out", str(root / "ledger.json")])[0] == 0
    assert _run(["verify", "--scope", "toy", "--ledger", str(root / "ledger.json"),
                 "--scenario", str(root / "scenario.json")])[0] == 0
    return root


def _argv(kind: str, root, changed) -> list[str]:
    return {"env": ["simulate", "--env", str(changed), "--budget", "3"],
            "ledger": ["verify", "--scope", "toy", "--ledger", str(changed)],
            "scenario": ["verify", "--scope", "toy", "--ledger", str(root / "ledger.json"),
                         "--scenario", str(changed)]}[kind]


@pytest.mark.parametrize("kind", ["env", "ledger", "scenario"])
def test_a_changed_leaf_exits_2_by_its_path_or_loads(files, kind):
    base = json.loads((files / f"{kind}.json").read_text())

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path=st.sampled_from(list(_leaves(base))), value=st.sampled_from(VALUES))
    def check(path, value):
        changed = files / f"changed-{kind}.json"
        changed.write_text(json.dumps(_changed(base, path, value)))
        code, err = _run(_argv(kind, files, changed))  # a traceback fails the test here
        message = json.loads(err.strip().splitlines()[-1])["message"] if code == 2 else ""
        _check(code, message, path, value)

    check()


@pytest.mark.parametrize("base", PARTITIONS, ids=["with-priors", "entropies-only"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_changed_partition_leaf_raises_by_its_path_or_loads(base, data):
    path = data.draw(st.sampled_from(list(_leaves(base))))
    value = data.draw(st.sampled_from(VALUES))
    doc = json.loads(json.dumps(_changed(base, path, value)))  # as a JSON file gives it
    try:
        PartitionSpec.from_json_dict(doc)
        code, message = 0, ""
    except ThermosciError as exc:  # any other exception fails the test
        code, message = 2, str(exc)
    _check(code, message, path, value)


# ---------------------------------------------------------------------------
# one pinned test per loader the gate caught


def test_env_names_a_probability_past_the_float_range(files):
    env = _changed(ENV, "prior[0]", 10**400)  # numpy raised OverflowError
    (files / "big.json").write_text(json.dumps(env))
    code, err = _run(["simulate", "--env", str(files / "big.json"), "--budget", "3"])
    assert code == 2
    assert json.loads(err) == {"error": "InvalidDistribution",
                               "message": "prior contains non-finite entries"}


@pytest.mark.parametrize("path, value, message", [
    ("rounds", math.nan, "rounds must be an integral count in [0, 2**53], got nan"),
    ("rounds", 1.5, "rounds must be an integral count in [0, 2**53], got 1.5"),
    ("totals.work_meas", math.inf, "totals.work_meas must be finite, got inf"),
    ("units", "nat", "units must be 'nats' or 'bits', got 'nat'"),
], ids=["rounds-nan", "rounds-fraction", "totals-inf", "units"])
def test_ledger_names_a_field_it_used_to_skip(files, tmp_path, path, value, message):
    ledger = json.loads((files / "ledger.json").read_text())
    assert ledger["rounds"] == 4
    (tmp_path / "bad.json").write_text(json.dumps(_changed(ledger, path, value)))
    code, err = _run(["verify", "--scope", "toy", "--ledger", str(tmp_path / "bad.json")])
    assert code == 2
    assert json.loads(err) == {"error": "InvalidLedger", "message": message}


@pytest.mark.parametrize("path, value, part", [
    ("records[1].info_gain", 1e308, "below information gain records[1].info_gain 1e+308"),
    ("records[0].work_erase", 1.5, "the sum of records[*].work_meas and records[*].work_erase"),
], ids=["record-cross-check", "budget-spent-sum"])
def test_ledger_names_the_record_fields_a_cross_check_compares(files, tmp_path, path, value,
                                                                part):
    ledger = json.loads((files / "ledger.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps(_changed(ledger, path, value)))
    code, err = _run(["verify", "--scope", "toy", "--ledger", str(tmp_path / "bad.json")])
    assert code == 2
    assert part in json.loads(err)["message"]


@pytest.mark.parametrize("path, value, message", [
    ("subdomains[1].h", -1, "subdomains[1].h must be >= 0, got -1.0"),
    ("subdomains[0].p", 1.5, "subdomain masses subdomains[*].p sum to 2.0, not 1"),
], ids=["negative", "mass-sum"])
def test_scenario_names_the_subdomain_field(files, tmp_path, path, value, message):
    (tmp_path / "bad.json").write_text(json.dumps(_changed(SCENARIO, path, value)))
    code, err = _run(["verify", "--scope", "toy", "--ledger", str(files / "ledger.json"),
                      "--scenario", str(tmp_path / "bad.json")])
    assert code == 2
    assert json.loads(err) == {"error": "InvalidParameter", "message": message}


@pytest.mark.parametrize("path, value, message", [
    ("conditional_priors", 1.5, "conditional_priors must be a list, got 1.5"),
    ("masses[1]", 10**400, "masses contains non-finite entries"),
    ("masses[0]", "0.5", "masses[0] must be a number, got '0.5'"),
    ("conditional_priors[1][0]", True, "conditional_priors[1][0] must be a number, got True"),
], ids=["priors-not-a-list", "mass-past-the-float-range", "string-mass", "boolean-prior"])
def test_partition_names_the_field(path, value, message):
    with pytest.raises(ThermosciError) as info:
        PartitionSpec.from_json_dict(_changed(PARTITIONS[0], path, value))
    assert str(info.value) == message


@pytest.mark.parametrize("path, message", [
    ("masses", "masses sums to inf; expected 1 within 1e-09"),
    ("conditional_priors[0]", "conditional_priors[0] sums to inf; expected 1 within 1e-09"),
])
def test_partition_names_an_overflowing_sum_without_a_numpy_warning(path, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as under python -W error::RuntimeWarning
        with pytest.raises(ThermosciError) as info:
            PartitionSpec.from_json_dict(_changed(PARTITIONS[0], path, [1e308, 1e308]))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the grid CSV (``contour --grid``): one edit to a valid file at a time

#: what a cell may become: non-finite, not a number, past the float range, out of
#: range for its column, quoted, or two fields
GRID_TOKENS = ("nan", "inf", "-inf", "", "x", "1e400", "-1", "0", "-0", "2", '"0.5"', "1,2")
GRID_EDITS = ("cell", "drop-line", "repeat-line", "swap-with-last", "blank-line", "cut")


@pytest.fixture(scope="module")
def grid_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    axes = SweepAxes(SecondAxis("n", 1.0, 4.0, 3), omega_steps=4)
    write_grid_csv(sweep(Pair.FED_GEN, ToyParams.asymmetric(), axes), path)
    return path.read_text().splitlines(keepends=True)


def test_a_changed_grid_file_reads_as_a_grid_or_as_malformed(grid_lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("grid-fuzz") / "grid.csv"

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edit=st.sampled_from(GRID_EDITS), line=st.integers(0, len(grid_lines) - 1),
           column=st.integers(0, 4), token=st.sampled_from(GRID_TOKENS),
           cut=st.integers(0, sum(map(len, grid_lines))))
    def check(edit, line, column, token, cut):
        lines = list(grid_lines)  # line 0 is the header
        if edit == "cell":
            cells = lines[line].rstrip("\n").split(",")
            cells[column] = token
            lines[line] = ",".join(cells) + "\n"
        elif edit == "drop-line":
            del lines[line]
        elif edit == "repeat-line":
            lines.insert(line, lines[line])
        elif edit == "swap-with-last":
            lines[line], lines[-1] = lines[-1], lines[line]
        elif edit == "blank-line":
            lines.insert(line, "\r\n")
        text = "".join(lines)
        path.write_text(text[:cut] if edit == "cut" else text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the test
            try:
                grid = read_grid_csv(path)
            except MalformedGrid:  # any other exception fails the test
                return
        assert isinstance(grid, SweepGrid)

    check()


def test_grid_names_a_delta_past_its_range(grid_lines, tmp_path):
    cells = grid_lines[3].rstrip("\n").split(",")
    cells[4] = "2"  # SweepGrid raised InvalidParameter through the reader
    path = tmp_path / "grid.csv"
    path.write_text("".join(grid_lines[:3] + [",".join(cells) + "\n"] + grid_lines[4:]))
    with pytest.raises(MalformedGrid, match=re.escape("efficiency differences must lie in "
                                                      "[-1, 1]")):
        read_grid_csv(path)

"""The array-based grid CSV, marching squares and SVG against the per-cell oracle.

Every output must be byte-identical to ``oracle_files`` (the implementation
before the file layer became array code), and the CSV reader must parse to
exactly the floats that ``csv.reader`` plus ``float`` give.
"""

import gzip
import json
import math
import warnings

import numpy as np
import pytest

import oracle_files as oracle
from thermosci._marching import zero_isolines
from thermosci.cli import _PANELS, main
from thermosci.errors import InvalidParameter, MalformedGrid
from thermosci.render import render_heatmap_svg
from thermosci.toy_model import (
    GRID_CSV_HEADER,
    SecondAxis,
    SweepAxes,
    SweepGrid,
    ToyParams,
    read_grid_csv,
    sweep,
    write_grid_csv,
    zero_contours,
)


def _polylines_json(polylines) -> str:
    # the polyline text of the contour command's JSON
    return json.dumps([line.tolist() for line in polylines])


def _rows(grid: SweepGrid) -> np.ndarray:
    n_axis2, n_omega = grid.delta.shape
    return np.column_stack([np.tile(grid.omega, n_axis2), np.repeat(grid.axis2, n_omega),
                            grid.eta_first.ravel(), grid.eta_second.ravel(),
                            grid.delta.ravel()])


def _check_against_oracle(grid: SweepGrid, tmp_path) -> None:
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    write_grid_csv(grid, new_csv)
    oracle.write_grid_csv(grid, old_csv)
    assert new_csv.read_bytes() == old_csv.read_bytes()

    expected = oracle.zero_isolines(grid.delta, grid.omega, grid.axis2)
    assert _polylines_json(zero_contours(grid)) == _polylines_json(expected)

    new_svg, old_svg = tmp_path / "new.svg", tmp_path / "old.svg"
    render_heatmap_svg(grid, new_svg)
    oracle.render_heatmap_svg(grid, old_svg)
    assert new_svg.read_bytes() == old_svg.read_bytes()

    # the contour command's path: parse the CSV, then contour what was parsed
    parsed = read_grid_csv(new_csv)
    rows = oracle.read_grid_rows(new_csv)
    assert np.array_equal(_rows(parsed), rows)
    n_omega = grid.omega.size
    old_delta = rows[:, 4].reshape(-1, n_omega)
    expected = oracle.zero_isolines(old_delta, rows[:n_omega, 0], rows[::n_omega, 1])
    assert _polylines_json(zero_contours(parsed)) == _polylines_json(expected)


def _panel_grid(panel: str) -> SweepGrid:
    # the CLI defaults of ``sweep --panel``
    pair, preset = _PANELS[panel]
    params = preset(c_min=0.05, gamma=1.0)
    second = (SecondAxis("c_spec", 0.05, 1.0, 100) if pair.axis_kind == "c_spec"
              else SecondAxis("n", 1.0, 20.0, 100))
    return sweep(pair, params, SweepAxes(second))


@pytest.mark.parametrize("panel", sorted(_PANELS))
def test_panel_files_match_oracle(panel, tmp_path):
    _check_against_oracle(_panel_grid(panel), tmp_path)


def test_seeded_fed_gen_grid_matches_oracle(tmp_path):
    rng = np.random.default_rng(3)
    params = ToyParams(alpha_gen=rng.uniform(0.6, 1.0), alpha_fed=rng.uniform(0.1, 0.5),
                       alpha_spec=rng.uniform(0.1, 0.4))
    grid = sweep("fed-gen", params, SweepAxes(SecondAxis("n", 1.0, 20.0, 150),
                                              omega_steps=300))
    assert grid.contours
    _check_against_oracle(grid, tmp_path)


def _cases(values: np.ndarray) -> np.ndarray:
    v0, v1, v2, v3 = values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1]
    return (v0 > 0) + 2 * (v1 > 0) + 4 * (v2 > 0) + 8 * (v3 > 0)


def _random_delta(seed: int, shape=(23, 31)) -> np.ndarray:
    """Values in [-1, 1] with ~10% exact zeros (some negative) and forced saddles.

    About 10% of cells hold a quarter step (|delta| = 1 is among them, so
    ``delta / vmax`` is exact), which puts colour channels on exact .5 ties.
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-1.0, 1.0, shape)
    quarters = rng.random(shape) < 0.1
    delta[quarters] = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0],
                                 size=np.count_nonzero(quarters))
    delta[rng.random(shape) < 0.1] = 0.0
    delta[rng.random(shape) < 0.02] = -0.0
    # saddle cells on a sparse lattice: case 5 (+ - + -) or case 10 (- + - +)
    for j in range(0, shape[0] - 1, 4):
        for i in range(0, shape[1] - 1, 4):
            signs = np.array([1, -1, 1, -1]) * (1 if (i + j) % 8 == 0 else -1)
            mags = rng.uniform(0.05, 1.0, 4)
            delta[j, i], delta[j, i + 1], delta[j + 1, i + 1], delta[j + 1, i] = signs * mags
    cases = _cases(delta)
    assert (cases == 5).any() and (cases == 10).any()
    assert np.count_nonzero(delta == 0.0) > 0.05 * delta.size
    assert np.max(np.abs(delta)) == 1.0
    return delta


def _random_grid(seed: int) -> SweepGrid:
    delta = _random_delta(seed)
    ny, nx = delta.shape
    rng = np.random.default_rng(seed + 1000)
    eta_first = rng.uniform(0.0, 1.0, delta.shape)
    return SweepGrid(None, None, np.geomspace(1e-2, 1e2, nx), np.linspace(1.0, 20.0, ny), "n",
                     eta_first, eta_first - delta, delta)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_grid_files_match_oracle(seed, tmp_path):
    grid = _random_grid(seed)
    assert grid.contours
    _check_against_oracle(grid, tmp_path)


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_random_isolines_match_oracle(seed):
    delta = _random_delta(seed, shape=(17, 13))
    x_axis, y_axis = np.geomspace(0.1, 10.0, 13), np.linspace(0.0, 1.0, 17)
    got = zero_isolines(delta, x_axis, y_axis)
    expected = oracle.zero_isolines(delta, x_axis, y_axis)
    assert _polylines_json(got) == _polylines_json(expected)


@pytest.mark.parametrize("omega", [(1.0000000049999999e-300, 1.000000005e-300),
                                   (1.000000005e300, 1.0000000050000001e300)],
                         ids=["1e-300", "1e+300"])
def test_svg_of_an_omega_axis_whose_ends_share_one_log(omega, tmp_path):
    # two omegas distinct at the file's 9 digits, astride a rounding boundary, whose
    # math.log is the same float
    omega = np.array(omega)
    assert math.log(omega[0]) == math.log(omega[1])
    assert f"{omega[0]:.9g}" != f"{omega[1]:.9g}"
    arrays = {k: np.array([[0.5, -0.5], [-0.5, 0.5]]) for k in ("eta_first", "delta")}
    grid = SweepGrid(None, None, omega, np.array([1.0, 2.0]), "n", eta_second=np.zeros((2, 2)),
                     **arrays)
    expected = oracle.zero_isolines(grid.delta, grid.omega, grid.axis2)
    assert grid.contours and _polylines_json(grid.contours) == _polylines_json(expected)
    new_svg, old_svg = tmp_path / "new.svg", tmp_path / "old.svg"
    render_heatmap_svg(grid, new_svg)
    oracle.render_heatmap_svg(grid, old_svg)
    assert new_svg.read_bytes() == old_svg.read_bytes()


def test_svg_of_an_axis2_span_past_the_float_range_has_no_nan(tmp_path):
    # the axis2 span, 2e308, overflows a float; the y fraction is formed from halves
    arrays = {k: np.array([[0.5, -0.5], [-0.5, 0.5]]) for k in ("eta_first", "delta")}
    grid = SweepGrid(None, None, np.array([1.0, 2.0]), np.array([-1e308, 1e308]), "n",
                     eta_second=np.zeros((2, 2)), **arrays)
    assert grid.contours
    path = tmp_path / "wide.svg"
    render_heatmap_svg(grid, path)
    assert "nan" not in path.read_text()


# ---------------------------------------------------------------------------
# reader input handling

HEADER = ",".join(GRID_CSV_HEADER) + "\n"
_GOOD_ROWS = "".join(f"{o},{a},0.5,0.25,0.25\n" for a in (1, 2) for o in (0.1, 0.2, 0.3))


@pytest.mark.parametrize("text", [
    "",
    HEADER,
    "omega,axis2\n1,2\n",
    HEADER + _GOOD_ROWS + "0.1,3,0.5,0.25\n",
    HEADER + _GOOD_ROWS + "0.1,3,0.5,x,0.25\n",
    HEADER + "1,,3,4,5\n" + _GOOD_ROWS,
], ids=["empty", "header-only", "wrong-header", "ragged-row", "non-numeric",
        "empty-field"])
def test_malformed_grid_rejected_without_warnings(text, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedGrid):
            read_grid_csv(path)
        code = main(["contour", "--grid", str(path), "--out", str(tmp_path / "x.json")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "MalformedGrid"


@pytest.mark.parametrize("newline, tail", [("\r\n", ""), ("\n", "\n"), ("\r\n", "\r\n")],
                         ids=["crlf", "trailing-blank-line", "crlf-trailing-blank-line"])
def test_line_endings_and_trailing_blank_line_parse(newline, tail, tmp_path):
    grid = _panel_grid("D")
    plain = tmp_path / "plain.csv"
    write_grid_csv(grid, plain)
    variant = tmp_path / "variant.csv"
    variant.write_bytes(plain.read_bytes().replace(b"\n", newline.encode()) + tail.encode())
    parsed = read_grid_csv(variant)
    assert np.array_equal(_rows(parsed), _rows(read_grid_csv(plain)))
    assert np.array_equal(_rows(parsed), oracle.read_grid_rows(variant))


# ---------------------------------------------------------------------------
# writer edge cases: repeated eta_second rows, signed zeros, float extremes

def test_writer_matches_oracle_on_repeated_rows_and_extreme_values(tmp_path):
    omega = np.array([5e-324, 1e-300, 0.5, 1.0, 1e300])
    row_a = np.array([0.0, -0.0, 5e-324, 1e300, -1.7976931348623157e300])
    row_b = row_a.copy()
    row_b[0] = -0.0  # equal to row A as values, not as bytes
    second = np.array([row_a, row_a, row_b, row_a, row_b])
    first = np.array([[-0.0, 0.0, -5e-324, 9.999999995e299, 1.2345678949999999e300],
                      [1e300, 5e-324, -0.0, 0.0, 0.1],
                      [0.0, 0.0, 0.0, 0.0, 0.0],
                      [-1e-300, 1e300, 2.5e-324, -0.0, 1.0],
                      [0.3, -0.0, 1e299, 5e-324, 7e300]])
    delta = np.array([[0.0, -0.0, 5e-324, -5e-324, 1.0],
                      [-1.0, 0.999999999, -0.0, 1e-300, 0.0],
                      [-0.0, 0.0, -0.0, 0.0, -0.0],
                      [0.1234567895, 5e-324, -1e-300, 0.0, -0.5],
                      [2.5e-324, -0.0, 1.0, -1.0, 0.0]])
    # strictly increasing, as every grid's axis2 must be, with a negative zero and subnormals
    grid = SweepGrid(None, None, omega, np.array([-5e-324, -0.0, 5e-324, 1.0, 1e300]), "n",
                     first, second, delta)
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    write_grid_csv(grid, new_csv)
    oracle.write_grid_csv(grid, old_csv)
    assert new_csv.read_bytes() == old_csv.read_bytes()
    # rows A and B differ only in the sign of one zero, and the file keeps it
    lines = new_csv.read_text().splitlines()
    assert [lines[1 + 5 * j].split(",")[3] for j in range(5)] == ["0", "0", "-0", "0", "-0"]


# ---------------------------------------------------------------------------
# writer: cells that repeat the row above are copied from that row's text


def _leading_repeats(grid: SweepGrid) -> list:
    """Per row, the count of leading cells whose eta_first and delta bytes repeat the row
    above, or None where eta_second's bytes change (the writer rebuilds its template)."""
    counts = [None]
    for j in range(1, grid.axis2.size):
        if grid.eta_second[j].tobytes() != grid.eta_second[j - 1].tobytes():
            counts.append(None)
            continue
        same = [grid.eta_first[j, i].tobytes() == grid.eta_first[j - 1, i].tobytes()
                and grid.delta[j, i].tobytes() == grid.delta[j - 1, i].tobytes()
                for i in range(grid.omega.size)]
        counts.append(same.index(False) if False in same else len(same))
    return counts


def _write_both(grid: SweepGrid, tmp_path) -> str:
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    write_grid_csv(grid, new_csv)
    oracle.write_grid_csv(grid, old_csv)
    assert new_csv.read_bytes() == old_csv.read_bytes()
    return new_csv.read_text()


def _grid_of(first, second, delta) -> SweepGrid:
    first, second, delta = (np.array(a, dtype=float) for a in (first, second, delta))
    ny, nx = first.shape
    return SweepGrid(None, None, np.linspace(0.5, 2.0, nx), np.linspace(1.0, 2.0, ny), "n",
                     first, second, delta)


def test_writer_copies_none_some_or_all_of_the_row_above(tmp_path):
    base = [0.5, 0.25, 0.125, 1.0 / 3.0, 0.1]
    first = [base,
             [0.75] + base[1:],  # cell 0 differs: nothing is copied
             [0.75, 0.25, 0.7, 1.0 / 3.0, 0.1],  # two cells copied
             [0.75, 0.25, 0.7, 1.0 / 3.0, 0.1],  # the whole row copied
             [0.75, 0.25, 0.7, 1.0 / 3.0, 0.2],  # all but the last cell copied
             [0.75, 0.25, 0.7, 1.0 / 3.0, 0.2]]
    delta = [row[:] for row in first]
    delta[5][3] = -0.5  # eta_first repeats in full, delta only up to cell 3
    grid = _grid_of(first, [[0.1] * 5] * 6, delta)
    assert _leading_repeats(grid) == [None, 0, 2, 5, 4, 3]
    lines = _write_both(grid, tmp_path).splitlines()
    assert lines[1 + 5 * 3:1 + 5 * 4] == [line.replace(",1.4,", ",1.6,", 1)
                                          for line in lines[1 + 5 * 2:1 + 5 * 3]]


def test_writer_tells_a_repeated_zero_from_its_negative(tmp_path):
    first = [[0.5, 0.25, 0.0, 0.0], [0.5, 0.25, -0.0, 0.0], [0.5, 0.25, -0.0, -0.0]]
    delta = [[0.0, -0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    grid = _grid_of(first, [[0.5] * 4] * 3, delta)
    assert _leading_repeats(grid) == [None, 2, 1]  # equal as values, not as bytes
    rows = [line.split(",") for line in _write_both(grid, tmp_path).splitlines()[1:]]
    assert [r[2] for r in rows] == ["0.5", "0.25", "0", "0", "0.5", "0.25", "-0", "0",
                                    "0.5", "0.25", "-0", "-0"]
    assert [r[4] for r in rows[4:]] == ["0", "-0", "0", "0", "0", "0", "0", "0"]


def test_writer_rebuilds_mid_grid_when_eta_second_changes(tmp_path):
    row = [0.5, 0.25, 0.125]
    second = [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.1, 0.2, 0.4], [0.1, 0.2, 0.4]]
    grid = _grid_of([row] * 4, second, [row] * 4)  # eta_first and delta repeat throughout
    assert _leading_repeats(grid) == [None, 3, None, 3]
    rows = [line.split(",") for line in _write_both(grid, tmp_path).splitlines()[1:]]
    assert [r[3] for r in rows] == ["0.1", "0.2", "0.3"] * 2 + ["0.1", "0.2", "0.4"] * 2


@pytest.mark.parametrize("seed", range(4))
def test_writer_matches_oracle_on_grids_full_of_repeats(seed, tmp_path):
    # few distinct values, so leading repeats of every length and template reuse are common
    rng = np.random.default_rng(seed)
    shape = (40, 9)
    pool = np.array([0.0, -0.0, 0.5, 1.0 / 3.0, 5e-324, 1.0])
    first, delta = pool[rng.integers(0, pool.size, (2, *shape))]
    for j in range(1, shape[0]):  # each row repeats a random prefix of the row above
        k = rng.integers(0, shape[1] + 1)
        first[j, :k], delta[j, :k] = first[j - 1, :k], delta[j - 1, :k]
    # eta_second switches now and then between 0.0, -0.0 and 0.5, forcing a rebuild
    levels = np.cumsum(rng.random(shape[0]) < 0.2) % 3
    grid = _grid_of(first, np.repeat(pool[levels, None], shape[1], axis=1), delta)
    repeats = _leading_repeats(grid)
    counts = [k for k in repeats if k is not None]
    assert None in repeats[1:] and 0 in counts and shape[1] in counts
    assert any(0 < k < shape[1] for k in counts)
    _write_both(grid, tmp_path)


# ---------------------------------------------------------------------------
# reader: numpy is handed the path, after the header check

def test_reader_takes_a_str_or_a_pathlib_path(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(_panel_grid("A"), path)
    assert np.array_equal(_rows(read_grid_csv(path)), _rows(read_grid_csv(str(path))))
    assert np.array_equal(_rows(read_grid_csv(path)), oracle.read_grid_rows(path))


def test_reader_skips_blank_lines_anywhere_with_crlf(tmp_path):
    plain = tmp_path / "plain.csv"
    write_grid_csv(_panel_grid("D"), plain)
    lines = plain.read_text().splitlines()
    variant = tmp_path / "variant.csv"
    body = [lines[0], "", *lines[1:200], "", "", *lines[200:], ""]
    variant.write_bytes("\r\n".join(body).encode())
    assert np.array_equal(_rows(read_grid_csv(variant)), oracle.read_grid_rows(plain))
    assert np.array_equal(_rows(read_grid_csv(variant)), oracle.read_grid_rows(variant))


_EMPTY_BODY = "grid file has no data rows"


@pytest.mark.parametrize("text, message", [
    ("", f"expected header {HEADER.strip()!r}, got None"),
    ("omega,axis2\n1,2\n", f"expected header {HEADER.strip()!r}, got ['omega', 'axis2']"),
    (HEADER, _EMPTY_BODY),
    (HEADER.strip(), _EMPTY_BODY),
    (HEADER.replace("\n", "\r\n") + "\r\n\r\n", _EMPTY_BODY),
    (HEADER + _GOOD_ROWS + "0.1,3,0.5,x,0.25\n",
     "malformed grid entry: could not convert string 'x' to float64 at row 6, column 4."),
    (HEADER + "".join(r.rsplit(",", 1)[0] + "\n" for r in _GOOD_ROWS.splitlines()),
     "grid rows must have 5 columns"),
    (HEADER + _GOOD_ROWS.replace("0.25,0.25", "nan,0.25", 1),
     "eta_second contains non-finite values"),
    (HEADER + _GOOD_ROWS.replace("0.2,1,", "0.25,1,", 1),
     "grid rows are not row-major with omega varying fastest"),
], ids=["empty", "wrong-header", "header-only", "header-without-newline",
        "crlf-header-and-blank-lines", "bad-entry", "column-count", "non-finite",
        "row-order"])
def test_reader_checks_keep_their_messages(text, message, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode())
    with pytest.raises(MalformedGrid) as exc:
        read_grid_csv(path)
    assert str(exc.value) == message


def test_reader_names_a_bad_entry_past_the_first_chunk(tmp_path):
    # numpy parses in chunks of 50,000 lines; the bad entry is in the last row, past it
    n_axis2 = 20_001
    rows = "".join(f"{o},{a},0.5,0.25,0.25\n" for a in range(1, n_axis2 + 1)
                   for o in (0.1, 0.2, 0.3))
    path = tmp_path / "big.csv"
    path.write_text(HEADER + rows + "0.1,9,0.5,x,0.25\n")
    with pytest.raises(MalformedGrid) as exc:
        read_grid_csv(path)
    assert str(exc.value) == ("malformed grid entry: could not convert string 'x' to "
                              f"float64 at row {3 * n_axis2}, column 4.")
    path.write_text(HEADER + rows)  # the same rows without it parse
    assert read_grid_csv(path).axis2.size == n_axis2


@pytest.mark.parametrize("compressed", [True, False], ids=["gzip", "plain-text"])
def test_reader_rejects_a_file_named_gz(compressed, tmp_path, capsys):
    # numpy unpacks a path named *.gz; the header check reads the raw bytes first
    plain = tmp_path / "grid.csv"
    write_grid_csv(_panel_grid("D"), plain)
    path = tmp_path / "grid.csv.gz"
    data = plain.read_bytes()
    path.write_bytes(gzip.compress(data) if compressed else data)
    with pytest.raises(MalformedGrid):
        read_grid_csv(path)
    assert main(["contour", "--grid", str(path), "--out", str(tmp_path / "c.json")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "MalformedGrid"


@pytest.mark.parametrize("name", ["omega", "axis2", "eta_first", "eta_second", "delta"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grid_names_the_non_finite_field(name, value):
    # a grid built in-process must not write a CSV that read_grid_csv rejects
    arrays = {k: np.zeros((2, 3)) for k in ("eta_first", "eta_second", "delta")}
    arrays["omega"], arrays["axis2"] = np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0])
    arrays[name][-1] = value
    with pytest.raises(InvalidParameter, match=f"^{name} contains non-finite values$"):
        SweepGrid(None, None, axis2_kind="n", **arrays)


@pytest.mark.parametrize("omega, axis2, message", [
    ([1.0, 2.0], [2.0, 1.0], "axis2 must be strictly increasing between rows"),
    ([-1.0, 2.0], [1.0, 2.0], "omega must be > 0 and strictly increasing along each row"),
    ([2.0, 1.0], [1.0, 2.0], "omega must be > 0 and strictly increasing along each row"),
    ([1.0, 2.0], [-0.0, 0.0], "axis2 must be strictly increasing between rows"),
    ([1.0], [1.0, 2.0], "grid needs at least 2 points on each axis"),
    ([1.0, 2.0], [1.0], "grid needs at least 2 points on each axis"),
    ([-1.0], [2.0, 1.0], "grid needs at least 2 points on each axis"),
    # distinct floats that write_grid_csv's 9 significant digits would write as one
    ([1.0, 1.0 + 1e-12], [1.0, 2.0], "omega must be > 0 and strictly increasing along each row"),
    ([1e-300, math.nextafter(1e-300, 1.0)], [1.0, 2.0],
     "omega must be > 0 and strictly increasing along each row"),
    ([1e300, math.nextafter(1e300, math.inf)], [1.0, 2.0],
     "omega must be > 0 and strictly increasing along each row"),
    ([1.0, 2.0], [1.0, 1.0 + 1e-12], "axis2 must be strictly increasing between rows"),
], ids=["axis2-decreasing", "omega-negative", "omega-decreasing", "axis2-signed-zeros",
        "one-omega", "one-axis2", "one-bad-omega", "omega-same-at-9-digits",
        "omega-one-ulp-1e-300", "omega-one-ulp-1e+300", "axis2-same-at-9-digits"])
def test_grid_rejects_the_axes_the_reader_rejects(tmp_path, omega, axis2, message):
    # each grid used to construct and write a CSV that contour refuses
    shape = (len(axis2), len(omega))
    arrays = {k: np.zeros(shape) for k in ("eta_first", "eta_second", "delta")}
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        SweepGrid(None, None, np.array(omega), np.array(axis2), "n", **arrays)
    path = tmp_path / "grid.csv"  # the reader keeps its own error for a file
    path.write_text("omega,axis2,eta_first,eta_second,delta_eta\n" + "".join(
        f"{w!r},{a!r},0,0,0\n" for a in axis2 for w in omega))
    with pytest.raises(MalformedGrid, match=f"^{message}$"):
        read_grid_csv(path)

import math
import tracemalloc

import numpy as np
import pytest

from thermosci import (
    Pair,
    SecondAxis,
    SweepAxes,
    ToyParams,
    c_fed,
    crossover_omega,
    delta_eta,
    eta_toy,
    read_grid_csv,
    strategy_etas,
    sweep,
    write_grid_csv,
    zero_contours,
)
from thermosci._marching import zero_isolines
from thermosci.errors import (
    InvalidParameter,
    MalformedGrid,
    NBelowOne,
    NonPositiveOmega,
)
from thermosci.render import render_heatmap_svg


# ---------------------------------------------------------------------------
# the efficiency law


def test_eta_budget_branch():
    assert eta_toy(10.0, 1.0, 0.3) == pytest.approx(0.1, abs=1e-15)


def test_eta_ceiling_branch():
    got = eta_toy(0.01, 1.0, 0.3)
    assert got == pytest.approx(1.0 / 1.3, abs=1e-12)
    assert got == pytest.approx(0.769231, abs=1e-6)


def test_eta_branches_meet_at_crossover():
    c, alpha = 0.4, 0.7
    omega = crossover_omega(c, alpha)
    assert c / omega == pytest.approx(1.0 / (1.0 + alpha), abs=1e-12)
    assert eta_toy(omega, c, alpha) == pytest.approx(1.0 / (1.0 + alpha), abs=1e-12)


def test_eta_rejects_bad_inputs():
    with pytest.raises(NonPositiveOmega):
        eta_toy(0.0, 1.0, 0.3)
    with pytest.raises(NonPositiveOmega):
        eta_toy(-1.0, 1.0, 0.3)
    with pytest.raises(InvalidParameter):
        eta_toy(1.0, 0.0, 0.3)
    with pytest.raises(InvalidParameter):
        eta_toy(1.0, 1.0, -0.1)


@pytest.mark.parametrize("call, error, field", [
    (lambda: eta_toy(math.nan, 0.5, 0.1), NonPositiveOmega, "omega"),
    (lambda: eta_toy(1.0, 0.5, math.nan), InvalidParameter, "alpha"),
    (lambda: c_fed(math.nan), NBelowOne, "n must"),
    (lambda: c_fed(2.0, 0.05, math.nan), InvalidParameter, "gamma"),
    (lambda: crossover_omega(0.5, math.nan), InvalidParameter, "alpha"),
], ids=["eta_toy-omega", "eta_toy-alpha", "c_fed-n", "c_fed-gamma", "crossover_omega-alpha"])
def test_toy_law_rejects_nan_by_name(call, error, field):
    with pytest.raises(error, match=field):
        call()


def test_toy_law_infinite_inputs_unchanged():
    assert eta_toy(math.inf, 0.5, 0.1) == 0.0
    assert eta_toy(1.0, 0.5, math.inf) == 0.0
    assert c_fed(math.inf) == 0.05
    assert c_fed(2.0, 0.05, math.inf) == 0.05
    assert crossover_omega(0.5, math.inf) == math.inf


def test_eta_monotonicities():
    rng = np.random.default_rng(2)
    for _ in range(300):
        omega = float(rng.uniform(1e-3, 1e3))
        c = float(rng.uniform(1e-3, 0.9))
        alpha = float(rng.uniform(0.0, 3.0))
        base = eta_toy(omega, c, alpha)
        assert 0.0 < base <= 1.0
        assert eta_toy(omega, c + 0.05, alpha) >= base - 1e-15
        assert eta_toy(omega, c, alpha + 0.2) <= base + 1e-15
        assert eta_toy(omega * 1.7, c, alpha) <= base + 1e-15


# ---------------------------------------------------------------------------
# federated compression


def test_c_fed_limits():
    assert c_fed(1.0, 0.05, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert c_fed(1e9, 0.05, 1.0) == pytest.approx(0.05, abs=1e-8)


def test_c_fed_hand_value():
    assert c_fed(4.0, 0.05, 1.0) == pytest.approx(0.2875, abs=1e-12)


def test_c_fed_shape():
    prev = None
    for n in np.linspace(1.0, 30.0, 60):
        val = c_fed(float(n), 0.05, 1.2)
        assert 0.05 < val <= 1.0 + 1e-12
        if prev is not None:
            assert val < prev
        prev = val
    # steeper decay for larger gamma, beyond n = 1
    assert c_fed(4.0, 0.05, 2.0) < c_fed(4.0, 0.05, 1.0)


def test_c_fed_rejects_n_below_one():
    with pytest.raises(NBelowOne):
        c_fed(0.5)


def test_crossover_values():
    assert crossover_omega(1.0, 0.3) == pytest.approx(1.3, abs=1e-15)
    assert crossover_omega(0.05, 0.2) == pytest.approx(0.06, abs=1e-15)
    assert crossover_omega(0.7, 0.0) == pytest.approx(0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# pairwise differences


def test_symmetric_specialist_never_beats_generalist():
    params = ToyParams.symmetric()
    for omega in np.geomspace(1e-2, 1e2, 25):
        for c_spec in np.linspace(0.05, 1.0, 10):
            assert delta_eta(Pair.SPEC_GEN, float(omega), params, float(c_spec)) <= 1e-15


def test_asymmetric_ceiling_difference():
    params = ToyParams.asymmetric()
    got = delta_eta(Pair.SPEC_GEN, 0.01, params, 0.5)
    assert got == pytest.approx(1.0 / 1.2 - 1.0 / 1.8, abs=1e-12)
    assert got == pytest.approx(0.277778, abs=1e-6)


def test_fed_gen_identical_at_n_one_with_equal_alphas():
    params = ToyParams.symmetric()
    for omega in np.geomspace(1e-2, 1e2, 40):
        assert abs(delta_eta(Pair.FED_GEN, float(omega), params, 1.0)) <= 1e-12


def test_strategy_etas_order():
    params = ToyParams.asymmetric()
    e_fed, e_gen = strategy_etas(Pair.FED_GEN, 0.4, params, 4.0)
    assert e_fed - e_gen == pytest.approx(
        delta_eta(Pair.FED_GEN, 0.4, params, 4.0), abs=1e-15)


def test_fed_spec_uses_maximally_focused_specialist():
    params = ToyParams.asymmetric()
    _, e_spec = strategy_etas(Pair.FED_SPEC, 5.0, params, 10.0)
    assert e_spec == pytest.approx(eta_toy(5.0, params.c_min, params.alpha_spec), abs=1e-15)


def test_params_validation():
    with pytest.raises(InvalidParameter):
        ToyParams(c_min=0.0)
    with pytest.raises(InvalidParameter):
        ToyParams(gamma=0.0)
    with pytest.raises(InvalidParameter):
        ToyParams(alpha_gen=-0.1)


@pytest.mark.parametrize("field", ["c_min", "gamma", "alpha_gen", "alpha_fed", "alpha_spec"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(InvalidParameter, match=f"{field} must be finite"):
        ToyParams(**{field: value})


# ---------------------------------------------------------------------------
# sweeps


def test_axes_validation():
    with pytest.raises(InvalidParameter):
        SecondAxis("n", 0.5, 20.0, 100)
    with pytest.raises(InvalidParameter):
        SecondAxis("c_spec", 0.0, 1.0, 100)
    with pytest.raises(InvalidParameter):
        SecondAxis("n", 5.0, 2.0, 100)
    with pytest.raises(InvalidParameter):
        SweepAxes(SecondAxis("n", 1.0, 20.0, 100), omega_min=-1.0)
    with pytest.raises(InvalidParameter):
        SweepAxes(SecondAxis("n", 1.0, 20.0, 100), omega_steps=1)


@pytest.mark.parametrize("field, build", [
    ("minimum", lambda: SecondAxis("n", math.nan, 20.0, 100)),
    ("maximum", lambda: SecondAxis("n", 1.0, math.inf, 100)),
    ("omega_min", lambda: SweepAxes(SecondAxis("n", 1.0, 20.0, 100), omega_min=math.nan)),
    ("omega_max", lambda: SweepAxes(SecondAxis("n", 1.0, 20.0, 100), omega_max=math.inf)),
])
def test_axes_reject_non_finite_endpoints(field, build):
    with pytest.raises(InvalidParameter, match=f"{field} must be finite"):
        build()


def test_pair_axis_mismatch_rejected():
    params = ToyParams.symmetric()
    with pytest.raises(InvalidParameter):
        sweep(Pair.SPEC_GEN, params, SweepAxes.default_n())
    with pytest.raises(InvalidParameter):
        sweep(Pair.FED_GEN, params, SweepAxes.default_cspec(params))


def test_symmetric_fed_gen_grid_nonpositive():
    grid = sweep(Pair.FED_GEN, ToyParams.symmetric(), SweepAxes.default_n())
    assert np.all(grid.delta <= 1e-15)
    # the n = 1 row is exact strategy identity
    assert np.max(np.abs(grid.delta[0])) <= 1e-12


def test_asymmetric_spec_gen_positive_band_at_low_budget():
    params = ToyParams.asymmetric()
    grid = sweep(Pair.SPEC_GEN, params, SweepAxes.default_cspec(params))
    band = 1.0 / (1.0 + params.alpha_spec) - 1.0 / (1.0 + params.alpha_gen)
    assert np.allclose(grid.delta[:, 0], band, atol=1e-12)


def test_identical_strategies_give_zero_grid():
    params = ToyParams(c_min=0.05, gamma=1.0, alpha_gen=0.3, alpha_fed=0.3,
                       alpha_spec=0.3)
    grid = sweep(Pair.SPEC_GEN, params,
                 SweepAxes(SecondAxis("c_spec", 1.0 - 1e-8, 1.0, 2)))
    assert np.max(np.abs(grid.delta[-1])) == 0.0


def test_sweep_thread_count_does_not_change_values():
    # the grid is one broadcast; it must equal the pointwise law exactly
    params = ToyParams.asymmetric()
    axes = SweepAxes(SecondAxis("n", 1.0, 20.0, 30), omega_steps=50)
    grid = sweep(Pair.FED_GEN, params, axes)
    for j, n in enumerate(grid.axis2):
        for i, omega in enumerate(grid.omega):
            assert grid.delta[j, i] == delta_eta(Pair.FED_GEN, float(omega), params, float(n))


# ---------------------------------------------------------------------------
# contours


def test_uniform_sign_grid_has_no_contours():
    grid = sweep(Pair.SPEC_GEN, ToyParams.asymmetric(),
                 SweepAxes(SecondAxis("c_spec", 0.05, 1.0, 20), omega_min=1e-2,
                           omega_max=0.05, omega_steps=20))
    # deep in the budget-limited region the specialist always wins
    assert np.all(grid.delta > 0)
    assert grid.contours == []


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


_BIG_AXES = SweepAxes(SecondAxis("n", 1.0, 20.0, 500), omega_steps=1000)


def test_sweep_holds_one_grid_per_array():
    # eta_first, eta_second and delta are 24 bytes a cell; the rest is the contour pass
    sweep(Pair.FED_GEN, ToyParams.asymmetric(), SweepAxes.default_n(steps=5))  # warm caches
    grid, peak = _traced_peak(sweep, Pair.FED_GEN, ToyParams.asymmetric(), _BIG_AXES)
    assert grid.delta.shape == (500, 1000)
    assert peak / grid.delta.size <= 28.0


def test_zero_contours_memory_grows_with_the_crossing_cells():
    grid = sweep(Pair.FED_GEN, ToyParams.asymmetric(), _BIG_AXES)
    lines, peak = _traced_peak(zero_contours, grid)
    assert lines and all(np.array_equal(a, b) for a, b in zip(lines, grid.contours))
    assert peak / grid.delta.size <= 4.0


def test_marching_squares_recovers_a_circle():
    # x is read on a log scale, so the unit circle lies in (log x, y)
    xs = np.geomspace(math.exp(-2.0), math.exp(2.0), 81)
    ys = np.linspace(-2.0, 2.0, 81)
    values = 1.0 - (np.log(xs)[None, :] ** 2 + ys[:, None] ** 2)
    lines = zero_isolines(values, xs, ys)
    assert len(lines) == 1
    radii = np.hypot(np.log(lines[0][:, 0]), lines[0][:, 1])
    assert np.max(np.abs(radii - 1.0)) < 0.01


def test_marching_squares_saddle_is_resolved_consistently():
    values = np.array([[1.0, -1.0], [-1.0, 1.0]])
    lines = zero_isolines(values, np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    assert len(lines) == 2  # two separate arcs, never a crossing X


def test_fed_gen_contour_tracks_analytic_boundary():
    params = ToyParams.asymmetric()
    grid = sweep(Pair.FED_GEN, params, SweepAxes.default_n())
    assert len(grid.contours) == 1
    log_step = math.log(grid.omega[1] / grid.omega[0])
    for omega, n in grid.contours[0]:
        target = (1.0 + params.alpha_gen) * c_fed(float(n), params.c_min, params.gamma)
        offset = abs(math.log(float(omega)) - math.log(target)) / log_step
        assert offset <= 1.0 + 1e-6
    # the boundary spans most of the n range
    ns = grid.contours[0][:, 1]
    assert ns.min() <= 1.5 and ns.max() >= 19.0


def test_contour_points_reevaluate_near_zero():
    params = ToyParams.asymmetric()
    grid = sweep(Pair.FED_GEN, params, SweepAxes.default_n())
    for line in grid.contours:
        for omega, n in line:
            val = abs(delta_eta(Pair.FED_GEN, float(omega), params, float(n)))
            i = min(max(int(np.searchsorted(grid.omega, omega)), 1), grid.omega.size - 1)
            j = min(max(int(np.searchsorted(grid.axis2, n)), 1), grid.axis2.size - 1)
            corners = grid.delta[j - 1:j + 1, i - 1:i + 1]
            assert val <= max(1e-9, float(corners.max() - corners.min()))


def test_fed_spec_asymmetric_crossover():
    params = ToyParams.asymmetric()
    below = crossover_omega(params.c_min, params.alpha_spec) * 0.5
    assert delta_eta(Pair.FED_SPEC, below, params, 6.0) < 0.0
    assert delta_eta(Pair.FED_SPEC, 50.0, params, 6.0) > 0.0


# ---------------------------------------------------------------------------
# file round trips


def test_grid_csv_round_trip(tmp_path):
    params = ToyParams.asymmetric()
    axes = SweepAxes(SecondAxis("n", 1.0, 20.0, 40), omega_steps=60)
    grid = sweep(Pair.FED_GEN, params, axes)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    clone = read_grid_csv(path)
    assert clone.omega.size == 60 and clone.axis2.size == 40
    assert np.allclose(clone.delta, grid.delta, rtol=1e-8, atol=1e-12)
    # contours recomputed from the parsed grid stay within a cell of the originals
    redone = zero_contours(clone)
    assert len(redone) == len(grid.contours)


def test_grid_csv_first_line_and_format(tmp_path):
    params = ToyParams.symmetric()
    grid = sweep(Pair.FED_GEN, params, SweepAxes(SecondAxis("n", 1.0, 4.0, 3),
                                                 omega_steps=4))
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,axis2,eta_first,eta_second,delta_eta"
    assert len(lines) == 1 + 3 * 4
    assert lines[1].startswith("0.01,1,")


def test_read_grid_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(MalformedGrid):
        read_grid_csv(path)
    path.write_text("omega,axis2\n1,2\n")
    with pytest.raises(MalformedGrid):
        read_grid_csv(path)
    path.write_text("omega,axis2,eta_first,eta_second,delta_eta\n1,2,x,4,5\n")
    with pytest.raises(MalformedGrid):
        read_grid_csv(path)


def test_svg_render_smoke(tmp_path):
    params = ToyParams.asymmetric()
    grid = sweep(Pair.FED_GEN, params, SweepAxes(SecondAxis("n", 1.0, 20.0, 12),
                                                 omega_steps=16))
    path = tmp_path / "grid.svg"
    render_heatmap_svg(grid, path)
    body = path.read_text()
    assert body.startswith("<svg")
    assert "<rect" in body and "<polyline" in body
    assert "stroke-dasharray" in body  # regime marker at omega = 1

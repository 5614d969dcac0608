"""Toy efficiency law, strategy comparisons, and phase-diagram sweeps.

The model reduces each strategy to two levers: an effective prior-entropy
ratio ``c`` (generalist ``c = 1``; specialist ``c_spec``; federated
``c_fed(N) = c_min + (1 - c_min) / N**gamma``) and a dimensionless overhead
``alpha`` capturing outcome entropy and irreversibility. Efficiency at a
normalized budget ``omega`` is

    eta(omega, c, alpha) = min(c / omega, 1 / (1 + alpha))

i.e. a prior-limited branch ``c/omega`` under a budget-limited ceiling.
Pairwise differences of this law over (omega, c_spec) or (omega, N) grids
produce the strategy phase diagrams; their zero contours are the phase
boundaries. For the fed-vs-gen pair the analytic boundary is
``omega*(N) = (1 + alpha_gen) * c_fed(N)``, which decreases as N grows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from ._marching import zero_isolines
from .bounds import _check_at_least
from .errors import (
    InvalidParameter,
    MalformedGrid,
    NBelowOne,
    NonPositiveOmega,
)


#: most cells a sweep grid may have: a 1000x500 grid peaks near 100 bytes a cell with
#: its SVG, so this cap holds a sweep to about 1 GB
MAX_GRID_CELLS = 10_000_000


class Pair(str, Enum):
    SPEC_GEN = "spec-gen"
    FED_GEN = "fed-gen"
    FED_SPEC = "fed-spec"

    @property
    def axis_kind(self) -> str:
        """The second axis the pair is swept over: ``c_spec`` for spec-gen, else ``n``."""
        return "c_spec" if self is Pair.SPEC_GEN else "n"


@dataclass(frozen=True)
class ToyParams:
    """Parameters of the toy law: compression floor, decay, overheads."""

    c_min: float = 0.05
    gamma: float = 1.0
    alpha_gen: float = 0.3
    alpha_fed: float = 0.3
    alpha_spec: float = 0.3

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise InvalidParameter(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.c_min <= 1.0:
            raise InvalidParameter("c_min must be in (0, 1]")
        if self.gamma <= 0.0:
            raise InvalidParameter("gamma must be > 0")
        _check_at_least(0.0, alpha_gen=self.alpha_gen, alpha_fed=self.alpha_fed,
                        alpha_spec=self.alpha_spec)

    @classmethod
    def symmetric(cls, alpha: float = 0.3, c_min: float = 0.05,
                  gamma: float = 1.0) -> "ToyParams":
        return cls(c_min=c_min, gamma=gamma, alpha_gen=alpha, alpha_fed=alpha,
                   alpha_spec=alpha)

    @classmethod
    def asymmetric(cls, alphas: tuple[float, float, float] = (0.8, 0.4, 0.2),
                   c_min: float = 0.05, gamma: float = 1.0) -> "ToyParams":
        return cls(c_min=c_min, gamma=gamma, alpha_gen=alphas[0], alpha_fed=alphas[1],
                   alpha_spec=alphas[2])


def eta_toy(omega: float, c: float, alpha: float) -> float:
    """Efficiency of one strategy at normalized budget ``omega``."""
    if not omega > 0.0:  # NaN fails too
        raise NonPositiveOmega(f"omega must be > 0, got {omega!r}")
    if not 0.0 < c <= 1.0:
        raise InvalidParameter(f"c must be in (0, 1], got {c!r}")
    _check_at_least(0.0, alpha=alpha)
    return min(c / omega, 1.0 / (1.0 + alpha))


def c_fed(n: float, c_min: float = 0.05, gamma: float = 1.0) -> float:
    """Effective prior-entropy ratio of an N-way federated decomposition."""
    _check_at_least(1.0, "partition count ", NBelowOne, n=n)
    if not 0.0 < c_min <= 1.0:
        raise InvalidParameter("c_min must be in (0, 1]")
    if not gamma > 0.0:
        raise InvalidParameter(f"gamma must be > 0, got {gamma!r}")
    try:
        return c_min + (1.0 - c_min) / n**gamma
    except OverflowError:  # n**gamma past the float range: the law's limit
        return c_min


def crossover_omega(c: float, alpha: float) -> float:
    """Budget at which the prior-limited branch meets the overhead ceiling."""
    if not 0.0 < c <= 1.0:
        raise InvalidParameter(f"c must be in (0, 1], got {c!r}")
    _check_at_least(0.0, alpha=alpha)
    return c * (1.0 + alpha)


def _pair_levers(pair: Pair, params: ToyParams, axis_value: float):
    """(c, alpha) for the first and second strategy of a comparison pair."""
    if pair == Pair.SPEC_GEN:
        c_spec = float(axis_value)
        if not 0.0 < c_spec <= 1.0:
            raise InvalidParameter(f"c_spec must be in (0, 1], got {c_spec!r}")
        return (c_spec, params.alpha_spec), (1.0, params.alpha_gen)
    n = float(axis_value)
    fed = (c_fed(n, params.c_min, params.gamma), params.alpha_fed)
    if pair == Pair.FED_GEN:
        return fed, (1.0, params.alpha_gen)
    # fed-spec compares against the maximally focused specialist
    return fed, (params.c_min, params.alpha_spec)


def strategy_etas(pair: Pair | str, omega: float, params: ToyParams,
                  axis_value: float) -> tuple[float, float]:
    """Efficiencies of both strategies in a comparison pair at one grid point."""
    (c1, a1), (c2, a2) = _pair_levers(Pair(pair), params, axis_value)
    return eta_toy(omega, c1, a1), eta_toy(omega, c2, a2)


def delta_eta(pair: Pair | str, omega: float, params: ToyParams,
              axis_value: float) -> float:
    """Efficiency difference (first strategy minus second) at one grid point."""
    e1, e2 = strategy_etas(pair, omega, params, axis_value)
    return e1 - e2


# ---------------------------------------------------------------------------
# sweep grids


@dataclass(frozen=True)
class SecondAxis:
    """The non-budget sweep axis: specialist focus ``c_spec`` or partition count ``n``."""

    kind: str  # "c_spec" | "n"
    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        if self.kind not in ("c_spec", "n"):
            raise InvalidParameter(f"unknown axis kind {self.kind!r}")
        what = f"{self.kind} axis "
        for name in ("maximum", "minimum"):  # each bound's own range before their order
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameter(f"{what}{name} must be finite, got {value!r}")
            if self.kind == "n":
                _check_at_least(1.0, what, **{name: value})
            elif not value > 0.0:
                raise InvalidParameter(f"{what}{name} must be > 0, got {value!r}")
        if not self.minimum < self.maximum:
            raise InvalidParameter(f"{what}minimum must be below maximum, got {self.minimum!r}")
        _check_at_least(2, what, steps=self.steps)
        if self.kind == "c_spec" and self.maximum > 1.0:
            raise InvalidParameter(f"c_spec axis maximum must be <= 1, got {self.maximum!r}")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class SweepAxes:
    """Log-spaced budget axis plus second axis for one phase-diagram grid."""

    second: SecondAxis
    omega_min: float = 1e-2
    omega_max: float = 1e2
    omega_steps: int = 200

    def __post_init__(self):
        for name in ("omega_min", "omega_max"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidParameter(f"{name} must be finite and > 0, got {value!r}")
        if not self.omega_min < self.omega_max:
            raise InvalidParameter("omega_min must be below omega_max")
        _check_at_least(2, omega_steps=self.omega_steps)
        if self.omega_steps * self.second.steps > MAX_GRID_CELLS:  # before any array exists
            raise InvalidParameter(f"omega_steps={self.omega_steps} by {self.second.kind} axis "
                                   f"steps={self.second.steps} is over {MAX_GRID_CELLS:,} cells")
        # both axes, after the cap: a SecondAxis alone may still have 10**9 steps
        second = self.second
        for what, lo, hi, values in (
                ("omega_min and omega_max", self.omega_min, self.omega_max, self.omega_values()),
                (f"{second.kind} axis minimum and maximum", second.minimum, second.maximum,
                 second.values())):
            if not _increases_as_written(values):
                raise InvalidParameter(f"{what} are too close for {values.size} distinct "
                                       f"steps, got {lo!r} and {hi!r}")

    def omega_values(self) -> np.ndarray:
        return np.geomspace(self.omega_min, self.omega_max, self.omega_steps)

    @classmethod
    def default_cspec(cls, params: ToyParams, steps: int = 100) -> "SweepAxes":
        return cls(SecondAxis("c_spec", params.c_min, 1.0, steps))

    @classmethod
    def default_n(cls, n_max: float = 20.0, steps: int = 100) -> "SweepAxes":
        return cls(SecondAxis("n", 1.0, n_max, steps))


def _increases_as_written(values: np.ndarray) -> bool:
    """Whether ``values`` strictly increase as write_grid_csv writes them, at 9 significant
    digits, so that read_grid_csv reads them back as distinct."""
    written = np.array([float(f"{x:.9g}") for x in values.tolist()])
    return bool(np.all(written[1:] > written[:-1]))


def _check_axes(omega: np.ndarray, axis2: np.ndarray) -> None:
    """The grid file's axis rule, kept by every SweepGrid (read_grid_csv's too) so that
    each writes a file read_grid_csv reads back."""
    if omega.size < 2 or axis2.size < 2:  # by size alone: no array is allocated
        raise InvalidParameter("grid needs at least 2 points on each axis")
    if not (omega[0] > 0.0 and _increases_as_written(omega)):
        raise InvalidParameter("omega must be > 0 and strictly increasing along each row")
    if not _increases_as_written(axis2):
        raise InvalidParameter("axis2 must be strictly increasing between rows")


@dataclass
class SweepGrid:
    """Evaluated efficiency-difference surface plus its zero contours.

    Arrays have shape ``(len(axis2), len(omega))``; contour polylines are in
    ``(omega, axis2)`` data coordinates.
    """

    pair: str | None
    params: ToyParams | None
    omega: np.ndarray
    axis2: np.ndarray
    axis2_kind: str
    eta_first: np.ndarray
    eta_second: np.ndarray
    delta: np.ndarray
    contours: list[np.ndarray]

    def __post_init__(self):
        for arr in (self.eta_first, self.eta_second, self.delta):
            if arr.shape != (self.axis2.size, self.omega.size):
                raise InvalidParameter("grid arrays do not match the axes")
        for name in ("omega", "axis2", "eta_first", "eta_second", "delta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameter(f"{name} contains non-finite values")
        _check_axes(self.omega, self.axis2)
        if max(self.delta.max(), -self.delta.min()) > 1.0 + 1e-12:  # no |delta| grid
            raise InvalidParameter("efficiency differences must lie in [-1, 1]")


def sweep(pair: Pair | str, params: ToyParams, axes: SweepAxes) -> SweepGrid:
    """Evaluate a comparison pair over a grid and attach its zero contours."""
    pair = Pair(pair)
    if axes.second.kind != pair.axis_kind:
        raise InvalidParameter(
            f"pair {pair.value} needs a {pair.axis_kind!r} axis, got {axes.second.kind!r}"
        )
    omega = axes.omega_values()
    axis2 = axes.second.values()
    # (row, strategy, lever): c varies along axis2, each strategy's alpha does not
    levers = np.array([_pair_levers(pair, params, float(v)) for v in axis2])
    eta_first, eta_second = (levers[:, k, :1] / omega for k in (0, 1))
    for k, eta in enumerate((eta_first, eta_second)):  # capped in place: one grid each
        np.minimum(eta, 1.0 / (1.0 + levers[0, k, 1]), out=eta)
    delta = eta_first - eta_second
    grid = SweepGrid(pair.value, params, omega, axis2, axes.second.kind,
                     eta_first, eta_second, delta, contours=[])
    grid.contours = zero_contours(grid)
    return grid


def zero_contours(grid: SweepGrid) -> list[np.ndarray]:
    """Zero-level polylines of the grid's efficiency difference, in data coordinates."""
    return zero_isolines(grid.delta, grid.omega, grid.axis2)


# ---------------------------------------------------------------------------
# file formats

GRID_CSV_HEADER = ("omega", "axis2", "eta_first", "eta_second", "delta_eta")


def write_grid_csv(grid: SweepGrid, path) -> None:
    """Write the grid row-major (omega varying fastest), 9 significant digits.

    Streams one axis2 row at a time, so memory stays at one row of text.
    Each row is one ``%`` on a template of the omega and ``eta_second`` texts
    (``\\0`` marks axis2), rebuilt only where ``eta_second``'s bytes change.
    While a template holds, the leading cells whose ``eta_first`` and ``delta``
    bytes repeat the row above keep that row's text; only the rest is formatted.
    """
    omega_text = [f"{x:.9g}," for x in grid.omega.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(GRID_CSV_HEADER) + "\n")
        for j, a2 in enumerate(grid.axis2.tolist()):
            cells = np.array((grid.eta_first[j], grid.delta[j]), dtype=np.float64)
            bits, k = cells.view(np.int64), 0  # int64 views tell -0.0 from 0.0
            if j == 0 or grid.eta_second[j].tobytes() != grid.eta_second[j - 1].tobytes():
                pieces = [f"{o}\0,%.9g,{e:.9g},%.9g\n" for o, e in
                          zip(omega_text, grid.eta_second[j].tolist())]
                template, starts = "".join(pieces), np.cumsum([0, *map(len, pieces)])
            else:
                changed = (bits != last_bits).any(axis=0)
                k = int(changed.argmax()) if changed.any() else changed.size
            # the row above's text up to the end of its k-th line, then cells k.. formatted
            text = (text[:len(text) - len(text.split("\n", k)[k])] if k else "") + (
                template[starts[k]:] % tuple(cells[:, k:].T.ravel().tolist()))
            fh.write(text.replace("\0", f"{a2:.9g}"))
            last_bits = bits


def read_grid_csv(path) -> SweepGrid:
    """Reconstruct a grid written by :func:`write_grid_csv`.

    Accepts LF or CRLF line endings and blank lines (such as a trailing
    newline); every other row must hold 5 numbers.
    """
    try:
        with open(path) as fh:
            line = fh.readline()
        header = line.rstrip("\r\n").split(",") if line else None
        if header is None or tuple(h.strip() for h in header) != GRID_CSV_HEADER:
            raise MalformedGrid(f"expected header {','.join(GRID_CSV_HEADER)!r}, got {header!r}")
        with warnings.catch_warnings():
            # an empty body is reported below, not as numpy's UserWarning
            warnings.simplefilter("ignore", UserWarning)
            # given a path, numpy reads in C chunks, not a line at a time; the header
            # check must come first, or numpy would quietly unpack a file named *.gz
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
    except OSError as exc:
        raise MalformedGrid(f"cannot read grid file: {exc}") from exc
    except ValueError as exc:
        raise MalformedGrid(f"malformed grid entry: {exc}") from exc
    if data.size == 0:
        raise MalformedGrid("grid file has no data rows")
    if data.shape[1] != 5:
        raise MalformedGrid("grid rows must have 5 columns")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():  # before a NaN omega can pass for a short omega axis
        raise MalformedGrid(f"{GRID_CSV_HEADER[int(np.argmin(finite))]} contains "
                            "non-finite values")

    n_rows = data.shape[0]
    repeats = np.flatnonzero(data[1:, 0] == data[0, 0])
    n_omega = int(repeats[0]) + 1 if repeats.size else n_rows
    if n_rows % n_omega != 0:
        raise MalformedGrid("row count is not a multiple of the omega resolution")
    n_axis2 = n_rows // n_omega

    # (column, axis2 index, omega index)
    blocks = data.T.reshape(5, n_axis2, n_omega)
    omega = blocks[0, 0]
    axis2 = blocks[1, :, 0]
    if not (np.all(blocks[0] == omega) and np.all(blocks[1] == axis2[:, None])):
        raise MalformedGrid("grid rows are not row-major with omega varying fastest")
    try:  # such as an axis out of order: the file is at fault, not a caller
        return SweepGrid(None, None, omega, axis2, "axis2", blocks[2], blocks[3], blocks[4],
                         contours=[])
    except InvalidParameter as exc:
        raise MalformedGrid(str(exc)) from None


def contours_to_json_dict(grid: SweepGrid, pair: str | None = None) -> dict:
    """JSON payload for extracted contours: pair label, polylines, parameters."""
    polylines = [[[float(x), float(y)] for x, y in line] for line in grid.contours]
    return {
        "pair": pair if pair is not None else (grid.pair or "unspecified"),
        "polylines": polylines,
        "params": None if grid.params is None else asdict(grid.params),
    }

"""The phase-diagram file layer as it was before it became array code.

Kept as the reference implementation for ``test_files_oracle.py``: the grid
CSV is formatted one f-string per cell and parsed with ``csv.reader`` and
``float``, marching squares classifies every cell in Python, and the SVG
heatmap blends each cell's colour with ``round``. Segment chaining rounds
each endpoint with the builtin ``round`` every time it compares two ends.
The index-to-data mapping keeps the guards it had for a one-point axis,
which :mod:`thermosci._marching` dropped once every grid had two points a side.
"""

from __future__ import annotations

import csv
import math
from collections import deque

import numpy as np

from thermosci.toy_model import GRID_CSV_HEADER

# ---------------------------------------------------------------------------
# grid CSV


def write_grid_csv(grid, path) -> None:
    lines = [",".join(GRID_CSV_HEADER)]
    for j in range(grid.axis2.size):
        a2 = grid.axis2[j]
        for i in range(grid.omega.size):
            lines.append(
                f"{grid.omega[i]:.9g},{a2:.9g},{grid.eta_first[j, i]:.9g},"
                f"{grid.eta_second[j, i]:.9g},{grid.delta[j, i]:.9g}"
            )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_grid_rows(path) -> np.ndarray:
    """The data rows of a grid CSV as an ``(n, 5)`` array, header skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([tuple(float(v) for v in row) for row in reader if row])


# ---------------------------------------------------------------------------
# marching squares, one Python iteration per cell

_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))

_SEGMENTS = {
    0: (), 15: (),
    1: ((3, 0),), 14: ((3, 0),),
    2: ((0, 1),), 13: ((0, 1),),
    3: ((3, 1),), 12: ((3, 1),),
    4: ((1, 2),), 11: ((1, 2),),
    6: ((0, 2),), 9: ((0, 2),),
    7: ((2, 3),), 8: ((2, 3),),
}


def _corner_coords(i: int, j: int):
    return ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))


def _edge_point(corners, values, edge: int):
    a, b = _EDGE_CORNERS[edge]
    va, vb = values[a], values[b]
    t = va / (va - vb)
    (xa, ya), (xb, yb) = corners[a], corners[b]
    return (xa + t * (xb - xa), ya + t * (yb - ya))


def _cell_segments(i: int, j: int, values: np.ndarray):
    v = (values[j, i], values[j, i + 1], values[j + 1, i + 1], values[j + 1, i])
    case = sum(1 << k for k in range(4) if v[k] > 0.0)
    if case in (0, 15):
        return ()
    corners = _corner_coords(i, j)
    if case in (5, 10):
        center_positive = (v[0] + v[1] + v[2] + v[3]) / 4.0 > 0.0
        if (case == 5) == center_positive:
            pairs = ((0, 1), (3, 2))
        else:
            pairs = ((3, 0), (1, 2))
        return tuple((_edge_point(corners, v, a), _edge_point(corners, v, b))
                     for a, b in pairs)
    return tuple((_edge_point(corners, v, a), _edge_point(corners, v, b))
                 for a, b in _SEGMENTS[case])


def _key(point):
    return (round(point[0], 9), round(point[1], 9))


def _chain_segments(segments):
    adjacency: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        adjacency.setdefault(_key(p), []).append(idx)
        adjacency.setdefault(_key(q), []).append(idx)

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = deque((p, q))
        for endpoint_side in (1, 0):
            while True:
                tip = chain[-1] if endpoint_side == 1 else chain[0]
                nxt = None
                for idx in adjacency.get(_key(tip), ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                a, b = segments[nxt]
                other = b if _key(a) == _key(tip) else a
                if endpoint_side == 1:
                    chain.append(other)
                else:
                    chain.appendleft(other)
                if _key(chain[0]) == _key(chain[-1]) and len(chain) > 2:
                    break
        polylines.append(list(chain))
    return polylines


def _index_to_coord(frac: float, axis: np.ndarray, log_scale: bool) -> float:
    n = axis.size
    i0 = min(int(math.floor(frac)), n - 2) if n > 1 else 0
    i0 = max(i0, 0)
    t = frac - i0
    a, b = float(axis[i0]), float(axis[min(i0 + 1, n - 1)])
    if log_scale:
        return math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    return (1.0 - t) * a + t * b


def zero_isolines(values, x_axis, y_axis):
    ny, nx = values.shape
    segments = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            for p, q in _cell_segments(i, j, values):
                if _key(p) != _key(q):
                    segments.append((p, q))
    return [
        np.array([(_index_to_coord(x, x_axis, True), _index_to_coord(y, y_axis, False))
                  for x, y in chain])
        for chain in _chain_segments(segments)
    ]


# ---------------------------------------------------------------------------
# SVG heatmap, one colour blend per cell

_NEG = (68, 1, 84)
_MID = (247, 247, 247)
_POS = (253, 231, 37)


def _blend(a, b, t: float) -> str:
    rgb = tuple(int(round(a[i] + (b[i] - a[i]) * t)) for i in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _color(value: float, vmax: float) -> str:
    if vmax <= 0.0:
        return _blend(_MID, _MID, 0.0)
    t = max(-1.0, min(1.0, value / vmax))
    if t >= 0.0:
        return _blend(_MID, _POS, t)
    return _blend(_MID, _NEG, -t)


def render_heatmap_svg(grid, path, width: int = 720, height: int = 480) -> None:
    left, right, top, bottom = 60.0, 20.0, 36.0, 48.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    n_x = grid.omega.size
    n_y = grid.axis2.size
    cell_w = plot_w / n_x
    cell_h = plot_h / n_y
    vmax = float(np.max(np.abs(grid.delta)))

    x_lo, x_hi = math.log(grid.omega[0]), math.log(grid.omega[-1])
    y_lo, y_hi = float(grid.axis2[0]), float(grid.axis2[-1])

    def x_px(omega: float) -> float:
        frac = (math.log(omega) - x_lo) / (x_hi - x_lo) if x_hi > x_lo else 0.0
        return left + cell_w / 2.0 + frac * (plot_w - cell_w)

    def y_px(a2: float) -> float:
        frac = (a2 - y_lo) / (y_hi - y_lo)
        return top + plot_h - cell_h / 2.0 - frac * (plot_h - cell_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    title = grid.pair or "sweep"
    parts.append(
        f'<text x="{left:.1f}" y="20" font-family="monospace" font-size="13">'
        f'delta-eta heatmap: {title}</text>'
    )

    for j in range(n_y):
        cy = y_px(float(grid.axis2[j]))
        for i in range(n_x):
            cx = x_px(float(grid.omega[i]))
            color = _color(float(grid.delta[j, i]), vmax)
            parts.append(
                f'<rect x="{cx - cell_w / 2.0:.2f}" y="{cy - cell_h / 2.0:.2f}" '
                f'width="{cell_w:.2f}" height="{cell_h:.2f}" fill="{color}"/>'
            )

    if grid.omega[0] <= 1.0 <= grid.omega[-1]:  # the regime marker at omega = 1
        xm = x_px(1.0)
        parts.append(
            f'<line x1="{xm:.2f}" y1="{top:.2f}" x2="{xm:.2f}" y2="{top + plot_h:.2f}" '
            f'stroke="white" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )

    for line in grid.contours:
        pts = " ".join(f"{x_px(float(x)):.2f},{y_px(float(y)):.2f}" for x, y in line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.2"/>'
        )

    parts.append(
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    axis_label = grid.axis2_kind
    parts.append(
        f'<text x="{left:.1f}" y="{height - 14}" font-family="monospace" font-size="12">'
        f'omega: {grid.omega[0]:.3g} .. {grid.omega[-1]:.3g} (log)</text>'
    )
    parts.append(
        f'<text x="12" y="{top + 12:.1f}" font-family="monospace" font-size="12">'
        f'{axis_label}: {grid.axis2[0]:.3g} .. {grid.axis2[-1]:.3g}</text>'
    )
    parts.append("</svg>")

    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")

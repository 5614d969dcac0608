"""Zero-level-set extraction on a rectangular scalar grid (marching squares).

Corners are classified as positive (``v > 0``) or not; a crossing on an edge
is placed by linear interpolation of the two corner values. Ambiguous saddle
cells are resolved by the sign of the cell-center value (mean of corners).
Classification and crossing placement are array code over one boolean sign
grid and the crossing cells; chaining segments into polylines and mapping
index to data coordinates are scalar. Output is deterministic in scan order.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Cell corners c0=(i, j) c1=(i+1, j) c2=(i+1, j+1) c3=(i, j+1) as (x, y) offsets from the
# cell's (column i, row j); edges e0=c0-c1, e1=c1-c2, e2=c3-c2, e3=c0-c3
_CORNER_X, _CORNER_Y = np.array((0, 1, 1, 0)), np.array((0, 0, 1, 1))
_EDGE_FROM, _EDGE_TO = np.array((0, 1, 3, 0)), np.array((1, 2, 2, 3))

# case -> (edge, edge) of its one segment, shared with its complement 15 - case; saddles
# (5, 10) take two from _SADDLE_EDGES, and uniform cells (0, 15) never reach this code.
# Built flat: a nested sequence would set up numpy's conversion state (~140 KB) at import.
_ONE_SEGMENT = dict(zip((1, 2, 3, 4, 6, 7), ((3, 0), (0, 1), (3, 1), (1, 2), (0, 2), (2, 3))))
_CASE_EDGES = np.array([e for c in range(16)
                        for e in _ONE_SEGMENT.get(min(c, 15 - c), (0, 0))]).reshape(16, 2)
# saddle segments' edges, indexed by whether they isolate c1 and c3 (else c0 and c2)
_SADDLE_EDGES = np.array((3, 0, 1, 2, 0, 1, 3, 2)).reshape(2, 2, 2)


def _chain_segments(segments):
    """Join segment ends ``(point, key)`` with equal keys into polylines, in scan order."""
    adjacency: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        adjacency.setdefault(p[1], []).append(idx)
        adjacency.setdefault(q[1], []).append(idx)

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = deque(segments[start])
        # extend forward from q, then backward from p
        for endpoint_side in (1, 0):
            while True:
                tip = chain[-1] if endpoint_side == 1 else chain[0]
                nxt = None
                for idx in adjacency.get(tip[1], ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                a, b = segments[nxt]
                other = b if a[1] == tip[1] else a
                if endpoint_side == 1:
                    chain.append(other)
                else:
                    chain.appendleft(other)
                if chain[0][1] == chain[-1][1] and len(chain) > 2:
                    break  # closed loop
        polylines.append([point for point, _ in chain])
    return polylines


def _index_to_coord(frac: float, axis: np.ndarray, log_scale: bool) -> float:
    # a crossing's index lies in [0, n - 1]; the last one reads the last cell
    i0 = min(int(math.floor(frac)), axis.size - 2)
    t = frac - i0
    a, b = float(axis[i0]), float(axis[i0 + 1])
    if log_scale:
        return math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    return (1.0 - t) * a + t * b


def zero_isolines(values: np.ndarray, x_axis: np.ndarray,
                  y_axis: np.ndarray) -> list[np.ndarray]:
    """Extract zero-level polylines of ``values[j, i]`` in data coordinates.

    ``values`` has shape ``(len(y_axis), len(x_axis))``; ``x_axis`` (the budget
    omega) is read on a log scale, ``y_axis`` linearly. Returns a list of
    arrays of shape ``(k, 2)`` with columns ``(x, y)``; empty when the grid
    has uniform sign.
    """
    ny, nx = values.shape
    if nx != x_axis.size or ny != y_axis.size:
        raise ValueError("axis lengths do not match the value grid")
    # a cell crosses when a corner's sign differs from c0's; one byte a grid point
    positive = values > 0.0
    c0 = positive[:-1, :-1]
    crossing = c0 != positive[:-1, 1:]
    crossing |= c0 != positive[1:, 1:]
    crossing |= c0 != positive[1:, :-1]
    rows, cols = np.nonzero(crossing)  # row-major scan order
    del positive, c0, crossing  # before the per-segment lists are built
    v = values[rows[:, None] + _CORNER_Y, cols[:, None] + _CORNER_X]  # (cells, corner c0..c3)
    cases = ((v > 0.0) << np.arange(4)).sum(axis=1)  # bit k set when corner k is positive
    saddle = (cases == 5) | (cases == 10)
    vs = v[saddle].T
    # connect a saddle around the corners isolated from the center's sign
    isolate_c1_c3 = (cases[saddle] == 5) == ((vs[0] + vs[1] + vs[2] + vs[3]) / 4.0 > 0.0)
    edges = np.stack((_CASE_EDGES[cases],) * 2, axis=1)  # (cells, segment, edge)
    edges[saddle] = _SADDLE_EDGES[isolate_c1_c3.astype(np.intp)]
    cell, segment = np.nonzero(np.arange(2) <= saddle[:, None])  # in cell order
    edges = edges[cell, segment]  # (segments, end)
    a, b, cell = _EDGE_FROM[edges], _EDGE_TO[edges], cell[:, None]
    t = v[cell, a] / (v[cell, a] - v[cell, b])
    # gathered, not cast: numpy's first int-to-float cast in a process sets up ~128 KB
    xs, ys = np.arange(float(nx)), np.arange(float(ny))
    xa, xb = xs[cols[cell] + _CORNER_X[a]], xs[cols[cell] + _CORNER_X[b]]
    ya, yb = ys[rows[cell] + _CORNER_Y[a]], ys[rows[cell] + _CORNER_Y[b]]
    points = np.stack((xa + t * (xb - xa), ya + t * (yb - ya)), axis=-1)  # (segments, end, xy)
    # endpoint keys: (x, y) rounded to 9 decimals, exactly as np.float64.__round__ does
    keys = np.round(points.reshape(-1, 4), 9).tolist()
    ends = [((p, (kx, ky)), (q, (lx, ly)))
            for (p, q), (kx, ky, lx, ly) in zip(points.tolist(), keys)
            # crossings pinned to an exactly-zero corner collapse to points
            if (kx, ky) != (lx, ly)]
    return [np.array([(_index_to_coord(x, x_axis, True), _index_to_coord(y, y_axis, False))
                      for x, y in chain])
            for chain in _chain_segments(ends)]

"""Zero-level-set extraction on a rectangular scalar grid (marching squares).

Corners are classified as positive (``v > 0``) or not; a crossing on an edge
is placed by linear interpolation of the two corner values. Ambiguous saddle
cells are resolved by the sign of the cell-center value (mean of corners).
Segments are chained into polylines; output is deterministic in scan order.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Cell corners, in index coordinates (x = column i, y = row j):
#   c0=(i, j)  c1=(i+1, j)  c2=(i+1, j+1)  c3=(i, j+1)
# Edges: e0=c0-c1, e1=c1-c2, e2=c3-c2, e3=c0-c3
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))

# case index -> list of (edge, edge) segments; saddles (5, 10) handled separately,
# uniform cells (0, 15) never reach the segment code
_SEGMENTS = {
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


def _cell_segments(i: int, j: int, v, case: int):
    """Segments of one crossing cell with corner values ``v`` = (c0, c1, c2, c3)."""
    corners = _corner_coords(i, j)
    if case in (5, 10):
        center_positive = (v[0] + v[1] + v[2] + v[3]) / 4.0 > 0.0
        # connect around the corners that are isolated from the center's sign
        if (case == 5) == center_positive:
            pairs = ((0, 1), (3, 2))  # isolate c1 and c3
        else:
            pairs = ((3, 0), (1, 2))  # isolate c0 and c2
        return tuple((_edge_point(corners, v, a), _edge_point(corners, v, b))
                     for a, b in pairs)
    return tuple((_edge_point(corners, v, a), _edge_point(corners, v, b))
                 for a, b in _SEGMENTS[case])


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
    n = axis.size
    i0 = min(int(math.floor(frac)), n - 2) if n > 1 else 0
    i0 = max(i0, 0)
    t = frac - i0
    a, b = float(axis[i0]), float(axis[min(i0 + 1, n - 1)])
    if log_scale:
        return math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    return (1.0 - t) * a + t * b


def zero_isolines(values: np.ndarray, x_axis: np.ndarray, y_axis: np.ndarray,
                  x_log: bool = False, y_log: bool = False) -> list[np.ndarray]:
    """Extract zero-level polylines of ``values[j, i]`` in data coordinates.

    ``values`` has shape ``(len(y_axis), len(x_axis))``. Returns a list of
    arrays of shape ``(k, 2)`` with columns ``(x, y)``; empty when the grid
    has uniform sign.
    """
    ny, nx = values.shape
    if nx != x_axis.size or ny != y_axis.size:
        raise ValueError("axis lengths do not match the value grid")
    # corner views in cell order c0..c3, each of shape (ny - 1, nx - 1)
    v0, v1, v2, v3 = values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1]
    cases = (v0 > 0.0) + 2 * (v1 > 0.0) + 4 * (v2 > 0.0) + 8 * (v3 > 0.0)
    rows, cols = np.nonzero((cases != 0) & (cases != 15))  # row-major scan order
    segments = []
    for j, i in zip(rows.tolist(), cols.tolist()):
        v = (values[j, i], values[j, i + 1], values[j + 1, i + 1], values[j + 1, i])
        segments.extend(_cell_segments(i, j, v, int(cases[j, i])))
    # endpoint keys: (x, y) rounded to 9 decimals, exactly as np.float64.__round__ does
    keys = np.round(np.array(segments, dtype=float).reshape(-1, 4), 9).tolist()
    ends = [((p, (kx, ky)), (q, (lx, ly)))
            for (p, q), (kx, ky, lx, ly) in zip(segments, keys)
            # crossings pinned to an exactly-zero corner collapse to points
            if (kx, ky) != (lx, ly)]
    return [np.array([(_index_to_coord(x, x_axis, x_log), _index_to_coord(y, y_axis, y_log))
                      for x, y in chain])
            for chain in _chain_segments(ends)]

"""Minimal SVG heatmaps for sweep grids.

Diverging color map centered at zero (purple favors the second strategy,
yellow the first), zero contours overdrawn in black, and a dashed white
vertical rule at the regime-marker budget. Output is plain hand-assembled
SVG so identical grids render byte-identically.
"""

from __future__ import annotations

import math

import numpy as np

from .toy_model import SweepGrid

_NEG = (68, 1, 84)      # strong negative
_MID = (247, 247, 247)  # zero
_POS = (253, 231, 37)   # strong positive

# canvas size and plot margins, in pixels
_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 60.0, 20.0, 36.0, 48.0
#: budget of the dashed regime-marker rule: omega = 1, where the budget meets the prior entropy
_REGIME_MARKER_OMEGA = 1.0


def _cell_colors(delta: np.ndarray, vmax: float) -> tuple[list[str], np.ndarray]:
    """Distinct ``#rrggbb`` fills, and each cell's index into them.

    Cells blend from the zero color toward either end by ``delta / vmax``.
    """
    t = np.clip(delta / vmax, -1.0, 1.0) if vmax > 0.0 else np.zeros_like(delta)
    positive = t >= 0.0
    weight = np.where(positive, t, -t)
    code = np.zeros(delta.shape, dtype=np.int64)
    for mid, pos, neg in zip(_MID, _POS, _NEG):
        end = np.where(positive, pos, neg)
        # np.rint rounds half to even, as round() does
        code = code * 256 + np.rint(mid + (end - mid) * weight).astype(np.int64)
    codes, inverse = np.unique(code, return_inverse=True)
    return ["#%06x" % c for c in codes.tolist()], inverse.reshape(code.shape)


def render_heatmap_svg(grid: SweepGrid, path) -> None:
    """Render one grid to an SVG file."""
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM
    n_x = grid.omega.size
    n_y = grid.axis2.size
    cell_w = plot_w / n_x
    cell_h = plot_h / n_y
    vmax = float(np.max(np.abs(grid.delta)))

    x_lo, x_hi = math.log(grid.omega[0]), math.log(grid.omega[-1])
    y_lo, y_hi = float(grid.axis2[0]), float(grid.axis2[-1])

    def x_px(omega: float) -> float:
        # distinct omegas a few ulps apart near 1e300 or 1e-300 can share one log
        frac = (math.log(omega) - x_lo) / (x_hi - x_lo) if x_hi > x_lo else 0.0
        return _LEFT + cell_w / 2.0 + frac * (plot_w - cell_w)

    def y_px(a2: float) -> float:
        # from halves, which no finite span overflows; exact for normal floats, so the same bits
        frac = (a2 / 2.0 - y_lo / 2.0) / (y_hi / 2.0 - y_lo / 2.0)
        # axis2 grows upward on the plot
        return _TOP + plot_h - cell_h / 2.0 - frac * (plot_h - cell_h)

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    title = grid.pair or "sweep"
    head.append(
        f'<text x="{_LEFT:.1f}" y="20" font-family="monospace" font-size="13">'
        f'delta-eta heatmap: {title}</text>'
    )

    tail = []
    if grid.omega[0] <= _REGIME_MARKER_OMEGA <= grid.omega[-1]:
        xm = x_px(_REGIME_MARKER_OMEGA)
        tail.append(
            f'<line x1="{xm:.2f}" y1="{_TOP:.2f}" x2="{xm:.2f}" y2="{_TOP + plot_h:.2f}" '
            f'stroke="white" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )

    for line in grid.contours:
        pts = " ".join(f"{x_px(float(x)):.2f},{y_px(float(y)):.2f}" for x, y in line)
        tail.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.2"/>'
        )

    tail.append(
        f'<rect x="{_LEFT:.1f}" y="{_TOP:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    axis_label = grid.axis2_kind
    tail.append(
        f'<text x="{_LEFT:.1f}" y="{_HEIGHT - 14}" font-family="monospace" font-size="12">'
        f'omega: {grid.omega[0]:.3g} .. {grid.omega[-1]:.3g} (log)</text>'
    )
    tail.append(
        f'<text x="12" y="{_TOP + 12:.1f}" font-family="monospace" font-size="12">'
        f'{axis_label}: {grid.axis2[0]:.3g} .. {grid.axis2[-1]:.3g}</text>'
    )
    tail.append("</svg>")

    x_text = [f"{x_px(x) - cell_w / 2.0:.2f}" for x in grid.omega.tolist()]
    size = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    palette, color_index = _cell_colors(grid.delta, vmax)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(head) + "\n")
        # one write per axis2 row, so the cell rects are never all in memory
        for a2, row_index in zip(grid.axis2.tolist(), color_index):
            y = f"{y_px(a2) - cell_h / 2.0:.2f}"
            fh.write("".join(f'<rect x="{x}" y="{y}" {size} fill="{palette[k]}"/>\n'
                             for x, k in zip(x_text, row_index.tolist())))
        fh.write("\n".join(tail) + "\n")

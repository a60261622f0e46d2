"""Deterministic CSV and SVG writers for sampled bases and curves.

CSV files carry a header row and 17-significant-digit floats, so identical
inputs produce byte-identical artifacts.  SVG output is plain polylines in a
fixed viewport; no external plotting dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import ChebsplineError

FLOAT_FMT = "%.17g"
FUNCTION_SIZE = (720, 480)   # pixels of a function plot
CURVE_SIZE = (720, 720)      # pixels of a curve plot
MARGIN = 42.0                # pixels between the drawing and the border
COMB_FRAC = 0.15             # longest comb whisker / bounding-box diagonal

# tab10, the matplotlib default cycle
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def csv_text(header, columns) -> str:
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    if len(cols) != len(header):
        raise ChebsplineError(
            f"{len(header)} header names for {len(cols)} columns")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ChebsplineError("columns have unequal lengths")
    lines = [",".join(header)]
    for k in range(n):
        lines.append(",".join(FLOAT_FMT % c[k] for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(header, columns))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _p(v: float) -> str:
    """Pixel coordinate, short but stable."""
    return "%.6g" % (v + 0.0)


class _Viewport:
    """World box -> pixel box, y flipped; optionally equal x/y scales."""

    def __init__(self, xlim, ylim, size, equal: bool):
        self.w, self.h = size
        x0, x1 = xlim
        y0, y1 = ylim
        spanx = max(x1 - x0, 1e-30)
        spany = max(y1 - y0, 1e-30)
        sx = (self.w - 2 * MARGIN) / spanx
        sy = (self.h - 2 * MARGIN) / spany
        if equal:
            sx = sy = min(sx, sy)
        self.sx, self.sy = sx, sy
        # center the drawing in the viewport
        self.ox = MARGIN + 0.5 * ((self.w - 2 * MARGIN) - sx * spanx) - sx * x0
        self.oy = self.h - MARGIN - 0.5 * ((self.h - 2 * MARGIN) - sy * spany) \
            + sy * y0

    def map(self, xy) -> np.ndarray:
        """Pixels of the (n, 2) world points xy, -0 made +0 as _p does."""
        xy = np.asarray(xy, dtype=float)
        return np.column_stack([self.ox + self.sx * xy[:, 0],
                                self.oy - self.sy * xy[:, 1]]) + 0.0


def _polyline(vp: _Viewport, xy, color: str, width: float = 1.5) -> str:
    pix = vp.map(xy)
    pts = " ".join(["%.6g,%.6g"] * len(pix)) % tuple(pix.ravel().tolist())
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_p(width)}" points="{pts}"/>')


def _segments(vp: _Viewport, a, b, color: str, width: float) -> list[str]:
    """One <line> from each point of a to the same row of b."""
    line = (f'<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" '
            f'stroke="{color}" stroke-width="{_p(width)}"/>')
    ends = np.hstack([vp.map(a), vp.map(b)]).tolist()
    return [line % tuple(e) for e in ends]


def _document(size, body: list[str]) -> str:
    w, h = size
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">')
    return "\n".join([head, f'<rect width="{w}" height="{h}" fill="white"/>',
                      *body, "</svg>"]) + "\n"


def _pad(lo: float, hi: float, frac: float = 0.05) -> tuple[float, float]:
    span = hi - lo
    if span <= 0:
        span = max(abs(lo), 1.0)
    return lo - frac * span, hi + frac * span


def svg_function_plot(xs, ys_list) -> str:
    """Graphs of several functions over a shared abscissa."""
    xs = np.asarray(xs, dtype=float)
    ys_list = [np.asarray(y, dtype=float) for y in ys_list]
    ymin = min(float(y.min()) for y in ys_list)
    ymax = max(float(y.max()) for y in ys_list)
    vp = _Viewport(_pad(float(xs[0]), float(xs[-1])), _pad(ymin, ymax),
                   FUNCTION_SIZE, equal=False)
    body = []
    # axis lines at y = 0 and the domain ends
    if ymin <= 0.0 <= ymax:
        body += _segments(vp, [(xs[0], 0.0)], [(xs[-1], 0.0)], "#888888", 0.8)
    body += _segments(vp, [(xs[0], ymin), (xs[-1], ymin)],
                      [(xs[0], ymax), (xs[-1], ymax)], "#cccccc", 0.8)
    for i, y in enumerate(ys_list):
        body.append(_polyline(vp, np.column_stack([xs, y]), _color(i)))
    return _document(FUNCTION_SIZE, body)


def svg_curve_plot(curves, combs=None) -> str:
    """Planar parametric curves at equal scales, with optional combs.

    curves: list of (n, 2) arrays.  combs: list of (base, tip) pairs of
    (n, 2) arrays; every base->tip whisker is drawn plus the tip envelope.
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    pools = list(curves) + [np.vstack([b, t]) for b, t in (combs or [])]
    allp = np.vstack(pools)
    vp = _Viewport(_pad(float(allp[:, 0].min()), float(allp[:, 0].max())),
                   _pad(float(allp[:, 1].min()), float(allp[:, 1].max())),
                   CURVE_SIZE, equal=True)
    body = []
    for base, tips in (combs or []):
        body += _segments(vp, base, tips, "#b0c4de", 0.6)
        body.append(_polyline(vp, tips, "#b0c4de", 0.8))
    for i, c in enumerate(curves):
        body.append(_polyline(vp, c, _color(i), 2.0))
    return _document(CURVE_SIZE, body)


def write_svg(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# curvature comb
# ---------------------------------------------------------------------------

def curvature_comb(points, d1, d2):
    """Comb whiskers for a planar curve from its first two derivatives.

    Whisker length is the signed curvature scaled so the longest one is
    COMB_FRAC times the bounding-box diagonal.  Returns (base, tips).
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(d1, dtype=float)
    a = np.asarray(d2, dtype=float)
    speed2 = v[:, 0] ** 2 + v[:, 1] ** 2
    speed2 = np.where(speed2 < 1e-30, 1e-30, speed2)
    kappa = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / speed2 ** 1.5
    normal = np.column_stack([-v[:, 1], v[:, 0]]) / np.sqrt(speed2)[:, None]
    span = p.max(axis=0) - p.min(axis=0)
    diag = float(np.hypot(span[0], span[1]))
    kmax = float(np.abs(kappa).max())
    scale = COMB_FRAC * (diag if diag > 0 else 1.0) / (kmax if kmax > 0 else 1.0)
    tips = p - normal * (kappa * scale)[:, None]
    return p, tips

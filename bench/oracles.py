"""Independent checks of the library's outputs, run outside the timed region.

- Cox-de Boor: textbook recurrence for polynomial spaces, vectorised over
  the sample points, plus the derivative-spline formula for curves.
- Closed forms: chebspline.closedform.eval_closed_n4 for the three
  one-parameter order-4 families.
- Extended precision: a transition row re-solved with mpmath from the
  definitions (Hermite conditions read off the knot vector, generators
  written out per family) and compared with the library's values.
- Partition of unity and deviation between two splines.

Each check returns the worst forward error it saw; a failed check raises
CheckFailed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


class CheckFailed(Exception):
    """An output disagreed with its oracle beyond the stated tolerance."""


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def finite_max(a) -> float:
    a = np.asarray(a, dtype=float)
    require(bool(np.all(np.isfinite(a))), "non-finite values in output")
    return float(np.abs(a).max()) if a.size else 0.0


# ---------------------------------------------------------------------------
# polynomial oracle (Cox-de Boor)
# ---------------------------------------------------------------------------

def _spans(t: np.ndarray, m: int, xs: np.ndarray) -> np.ndarray:
    """0-based ell with t[ell] <= x < t[ell+1], right-closed at the end."""
    dim = len(t) - m
    ell = np.searchsorted(t, xs, side="right") - 1
    last = dim - 1
    while t[last] == t[last + 1]:
        last -= 1
    return np.clip(ell, m - 1, last)


def cox_de_boor(t, m: int, xs) -> np.ndarray:
    """(len(xs), dim) matrix of N_{i,m}(x) by the triangular recurrence."""
    t = np.asarray(t, dtype=float)
    xs = np.asarray(xs, dtype=float)
    dim = len(t) - m
    ell = _spans(t, m, xs)
    n = len(xs)
    vals = np.zeros((n, m))
    vals[:, m - 1] = 1.0
    for k in range(1, m):
        nxt = np.zeros((n, m))
        for j in range(k + 1):
            i = ell - k + j
            left = t[i + k] - t[i]
            right = t[i + k + 1] - t[i + 1]
            acc = np.zeros(n)
            lpos = left > 0
            acc[lpos] += ((xs - t[i]) / np.where(lpos, left, 1.0)
                          * vals[:, m - 1 - k + j])[lpos]
            if j < k:
                rpos = right > 0
                acc[rpos] += ((t[i + k + 1] - xs) / np.where(rpos, right, 1.0)
                              * vals[:, m - k + j])[rpos]
            nxt[:, m - 1 - k + j] = acc
        vals = nxt
    out = np.zeros((n, dim))
    rows = np.arange(n)
    for j in range(m):
        out[rows, ell - m + 1 + j] = vals[:, j]
    return out


def poly_spline_derivative(t, m: int, c: np.ndarray):
    """Knots, order and coefficients of the derivative of a polynomial spline."""
    t = np.asarray(t, dtype=float)
    span = t[m:len(t) - 1] - t[1:len(t) - m]
    diff = c[1:] - c[:-1]
    d = np.zeros_like(diff)
    pos = span > 0
    d[pos] = (m - 1) * diff[pos] / span[pos][:, None]
    return t[1:-1], m - 1, d


def poly_spline_values(t, m: int, c: np.ndarray, xs, r: int = 0) -> np.ndarray:
    for _ in range(r):
        t, m, c = poly_spline_derivative(t, m, c)
    return cox_de_boor(t, m, xs) @ c


# ---------------------------------------------------------------------------
# basis checks
# ---------------------------------------------------------------------------

def partition_of_unity(vals: np.ndarray, tol: float = 1e-10) -> float:
    err = finite_max(vals.sum(axis=1) - 1.0)
    require(err <= tol, f"partition of unity off by {err:.3e}")
    return err


def match(a, b, tol: float, what: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = finite_max(a - b)
    require(err <= tol, f"{what}: error {err:.3e} > {tol:.1e}")
    return err


def closed_form_matrix(case: str, knots, param: float, xs, dim: int) -> np.ndarray:
    from chebspline.closedform import eval_closed_n4
    return np.column_stack([eval_closed_n4(case, knots, param, i, xs)
                            for i in range(1, dim + 1)])


# ---------------------------------------------------------------------------
# extended-precision transition rows
# ---------------------------------------------------------------------------

MP_DPS = 40


def _generators(family: str, params: dict, m: int) -> list:
    """Generators of a section as (kind, data): 'pow' t**n / (1-t)**n is
    differentiated in closed form, 'fn' by mpmath in extended precision."""
    mono = lambda count: [("pow", (k, False)) for k in range(count)]
    th = mp.mpf(params.get("theta", 0.0))
    ph = mp.mpf(params.get("phi", 0.0))
    trig = [("fn", lambda t: mp.cos(th * t)), ("fn", lambda t: mp.sin(th * t))]
    hyp = [("fn", lambda t: mp.cosh(ph * t)), ("fn", lambda t: mp.sinh(ph * t))]
    if family == "polynomial":
        return mono(m)
    if family == "trigonometric":
        return mono(m - 2) + trig
    if family == "hyperbolic":
        return mono(m - 2) + hyp
    if family == "mixed":
        return mono(m - 4) + trig + hyp
    if family == "trig-envelope":
        return mono(m - 4) + trig + [("fn", lambda t: t * mp.cos(th * t)),
                                     ("fn", lambda t: t * mp.sin(th * t))]
    if family == "multi-frequency-trig":
        return mono(1) + trig + [("fn", lambda t: mp.cos(2 * th * t)),
                                 ("fn", lambda t: mp.sin(2 * th * t))]
    if family == "rational-tension":
        k = mp.mpf(params["nu"]) - 3
        q = lambda t: 1 + k * (1 - t) * t
        return mono(2) + [("fn", lambda t: (1 - t) ** 3 / q(t)),
                          ("fn", lambda t: t ** 3 / q(t))]
    if family == "variable-degree":
        return mono(m - 2) + [("pow", (mp.mpf(params["n1"]), True)),
                              ("pow", (mp.mpf(params["n2"]), False))]
    raise ValueError(f"no extended-precision generators for {family}")


def _gen_deriv(gen, r: int, t):
    kind, data = gen
    if kind == "fn":
        return mp.diff(data, t, r) if r else data(t)
    n, mirror = data
    if n == int(n) and r > int(n):
        return mp.mpf(0)
    c = mp.mpf(1)
    for j in range(r):
        c *= n - j
    # the section lives on t in [0, 1]; rounding of the local map must not
    # push a fractional power's base below zero
    base = max((1 - t) if mirror else t, mp.mpf(0))
    sign = (-1) ** r if mirror else 1
    if n - r == 0:
        return sign * c
    return sign * c * base ** (n - r)


class MPSection:
    """A section's generators in extended precision, in x-units."""

    def __init__(self, sec):
        self.anchor = mp.mpf(sec.anchor)
        self.scale = mp.mpf(sec.scale)
        self.gens = _generators(sec.family, sec.params, sec.order)

    def derivs(self, r: int, x) -> list:
        # the local coordinate is rounded as the library rounds it: at a
        # section end it is then exactly 0 or 1, where derivatives of a
        # fractional power (1 - t)**n with n - r < 1 would otherwise jump
        t = mp.mpf((float(x) - float(self.anchor)) * float(self.scale))
        return [self.scale ** r * _gen_deriv(g, r, t) for g in self.gens]


def mp_row(space, i: int):
    """Re-solve transition row i of a single-order space in mpmath.

    Returns (pieces, coefficient vectors, first grid index) or None for a
    step row.  The Hermite conditions are read off the knot vector: f_i
    vanishes to order m - mu at t_i, where mu counts the copies of t_i from
    index i on; 1 - f_i vanishes to order m - mu' at t_{i+m-1}; interior
    break points of multiplicity mu tie m - mu derivatives, through the
    connection matrix when one is attached.
    """
    part = space.partition
    t = part.knots
    grid = part.grid
    m = part.order
    lo, hi = float(t[i - 1]), float(t[i + m - 2])
    if lo == hi:
        return None
    k = i - 1
    while k < len(t) and t[k] == lo:
        k += 1
    mu_lo = k - (i - 1)
    k = i + m - 2
    while k >= 0 and t[k] == hi:
        k -= 1
    mu_hi = (i + m - 2) - k
    g_lo = int(np.searchsorted(grid, lo))
    g_hi = int(np.searchsorted(grid, hi))
    secs = [MPSection(space.sections[j]) for j in range(g_lo, g_hi)]
    orders = [space.sections[j].order for j in range(g_lo, g_hi)]
    offs = [0]
    for o in orders:
        offs.append(offs[-1] + o)
    n = offs[-1]
    A = mp.zeros(n, n)
    rhs = mp.zeros(n, 1)
    row = 0
    for r in range(m - mu_lo):
        for h, v in enumerate(secs[0].derivs(r, lo)):
            A[row, h] = v
        row += 1
    for p in range(len(secs) - 1):
        x = float(grid[g_lo + p + 1])
        cnt = m - int(np.sum(t == x))
        left = [secs[p].derivs(r, x) for r in range(cnt)]
        M = space.connections.get(g_lo + p + 1)
        if M is not None:
            left = [[sum(mp.mpf(M[r, s]) * left[s][h] for s in range(r + 1))
                     for h in range(orders[p])] for r in range(cnt)]
        for r in range(cnt):
            right = secs[p + 1].derivs(r, x)
            for h in range(orders[p]):
                A[row, offs[p] + h] = left[r][h]
            for h in range(orders[p + 1]):
                A[row, offs[p + 1] + h] = -right[h]
            row += 1
    for r in range(m - mu_hi):
        for h, v in enumerate(secs[-1].derivs(r, hi)):
            A[row, offs[-2] + h] = v
        rhs[row] = 1 if r == 0 else 0
        row += 1
    require(row == n, f"row {i}: {row} conditions for {n} unknowns")
    sol = mp.lu_solve(A, rhs)
    coeffs = [[sol[offs[p] + h] for h in range(orders[p])]
              for p in range(len(secs))]
    return secs, coeffs, g_lo


# A row passes when its forward error stays within ROW_C times its condition
# number times machine epsilon.  Over about 2000 rows of build and sample
# the worst ratio seen was 1.7, and 99 % of rows stayed below 0.3.
ROW_C = 32.0
EPS = 2.0 ** -52


def mp_row_error(space, i: int, xs=None, value=None, points_per_piece: int = 4) -> float:
    """Worst |f_i(x) - f_i^mp(x)| over sample points of the row's support.

    xs: the points to compare at (those outside the row's support are
    skipped); by default points_per_piece per piece.  value(x, i): the
    value under test; by default the library's table.  The error must stay
    within ROW_C * cond * eps, with cond the row's own condition number
    from the library's RowReport.
    """
    grid = space.partition.grid
    if value is None:
        value = lambda x, i: space.table.eval(i, x, 0, "right")
    with mp.workdps(MP_DPS):
        solved = mp_row(space, i)
        if solved is None:
            return 0.0
        secs, coeffs, g_lo = solved
        worst = 0.0
        for p, (sec, c) in enumerate(zip(secs, coeffs)):
            a, b = float(grid[g_lo + p]), float(grid[g_lo + p + 1])
            if xs is None:
                pts = np.linspace(a, b, points_per_piece + 2)[:-1]
            else:
                pts = [x for x in xs if a <= x < b or (x == b == grid[-1])]
            for x in pts:
                exact = mp.fsum(ci * v for ci, v in zip(c, sec.derivs(0, x)))
                worst = max(worst, abs(float(value(float(x), i) - exact)))
    require(math.isfinite(worst), f"transition row {i}: non-finite values")
    rep = space.table.reports.get(i)
    cond = max(1.0, rep.condition if rep is not None else 1.0)
    require(worst <= ROW_C * cond * EPS,
            f"transition row {i}: error {worst:.3e} > {ROW_C:g} * cond "
            f"{cond:.3e} * eps")
    return worst


def sample_rows(space, count: int, rng=None) -> list[int]:
    """Row indices at fixed quantiles of the table (plus random ones)."""
    ramps = [i for i, row in space.table.rows.items() if row.kind == "ramp"]
    if not ramps:
        return []
    qs = np.linspace(0.0, 1.0, count + 2)[1:-1]
    picks = {ramps[int(q * (len(ramps) - 1))] for q in qs}
    if rng is not None:
        picks.add(ramps[int(rng.integers(len(ramps)))])
    return sorted(picks)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def spline_samples(spline, xs) -> np.ndarray:
    from chebspline import basis
    b = spline.space.b
    return np.array([basis.eval_spline(spline, float(x), "left" if x == b else "right")
                     for x in xs])


def deviation(s_in, s_out, samples: int = 200, tol: float = 1e-9) -> float:
    """Max difference between two splines on their common domain."""
    a = max(s_in.space.a, s_out.space.a)
    b = min(s_in.space.b, s_out.space.b)
    xs = np.linspace(a, b, samples)
    err = finite_max(spline_samples(s_in, xs) - spline_samples(s_out, xs))
    scale = max(1.0, float(np.abs(s_in.coefficients).max()))
    require(err <= tol * scale, f"deviation {err:.3e} > {tol:.1e}*{scale:.3g}")
    return err


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(len(lines) >= 2, f"{path}: no data rows")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    require(data.shape[1] == len(header), f"{path}: ragged rows")
    return header, data


def read_svg(path) -> int:
    """Number of polylines in a well-formed SVG document."""
    import xml.etree.ElementTree as ET
    root = ET.parse(path).getroot()
    require(root.tag.endswith("svg"), f"{path}: root is {root.tag}")
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    for el in lines:
        pts = el.get("points", "").split()
        require(len(pts) >= 2, f"{path}: empty polyline")
        for p in pts:
            float(p.split(",")[0]), float(p.split(",")[1])
    require(len(lines) >= 1, f"{path}: no polylines")
    return len(lines)

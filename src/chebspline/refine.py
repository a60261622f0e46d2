"""Refinement: knot insertion, Bezier extraction, order elevation, knot
removal and the conversion of periodic designs to clamped form.

Knot insertion rests on the two-scale relation
    N_i = alpha_i * Nhat_i + (1 - alpha_{i+1}) * Nhat_{i+1},
with alpha a staircase: 1 up to the insertion window, 0 past it, and a ratio
of one-sided endpoint derivatives of old and new transition functions in
between.  Everything else here is built from repeated insertion plus its
least-squares inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (Spline, SplineSpace, _row_values, make_spline_space,
                    sample_spline)
from .errors import KnotRemovalError, RefinementError
from .partition import (_interval_index, build_extended_partition,
                        partition_from_knots)
from .sections import ECSection, make_section, merge_sections, split_section
from .transition import TransitionTable, _assemble_table, _end_order


# ---------------------------------------------------------------------------
# knot insertion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinementStep:
    that: float
    ell: int                    # scan index: t_ell <= that < t_{ell+1}
    mult: int                   # multiplicity of that after insertion
    alphas: np.ndarray          # alpha_i for i = 1..new dim
    space: SplineSpace          # the refined space
    formula: str                # "left" | "right"
    strategy: str


def _snap_to_grid(grid: np.ndarray, that: float) -> tuple[int | None, float]:
    hits = np.nonzero(np.isclose(grid, that, rtol=0, atol=1e-12 * max(1.0, abs(that))))[0]
    if len(hits):
        j = int(hits[0])
        return j, float(grid[j])
    return None, that


def refine_space_structure(space: SplineSpace, that: float,
                           strategy: str = "restrict"
                           ) -> tuple[SplineSpace, int, int]:
    """Insert a knot into the space structure only (no coefficients).

    Returns (new space, with its table, scan index ell, multiplicity after).
    Existing connection matrices shrink by one row/column when the insertion
    lands on their break point; fresh break points get no matrix (identity).
    """
    part = space.partition
    m = part.order
    knots = part.knots
    if not knots[0] <= that <= knots[-1]:
        raise RefinementError(
            f"insertion point {that} outside the knot range "
            f"[{knots[0]}, {knots[-1]}]")
    hit, that = _snap_to_grid(part.grid, that)
    ell = int(np.searchsorted(knots, that, side="right"))
    mult = part.multiplicity_of(that) + 1
    limit = m if (that <= part.a or that >= part.b) else m - 1
    if mult > limit:
        raise RefinementError(
            f"inserting {that} would raise its multiplicity to {mult} > {limit}")
    grid = part.grid
    sections = list(space.sections)
    if hit is None:
        j0 = _interval_index(grid, that, "right")
        sections[j0:j0 + 1] = split_section(sections[j0], that, strategy)
        grid = np.insert(grid, j0 + 1, that)
    k = m - mult     # rows of a matrix at that; none once that reaches m
    conn = {g: M if g != hit else np.asarray(M, dtype=float)[:k, :k]
            for g, M in space.connections.items() if g != hit or k}
    return (_refined(space, np.insert(knots, ell, that), grid, sections, conn),
            ell, mult)


def _refined(space: SplineSpace, knots: np.ndarray, grid: np.ndarray,
             sections: list[ECSection], connections: dict) -> SplineSpace:
    """The space on knots and grid with these sections, derived from space.

    Each matrix of connections (keyed by space's grid indices) stays on its
    break point, found by value in grid; one that is no longer an inner
    point of grid is dropped.  The table shares every row of space's table
    whose Hermite system is unchanged, with its report; the others are
    solved.
    """
    inner = {x: g for g, x in enumerate(grid.tolist()[1:-1], 1)}
    old = space.partition.grid.tolist()
    new = SplineSpace(partition_from_knots(space.order, knots, grid=grid),
                      sections, {inner[old[g]]: M for g, M in connections.items()
                                 if old[g] in inner})
    table = space.table
    new._table = _assemble_table(new, {spec.key: (table.rows[i], table.reports.get(i))
                                       for i, spec in table.specs.items()})
    return new


def _compute_alphas(old_table: TransitionTable, new_table: TransitionTable,
                    that: float, ell: int, mult: int, formula: str) -> np.ndarray:
    """The staircase alpha_1..alpha_{new dim} tying old and new bases.  The
    rows of the window straddle that, so none is a step row."""
    m = old_table.order
    new_dim = new_table.dim
    alphas = np.zeros(new_dim)
    alphas[:max(0, min(ell - m + 1, new_dim))] = 1.0
    for i in range(ell - m + 2, ell - mult + 2):
        if not 2 <= i <= new_dim:
            continue
        if formula == "left":
            x = old_table.rows[i].start
            order = _end_order(old_table, i, "left")
            num = old_table.eval(i, x, order, "right")
            den = new_table.eval(i, x, order, "right")
        else:
            # at the right support end t_{i+m-1} every left derivative of
            # fhat_i vanishes, so the left-sided ratio of first kinked
            # derivatives of f_i and fhat_{i+1} equals 1 - alpha_i
            x = old_table.rows[i].stop
            order = _end_order(old_table, i, "right")
            x_new = new_table.rows[i + 1].stop
            num = old_table.eval(i, x, order, "left")
            den = new_table.eval(i + 1, x_new, order, "left")
        if den == 0.0 or not np.isfinite(num / den):
            raise RefinementError(
                f"degenerate endpoint derivative ratio for alpha_{i} "
                f"(num={num:.3e}, den={den:.3e}) inserting {that}")
        alphas[i - 1] = num / den if formula == "left" else 1.0 - num / den
    return alphas


def _apply_alphas(alphas: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """chat_i = alpha_i c_i + (1 - alpha_i) c_{i-1}, out-of-range c = 0.
    Each entry starts from +0.0 and leaves out a term whose weight is 0, so
    a zero entry is +0.0 whatever the signs of its terms."""
    new_dim = len(alphas)
    old_dim, d = coeffs.shape
    cur, prev = np.zeros((new_dim, d)), np.zeros((new_dim, d))
    cur[:old_dim] = coeffs[:new_dim]
    prev[1:old_dim + 1] = coeffs[:new_dim - 1]
    a = alphas[:, None]
    return ((0.0 + np.where(a != 0.0, a * cur, 0.0))
            + np.where(a != 1.0, (1.0 - a) * prev, 0.0))


def _insert(space: SplineSpace, spline: Spline, that: float,
            strategy: str, formula: str) -> tuple[RefinementStep, Spline]:
    new_space, ell, mult = refine_space_structure(space, that, strategy)
    alphas = _compute_alphas(space.table, new_space.table, that, ell, mult,
                             formula)
    step = RefinementStep(that, ell, mult, alphas, new_space, formula, strategy)
    return step, Spline(new_space, _apply_alphas(alphas, spline.coefficients))


def insert_knot(space: SplineSpace, spline: Spline, that: float,
                strategy: str = "restrict") -> tuple[RefinementStep, Spline]:
    """Insert a knot at that (a <= that <= b), left-endpoint derivative form."""
    if not space.a <= that <= space.b:
        raise RefinementError(f"{that} outside [{space.a}, {space.b}]")
    return _insert(space, spline, that, strategy, "left")


def insert_knot_right(space: SplineSpace, spline: Spline, that: float,
                      strategy: str = "restrict") -> tuple[RefinementStep, Spline]:
    """Knot insertion with alpha from right-endpoint derivatives.

    Equivalent to insert_knot where both apply; also valid for that >= b on
    partitions whose trailing knots are not yet coincident.
    """
    if that < space.a:
        raise RefinementError(f"{that} below the domain start {space.a}")
    return _insert(space, spline, that, strategy, "right")


def max_deviation(s1: Spline, s2: Spline, samples: int = 1000) -> float:
    """Max componentwise difference over uniform samples of the common domain."""
    a = max(s1.space.a, s2.space.a)
    b = min(s1.space.b, s2.space.b)
    xs = np.linspace(a, b, samples)
    return float(np.abs(sample_spline(s1, xs) - sample_spline(s2, xs)).max())


# ---------------------------------------------------------------------------
# Bezier extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BezierSegments:
    space: SplineSpace          # the multiplicity-(m-1) space
    spline: Spline
    sections: tuple[ECSection, ...]
    controls: tuple[np.ndarray, ...]   # per segment, (m, d) Bernstein points
    steps: tuple[RefinementStep, ...]


def to_bezier_segments(space: SplineSpace, spline: Spline,
                       strategy: str = "restrict") -> BezierSegments:
    """Raise every interior break point to multiplicity m-1.

    Afterwards each section carries its own Bernstein representation: the m
    global B-splines alive on a segment restrict to the section's Bernstein
    basis, so consecutive windows of the coefficient sequence (overlapping by
    one point, C0 joins) are the per-segment control points.  That needs
    clamped ends: a wrap-around spline raises RefinementError.
    """
    m = space.order
    part = space.partition
    if part.multiplicity_of(part.a) < m or part.multiplicity_of(part.b) < m:
        raise RefinementError(
            f"Bezier extraction needs {m} knots at a and at b; convert a "
            f"wrap-around spline with periodic_to_clamped first")
    cur_space, cur = space, spline
    steps = []
    for x in part.grid[1:-1]:          # clamped: every one lies in (a, b)
        while cur_space.partition.multiplicity_of(float(x)) < m - 1:
            step, cur = insert_knot(cur_space, cur, float(x), strategy)
            cur_space = step.space
            steps.append(step)
    c = cur.coefficients
    ctrls = tuple(c[j * (m - 1):j * (m - 1) + m].copy()
                  for j in range(len(cur_space.sections)))
    return BezierSegments(cur_space, cur, tuple(cur_space.sections), ctrls,
                          tuple(steps))


# ---------------------------------------------------------------------------
# order elevation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElevationStep:
    r: int
    gammas: tuple[np.ndarray, ...]       # per segment, gamma_0..gamma_{n+r}
    deltas: tuple[np.ndarray, ...] | None  # r=2: per segment, delta_1..delta_{n+2}
    targets: tuple[ECSection, ...]
    removal_residuals: tuple[float, ...] = ()


def _default_target(sec: ECSection, r: int) -> ECSection:
    """A containing section space of order m+r for the common families."""
    m = sec.order
    fam, params = sec.family, dict(sec.params)
    if fam == "polynomial":
        out_fam, out_params = "polynomial", {}
    elif fam == "trigonometric" and r == 1:
        out_fam, out_params = "trigonometric", params
    elif fam == "trigonometric" and r == 2 and m == 3:
        out_fam, out_params = "mixed", {"theta": params["theta"], "phi": 1.0}
    elif fam == "trigonometric" and r == 2:
        out_fam, out_params = "trig-envelope", {"theta": params["theta"]}
    elif fam == "hyperbolic":
        out_fam, out_params = "hyperbolic", params
    elif fam in ("mixed", "trig-envelope"):
        out_fam, out_params = fam, params
    elif fam == "variable-degree" and (
            min(params["n1"], params["n2"]) < m + r - 2
            or params["n1"] == params["n2"] == m + r - 2):
        # that variable-degree section would be invalid or degenerate;
        # polynomials contain the source when its exponents are whole and
        # at most m+r-1
        if not all(float(n).is_integer() and n <= m + r - 1
                   for n in (params["n1"], params["n2"])):
            raise RefinementError(
                f"no default elevation target of order {m + r} for "
                f"variable-degree exponents n1={params['n1']}, "
                f"n2={params['n2']}; pass target_families")
        out_fam, out_params = "polynomial", {}
    elif fam == "variable-degree":
        out_fam, out_params = fam, params
    else:
        raise RefinementError(
            f"no default elevation target for {fam} sections; pass target_families")
    # keep the source parametrization so the containment is exact
    return make_section(out_fam, out_params, sec.interval, m + r,
                        sec.local_map, anchor=sec.anchor, scale=sec.scale)


def _check_containment(src: ECSection, dst: ECSection, tol: float = 1e-8):
    lo, hi = src.interval
    xs = np.linspace(lo, hi, 4 * dst.order + 9)
    A = dst.eval_all(0, xs).T
    Y = src.eval_all(0, xs).T
    for h, y in enumerate(Y.T, start=1):
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = np.abs(A @ sol - y).max()
        if resid > tol * max(1.0, np.abs(y).max()):
            raise RefinementError(
                f"target section ({dst.family}, order {dst.order}) does not "
                f"contain the source generator {h} of ({src.family}, order "
                f"{src.order}): residual {resid:.3e}")


def _one_section_derivs(table: TransitionTable, j: int, orders: int) -> np.ndarray:
    """D[i, k] = D^k g_i(a) for the one-section transitions g_1..g_n, n=m-1,
    of section j: with every interior knot at multiplicity m-1 they are the
    rows alive on interval j.  Only right-sided derivatives at a are needed.
    """
    _, P = table._block(j)
    sec = table.sections[j]
    D = np.zeros((sec.order, orders + 1))
    D[1:] = _row_values(P, sec.jet(orders, sec.interval[0]).T)
    return D


def _segment_gamma_delta(src: TransitionTable, dst: TransitionTable, j: int,
                         r: int) -> tuple[np.ndarray, np.ndarray | None]:
    n = src.sections[j].order - 1
    Ds = _one_section_derivs(src, j, n + r)
    Dt = _one_section_derivs(dst, j, n + r)
    gam = np.zeros(n + r + 1)
    gam[0] = 1.0
    for i in range(1, n + 1):
        if Dt[i, i] == 0.0:
            raise RefinementError(
                f"vanishing target endpoint derivative D^{i} g~_{i}(a)")
        gam[i] = Ds[i, i] / Dt[i, i]
    if r == 1:
        return gam, None
    delta = np.zeros(n + 2)
    delta[0] = 1.0 - gam[1]            # delta_1
    for i in range(1, n + 1):
        delta[i] = (gam[i] - gam[i + 1]
                    + (Ds[i, i + 1] - gam[i] * Dt[i, i + 1]) / Dt[i + 1, i + 1])
    delta[n + 1] = 0.0                 # delta_{n+2}
    return gam, delta


def _elevate_controls(c: np.ndarray, gam: np.ndarray,
                      delta: np.ndarray | None, r: int) -> np.ndarray:
    n = c.shape[0] - 1
    out = np.zeros((n + 1 + r, c.shape[1]))
    out[0], out[-1] = c[0], c[n]
    g = gam[1:n + 1, None]
    if r == 1:
        out[1:n + 1] = g * c[1:] + (1.0 - g) * c[:-1]
        return out
    out[1] = gam[1] * c[1] + (1.0 - gam[1]) * c[0]
    g, d = g[1:], delta[1:n, None]
    out[2:n + 1] = g * c[2:] + d * c[1:-1] + (1.0 - g - d) * c[:-2]
    out[n + 1] = delta[n] * c[n] + (1.0 - delta[n]) * c[n - 1]
    return out


def elevate_order(space: SplineSpace, spline: Spline, r: int,
                  target_families=None, *, strategy: str = "restrict"
                  ) -> tuple[ElevationStep, Spline]:
    """Raise the order of every section by r (1 or 2).

    Pipeline: Bezier-extract, elevate each segment within a containing
    section space of order m+r, glue the segments C0, then remove knots until
    every interior multiplicity is back to its original value plus r.
    """
    if r not in (1, 2):
        raise RefinementError("elevation amount must be 1 or 2")
    m = space.order
    bez = to_bezier_segments(space, spline, strategy)
    nseg = len(bez.sections)
    if target_families is None:
        targets = [_default_target(s, r) for s in bez.sections]
    else:
        specs = (list(target_families) if isinstance(target_families, (list, tuple))
                 else [target_families] * nseg)
        if len(specs) != nseg:
            raise RefinementError(
                f"need {nseg} target families (one per segment), got {len(specs)}")
        targets = [make_section(sp["family"], sp.get("params"), s.interval,
                                m + r, sp.get("local_map"))
                   for sp, s in zip(specs, bez.sections)]
    grid = bez.space.partition.grid
    glued_part = build_extended_partition(grid, [m + r - 1] * (len(grid) - 2), m + r)
    glued_space = make_spline_space(glued_part, targets)
    gammas, deltas, elevated = [], [], []
    for j, (src, dst, ctrl) in enumerate(zip(bez.sections, targets, bez.controls)):
        _check_containment(src, dst)
        gam, delta = _segment_gamma_delta(bez.space.table, glued_space.table, j, r)
        gammas.append(gam)
        deltas.append(delta)
        elevated.append(_elevate_controls(ctrl, gam, delta, r))
    # glue: C0 joins -> shared interface points must coincide
    scale = max(1.0, max(float(np.abs(e).max()) for e in elevated))
    coeffs = [elevated[0]]
    for j in range(1, nseg):
        gap = float(np.abs(elevated[j][0] - elevated[j - 1][-1]).max())
        if gap > 1e-8 * scale:
            raise RefinementError(
                f"segment interface mismatch {gap:.3e} while gluing")
        coeffs.append(elevated[j][1:])
    # knot removal back to original multiplicity + r
    cur_space, cur = glued_space, Spline(glued_space, np.vstack(coeffs))
    residuals = []
    for x in space.partition.grid[1:-1]:
        target_mult = space.partition.multiplicity_of(float(x)) + r
        while cur_space.partition.multiplicity_of(float(x)) > target_mult:
            cur_space, cur, resid = remove_knot(cur_space, cur, float(x))
            residuals.append(resid)
    step = ElevationStep(r, tuple(gammas),
                         None if r == 1 else tuple(deltas),
                         tuple(targets), tuple(residuals))
    return step, cur


# ---------------------------------------------------------------------------
# knot removal
# ---------------------------------------------------------------------------

def remove_knot(space: SplineSpace, spline: Spline, that: float,
                tolerance: float = 1e-9) -> tuple[SplineSpace, Spline, float]:
    """Remove one copy of an interior knot, exactly when representable.

    Inverts the insertion relation by least squares on the bidiagonal system
    chat_i = alpha_i c_i + (1-alpha_i) c_{i-1}; fails (KnotRemovalError, with
    the residual) when the spline genuinely needs the knot.  When the last
    copy goes, adjacent restrict-split siblings are merged back; otherwise
    the break point stays in the grid with multiplicity zero.
    """
    part = space.partition
    hit, that = _snap_to_grid(part.grid, that)
    if hit is None or not (space.a < that < space.b):
        raise RefinementError(f"{that} is not an interior break point")
    mult = part.multiplicity_of(that)
    if mult < 1:
        raise RefinementError(f"{that} carries no knot to remove")
    if hit in space.connections:
        # dropping a knot raises the continuity order; the stored matrix has
        # no row for the new derivative and there is no way to invent one
        raise RefinementError(
            f"cannot remove a knot at {that}: a non-identity connection "
            f"matrix is attached there")
    grid = part.grid
    sections = list(space.sections)
    if mult == 1:
        merged = merge_sections(sections[hit - 1], sections[hit])
        if merged is not None:
            sections[hit - 1:hit + 1] = [merged]
            grid = np.delete(grid, hit)
    knots = np.delete(part.knots, part.knots.searchsorted(that))
    coarse_space = _refined(space, knots, grid, sections, space.connections)
    ell = int(np.searchsorted(knots, that, side="right"))
    alphas = _compute_alphas(coarse_space.table, space.table, that, ell, mult,
                             "left")
    B = _apply_alphas(alphas, np.eye(coarse_space.dim))
    chat = spline.coefficients
    c, *_ = np.linalg.lstsq(B, chat, rcond=None)
    resid = float(np.abs(B @ c - chat).max())
    scale = max(1.0, float(np.abs(chat).max()))
    if resid > tolerance * scale:
        raise KnotRemovalError(
            f"removing {that} leaves residual {resid:.3e} > "
            f"{tolerance:.1e}*{scale:.3g}; the spline needs this knot",
            residual=resid)
    return coarse_space, Spline(coarse_space, c), resid


# ---------------------------------------------------------------------------
# periodic designs
# ---------------------------------------------------------------------------

def make_periodic_space(order: int, knots, base_sections: list[ECSection],
                        period: float) -> SplineSpace:
    """Space over an unclamped wrap-around knot vector.

    base_sections cover one period [a, b] = [t_m, t_{m+K+1}]; intervals of
    the grid outside [a, b] reuse the base section shifted by a whole number
    of periods.
    """
    part = partition_from_knots(order, knots)
    a, b = part.a, part.b
    if abs((b - a) - period) > 1e-9 * max(1.0, abs(period)):
        raise RefinementError(
            f"period {period} does not match the domain length {b - a}")
    sections = []
    for j in range(part.num_sections):
        lo, hi = float(part.grid[j]), float(part.grid[j + 1])
        k = int(np.floor((lo - a) / period + 1e-12))
        base_lo, base_hi = lo - k * period, hi - k * period
        found = None
        for sec in base_sections:
            if (abs(sec.interval[0] - base_lo) <= 1e-9 * max(1.0, abs(base_lo))
                    and abs(sec.interval[1] - base_hi) <= 1e-9 * max(1.0, abs(base_hi))):
                found = sec if k == 0 else sec.translated(k * period)
                break
        if found is None:
            raise RefinementError(
                f"no base section covers [{base_lo}, {base_hi}] "
                f"(grid interval [{lo}, {hi}])")
        sections.append(found)
    return make_spline_space(part, sections)


def tile_periodic_coefficients(space: SplineSpace, free_coeffs) -> np.ndarray:
    """Wrap n_free = dim - (m-1) control points around the full basis."""
    c = np.asarray(free_coeffs, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    n_free = space.dim - (space.order - 1)
    if c.shape[0] != n_free:
        raise RefinementError(
            f"periodic design needs {n_free} free control points, got {c.shape[0]}")
    return c[np.arange(space.dim) % n_free]


def periodic_to_clamped(space: SplineSpace, spline: Spline
                        ) -> tuple[SplineSpace, Spline]:
    """Convert an unclamped (wrap-around) representation to clamped form.

    Raises the end-knot multiplicities to m by insertion (left formula at a,
    right formula at b), then drops the basis functions whose support misses
    (a, b) together with the now-redundant outer knots and sections.
    """
    part = space.partition
    m = part.order
    a, b = part.a, part.b
    if part.multiplicity_of(a) == m and part.multiplicity_of(b) == m:
        return space, spline
    cur_space, cur = space, spline
    while cur_space.partition.multiplicity_of(a) < m:
        step, cur = _insert(cur_space, cur, a, "restrict", "left")
        cur_space = step.space
    while cur_space.partition.multiplicity_of(b) < m:
        step, cur = _insert(cur_space, cur, b, "restrict", "right")
        cur_space = step.space
    # the basis functions kept are those whose support [t_i, t_{i+m}]
    # meets (a, b), and the sections those of [a, b]
    knots, grid = cur_space.partition.knots, cur_space.partition.grid
    first, last = knots.searchsorted(a, "right") - m, knots.searchsorted(b)
    lo, hi = grid.searchsorted(a), grid.searchsorted(b, "right")
    clamped = _refined(cur_space, knots[first:last + m], grid[lo:hi],
                       cur_space.sections[lo:hi - 1], cur_space.connections)
    return clamped, Spline(clamped, cur.coefficients[first:last])

"""B-spline and Bernstein bases, spline curves and tensor-product surfaces.

The basis is never stored explicitly: every evaluation is a difference of two
transition functions, N_i = f_i - f_{i+1}, so values, derivatives and
integrals all come from one representation.  One point reads the block of
its grid interval (eval_nonzero_basis); many points take one grouped pass
(_grouped_rows) with one generator evaluation per family and order of
section, whatever the number of intervals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import PartitionError
from .partition import (ExtendedPartition, _interval_index,
                        build_extended_partition)
from .sections import FAMILIES, ECSection, _jet_rows
from .transition import (TransitionTable, _row_specs, build_transition_table,
                         validate_connection_matrix)


@dataclass
class SplineSpace:
    """A piecewise Chebyshevian spline space on [a, b].

    sections holds one ECSection per grid interval; connections maps interior
    grid indices to connection matrices (identity when absent).
    """

    partition: ExtendedPartition
    sections: list[ECSection]
    connections: dict[int, np.ndarray] = field(default_factory=dict)
    _table: TransitionTable | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return self.partition.order

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def a(self) -> float:
        return self.partition.a

    @property
    def b(self) -> float:
        return self.partition.b

    @property
    def table(self) -> TransitionTable:
        if self._table is None:
            self._table = build_transition_table(self)
        return self._table

    def _row_specs(self):
        """The grid and the Hermite conditions of f_2..f_dim: f_i ramps from
        t_i to t_{i+m-1}, with m - mu continuity conditions at a break point
        of multiplicity mu (checked against its connection matrix)."""
        part, m = self.partition, self.order
        t, grid = part.knots, part.grid
        counts = (m - t.searchsorted(grid, "right") + t.searchsorted(grid)).tolist()
        for g, M in self.connections.items():
            validate_connection_matrix(M, counts[g])
        return grid, _row_specs(grid, self.sections, t, t, counts,
                                self.connections, part.dim, m - 1)

    def support(self, i: int) -> tuple[float, float]:
        """Support [t_i, t_{i+m}] of basis function N_i."""
        if not 1 <= i <= self.dim:
            raise PartitionError(f"basis index {i} out of range 1..{self.dim}")
        return self.partition.knot(i), self.partition.knot(i + self.order)


def make_spline_space(partition: ExtendedPartition, sections: list[ECSection],
                      connections=None) -> SplineSpace:
    """Assemble and validate a spline space.

    connections may be a dict {grid index: matrix} or a sequence of
    (location, matrix) pairs; either way they must attach to interior
    break points.
    """
    if len(sections) != partition.num_sections:
        raise PartitionError(
            f"need {partition.num_sections} sections, got {len(sections)}")
    grid = partition.grid
    for j, sec in enumerate(sections):
        lo, hi = sec.interval
        tol = 1e-9 * max(1.0, abs(grid[j]), abs(grid[j + 1]))
        if abs(lo - grid[j]) > tol or abs(hi - grid[j + 1]) > tol:
            raise PartitionError(
                f"section {j} spans [{lo}, {hi}] but the grid interval is "
                f"[{grid[j]}, {grid[j + 1]}]")
        if sec.order != partition.order:
            raise PartitionError(
                f"section {j} has order {sec.order}, expected {partition.order}")
    conn: dict[int, np.ndarray] = {}
    if isinstance(connections, dict):
        conn = {operator.index(g): M for g, M in connections.items()}
    else:
        for at, M in connections or ():
            hits = np.nonzero(np.isclose(grid, float(at), rtol=0, atol=1e-12))[0]
            if len(hits) != 1:
                raise PartitionError(f"connection location {at} is not a grid point")
            conn[int(hits[0])] = M
    for g, M in conn.items():
        if not 0 < g < len(grid) - 1:
            raise PartitionError("connection matrices attach to interior break points")
        conn[g] = np.asarray(M, dtype=float)
    return SplineSpace(partition, sections, conn)


def one_section_space(section: ECSection) -> SplineSpace:
    """The Bernstein configuration: a single section, no interior knots."""
    part = build_extended_partition(list(section.interval), [], section.order)
    return SplineSpace(part, [section])


@dataclass
class Spline:
    """Coefficients c_1..c_{dim} in R^d against the B-spline basis of a space."""

    space: SplineSpace
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] != self.space.dim:
            raise PartitionError(
                f"expected {self.space.dim} coefficients, got {c.shape[0]}")
        self.coefficients = c

    @property
    def dim_target(self) -> int:
        return self.coefficients.shape[1]


@dataclass
class TensorSurface:
    u_space: SplineSpace
    v_space: SplineSpace
    net: np.ndarray  # (dim_u, dim_v, d)

    def __post_init__(self):
        net = np.asarray(self.net, dtype=float)
        if net.ndim == 2:
            net = net[:, :, None]
        if net.shape[0] != self.u_space.dim or net.shape[1] != self.v_space.dim:
            raise PartitionError(
                f"control net {net.shape[:2]} does not match space dimensions "
                f"({self.u_space.dim}, {self.v_space.dim})")
        self.net = net


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_bspline(space: SplineSpace, i: int, x: float, r: int = 0,
                 side: str = "right") -> float:
    """D^r N_i(x) = D^r f_i(x) - D^r f_{i+1}(x)."""
    if not 1 <= i <= space.dim:
        raise PartitionError(f"basis index {i} out of range 1..{space.dim}")
    lo, vals = eval_nonzero_basis(space, x, r, side)
    k = i - lo
    return float(vals[k]) if 0 <= k < len(vals) else 0.0


def eval_nonzero_basis(space: SplineSpace, x: float, r: int = 0,
                       side: str = "right") -> tuple[int, np.ndarray]:
    """All possibly nonzero D^r N_i at x; returns (first index, values).

    These are the basis functions alive on the grid interval holding x, m
    of them on a section of order m.  side picks the interval when x sits
    on a break point; at a and b the interval inside [a, b] is read
    whatever side says.
    """
    table = space.table
    j, x = table._interval(x, side, True)
    lo, P = table._block(j)
    F = np.empty(len(P) + 2)     # 1 (0 for a derivative), the rows alive, 0
    F[0], F[-1] = (1.0 if r == 0 else 0.0), 0.0
    np.vecdot(P, table.sections[j].eval_all(r, x), out=F[1:-1])
    return lo - 1, F[:-1] - F[1:]


def eval_spline(spline: Spline, x: float, side: str = "right") -> np.ndarray:
    return eval_spline_derivative(spline, 0, x, side)


def eval_spline_derivative(spline: Spline, r: int, x: float,
                           side: str = "right") -> np.ndarray:
    lo, vals = eval_nonzero_basis(spline.space, x, r, side)
    return vals @ spline.coefficients[lo - 1:lo - 1 + len(vals)]


def integrate_spline(spline: Spline, x0: float, x1: float) -> np.ndarray:
    """Exact integral of the spline over [x0, x1] via antiderivatives;
    bounds outside [a, b] raise as the evaluators do.  Only the rows alive
    on [x0, x1] are read, one block per grid interval: the rows before them
    are 1 there and the rows after them 0, so their weights N_i vanish."""
    if x0 > x1:
        raise PartitionError("integration bounds must satisfy x0 <= x1")
    space = spline.space
    table = space.table
    grid = table.grid
    j0, j1 = _interval_index(grid, np.array([x0, x1]), "right",
                             space.a, space.b).tolist()
    first = table._block(j0)[0] - 1
    hi, alive = table._block(j1)
    # the integral I_i of f_i starts from the stretch where f_i is 1,
    # max(0, x1 - max(x0, stop_i)), and adds its pieces left to right
    stop = table._index()[4][first - 1:hi + len(alive)]
    I = x1 - np.where(stop > x0, stop, x0)
    I = np.where(I > 0.0, I, 0.0)
    for j in range(j0, j1 + 1):
        u, v = max(x0, grid[j]), min(x1, grid[j + 1])
        if u < v:
            lo, P = table._block(j)
            sec = table.sections[j]
            vals = sec.integral_all(v) - sec.integral_all(u)
            I[lo - first:lo - first + len(P)] += _row_values(P, vals[:, None])[:, 0]
    w = I[:-1] - I[1:]
    k = np.flatnonzero(w)
    # one weight at a time, in row order, from 0.0: a running sum (a matrix
    # product would reorder the sums)
    terms = np.zeros((len(k) + 1, spline.dim_target))
    terms[1:] = w[k, None] * spline.coefficients[first + k - 1]
    return np.cumsum(terms, axis=0)[-1]


def bernstein_basis(space: SplineSpace, i: int, x: float, r: int = 0,
                    side: str = "right") -> float:
    """Bernstein basis B_{i,n}, i = 0..n, of a one-section space."""
    if space.partition.K != 0:
        raise PartitionError("Bernstein basis requires an empty interior partition")
    n = space.order - 1
    if not 0 <= i <= n:
        raise PartitionError(f"Bernstein index {i} out of range 0..{n}")
    return eval_bspline(space, i + 1, x, r, side)


def eval_surface(surface: TensorSurface, u: float, v: float) -> np.ndarray:
    lu, nu = eval_nonzero_basis(surface.u_space, u)
    lv, nv = eval_nonzero_basis(surface.v_space, v)
    block = surface.net[lu - 1:lu - 1 + len(nu), lv - 1:lv - 1 + len(nv)]
    return np.einsum("i,j,ijd->d", nu, nv, block)


def sample_surface(surface: TensorSurface, us, vs) -> np.ndarray:
    """Surface values on the grid us x vs (len(us) x len(vs) x d): the two
    basis matrices contracted with the control net.  optimize=True lets
    einsum contract the net with one basis matrix at a time; without it one
    loop runs over all five indices at once, and a 200 x 200 grid at
    K = 100 per direction (order 4, 3-D net, one core) took 3.6 s against
    6.2 ms."""
    return np.einsum("ui,vj,ijd->uvd", sample_basis(surface.u_space, us),
                     sample_basis(surface.v_space, vs), surface.net,
                     optimize=True)


def _row_values(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rows P applied to the generator values U (m x points), one BLAS dot
    product per row and point.  A matrix product P @ U rounds differently
    (fused multiply-adds in another order), which on ill-conditioned rows
    moves values by up to cond * eps; the scalar and batched evaluators
    round alike."""
    return np.vecdot(P[:, None, :], np.ascontiguousarray(U.T))


def _grouped_rows(space, xs: np.ndarray, r: int = 0) -> tuple:
    """The batched evaluator: D^r of the rows alive at every point, one
    generator evaluation and one np.vecdot per group of sections of one
    family and order (TransitionTable._groups).

    One lookup finds each point's grid interval (with the end-point rule of
    eval_nonzero_basis) and one stable sort brings the points of a group
    together, those of one interval next to each other in their given
    order.  Per group the generators are evaluated at all its points at
    once, with each point's anchor, scale and parameters (a parameter's
    powers are taken once per run of equal values, so at most once per
    interval), and each point's block is applied with one np.vecdot for
    the group, which rounds as _row_values does.

    Returns (order, keys, lo, alive, F, full) over the sorted points:
    point order[p] lies in the interval numbered keys[p] and reads the rows
    f_lo[p] .. alive[p] of them there.  Column p of F holds 1 (0 for a
    derivative), their values, then exactly 0.0 down to the widest block
    of the table (a multi-order table has blocks of several sizes); full
    says that no point has fewer rows alive than that width.
    """
    table = space.table
    key, lo, alive, groups = table._groups()
    js = _interval_index(table.grid, xs, "right", space.a, space.b)
    keys = key[js]
    order = np.argsort(keys, kind="stable")
    keys, js, x = keys[order], js[order], xs[order]
    width = max((g.P.shape[1] for g in groups), default=0)
    F = np.zeros((width + 2, len(xs)))
    F[0] = 1.0 if r == 0 else 0.0
    cuts = keys.searchsorted([g.first for g in groups] + [len(key)]).tolist()
    full = True
    for g, b, e in zip(groups, cuts, cuts[1:]):
        if b == e:
            continue
        s = keys[b:e] - g.first
        scale = g.scale[s]
        blocks = FAMILIES[g.family].build(
            {k: v[s] for k, v in g.params.items()}, g.order)
        U = _jet_rows(blocks, scale, r, r, (x[b:e] - g.anchor[s]) * scale)[0]
        rows = g.P.shape[1]
        np.vecdot(g.P.take(s, axis=0), np.ascontiguousarray(U.T)[:, None, :],
                  out=F[1:1 + rows, b:e].T)
        full = full and rows == width
    return order, keys, lo[js], alive[js], F, full


def _points(xs) -> np.ndarray:
    """The sample points xs as a 1-D float array; any other shape raises."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise PartitionError(f"sample points need a 1-D array, not shape {xs.shape}")
    return xs


def _basis_rows(F: np.ndarray) -> np.ndarray:
    """N_lo-1, N_lo, .. from the columns F of _grouped_rows, in place, row
    by row: no temporary of F's size."""
    for c in range(len(F) - 1):
        F[c] -= F[c + 1]
    return F[:-1]


def sample_basis(space: SplineSpace, xs) -> np.ndarray:
    """Matrix of all basis values at the sample points (len(xs) x dim).

    Takes single-order and multi-order spaces.  One grouped pass
    (_grouped_rows) gives the rows alive at every point; their differences
    are N_lo-1, .., N_lo-1+alive, scattered one column of F at a time.
    """
    xs = _points(xs)
    order, _, lo, alive, F, full = _grouped_rows(space, xs)
    N = _basis_rows(F)
    at = order * space.dim + lo - 2
    out = np.zeros((len(xs), space.dim))
    for c, row in enumerate(N):
        keep = slice(None) if full else c <= alive
        out.reshape(-1)[(at + c)[keep]] = row[keep]
    return out


def sample_transitions(space: SplineSpace, xs) -> np.ndarray:
    """Matrix of inner transition values f_2..f_dim at the sample points."""
    xs = _points(xs)
    order, _, lo, alive, F, full = _grouped_rows(space, xs)
    n = space.dim - 1
    out = np.empty((len(xs), n))
    out[order] = np.arange(n) < lo[:, None] - 2     # the rows before lo are 1
    at = order * n + lo - 2
    for c, row in enumerate(F[1:-1]):
        keep = slice(None) if full else c < alive
        out.reshape(-1)[(at + c)[keep]] = row[keep]
    return out


def sample_spline(spline: Spline, xs, r: int = 0) -> np.ndarray:
    """D^r of the spline at the sample points (len(xs) x d).

    The basis values of the grouped pass (_grouped_rows) are contracted
    with the coefficients alive at each point with the rounding of one
    matrix product per grid interval, its points times its coefficients.
    A point alone in its interval is the product (1, k) @ (k, d) and gets
    eval_spline_derivative's bytes.  Points that share an interval round
    as BLAS rounds their product (for d = 1 a matrix-vector product, where
    that depends on a point's place among them), so a value can differ in
    the last bits from the same point sampled alone.  The intervals with
    as many points and rows alive are stacked into one np.matmul.
    """
    xs = _points(xs)
    c = spline.coefficients
    order, keys, lo, alive, F, _ = _grouped_rows(spline.space, xs, r)
    N = _basis_rows(F)
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))   # one per interval
    # rows alive and number of points of each interval, as one integer
    kinds = alive[firsts] * (len(xs) + 1) + np.diff(firsts, append=len(xs))
    out = np.empty((len(xs), spline.dim_target))
    for kind in np.unique(kinds).tolist():
        k, count = divmod(kind, len(xs) + 1)
        at = firsts[kinds == kind]
        rows = at[:, None] + np.arange(count)
        # each item laid out as the transposed differences of one interval
        A = np.ascontiguousarray(N[:k + 1, rows].transpose(1, 0, 2))
        C = c[(lo[at] - 2)[:, None] + np.arange(k + 1)]
        out[order[rows]] = A.transpose(0, 2, 1) @ C
    return out

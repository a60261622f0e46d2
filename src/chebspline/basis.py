"""B-spline and Bernstein bases, spline curves and tensor-product surfaces.

The basis is never stored explicitly: every evaluation is a difference of two
transition functions, N_i = f_i - f_{i+1}, so values, derivatives and
integrals all come from one representation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import PartitionError
from .partition import (ExtendedPartition, _interval_index,
                        build_extended_partition)
from .sections import ECSection
from .transition import (TransitionTable, _row_spec, build_transition_table,
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
        return grid, {i: _row_spec(grid, self.sections, t, t, counts,
                                   self.connections, i, i + m - 1)
                      for i in range(2, part.dim + 1)}

    def support(self, i: int) -> tuple[float, float]:
        """Support [t_i, t_{i+m}] of basis function N_i."""
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
    j = _interval_index(table.grid, x, side, space.a, space.b)
    lo, P = table._block(j)
    V = _row_values(P, table.sections[j].eval_all(r, x)[:, None])
    return lo - 1, _differences(V, 1.0 if r == 0 else 0.0)[:, 0]


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
        raise ValueError("integration bounds must satisfy x0 <= x1")
    space = spline.space
    table = space.table
    grid = table.grid
    j0, j1 = _interval_index(grid, np.array([x0, x1]), "right",
                             space.a, space.b).tolist()
    first = table._block(j0)[0] - 1
    hi, alive = table._block(j1)
    # the integral I_i of f_i starts from the stretch where f_i is 1 and
    # adds its pieces left to right
    I = np.array([x1 - x0 if i == 1 else 0.0 if i == table.dim + 1
                  else max(0.0, x1 - max(x0, table.rows[i].stop))
                  for i in range(first, hi + len(alive) + 1)])
    for j in range(j0, j1 + 1):
        u, v = max(x0, grid[j]), min(x1, grid[j + 1])
        if u < v:
            lo, P = table._block(j)
            sec = table.sections[j]
            vals = sec.integral_all(v) - sec.integral_all(u)
            I[lo - first:lo - first + len(P)] += _row_values(P, vals[:, None])[:, 0]
    w = I[:-1] - I[1:]
    out = np.zeros(spline.dim_target)
    # one weight at a time, in row order: a matrix product reorders the sums
    for k in np.flatnonzero(w):
        out += w[k] * spline.coefficients[first + k - 1]
    return out


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


def _row_values(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rows P applied to the generator values U (m x points), one BLAS dot
    product per row and point.  A matrix product P @ U rounds differently
    (fused multiply-adds in another order), which on ill-conditioned rows
    moves values by up to cond * eps; the scalar and batched evaluators
    round alike."""
    return np.vecdot(P[:, None, :], np.ascontiguousarray(U.T))


def _differences(V: np.ndarray, head: float = 1.0) -> np.ndarray:
    """N_{lo-1}, .., N_{lo-1+len(V)} from the values V of the rows f_lo, ..
    alive on an interval: the rows before them read head (1, or 0 for a
    derivative) and the rows after them 0."""
    pad = np.zeros((1, V.shape[1]))
    F = np.concatenate([pad + head, V, pad])
    return F[:-1] - F[1:]


def _sample_rows(space, xs: np.ndarray, r: int = 0):
    """The batched evaluator: one lookup groups the points by grid interval
    (with the end-point rule of eval_nonzero_basis); per interval it yields
    (point indices, lo, D^r of the rows f_lo, .. alive there)."""
    table = space.table
    js = _interval_index(table.grid, xs, "right", space.a, space.b)
    order = np.argsort(js, kind="stable")
    found, starts = np.unique(js[order], return_index=True)
    for j, idx in zip(found, np.split(order, starts[1:])):
        lo, P = table._block(j)
        yield idx, lo, _row_values(P, table.sections[j].eval_all(r, xs[idx]))


def sample_basis(space: SplineSpace, xs) -> np.ndarray:
    """Matrix of all basis values at the sample points (len(xs) x dim).

    Takes single-order and multi-order spaces.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((len(xs), space.dim))
    for idx, lo, V in _sample_rows(space, xs):
        out[idx, lo - 2:lo - 1 + len(V)] = _differences(V).T
    return out


def sample_transitions(space: SplineSpace, xs) -> np.ndarray:
    """Matrix of inner transition values f_2..f_dim at the sample points."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((len(xs), space.dim - 1))
    for idx, lo, V in _sample_rows(space, xs):
        out[idx, :lo - 2] = 1.0
        out[idx, lo - 2:lo - 2 + len(V)] = V.T
    return out


def sample_spline(spline: Spline, xs, r: int = 0) -> np.ndarray:
    """D^r of the spline at the sample points (len(xs) x d)."""
    xs = np.asarray(xs, dtype=float)
    c = spline.coefficients
    head = 1.0 if r == 0 else 0.0
    out = np.zeros((len(xs), spline.dim_target))
    for idx, lo, V in _sample_rows(spline.space, xs, r):
        out[idx] = _differences(V, head).T @ c[lo - 2:lo - 1 + len(V)]
    return out

"""Transition functions: the monotone ramps that encode a B-spline basis.

For a space of order m and dimension m+K the transition functions f_1..f_{m+K+1}
satisfy f_1 = 1, f_{m+K+1} = 0, and each inner f_i rises from 0 to 1 across
[t_i, t_{i+m-1}], staying as smooth across break points as the space demands.
The basis is recovered as N_i = f_i - f_{i+1}.  Each inner f_i solves a small
Hermite interpolation problem: a block system whose unknowns are the
coefficients of f_i on every section it crosses.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count, pairwise
from typing import NamedTuple

import numpy as np

from .errors import ConnectionMatrixError, PartitionError, SingularSystemError
from .sections import FAMILIES, ECSection, end_jets

# largest relative residual a solved transition row may keep
RESIDUAL_TOL = 1e-8

# detect_vanishing_order: a derivative vanishes below this share of its
# scale, and the probe gives up past this order
VANISHING_THRESHOLD = 1e-7
VANISHING_CAP = 128

# rows per stacked solve: enough to spread LAPACK's cost per call, few
# enough that the stacked temporaries stay small next to the table
_STACK_ROWS = 64

# row shapes whose system layout is kept: a few hundred shapes cover the
# tables of many spaces, at a few kB each
_LAYOUTS = 1024

_log = logging.getLogger("chebspline")


# ---------------------------------------------------------------------------
# connection matrices (geometric continuity)
# ---------------------------------------------------------------------------

def validate_connection_matrix(M: np.ndarray, order: int) -> np.ndarray:
    """Check a connection matrix: finite, lower triangular, positive diagonal,
    first row and first column equal to (1, 0, .., 0)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (order, order):
        raise ConnectionMatrixError(
            f"connection matrix must be {order}x{order}, got {M.shape}")
    if not np.isfinite(M).all():
        raise ConnectionMatrixError("connection matrix entries must be finite")
    if order >= 1 and abs(M[0, 0] - 1.0) > 1e-12:
        raise ConnectionMatrixError("connection matrix must have M[0,0] = 1")
    if np.any(np.abs(np.triu(M, 1)) > 1e-12):
        raise ConnectionMatrixError("connection matrix must be lower triangular")
    if np.any(np.abs(M[0, 1:]) > 1e-12) or np.any(np.abs(M[1:, 0]) > 1e-12):
        raise ConnectionMatrixError(
            "first row and column of a connection matrix must be (1, 0, .., 0)")
    if np.any(np.diag(M) <= 0):
        raise ConnectionMatrixError("connection matrix diagonal must be positive")
    return M


# ---------------------------------------------------------------------------
# row solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowReport:
    size: int
    condition: float
    residual: float


def _hermite_system(shape: tuple, jet) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the square Hermite system of a row of
    shape (left, interior, right, *orders), every connection the identity.
    jet(k, end, cnt) gives the derivative rows D^0 .. D^(cnt-1) of piece k
    at its left (end 0) or right (end 1) point."""
    left, interior, right, *orders = shape
    P = len(orders)
    n = sum(orders)
    offs = [0, *accumulate(orders)]
    A = np.zeros((n, n))
    c = np.zeros(n)
    r0 = left
    A[:r0, offs[0]:offs[1]] = jet(0, 0, r0)
    for j in range(P - 1):
        cnt = interior[j]
        A[r0:r0 + cnt, offs[j]:offs[j + 1]] = jet(j, 1, cnt)
        A[r0:r0 + cnt, offs[j + 1]:offs[j + 2]] = -jet(j + 1, 0, cnt)
        r0 += cnt
    A[r0:, offs[P - 1]:] = jet(P - 1, 1, right)
    if right:
        c[r0] = 1.0
    return A, c


@lru_cache(maxsize=_LAYOUTS)
def _layout(shape: tuple) -> tuple:
    """_hermite_system of a square shape run on where a row's end jets sit,
    each entry followed by its negation: the size n, the flat positions of
    A's nonzero entries, where each is read from, where c's 1 is (if
    anywhere) and the piece slices.  Every table build shares them."""
    orders = shape[3:]
    at = [0, *accumulate(2 * m * m for m in orders)]

    def jet(k, end, cnt):        # 1 + twice the position of each entry
        m = orders[k]
        return 2.0 * (at[k] + end * m * m + np.arange(cnt * m).reshape(cnt, m)) + 1

    A, c = _hermite_system(shape, jet)
    nz = np.flatnonzero(A)
    src = np.abs(A.flat[nz]).astype(np.intp) - (A.flat[nz] > 0)
    one = np.flatnonzero(c)
    for index in (nz, src, one):
        index.flags.writeable = False
    return (len(c), nz, src, one,
            tuple(slice(*o) for o in pairwise(accumulate(orders, initial=0))))


def _connect(A: np.ndarray, spec: RowSpec, jets: dict) -> None:
    """Write M @ jet over the left block of each inner point of spec's
    system A that has a connection matrix M (cnt x cnt, checked with the space)."""
    r0, c0 = spec.left, 0
    for j, (cnt, M) in enumerate(zip(spec.interior, spec.connections)):
        m = spec.pieces[j].order
        if M is not None:
            A[r0:r0 + cnt, c0:c0 + m] = M @ jets[spec.first_piece + j][1][:cnt]
        r0, c0 = r0 + cnt, c0 + m


@np.errstate(invalid="ignore")
def _equilibrated_solve(A: np.ndarray, C: np.ndarray) -> tuple:
    """Equilibrate, solve and check a C-contiguous stack of systems of one
    size: per system the condition, the error if LAPACK rejects it (then the
    stack is solved row by row), the solution and the relative residual,
    which is NaN, not a warning, for a system with non-finite entries."""
    row_s = np.abs(A).max(axis=2)
    row_s[row_s == 0] = 1.0
    A_eq = A / row_s[:, :, None]
    col_s = np.abs(A_eq).max(axis=1)
    col_s[col_s == 0] = 1.0
    A_eq = A_eq / col_s[:, None, :]
    c_eq = C / row_s
    cond = np.linalg.cond(A_eq, 1).tolist()
    errors: dict[int, Exception] = {}
    try:
        Y = np.linalg.solve(A_eq, c_eq[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        Y = np.zeros_like(c_eq)
        for k, (a, c) in enumerate(zip(A_eq, c_eq)):
            try:
                Y[k] = np.linalg.solve(a, c)
            except np.linalg.LinAlgError as exc:
                errors[k] = exc
    B = Y / col_s
    # the relative residual |A b - c| / (|A| |b| + 1) in the inf-norm,
    # row by row: the stacked product rounds as A @ b does
    res = (A @ B[:, :, None])[:, :, 0] - C
    rel = (np.abs(res).max(axis=1)
           / (np.abs(A).sum(axis=2).max(axis=1) * np.abs(B).max(axis=1)
              + 1.0)).tolist()
    return cond, errors, B, rel


def _solve_rows(specs: Sequence[RowSpec]) -> tuple[list, int, int]:
    """Solve the rows of one table or of one chain of tables: per spec in
    order, its (row, report) or the SingularSystemError it fails with, as
    it would alone; then the number of stacked solves and the number of
    section ends evaluated.  Nothing is raised: _assemble_table raises the
    first error of a table's own rows.

    The specs share one grid and one section per grid interval, so the
    conditions at a section end come from one jet, keyed by grid index.
    Both ends of every section a row crosses are evaluated up front, in one
    end_jets call, and laid end to end in grid order.  Rows of one shape
    share one _layout, and the rows of one size are stacked _STACK_ROWS at
    a time: each stack is filled with one gather per shape in it, then
    equilibrated, solved and checked at once.
    """
    ends = dict(sorted({spec.first_piece + k: (sec, spec.points[k:k + 2])
                        for spec in specs for k, sec in enumerate(spec.pieces)}
                       .items()))
    jets = dict(zip(ends, end_jets([sec for sec, _ in ends.values()],
                                   [x for _, x in ends.values()])))
    start = dict(zip(jets, accumulate((J.size for J in jets.values()),
                                      initial=0)))
    flat = np.concatenate([J.ravel() for J in jets.values()] or [[]])
    signed = np.column_stack((flat, -flat)).ravel()
    base = np.array([2 * start.get(spec.first_piece, 0) for spec in specs])

    groups: dict[tuple, tuple] = {}   # shape -> layout, rows in spec order
    by_size: dict[int, list] = {}     # size -> its shapes' groups
    results: dict[int, tuple | Exception] = {}
    for g, spec in enumerate(specs):
        if not spec.pieces:
            continue
        shape = (spec.left, spec.interior, spec.right,
                 *[s.order for s in spec.pieces])
        if shape not in groups:
            rows, n = spec.left + sum(spec.interior) + spec.right, sum(shape[3:])
            if rows != n:
                results[g] = SingularSystemError(
                    f"transition system for f_{spec.index} is not square: "
                    f"{rows} conditions for {n} unknowns", index=spec.index)
                continue
            groups[shape] = (_layout(shape), [])
            by_size.setdefault(groups[shape][0][0], []).append(groups[shape])
        groups[shape][1].append(g)

    stacks = 0
    for n, group in by_size.items():
        firsts = [*accumulate((len(gs) for _, gs in group), initial=0)]
        for lo in range(0, firsts[-1], _STACK_ROWS):
            k = min(_STACK_ROWS, firsts[-1] - lo)
            stack = [(lay, gs[max(lo - f, 0):lo + k - f], max(f - lo, 0))
                     for (lay, gs), f in zip(group, firsts)
                     if f < lo + k and f + len(gs) > lo]
            stacks += 1
            A = np.zeros((k, n * n))
            C = np.zeros((k, n))
            for (_, nz, src, one, _), gs, t0 in stack:
                A[t0:t0 + len(gs), nz] = signed[base[gs][:, None] + src]
                C[t0:t0 + len(gs), one] = 1.0
                for t, g in enumerate(gs, t0):
                    if any(M is not None for M in specs[g].connections):
                        _connect(A[t].reshape(n, n), specs[g], jets)
            cond, errors, B, rel = _equilibrated_solve(A.reshape(k, n, n), C)
            for (*_, pieces), gs, t0 in stack:
                coeffs = zip(*[list(B[t0:t0 + len(gs), p].copy()) for p in pieces])
                for t, g, cs in zip(count(t0), gs, coeffs):
                    results[g] = (n, cond[t], errors.get(t), cs, rel[t])

    out = []
    for g, spec in enumerate(specs):
        if not spec.pieces:
            out.append((TransitionRow("step", spec.start, spec.stop, ()), None))
            continue
        if isinstance(results[g], Exception):
            out.append(results[g])
            continue
        n, cond, error, coeffs, rel = results[g]
        index = spec.index
        if error is not None:
            exc = SingularSystemError(
                f"transition system for f_{index} is singular "
                f"(condition estimate {cond:.3e}); the space does not admit a "
                f"numerically usable B-spline basis", index=index,
                condition=cond)
            exc.__cause__ = error
            out.append(exc)
        elif not rel <= RESIDUAL_TOL:      # NaN fails too
            out.append(SingularSystemError(
                f"transition system for f_{index} solved with relative residual "
                f"{rel:.3e} > {RESIDUAL_TOL:.1e} (condition {cond:.3e}); the "
                f"space is too ill conditioned for a usable B-spline basis",
                index=index, condition=cond, residual=rel))
        else:
            out.append((TransitionRow("ramp", spec.start, spec.stop, coeffs),
                        RowReport(n, cond, rel)))
    return out, stacks, 2 * len(jets)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionRow:
    """The solved f_i: support and coefficients per section crossed.  Its
    index (the rows key) and first piece (specs[i].first_piece) live in the
    table, so a refined table can share an unchanged row with its parent."""
    kind: str                      # "ramp" | "step"
    start: float
    stop: float
    pieces: tuple[np.ndarray, ...]


class _Group(NamedTuple):
    """The intervals inside [a, b] whose sections share a family and an
    order, as the batched reads see them."""
    family: str
    order: int
    first: int                     # the key of its first interval
    P: np.ndarray                  # the blocks P_j stacked
    anchor: np.ndarray             # one value per interval, as scale and
    scale: np.ndarray              # each parameter
    params: dict[str, np.ndarray]


@dataclass
class TransitionTable:
    order: int
    dim: int
    grid: np.ndarray               # section boundaries, one section per interval
    sections: list[ECSection]
    rows: dict[int, TransitionRow]
    reports: dict[int, RowReport] = field(default_factory=dict)
    # the Hermite system of each row: refined tables look rows up by spec
    # key, and the specs keep the objects a key names by id() alive
    specs: dict[int, RowSpec] = field(default_factory=dict, repr=False,
                                      compare=False)
    _blocks: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)
    # grid indices of a and b of the table's space: the one-point reads of
    # the basis see only the intervals between them
    _domain: tuple[int, int] | None = field(default=None, init=False,
                                            repr=False, compare=False)
    _plan: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def max_condition(self) -> float:
        return max((r.condition for r in self.reports.values()), default=1.0)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.reports.values()), default=0.0)

    def _block(self, j: int) -> tuple[int, np.ndarray]:
        """(lo, P_j) for grid interval j: f_lo, f_lo+1, .. are the rows alive
        on the interval, with their coefficients stacked in P_j; the rows
        before lo (and f_1) are 1 there, the rows after (and f_{dim+1}) 0.

        Row supports are ordered, so the rows alive on an interval are
        consecutive; step rows are never alive.  Where each row's pieces
        start comes from its spec.  A block is built on first use and cached.
        """
        starts, ends, blocks, *_ = self._blocks or self._index()
        if j not in blocks:
            lo = 2 + bisect_right(ends, j)
            hi = 2 + bisect_right(starts, j)
            P = np.array([self.rows[i].pieces[j - starts[i - 2]]
                          for i in range(lo, hi)], dtype=float)
            blocks[j] = (lo, P.reshape(hi - lo, self.sections[j].order))
        return blocks[j]

    def _index(self) -> tuple:
        """(first interval of each row, one past its last, the block cache,
        the grid as a list, the support end of f_1 .. f_dim+1 with -inf for
        f_1 and inf for f_dim+1), made on first use."""
        if self._blocks is None:
            specs = [self.specs[i] for i in range(2, self.dim + 1)]
            self._blocks = ([s.first_piece for s in specs],
                            [s.first_piece + len(s.pieces) for s in specs],
                            {}, self.grid.tolist(),
                            np.array([-np.inf, *(s.stop for s in specs), np.inf]))
        return self._blocks

    def _groups(self) -> tuple:
        """The plan of the batched reads (basis._grouped_rows), made on
        first use: the intervals inside [a, b] of the table's space, grouped
        by the family and order of their sections.

        Returns (key, lo, alive, groups).  key[j] numbers the intervals so
        that those of one group are consecutive, in grid order; lo[j] and
        alive[j] are the first row alive on interval j and the number of
        rows alive; groups holds one _Group per family and order.
        """
        if self._plan is None:
            first, last = self._domain
            members: dict[tuple, list[int]] = {}
            for j in range(first, last):
                sec = self.sections[j]
                members.setdefault((sec.family, sec.order), []).append(j)
            size = len(self.grid) - 1
            key, lo, alive = (np.zeros(size, dtype=np.intp) for _ in range(3))
            groups, start = [], 0
            for (family, order), js in members.items():
                blocks = [self._block(j) for j in js]
                lo[js] = [b[0] for b in blocks]
                # m B-splines are nonzero on an interval of an order-m
                # section, so m - 1 rows are alive on each: one shape
                P = np.stack([b[1] for b in blocks])
                alive[js] = P.shape[1]
                key[js] = np.arange(start, start + len(js))
                secs = [self.sections[j] for j in js]
                params = {k: np.array([sec.params[k] for sec in secs], dtype=float)
                          for k in FAMILIES[family].param_names}
                groups.append(_Group(family, order, start, P,
                                     np.array([sec.anchor for sec in secs]),
                                     np.array([sec.scale for sec in secs]),
                                     params))
                start += len(js)
            self._plan = key, lo, alive, groups
        return self._plan

    def _interval(self, x, side: str, domain: bool) -> tuple[int, float]:
        """(j, x): the grid interval that _interval_index gives at one point
        x, found by bisection on the grid as a list, and x as a float.  With
        domain only the intervals inside [a, b] of the table's space are
        read, else those of the whole grid."""
        if type(x) is not float:          # an int, a numpy scalar, a 0-d array
            x = np.asarray(x, dtype=float)
            if x.ndim:
                raise PartitionError("one-point evaluation needs a number, "
                                     f"not shape {x.shape}")
            x = float(x)
        grid = (self._blocks or self._index())[3]
        first, last = self._domain if domain else (0, len(grid) - 1)
        if not grid[first] <= x <= grid[last]:
            raise PartitionError(
                f"evaluation point outside [{grid[first]}, {grid[last]}]")
        if side == "right":
            j = bisect_right(grid, x) - 1
        elif side == "left":
            j = bisect_left(grid, x) - 1
        else:
            raise PartitionError(f"side must be 'left' or 'right', not {side!r}")
        return min(max(j, first), last - 1), x

    def eval(self, i: int, x: float, r: int = 0, side: str = "right") -> float:
        """D^r f_i(x).  side picks the grid interval when x sits on a break
        point; x may lie anywhere on the grid."""
        if not 1 <= i <= self.dim + 1:
            raise PartitionError(
                f"transition index {i} out of range 1..{self.dim + 1}")
        j, x = self._interval(x, side, False)
        lo, P = self._block(j)
        k = i - lo
        if k < 0:
            return 1.0 if r == 0 else 0.0
        if k >= len(P):
            return 0.0
        return float(np.vecdot(P[k], self.sections[j].eval_all(r, x)))


# ---------------------------------------------------------------------------
# the row rule
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RowSpec:
    """The Hermite system of transition function f_index: it ramps over
    [start, stop] across the sections pieces, which span the grid intervals
    from first_piece on and meet at points; left zero conditions at start,
    interior[j] continuity conditions (through connections[j], None for the
    identity) at the j-th inner point, right value-one conditions at stop.
    A step row (start == stop) has no pieces.  A spec is read, never
    changed: its key is taken when it is made."""
    index: int
    start: float
    stop: float
    first_piece: int
    pieces: tuple[ECSection, ...] = ()
    points: tuple[float, ...] = ()
    left: int = 0
    interior: tuple[int, ...] = ()
    right: int = 0
    connections: tuple[np.ndarray | None, ...] = ()

    # equal keys give the identical linear system: equal points and counts,
    # the same section and connection objects; refined tables look their
    # parent's rows up by the keys the parent's specs hold
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key = (self.start, self.stop, self.points, self.left,
                    self.interior, self.right, tuple(map(id, self.pieces)),
                    tuple(map(id, self.connections)))


def _row_specs(grid: np.ndarray, sections: list[ECSection], starts, ends,
               counts, connections: dict, dim: int, shift: int
               ) -> dict[int, RowSpec]:
    """The conditions of f_2 .. f_dim: f_i ramps from the start knot
    starts_i to the end knot ends_(i+shift) (1-based indices into the full
    knot arrays).

    The left count is the order of the first piece minus the run of start
    knots equal to starts_i from i on; the right count is the order of the
    last piece minus the run of end knots equal to ends_e up to e = i+shift
    (both arrays are sorted, so a run ends where searchsorted puts it); an
    inner grid point j carries counts[j] continuity conditions.  One
    searchsorted per array serves every row.
    """
    rows = np.arange(2, dim + 1)
    last = rows + shift
    lo, hi = starts[rows - 1], ends[last - 1]
    columns = (rows, lo, hi, grid.searchsorted(lo), grid.searchsorted(hi),
               starts.searchsorted(lo, "right") - (rows - 1),     # left runs
               last - ends.searchsorted(hi))                      # right runs
    points = grid.tolist()
    links = [connections.get(j) for j in range(len(points))]
    specs = {}
    for i, x0, x1, a, b, run0, run1 in zip(*(c.tolist() for c in columns)):
        if x0 >= x1:
            specs[i] = RowSpec(i, x0, x0, a)
            continue
        specs[i] = RowSpec(i, x0, x1, a, tuple(sections[a:b]),
                           tuple(points[a:b + 1]), sections[a].order - run0,
                           tuple(counts[a + 1:b]), sections[b - 1].order - run1,
                           tuple(links[a + 1:b]))
    return specs


def _solve_chain(tables: Sequence[dict[int, RowSpec]], known: dict) -> dict:
    """key -> (row, report), or the error that row fails with, for every
    spec of tables: known's pair (key -> (row, report) of another table)
    where it holds the key, the others solved together, each key once, in
    one _solve_rows call.  The specs solved must share one grid and its
    sections.  Logs one DEBUG record for the call."""
    todo: dict[tuple, RowSpec] = {}
    for specs in tables:
        for spec in specs.values():
            if spec.key not in known:
                todo.setdefault(spec.key, spec)
    outcomes, stacks, ends = _solve_rows(list(todo.values()))
    if _log.isEnabledFor(logging.DEBUG):
        reports = [out[1] for out in outcomes
                   if isinstance(out, tuple) and out[1] is not None]
        _log.debug("transition rows of %d tables: %d solved, %d copied, %d "
                   "stacked solves, %d section ends evaluated, max condition "
                   "%.3e", len(tables), len(reports),
                   sum(map(len, tables)) - len(todo), stacks, ends,
                   max((rep.condition for rep in reports), default=1.0))
    return known | dict(zip(todo, outcomes))


def _assemble_table(space, grid: np.ndarray, specs: dict[int, RowSpec],
                    solved: dict) -> TransitionTable:
    """The table of a single- or multi-order space from its grid and row
    specs, which it keeps: each row takes the row and report objects that
    solved (from _solve_chain) holds for its spec key.  The first of its
    rows, in spec order, that failed to solve raises its error."""
    rows: dict[int, TransitionRow] = {}
    reports: dict[int, RowReport] = {}
    for i, spec in specs.items():
        out = solved[spec.key]
        if isinstance(out, Exception):
            raise out
        rows[i], rep = out
        if rep is not None:
            reports[i] = rep
    table = TransitionTable(max(s.order for s in space.sections), space.dim,
                            grid, space.sections, rows, reports, specs)
    table._domain = tuple(grid.searchsorted((space.a, space.b)).tolist())
    return table


def build_transition_table(space) -> TransitionTable:
    """Solve every inner transition function of a SplineSpace or a
    MultiOrderSpace; each feeds the one row rule through _row_specs."""
    grid, specs = space._row_specs()
    return _assemble_table(space, grid, specs, _solve_chain([specs], {}))


def detect_vanishing_order(table: TransitionTable, i: int,
                           side: str = "left") -> int:
    """Number of derivatives of f_i that vanish at a support endpoint.

    side="left": largest k with D_+^r f_i(t_i) = 0 for r = 0..k;
    side="right": largest k with D_-^r f_i(t_{i+m-1}) = 0 for r = 1..k.
    For EC sections this equals the multiplicity-determined order; quasi-EC
    sections (variable-degree) can vanish to higher order, which knot
    insertion must use.  Vanishing is judged against the scale
    max|coeff| * max|D^r u_h| so cancellation does not masquerade as a zero.
    """
    row = table.rows[i]
    if row.kind == "step":
        raise SingularSystemError(
            f"f_{i} is a step function; endpoint orders are undefined", index=i)
    end = 0 if side == "left" else -1          # the first or the last piece
    x = row.start if side == "left" else row.stop
    sec, coeff = table.specs[i].pieces[end], row.pieces[end]
    cscale = np.abs(coeff).max()
    for r in range(1, VANISHING_CAP + 1):
        vals = sec.eval_all(r, x)
        if not np.all(np.isfinite(vals)):
            break
        scale = cscale * np.abs(vals).max()
        if scale == 0.0:
            continue
        if abs(float(coeff @ vals)) > VANISHING_THRESHOLD * max(1.0, scale):
            return r - 1
    raise SingularSystemError(
        f"no nonvanishing endpoint derivative of f_{i} found up to order "
        f"{VANISHING_CAP}",
        index=i)


def _end_order(table: TransitionTable, i: int, side: str) -> int:
    """Order of the first derivative of ramp row f_i that does not vanish at
    its support start (side="left") or end (side="right").  An EC section
    there gives the count of conditions the row's spec sets at that end; a
    quasi-EC one (variable-degree) can vanish to a higher order, which is
    probed."""
    spec = table.specs[i]
    sec = spec.pieces[0 if side == "left" else -1]
    if FAMILIES[sec.family].qec:
        return detect_vanishing_order(table, i, side) + 1
    return spec.left if side == "left" else spec.right

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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import ConnectionMatrixError, PartitionError, SingularSystemError
from .partition import _interval_index, _run
from .sections import ECSection

# largest relative residual a solved transition row may keep
RESIDUAL_TOL = 1e-8

# rows per stacked solve: enough to spread LAPACK's cost per call, few
# enough that the stacked temporaries stay small next to the table
_STACK_ROWS = 64

_log = logging.getLogger("chebspline")


# ---------------------------------------------------------------------------
# connection matrices (geometric continuity)
# ---------------------------------------------------------------------------

def validate_connection_matrix(M: np.ndarray, order: int) -> np.ndarray:
    """Check a connection matrix: lower triangular, positive diagonal,
    first row and first column equal to (1, 0, .., 0)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (order, order):
        raise ConnectionMatrixError(
            f"connection matrix must be {order}x{order}, got {M.shape}")
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
    index: int
    size: int
    condition: float
    residual: float


def _hermite_system(spec: RowSpec, jet) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of spec's Hermite system.  jet(k, end, cnt)
    gives the derivative rows D^0 .. D^(cnt-1) of piece k at its left
    (end 0) or right (end 1) point."""
    pieces, index = spec.pieces, spec.index
    P = len(pieces)
    orders = [s.order for s in pieces]
    n = sum(orders)
    rows = spec.left + sum(spec.interior) + spec.right
    if rows != n:
        raise SingularSystemError(
            f"transition system for f_{index} is not square: "
            f"{rows} conditions for {n} unknowns", index=index)
    offs = [0, *accumulate(orders)]
    A = np.zeros((n, n))
    c = np.zeros(n)
    r0 = spec.left
    A[:r0, offs[0]:offs[1]] = jet(0, 0, r0)
    for j in range(P - 1):
        cnt = spec.interior[j]
        M = spec.connections[j]
        left_block = jet(j, 1, cnt)
        if M is not None:
            M = np.asarray(M, dtype=float)
            if M.shape[0] < cnt:
                raise ConnectionMatrixError(
                    f"connection matrix at x={spec.points[j + 1]} has order "
                    f"{M.shape[0]}, need at least {cnt}")
            left_block = M[:cnt, :cnt] @ left_block
        A[r0:r0 + cnt, offs[j]:offs[j + 1]] = left_block
        A[r0:r0 + cnt, offs[j + 1]:offs[j + 2]] = -jet(j + 1, 0, cnt)
        r0 += cnt
    A[r0:, offs[P - 1]:] = jet(P - 1, 1, spec.right)
    if spec.right:
        c[r0] = 1.0
    return A, c


def _solve_rows(specs: Sequence[RowSpec]
                ) -> tuple[list[tuple[TransitionRow, RowReport | None]], int, int]:
    """Solve the rows of one table: (row, report) per spec in order, the
    number of stacked solves and the number of generator jets evaluated.

    The specs share one grid, so the conditions at a section end come from
    one jet, evaluated on first use.  The rows are solved _STACK_ROWS at a
    time, in spec order, and the first failing row raises, as it would
    alone.
    """
    jets: dict[tuple[int, int], np.ndarray] = {}

    def jet_of(spec):
        def jet(k, end, cnt):
            sec = spec.pieces[k]
            if not cnt:
                return np.zeros((0, sec.order))
            key = (spec.first_piece + k, end)
            J = jets.get(key)
            if J is None or len(J) < cnt:
                J = jets[key] = sec.jet(max(sec.order, cnt) - 1,
                                        spec.points[k + end])
            return J[:cnt]
        return jet

    out, stacks = [], 0
    for lo in range(0, len(specs), _STACK_ROWS):
        rows, n = _solve_stacked(specs[lo:lo + _STACK_ROWS], jet_of)
        out += rows
        stacks += n
    return out, stacks, len(jets)


def _solve_stacked(specs: Sequence[RowSpec], jet_of
                   ) -> tuple[list[tuple[TransitionRow, RowReport | None]], int]:
    """(row, report) per spec, and the number of stacks.  Systems of equal
    size are equilibrated and solved as one stack; a stack LAPACK rejects is
    solved row by row."""
    systems: list = []            # (A, c) per ramp row, None per step row
    groups: dict[int, list[int]] = {}         # size -> rows, in spec order
    for g, spec in enumerate(specs):
        try:
            sys_ = _hermite_system(spec, jet_of(spec)) if spec.pieces else None
        except Exception as exc:  # raised below, once earlier rows are solved
            sys_ = exc
        systems.append(sys_)
        if isinstance(sys_, tuple):
            groups.setdefault(len(sys_[1]), []).append(g)
    solved: dict[int, tuple] = {}             # g -> (cond, y or error, col_s)
    for idx in groups.values():
        A = np.stack([systems[g][0] for g in idx])
        row_s = np.abs(A).max(axis=2)
        row_s[row_s == 0] = 1.0
        A_eq = A / row_s[:, :, None]
        col_s = np.abs(A_eq).max(axis=1)
        col_s[col_s == 0] = 1.0
        A_eq = A_eq / col_s[:, None, :]
        c_eq = np.stack([systems[g][1] for g in idx]) / row_s
        cond = np.linalg.cond(A_eq, 1)
        try:
            ys = list(np.linalg.solve(A_eq, c_eq[:, :, None])[:, :, 0])
        except np.linalg.LinAlgError:
            ys = []
            for a, b in zip(A_eq, c_eq):
                try:
                    ys.append(np.linalg.solve(a, b))
                except np.linalg.LinAlgError as exc:
                    ys.append(exc)
        for k, g in enumerate(idx):
            solved[g] = (float(cond[k]), ys[k], col_s[k])

    out = []
    for g, spec in enumerate(specs):
        sys_ = systems[g]
        if sys_ is None:
            out.append((TransitionRow(spec.index, "step", spec.start, spec.stop,
                                      spec.first_piece, ()), None))
            continue
        if isinstance(sys_, Exception):
            raise sys_
        A, c = sys_
        cond, y, col_s = solved[g]
        index = spec.index
        if isinstance(y, Exception):
            raise SingularSystemError(
                f"transition system for f_{index} is singular "
                f"(condition estimate {cond:.3e}); the space does not admit a "
                f"numerically usable B-spline basis", index=index,
                condition=cond) from y
        b = y / col_s
        res = A @ b - c
        denom = np.linalg.norm(A, np.inf) * np.linalg.norm(b, np.inf) + 1.0
        rel = float(np.linalg.norm(res, np.inf) / denom)
        if rel > RESIDUAL_TOL:
            raise SingularSystemError(
                f"transition system for f_{index} solved with relative residual "
                f"{rel:.3e} > {RESIDUAL_TOL:.1e} (condition {cond:.3e}); the "
                f"space is too ill conditioned for a usable B-spline basis",
                index=index, condition=cond, residual=rel)
        offs = [0, *accumulate(s.order for s in spec.pieces)]
        coeffs = tuple(b[offs[j]:offs[j + 1]].copy()
                       for j in range(len(spec.pieces)))
        out.append((TransitionRow(index, "ramp", spec.start, spec.stop,
                                  spec.first_piece, coeffs),
                    RowReport(index, len(b), cond, rel)))
    return out, len(groups)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionRow:
    index: int
    kind: str                      # "ramp" | "step"
    start: float
    stop: float
    first_piece: int               # grid interval index of the first piece
    pieces: tuple[np.ndarray, ...]


@dataclass
class TransitionTable:
    order: int
    dim: int
    grid: np.ndarray               # section boundaries, one section per interval
    sections: list[ECSection]
    rows: dict[int, TransitionRow]
    reports: dict[int, RowReport] = field(default_factory=dict)
    _blocks: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def max_condition(self) -> float:
        return max((r.condition for r in self.reports.values()), default=1.0)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.reports.values()), default=0.0)

    def support(self, i: int) -> tuple[float, float]:
        """Support [t_i, t_{i+m-1}] of transition function i."""
        row = self.rows[i]
        return row.start, row.stop

    def _block(self, j: int) -> tuple[int, np.ndarray]:
        """(lo, P_j) for grid interval j: f_lo, f_lo+1, .. are the rows alive
        on the interval, with their coefficients stacked in P_j; the rows
        before lo (and f_1) are 1 there, the rows after (and f_{dim+1}) 0.

        Row supports are ordered, so the rows alive on an interval are
        consecutive; step rows are never alive.  A block is built on first
        use and cached.
        """
        if self._blocks is None:
            rows = [self.rows[i] for i in range(2, self.dim + 1)]
            self._blocks = ([row.first_piece for row in rows],
                            [row.first_piece + len(row.pieces) for row in rows],
                            {})
        starts, ends, blocks = self._blocks
        if j not in blocks:
            lo = 2 + bisect_right(ends, j)
            hi = 2 + bisect_right(starts, j)
            P = np.array([self.rows[i].pieces[j - self.rows[i].first_piece]
                          for i in range(lo, hi)], dtype=float)
            blocks[j] = (lo, P.reshape(hi - lo, self.sections[j].order))
        return blocks[j]

    def eval(self, i: int, x: float, r: int = 0, side: str = "right") -> float:
        """D^r f_i(x).  side picks the grid interval when x sits on a break
        point; x may lie anywhere on the grid."""
        if not 1 <= i <= self.dim + 1:
            raise PartitionError(
                f"transition index {i} out of range 1..{self.dim + 1}")
        j = _interval_index(self.grid, x, side)
        lo, P = self._block(j)
        k = i - lo
        if k < 0:
            return 1.0 if r == 0 else 0.0
        if k >= len(P):
            return 0.0
        return float(P[k] @ self.sections[j].eval_all(r, x))


# ---------------------------------------------------------------------------
# the row rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowSpec:
    """The Hermite system of transition function f_index: it ramps over
    [start, stop] across the sections pieces, which span the grid intervals
    from first_piece on and meet at points; left zero conditions at start,
    interior[j] continuity conditions (through connections[j], None for the
    identity) at the j-th inner point, right value-one conditions at stop.
    A step row (start == stop) has no pieces."""
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

    @property
    def key(self) -> tuple:
        """Equal keys give the identical linear system: equal points and
        counts, the same section and connection objects."""
        return (self.start, self.stop, self.points, self.left, self.interior,
                self.right, tuple(map(id, self.pieces)),
                tuple(map(id, self.connections)))


def _row_spec(grid: np.ndarray, sections: list[ECSection], starts, ends,
              counts, connections: dict, i: int, e: int) -> RowSpec:
    """The conditions of f_i, which ramps from the start knot starts_i to the
    end knot ends_e (1-based indices into the full knot arrays).

    The left count is the order of the first piece minus the run of start
    knots equal to starts_i from i on; the right count is the order of the
    last piece minus the run of end knots equal to ends_e up to e; an inner
    grid point j carries counts[j] continuity conditions.
    """
    lo, hi = float(starts[i - 1]), float(ends[e - 1])
    g_lo = int(grid.searchsorted(lo))
    if lo >= hi:
        return RowSpec(i, lo, lo, g_lo)
    g_hi = int(grid.searchsorted(hi))
    inner = range(g_lo + 1, g_hi)
    return RowSpec(i, lo, hi, g_lo, tuple(sections[g_lo:g_hi]),
                   tuple(grid[g_lo:g_hi + 1].tolist()),
                   sections[g_lo].order - _run(starts, i - 1, 1),
                   tuple(counts[j] for j in inner),
                   sections[g_hi - 1].order - _run(ends, e - 1, -1),
                   tuple(connections.get(j) for j in inner))


def _assemble_table(space, known: dict) -> TransitionTable:
    """The table of a single- or multi-order space.  A row whose spec key is
    in known (key -> (row, report) of another table) is copied from there;
    the others are solved together by _solve_rows."""
    grid, specs = space._row_specs()
    hits = {i: known.get(spec.key) for i, spec in specs.items()}
    todo = [spec for i, spec in specs.items() if hits[i] is None]
    solved, stacks, jets = _solve_rows(todo)
    fresh = iter(solved)
    rows: dict[int, TransitionRow] = {}
    reports: dict[int, RowReport] = {}
    for i, spec in specs.items():
        hit = hits[i]
        if hit is None:
            row, rep = next(fresh)
        else:
            row = replace(hit[0], index=i, first_piece=spec.first_piece)
            rep = None if hit[1] is None else replace(hit[1], index=i)
        rows[i] = row
        if rep is not None:
            reports[i] = rep
    table = TransitionTable(max(s.order for s in space.sections), space.dim,
                            grid, space.sections, rows, reports)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("transition table: %d rows solved, %d copied, %d stacked "
                   "solves, %d jets evaluated, max condition %.3e",
                   sum(rep is not None for _, rep in solved),
                   len(specs) - len(todo), stacks, jets, table.max_condition)
    return table


def build_transition_table(space) -> TransitionTable:
    """Solve every inner transition function of a SplineSpace or a
    MultiOrderSpace; each feeds the one row rule through _row_specs."""
    return _assemble_table(space, {})


def detect_vanishing_order(table: TransitionTable, i: int, side: str = "left",
                           threshold: float = 1e-7, cap: int = 128) -> int:
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
    if side == "left":
        x = row.start
        sec = table.sections[row.first_piece]
        coeff = row.pieces[0]
    else:
        x = row.stop
        sec = table.sections[row.first_piece + len(row.pieces) - 1]
        coeff = row.pieces[-1]
    cscale = np.abs(coeff).max()
    for r in range(1, cap + 1):
        vals = sec.eval_all(r, x)
        if not np.all(np.isfinite(vals)):
            break
        scale = cscale * np.abs(vals).max()
        if scale == 0.0:
            continue
        if abs(float(coeff @ vals)) > threshold * max(1.0, scale):
            return r - 1
    raise SingularSystemError(
        f"no nonvanishing endpoint derivative of f_{i} found up to order {cap}",
        index=i)

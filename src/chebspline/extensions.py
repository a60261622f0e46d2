"""Beyond parametric continuity: multi-order spaces and detection of extra
endpoint smoothness in quasi-Chebyshevian sections.

Multi-order spaces let every section carry its own order; continuity orders
k_i replace knot multiplicities and the basis bookkeeping runs on two
staggered knot sequences (supports [t_i, s_i]).  Their transition table is
an ordinary TransitionTable, so the evaluators of the basis module
(sample_basis, sample_transitions, eval_bspline, eval_nonzero_basis) take a
MultiOrderSpace as they take a SplineSpace.

Connection matrices (geometric continuity) twist the interior continuity
conditions of a transition row: the left derivative vector is premultiplied
by a lower triangular M with unit first row/column before being matched to
the right side.  They need no code of their own: make_spline_space attaches
them to break points, solve_ramp applies them, insert_knot carries them
through refinement and validate_connection_matrix checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import sample_basis
from .errors import PartitionError
from .sections import ECSection
from .transition import (RowReport, TransitionRow, TransitionTable,
                         detect_vanishing_order, solve_ramp,
                         validate_connection_matrix)

__all__ = [
    "MultiOrderSpace", "build_multiorder_space", "sample_multiorder_basis",
    "QECProfile", "qec_profile", "detect_vanishing_order",
    "validate_connection_matrix",
]


# ---------------------------------------------------------------------------
# multi-order spaces
# ---------------------------------------------------------------------------

@dataclass
class MultiOrderSpace:
    sections: list[ECSection]          # one per grid interval, own orders
    continuities: list[int]            # k_1..k_q at interior break points
    t_knots: np.ndarray                # start points of the B-splines
    s_knots: np.ndarray                # end points of the B-splines
    table: TransitionTable = field(repr=False, compare=False, default=None)

    @property
    def dim(self) -> int:
        return len(self.t_knots)

    @property
    def grid(self) -> np.ndarray:
        return self.table.grid

    @property
    def a(self) -> float:
        return float(self.sections[0].interval[0])

    @property
    def b(self) -> float:
        return float(self.sections[-1].interval[1])

    def support(self, i: int) -> tuple[float, float]:
        """[t_i, s_i], outside which N_i vanishes identically."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"basis index {i} out of range 1..{self.dim}")
        return float(self.t_knots[i - 1]), float(self.s_knots[i - 1])


def _run_right(values: np.ndarray, i: int) -> int:
    """Length of the run of entries equal to values[i-1] at 1-based i..on."""
    n = 0
    while i - 1 + n < len(values) and values[i - 1 + n] == values[i - 1]:
        n += 1
    return n


def _run_left(values: np.ndarray, i: int) -> int:
    n = 0
    while i - 1 - n >= 0 and values[i - 1 - n] == values[i - 1]:
        n += 1
    return n


def build_multiorder_space(sections: list[ECSection],
                           continuities: list[int], *,
                           residual_tol: float = 1e-8) -> MultiOrderSpace:
    """B-spline basis for sections of different orders joined C^{k_i}.

    Break point x_i appears m_i - k_i - 1 times among the start knots t and
    m_{i-1} - k_i - 1 times among the end knots s; the domain ends appear
    m_0 and m_q times.  Transition function f_i ramps over (t_i, s_{i-1})
    with m_j0 - (t-run) zero conditions at the left end, m_j1 - (s-run)
    value-one conditions at the right end and k_j + 1 continuity conditions
    at each interior break point; any count mismatch is a hard error.
    """
    q = len(sections) - 1
    if len(continuities) != q:
        raise PartitionError(
            f"{q + 1} sections need {q} continuity orders, got {len(continuities)}")
    orders = [s.order for s in sections]
    grid = np.array([s.interval[0] for s in sections] + [sections[-1].interval[1]],
                    dtype=float)
    for j in range(q):
        if abs(sections[j].interval[1] - sections[j + 1].interval[0]) > \
                1e-9 * max(1.0, abs(grid[j + 1])):
            raise PartitionError(
                f"sections {j} and {j + 1} do not meet: "
                f"{sections[j].interval[1]} vs {sections[j + 1].interval[0]}")
    for i, k in enumerate(continuities, start=1):
        if not 0 <= k < min(orders[i - 1], orders[i]):
            raise PartitionError(
                f"continuity order k_{i}={k} must satisfy "
                f"0 <= k < min({orders[i - 1]}, {orders[i]})")
    t_list = [grid[0]] * orders[0]
    s_list = []
    for i in range(1, q + 1):
        t_list += [grid[i]] * (orders[i] - continuities[i - 1] - 1)
        s_list += [grid[i]] * (orders[i - 1] - continuities[i - 1] - 1)
    s_list += [grid[q + 1]] * orders[q]
    t_knots = np.array(t_list)
    s_knots = np.array(s_list)
    K = len(t_knots)

    rows: dict[int, TransitionRow] = {}
    reports: dict[int, RowReport] = {}
    for i in range(2, K + 1):
        lo = float(t_knots[i - 1])
        hi = float(s_knots[i - 2])
        j_lo = int(np.searchsorted(grid, lo, side="right")) - 1 if lo < grid[-1] \
            else len(grid) - 2
        if lo >= hi:
            rows[i] = TransitionRow(i, "step", lo, lo, j_lo, ())
            continue
        j_hi = int(np.searchsorted(grid, hi, side="left"))
        pieces = [sections[j] for j in range(j_lo, j_hi)]
        points = [float(grid[j]) for j in range(j_lo, j_hi + 1)]
        interior = [continuities[j - 1] + 1 for j in range(j_lo + 1, j_hi)]
        left_count = orders[j_lo] - _run_right(t_knots, i)
        right_count = orders[j_hi - 1] - _run_left(s_knots, i - 1)
        coeffs, rep = solve_ramp(pieces, points, left_count, interior,
                                 right_count, index=i,
                                 residual_tol=residual_tol)
        rows[i] = TransitionRow(i, "ramp", lo, hi, j_lo, tuple(coeffs))
        reports[i] = rep
    table = TransitionTable(max(orders), K, grid, list(sections), rows, reports)
    return MultiOrderSpace(list(sections), list(continuities),
                           t_knots, s_knots, table)


# the multi-order name of sample_basis, kept for existing callers
sample_multiorder_basis = sample_basis


# ---------------------------------------------------------------------------
# quasi-Chebyshevian endpoint orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QECProfile:
    """Detected endpoint vanishing orders of every ramp row.

    kbar_right[i] counts the derivatives of f_i vanishing at the support
    start (right-sided), kbar_left[i] those at the support end (left-sided,
    of 1 - f_i).  They can exceed the multiplicity-determined orders when a
    section is quasi-Chebyshevian but not Chebyshevian.
    """
    kbar_right: dict[int, int]
    kbar_left: dict[int, int]


def qec_profile(table: TransitionTable, threshold: float = 1e-7,
                cap: int = 128) -> QECProfile:
    right: dict[int, int] = {}
    left: dict[int, int] = {}
    for i, row in table.rows.items():
        if row.kind != "ramp":
            continue
        right[i] = detect_vanishing_order(table, i, "left", threshold, cap)
        left[i] = detect_vanishing_order(table, i, "right", threshold, cap)
    return QECProfile(kbar_right=right, kbar_left=left)

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
them to break points, the row solver (transition._solve_rows) applies them,
and validate_connection_matrix checks them.  Insertion, removal and
periodic_to_clamped derive every refined space in one helper
(refine._derived), which keeps each matrix on its break point, found by
value in the refined grid; an insertion on that point shrinks it by one
row and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import sample_basis
from .errors import PartitionError
from .sections import ECSection
from .transition import (TransitionTable, _end_order, _row_specs,
                         build_transition_table, detect_vanishing_order,
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
        return np.array([s.interval[0] for s in self.sections]
                        + [self.sections[-1].interval[1]], dtype=float)

    @property
    def a(self) -> float:
        return float(self.sections[0].interval[0])

    @property
    def b(self) -> float:
        return float(self.sections[-1].interval[1])

    def support(self, i: int) -> tuple[float, float]:
        """[t_i, s_i], outside which N_i vanishes identically."""
        if not 1 <= i <= self.dim:
            raise PartitionError(f"basis index {i} out of range 1..{self.dim}")
        return float(self.t_knots[i - 1]), float(self.s_knots[i - 1])

    def _row_specs(self):
        """The grid and the Hermite conditions of f_2..f_dim: f_i ramps from
        t_i to s_{i-1}, with k_j + 1 continuity conditions at break point x_j."""
        grid = self.grid
        counts = [0, *(k + 1 for k in self.continuities), 0]
        return grid, _row_specs(grid, self.sections, self.t_knots,
                                self.s_knots, counts, {}, self.dim, -1)


def build_multiorder_space(sections: list[ECSection],
                           continuities: list[int]) -> MultiOrderSpace:
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
    space = MultiOrderSpace(list(sections), list(continuities),
                            np.array(t_list), np.array(s_list))
    space.table = build_transition_table(space)
    return space


# the multi-order name of sample_basis, kept for existing callers
sample_multiorder_basis = sample_basis


# ---------------------------------------------------------------------------
# quasi-Chebyshevian endpoint orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QECProfile:
    """Endpoint vanishing orders of every ramp row.

    kbar_right[i] counts the derivatives of f_i vanishing at the support
    start (right-sided), kbar_left[i] those at the support end (left-sided,
    of 1 - f_i).  They can exceed the multiplicity-determined orders when a
    section is quasi-Chebyshevian but not Chebyshevian.
    """
    kbar_right: dict[int, int]
    kbar_left: dict[int, int]


def qec_profile(table: TransitionTable) -> QECProfile:
    """The endpoint vanishing orders of every ramp row of table.  An end in
    an EC section takes the count its row's spec sets there; an end in a
    quasi-EC section (variable-degree) is probed by detect_vanishing_order,
    derivative by derivative."""
    right: dict[int, int] = {}
    left: dict[int, int] = {}
    for i, row in table.rows.items():
        if row.kind != "ramp":
            continue
        right[i] = _end_order(table, i, "left") - 1
        left[i] = _end_order(table, i, "right") - 1
    return QECProfile(kbar_right=right, kbar_left=left)

"""Extended knot partitions.

A spline space on [a, b] with order m, interior break points x_1 < .. < x_q
and multiplicities 0 <= mu_i <= m carries the extended knot vector

    t_1 <= ... <= t_{2m+K},   K = sum(mu_i),

with t_1 = .. = t_m = a and t_{m+K+1} = .. = t_{2m+K} = b in the clamped
case.  Knot indices are 1-based throughout the public API.  The partition
also keeps the full grid of section boundaries, which is a superset of the
knot values: break points of multiplicity zero appear in the grid but not in
the knot vector, and auxiliary grids (periodic designs) extend beyond [a, b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError


@dataclass(frozen=True)
class ExtendedPartition:
    order: int
    knots: np.ndarray        # full extended vector, ascending, length 2m+K
    grid: np.ndarray         # section boundaries covering [knots[0], knots[-1]]
    a: float
    b: float

    @property
    def K(self) -> int:
        return len(self.knots) - 2 * self.order

    @property
    def dim(self) -> int:
        """Number of B-splines: m + K."""
        return len(self.knots) - self.order

    @property
    def num_sections(self) -> int:
        return len(self.grid) - 1

    # -- 1-based knot access ------------------------------------------------
    def knot(self, i: int) -> float:
        if not 1 <= i <= len(self.knots):
            raise PartitionError(f"knot index {i} out of range 1..{len(self.knots)}")
        return float(self.knots[i - 1])

    def end_multiplicities(self, i: int) -> tuple[int, int]:
        """(mu_left, mu_right): run lengths of knots equal to t_i ending/starting at i."""
        t = self.knot(i)
        return (i - int(self.knots.searchsorted(t)),
                int(self.knots.searchsorted(t, "right")) - (i - 1))

    def multiplicity_of(self, x: float) -> int:
        return int(np.sum(self.knots == x))

    # -- derived views ----------------------------------------------------------
    def interior_multiplicities(self) -> list[int]:
        """Multiplicities of the interior grid points within (a, b)."""
        out = []
        for x in self.grid[1:-1]:
            if self.a < x < self.b:
                out.append(self.multiplicity_of(float(x)))
        return out


def _interval_index(grid: np.ndarray, xs: np.ndarray, side: str = "right",
                    lo=None, hi=None) -> np.ndarray:
    """0-based index j of the grid interval [g_j, g_{j+1}] holding each
    point of the array xs: [g_j, g_{j+1}) for side="right", (g_j, g_{j+1}]
    for side="left".  Only the intervals inside [lo, hi] (both grid points,
    or neither given for the whole grid) are read, so x = lo reads the first
    of them and x = hi the last whatever side says; x outside [lo, hi]
    raises.  TransitionTable._interval reads one point by the same rule."""
    first, last = (0, len(grid) - 1) if lo is None else grid.searchsorted((lo, hi))
    if not np.logical_and(grid[first] <= xs, xs <= grid[last]).all():
        raise PartitionError(
            f"evaluation point outside [{grid[first]}, {grid[last]}]")
    return np.clip(grid.searchsorted(xs, side) - 1, first, last - 1)


def build_extended_partition(breakpoints, multiplicities, order: int) -> ExtendedPartition:
    """Clamped extended partition from interior break points and multiplicities.

    breakpoints = [x_0, x_1, .., x_q, x_{q+1}] with x_0 = a, x_{q+1} = b;
    multiplicities has one entry 0..m per interior break point.
    """
    bp = np.asarray(breakpoints, dtype=float)
    mult = [int(m) for m in multiplicities]
    m = int(order)
    if m < 1:
        raise PartitionError("order must be >= 1")
    if not np.isfinite(bp).all():
        raise PartitionError(f"break points must be finite, got {bp.tolist()}")
    if len(bp) < 2 or np.any(np.diff(bp) <= 0):
        raise PartitionError("break points must be strictly increasing with at least two entries")
    if len(mult) != len(bp) - 2:
        raise PartitionError(
            f"expected {len(bp) - 2} interior multiplicities, got {len(mult)}")
    if any(not 0 <= mu <= m for mu in mult):
        raise PartitionError(f"multiplicities must lie in 0..{m}")
    a, b = float(bp[0]), float(bp[-1])
    knots = [a] * m
    for j, mu in enumerate(mult, start=1):
        knots.extend([float(bp[j])] * mu)
    knots.extend([b] * m)
    return ExtendedPartition(m, np.asarray(knots), bp.copy(), a, b)


def partition_from_knots(order: int, knots, grid=None) -> ExtendedPartition:
    """Partition from an explicit (possibly unclamped) extended knot vector
    over the domain [t_m, t_{m+K+1}].

    grid, when given, must contain every distinct knot value plus any extra
    section boundaries (zero-multiplicity break points).
    """
    m = int(order)
    t = np.asarray(knots, dtype=float)
    if len(t) < 2 * m:
        raise PartitionError(f"need at least {2 * m} knots for order {m}")
    if not np.isfinite(t).all():
        raise PartitionError(f"knots must be finite, got {t.tolist()}")
    if np.any(np.diff(t) < 0):
        raise PartitionError("knots must be non-decreasing")
    K = len(t) - 2 * m
    a, b = float(t[m - 1]), float(t[m + K])
    if a >= b:
        raise PartitionError("empty domain: t_m must be below t_{m+K+1}")
    distinct = np.unique(t)
    if grid is None:
        g = distinct
    else:
        g = np.unique(np.asarray(grid, dtype=float))
        missing = np.setdiff1d(distinct, g)
        if len(missing):
            raise PartitionError(f"grid is missing knot values {missing.tolist()}")
        if g[0] != t[0] or g[-1] != t[-1]:
            raise PartitionError("grid must span exactly the knot range")
    return ExtendedPartition(m, t.copy(), g, a, b)

"""Seeded input generation for the benchmark workloads.

Every input is drawn from a numpy Generator seeded by the workload seed, so
the same seed gives the same spaces, splines and descriptors.  The library
only ever sees the generated objects.  Section parameters respect the
families' validity rules:

- theta * local length < pi for trigonometric, mixed and multi-frequency
  sections (local length is the interval length under the shift map and 1
  under the normalized map), and <= 2 pi for trig-envelope sections;
- rational-tension sections have order 4 and the normalized map;
- variable-degree sections use the normalized map, with exponents >= m - 1
  so that every derivative the Hermite rows need stays finite.
"""

from __future__ import annotations

import numpy as np

from chebspline import basis as B
from chebspline import closedform, extensions, partition, refine, sections

FAMILIES_BY_ORDER = {
    3: ("polynomial", "trigonometric", "hyperbolic", "variable-degree"),
    4: ("polynomial", "trigonometric", "hyperbolic", "variable-degree",
        "rational-tension"),
    5: ("polynomial", "trigonometric", "hyperbolic", "variable-degree",
        "mixed", "trig-envelope", "multi-frequency-trig"),
}


def jittered_breakpoints(rng, q: int, a: float = 0.0, b: float = 1.0,
                         jitter: float = 0.3) -> np.ndarray:
    """q interior break points near a uniform grid, plus both ends."""
    h = (b - a) / (q + 1)
    bp = a + h * np.arange(q + 2)
    bp[1:-1] += rng.uniform(-jitter, jitter, q) * h
    bp[-1] = b
    return bp


def random_breakpoints(rng, q: int, a: float = 0.0, b: float = 1.0,
                       min_gap: float = 0.02) -> np.ndarray:
    """q interior break points drawn at random, at least min_gap apart."""
    gaps = rng.dirichlet(np.ones(q + 1)) * ((b - a) - (q + 1) * min_gap) + min_gap
    bp = a + np.concatenate([[0.0], np.cumsum(gaps)])
    bp[-1] = b
    return bp


def section_params(rng, family: str, m: int,
                   integer_powers: bool = False) -> tuple[dict | None, str | None]:
    """(params, local map) valid on any interval of length <= 1.

    integer_powers draws whole variable-degree exponents >= m: the endpoint
    probe of qec_profile (used by insertion on such spaces) stops at the
    first infinite derivative of a fractional power and raises instead of
    returning the vanishing order, and exponents >= m keep an elevation by
    two orders inside the family.
    """
    if family == "polynomial":
        return None, None
    if family == "trigonometric":
        return {"theta": rng.uniform(0.5, 3.0)}, None
    if family == "hyperbolic":
        return {"phi": rng.uniform(0.5, 4.0)}, None
    if family == "mixed":
        return {"theta": rng.uniform(0.5, 3.0), "phi": rng.uniform(0.5, 4.0)}, None
    if family == "trig-envelope":
        return {"theta": rng.uniform(0.5, 6.0)}, None
    if family == "multi-frequency-trig":
        return {"theta": rng.uniform(0.5, 3.0)}, None
    if family == "rational-tension":
        return {"nu": rng.uniform(3.0, 10.0)}, "normalized"
    if family == "variable-degree":
        draw = (lambda: float(rng.integers(m, m + 6))) if integer_powers \
            else (lambda: rng.uniform(m - 1, m + 5))
        return {"n1": draw(), "n2": draw()}, "normalized"
    raise ValueError(family)


def make_sections(rng, bp, m: int, families, integer_powers: bool = False) -> list:
    """One section per grid interval, family drawn from `families`."""
    out = []
    for j in range(len(bp) - 1):
        fam = families[int(rng.integers(len(families)))]
        params, lmap = section_params(rng, fam, m, integer_powers)
        out.append(sections.make_section(fam, params, (bp[j], bp[j + 1]), m, lmap))
    return out


MULT_CYCLE = (1, 1, 2, 1, 1, 1, -1, 1, 2, 1)     # -1 stands for m - 1


def knot_multiplicities(K: int, m: int) -> list[int]:
    """Interior multiplicities in 1..m-1 summing to K, in a fixed cycle
    (mostly 1), so that the row count and sizes do not depend on the seed."""
    mults: list[int] = []
    k = 0
    while sum(mults) < K:
        mu = MULT_CYCLE[k % len(MULT_CYCLE)]
        mu = m - 1 if mu < 0 else min(mu, m - 1)
        mults.append(min(mu, K - sum(mults)))
        k += 1
    return mults


def mixed_space(rng, K: int, m: int, families=None, *, zero_mult: bool = False,
                connections: bool = False, integer_powers: bool = False):
    """Mixed-family space with K interior knots on [0, 1].

    zero_mult adds break points of multiplicity zero between sections of one
    family (a section change that spends no knot); connections attaches a
    random connection matrix to about a fifth of the interior break points.
    """
    families = families or FAMILIES_BY_ORDER[m]
    mults = knot_multiplicities(K, m)
    bp = jittered_breakpoints(rng, len(mults))
    secs = make_sections(rng, bp, m, families, integer_powers)
    if zero_mult:
        # split sections in two without a knot: same family and local map
        new_bp, new_secs, new_mults = [bp[0]], [], []
        for j, sec in enumerate(secs):
            if rng.uniform() < 0.25:
                mid = 0.5 * (bp[j] + bp[j + 1])
                params, lmap = section_params(rng, sec.family, m, integer_powers)
                for lo, hi in ((bp[j], mid), (mid, bp[j + 1])):
                    new_secs.append(sections.make_section(sec.family, params,
                                                          (lo, hi), m, lmap))
                new_bp.append(mid)
                new_mults.append(0)
            else:
                new_secs.append(sec)
            new_bp.append(bp[j + 1])
            if j < len(mults):
                new_mults.append(mults[j])
        bp, secs, mults = np.array(new_bp), new_secs, new_mults
    part = partition.build_extended_partition(bp, mults, m)
    conns = []
    if connections:
        for g in range(1, len(bp) - 1):
            k = m - mults[g - 1]
            if mults[g - 1] >= 1 and k >= 2 and rng.uniform() < 0.2:
                M = np.eye(k)
                for r in range(1, k):
                    M[r, r] = rng.uniform(0.5, 2.0)
                    M[r, 1:r] = rng.uniform(-1.0, 1.0, r - 1)
                # (location, matrix) pairs: an integer grid index that is
                # also a grid value would be read as a location
                conns.append((float(bp[g]), M))
    return B.make_spline_space(part, secs, conns or None)


def poly_space(rng, K: int, m: int):
    return mixed_space(rng, K, m, ("polynomial",))


def closed_space(rng, case: str, K: int):
    """(space, knots, param) for a closed-form family on simple knots.

    The knot vector is unclamped and strictly increasing; the pipeline basis
    is meaningful on [t_4, t_{len-3}], which is the space's domain.
    """
    knots = jittered_breakpoints(rng, K + 6, -0.3, 1.3, jitter=0.25)
    param = {"A": rng.uniform(0.5, 3.0), "B": rng.uniform(0.5, 4.0),
             "C": rng.uniform(3.0, 10.0)}[case]
    return closedform.closed_form_space(case, knots, param), knots, param


def spline_on(rng, space, d: int = 2):
    """Spline with coefficients drawn from [-1, 1]^d."""
    return B.Spline(space, rng.uniform(-1.0, 1.0, (space.dim, d)))


def multiorder_space(rng, nsec: int):
    """Sections of orders 2..5 on [0, 1] joined with random continuity."""
    bp = jittered_breakpoints(rng, nsec - 1)
    secs, orders = [], []
    for j in range(nsec):
        m = int(rng.integers(3, 6)) if j % 3 else int(rng.integers(2, 4))
        fams = ("polynomial",) if m == 2 else FAMILIES_BY_ORDER[m]
        secs += make_sections(rng, bp[j:j + 2], m, fams)
        orders.append(m)
    conts = [int(rng.integers(0, min(orders[i], orders[i + 1])))
             for i in range(nsec - 1)]
    return extensions.build_multiorder_space(secs, conts)


def periodic_spline(rng, q: int, m: int, families, d: int = 2):
    """Wrap-around spline with q interior break points on period [0, 1]."""
    bp = random_breakpoints(rng, q, min_gap=0.03)
    base = make_sections(rng, bp, m, families)
    x = bp[:-1]
    knots = np.concatenate([x[len(x) - (m - 1):] - 1.0, bp, x[1:m] + 1.0])
    space = refine.make_periodic_space(m, knots, base, 1.0)
    free = rng.uniform(-1.0, 1.0, (space.dim - (m - 1), d))
    return B.Spline(space, refine.tile_periodic_coefficients(space, free))


def ramp_rows(space) -> int:
    """Transition rows of a space whose support is not a single point."""
    part = space.partition
    m = part.order
    return sum(1 for i in range(2, part.dim + 1)
               if part.knots[i - 1] < part.knots[i + m - 2])


def multiorder_ramp_rows(mo) -> int:
    return sum(1 for i in range(2, mo.dim + 1)
               if mo.t_knots[i - 1] < mo.s_knots[i - 2])

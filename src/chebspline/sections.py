"""Section spaces: the per-interval function systems splines are glued from.

Each section carries an interval [x0, x1], an order m and a list of m
generators u_1..u_m expressed in a local coordinate t = (x - anchor) * scale.
Every generator knows its exact derivatives of all orders, given for all
orders up to R at once as a jet, and a closed-form antiderivative, so
downstream collocation and integration never fall back on numerical
differentiation or quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidSectionError

_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# generator blocks (local coordinate t)
# ---------------------------------------------------------------------------
# A block holds one or more generators that share work.  jet(R, t, lo) gives
# one column [D^lo u(t), .., D^R u(t)] per generator, antideriv(t) one
# antiderivative per generator, at a float array t (0-d for one point).  A
# parameter is a number, or one value per section in an (S, 1) array that
# broadcasts against a t of shape (S, 2) (both ends of S sections); its
# powers are Python float powers either way (_pow).  Every element of t is
# a point on its own: its values do not depend on the shape of t, so
# batched and single-point evaluation agree bit for bit.  Products, sums
# and elementary functions of t[()], the value of a 0-d t, round exactly as
# on a t of any shape, and cost a fraction of it.  Powers do not: numpy's
# array power loop and the pow of one float64 differ in the last bit for a
# few per cent of bases.  Powers of t take the array t and keep a Python
# int or float exponent (so that t**2 is numpy's square, as at one point);
# the mirror power (1-t)**e, which is one float64 at one point, is one
# float64 pow per point everywhere (_scalar_pow).


def _pow(p, r: int):
    """p ** r by Python's float pow, per section for an array p."""
    if isinstance(p, np.ndarray):
        return np.array([v ** r for v in p.ravel().tolist()]).reshape(p.shape)
    return p ** r


def _scalar_pow(base, e: float):
    """base ** e by numpy's pow of one float64 at every element of base."""
    if isinstance(base, np.ndarray):
        return np.array([b ** e for b in base.ravel()]).reshape(base.shape)
    return base ** e


class Monomials:
    """u_h(t) = t**(h-1) for h = 1..count."""

    def __init__(self, count: int):
        self.count = count

    def jet(self, R: int, t, lo: int = 0) -> list:
        zero = np.zeros_like(t) if R else None
        cols = []
        for k in range(self.count):
            col = []
            for r in range(lo, R + 1):
                col.append(math.perm(k, r) * t ** (k - r) if r <= k else zero)
            cols.append(col)
        return cols

    def antideriv(self, t) -> list:
        return [t ** (k + 1) / (k + 1) for k in range(self.count)]


class Trigs:
    """cos(theta*t) and sin(theta*t) = cos(theta*t - pi/2)."""

    def __init__(self, theta: float):
        self.theta = theta

    def jet(self, R: int, t, lo: int = 0) -> list:
        th = self.theta
        u = th * t[()]
        cols = []
        for phase in (0.0, -_HALF_PI):
            arg = u + phase
            col = []
            for r in range(lo, R + 1):
                col.append(_pow(th, r) * np.cos(arg + r * _HALF_PI))
            cols.append(col)
        return cols

    def antideriv(self, t) -> list:
        th = self.theta
        return [np.cos(th * t + phase - _HALF_PI) / th
                for phase in (0.0, -_HALF_PI)]


class TTrigs:
    """t*cos(theta*t) and t*sin(theta*t)."""

    def __init__(self, theta: float):
        self.theta = theta

    def jet(self, R: int, t, lo: int = 0) -> list:
        # D^r u = t th^r cos(a + r pi/2) + r th^(r-1) cos(a + (r-1) pi/2)
        th, t = self.theta, t[()]
        u = th * t
        cols = []
        for phase in (0.0, -_HALF_PI):
            arg = u + phase
            prev = np.cos(arg + (lo - 1) * _HALF_PI) if lo else None
            col = []
            for r in range(lo, R + 1):
                cos = np.cos(arg + r * _HALF_PI)
                val = t * _pow(th, r) * cos
                if r:
                    val = val + r * _pow(th, r - 1) * prev
                col.append(val)
                prev = cos
            cols.append(col)
        return cols

    def antideriv(self, t) -> list:
        th = self.theta
        return [t * np.sin(th * t + phase) / th + np.cos(th * t + phase) / th ** 2
                for phase in (0.0, -_HALF_PI)]


class Hyps:
    """cosh(phi*t) and sinh(phi*t)."""

    def __init__(self, phi: float):
        self.phi = phi

    def jet(self, R: int, t, lo: int = 0) -> list:
        # even orders repeat the function itself, odd orders its partner
        phi = self.phi
        u = phi * t[()]
        ch, sh = np.cosh(u), np.sinh(u)
        cols = []
        for even, odd in ((ch, sh), (sh, ch)):
            col = []
            for r in range(lo, R + 1):
                col.append(_pow(phi, r) * (odd if r % 2 else even))
            cols.append(col)
        return cols

    def antideriv(self, t) -> list:
        phi = self.phi
        return [np.sinh(phi * t) / phi, np.cosh(phi * t) / phi]


class Powers:
    """(1-t)**n1 and t**n2 for real exponents n1, n2 >= 1.

    For a fractional exponent n the derivative of order r > n is unbounded
    at the base point; callers probing high orders must stop at the first
    non-finite value.  Exponents given one per section are applied one
    section (one row of t) at a time: an exponent reaches pow as a number.
    """

    def __init__(self, n1, n2):
        self.exps = tuple((n if isinstance(n, np.ndarray) else float(n), mirror)
                          for n, mirror in ((n1, True), (n2, False)))

    def jet(self, R: int, t, lo: int = 0) -> list:
        cols = []
        with np.errstate(divide="ignore"):
            for n, mirror in self.exps:
                base = (1.0 - t) if mirror else t
                if isinstance(n, np.ndarray):
                    per_row = [_power_column(v, mirror, base[s], lo, R)
                               for s, v in enumerate(n.ravel().tolist())]
                    cols.append([np.array(col) for col in zip(*per_row)])
                else:
                    cols.append(_power_column(n, mirror, base, lo, R))
        return cols

    def antideriv(self, t) -> list:
        (n1, _), (n2, _) = self.exps
        return [-((1.0 - t) ** (n1 + 1)) / (n1 + 1), t ** (n2 + 1) / (n2 + 1)]


def _power_column(n: float, mirror: bool, base, lo: int, R: int) -> list:
    """D^lo .. D^R of base**n, with base = 1 - t for the mirror power."""
    power = _scalar_pow if mirror else pow
    c = 1.0                           # n (n-1) .. (n-r+1)
    for r in range(lo):
        c *= n - r
    col = []
    for r in range(lo, R + 1):
        if n.is_integer() and r > int(n):
            col.append(np.zeros_like(base))
            continue
        sign = (-1.0) ** r if mirror else 1.0
        col.append(sign * c * power(base, n - r))
        c *= n - r
    return col


# the numerators (1-t)**3 and t**3 of RationalCubics, ascending powers, with
# their derivatives
_CUBICS = (np.array([1.0, -3.0, 3.0, -1.0]), np.array([0.0, 0.0, 0.0, 1.0]))
_CUBIC_JETS = [[p] + [npoly.polyder(p, s) for s in (1, 2, 3)] for p in _CUBICS]


class RationalCubics:
    """(1-t)**3 / q(t) and t**3 / q(t) with q(t) = 1 + (nu-3)(1-t)t.

    nu >= 3; nu == 3 degenerates to the plain cubics.  Derivatives follow
    the quotient recurrence D^r(p) = sum C(r,s) D^s(f) D^(r-s)(q) solved for
    D^r(f); the antiderivative comes from polynomial division plus residues
    of the remainder over the real roots of q (which lie outside [0,1]).
    """

    def __init__(self, nu):
        self.k = nu - 3.0

    def _qder(self, s: int, t):
        k = self.k
        if s == 0:            # Horner on (1, k, -k), as numpy's polyval
            return 1.0 + (k + (-k + t * 0) * t) * t
        if s == 1:
            return k - 2.0 * k * t
        if s == 2:
            return np.full_like(t, -2.0 * k)
        return np.zeros_like(t)

    def jet(self, R: int, t, lo: int = 0) -> list:
        # the recurrence needs every lower order
        t = t[()]
        dq = []
        for s in range(R + 1):
            dq.append(self._qder(s, t))
        cols = []
        for dp in _CUBIC_JETS:
            fs = []
            for rr in range(R + 1):
                acc = (npoly.polyval(t, dp[rr]) if rr <= 3
                       else np.zeros_like(t)).astype(float)
                for s in range(rr):
                    acc -= math.comb(rr, s) * fs[s] * dq[rr - s]
                fs.append(acc / dq[0])
            cols.append(fs[lo:])
        return cols

    @cached_property
    def _partial_fractions(self) -> tuple:
        """(roots of q, antiderivative of the quotient and residues per
        numerator) of a number nu."""
        k = self.k
        if k == 0.0:
            return (), [(npoly.polyint(p), ()) for p in _CUBICS]
        q = np.array([1.0, k, -k])  # 1 + k t - k t^2
        disc = math.sqrt(k * k + 4.0 * k)
        roots = ((k + disc) / (2.0 * k), (k - disc) / (2.0 * k))
        dq = npoly.polyder(q)
        terms = []
        for p in _CUBICS:
            quot, rem = npoly.polydiv(p, q)
            terms.append((npoly.polyint(quot),
                          tuple(npoly.polyval(r, rem) / npoly.polyval(r, dq)
                                for r in roots)))
        return roots, terms

    def antideriv(self, t) -> list:
        roots, terms = self._partial_fractions
        out = []
        for quot_int, residues in terms:
            val = npoly.polyval(t, quot_int)
            for root, res in zip(roots, residues):
                val = val + res * np.log(np.abs(t - root))
            out.append(val)
        return out


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    name: str
    validate: Callable                    # (params, order, local length)
    build: Callable                       # (params, order) -> generator blocks
    # span closed under affine t-substitution: such a family defaults to the
    # shift map, any other is held to the normalized map
    affine_invariant: bool = True
    # the parameters build reads, all frequencies in an affine-invariant
    # family; the blocks also take each as one value per section, an (S, 1)
    # array, so that end_jets evaluates sections of one family and order
    # together
    param_names: tuple[str, ...] = ()
    qec: bool = False                     # may need probed vanishing orders


def _build_polynomial(params, order):
    return [Monomials(order)]


def _check(cond: bool, msg: str):
    if not cond:
        raise InvalidSectionError(msg)


def _get(params, name):
    _check(name in params, f"missing parameter {name!r}")
    v = float(params[name])
    _check(math.isfinite(v), f"{name} must be finite, got {v}")
    return v


def _validate_polynomial(params, order, local_len):
    _check(order >= 1, "polynomial sections need order >= 1")
    _check(not params, "polynomial sections take no parameters")


def _validate_trig(params, order, local_len):
    _check(order >= 3, "trigonometric sections need order >= 3")
    theta = _get(params, "theta")
    _check(theta > 0, "theta must be positive")
    _check(theta * local_len < math.pi,
           f"theta*length = {theta * local_len:.6g} must stay below pi")


def _build_trig(params, order):
    return [Monomials(order - 2), Trigs(params["theta"])]


def _validate_hyp(params, order, local_len):
    _check(order >= 3, "hyperbolic sections need order >= 3")
    _check(_get(params, "phi") > 0, "phi must be positive")


def _build_hyp(params, order):
    return [Monomials(order - 2), Hyps(params["phi"])]


def _validate_mixed(params, order, local_len):
    _check(order >= 5, "mixed trig/hyperbolic sections need order >= 5")
    theta = _get(params, "theta")
    _check(theta > 0, "theta must be positive")
    _check(theta * local_len < math.pi,
           f"theta*length = {theta * local_len:.6g} must stay below pi")
    _check(_get(params, "phi") > 0, "phi must be positive")


def _build_mixed(params, order):
    return [Monomials(order - 4), Trigs(params["theta"]), Hyps(params["phi"])]


def _validate_envelope(params, order, local_len):
    _check(order >= 5, "trig-envelope sections need order >= 5")
    theta = _get(params, "theta")
    _check(theta > 0, "theta must be positive")
    _check(theta * local_len <= 2.0 * math.pi * (1.0 + 1e-12),
           f"theta*length = {theta * local_len:.6g} must not exceed 2*pi")


def _build_envelope(params, order):
    theta = params["theta"]
    return [Monomials(order - 4), Trigs(theta), TTrigs(theta)]


def _validate_rational(params, order, local_len):
    _check(order == 4, "rational-tension sections have order 4")
    _check(_get(params, "nu") >= 3, "nu must be >= 3")


def _build_rational(params, order):
    return [Monomials(2), RationalCubics(params["nu"])]


def _validate_multifreq(params, order, local_len):
    _check(order == 5, "multi-frequency trigonometric sections have order 5")
    theta = _get(params, "theta")
    _check(theta > 0, "theta must be positive")
    # the doubled frequency must stay below a full period of the base one
    _check(theta * local_len < math.pi,
           f"theta*length = {theta * local_len:.6g} must stay below pi")


def _build_multifreq(params, order):
    theta = params["theta"]
    return [Monomials(1), Trigs(theta), Trigs(2.0 * theta)]


def _validate_vardeg(params, order, local_len):
    _check(order >= 3, "variable-degree sections need order >= 3")
    n1 = _get(params, "n1")
    n2 = _get(params, "n2")
    _check(n1 >= order - 2 and n2 >= order - 2,
           f"exponents must be >= order-2 = {order - 2}")
    # (1-t)**n, t**n and the monomials below degree n are dependent
    _check(not n1 == n2 == order - 2,
           f"exponents n1 = n2 = order-2 = {order - 2} give dependent generators")


def _build_vardeg(params, order):
    return [Monomials(order - 2), Powers(params["n1"], params["n2"])]


FAMILIES: dict[str, Family] = {
    "polynomial": Family("polynomial", _validate_polynomial, _build_polynomial),
    "trigonometric": Family("trigonometric", _validate_trig, _build_trig,
                            param_names=("theta",)),
    "hyperbolic": Family("hyperbolic", _validate_hyp, _build_hyp,
                         param_names=("phi",)),
    "mixed": Family("mixed", _validate_mixed, _build_mixed,
                    param_names=("theta", "phi")),
    "trig-envelope": Family("trig-envelope", _validate_envelope,
                            _build_envelope, param_names=("theta",)),
    "rational-tension": Family("rational-tension", _validate_rational,
                               _build_rational, affine_invariant=False,
                               param_names=("nu",)),
    "multi-frequency-trig": Family("multi-frequency-trig", _validate_multifreq,
                                   _build_multifreq, param_names=("theta",)),
    "variable-degree": Family("variable-degree", _validate_vardeg,
                              _build_vardeg, affine_invariant=False,
                              param_names=("n1", "n2"), qec=True),
}


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ECSection:
    """One section: m generators over [x0, x1] in local coordinate (x-anchor)*scale."""

    family: str
    params: dict
    interval: tuple[float, float]
    order: int
    local_map: str
    anchor: float
    scale: float
    _blocks: list = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        blocks = FAMILIES[self.family].build(self.params, self.order)
        object.__setattr__(self, "_blocks", blocks)

    # -- local coordinate -------------------------------------------------
    def to_local(self, x):
        return (np.asarray(x, dtype=float) - self.anchor) * self.scale

    # -- evaluation --------------------------------------------------------
    def jet(self, R: int, x) -> np.ndarray:
        """Rows D^0 .. D^R of all generators at x, in x-units: shape
        (R+1, m) at one point, (R+1, m, n) at n points."""
        return self._rows(0, R, x)

    def eval_all(self, r: int, x) -> np.ndarray:
        """Row vector (D^r u_1(x), ..., D^r u_m(x)), which is jet(r, x)[r]."""
        return self._rows(r, r, x)[0]

    def _rows(self, lo: int, R: int, x) -> np.ndarray:
        t = np.asarray(self.to_local(x))   # a 0-d array at one point
        return _jet_rows(self._blocks, self.scale, lo, R, t)

    def integral_all(self, x) -> np.ndarray:
        """Integrals of all generators from the section's left endpoint to x."""
        t = np.asarray(self.to_local(x), dtype=float)
        t0 = np.asarray(self.to_local(self.interval[0]), dtype=float)
        a = [u for block in self._blocks for u in block.antideriv(t)]
        a0 = [u for block in self._blocks for u in block.antideriv(t0)]
        return np.array([(u - u0) / self.scale for u, u0 in zip(a, a0)],
                        dtype=float)

    # -- geometry ----------------------------------------------------------
    def translated(self, dx: float) -> "ECSection":
        """The same section space shifted by dx along the axis."""
        x0, x1 = self.interval
        return ECSection(self.family, dict(self.params), (x0 + dx, x1 + dx),
                         self.order, self.local_map, self.anchor + dx, self.scale)

    def with_interval(self, x0: float, x1: float) -> "ECSection":
        """Restriction to a subinterval, keeping the parent local map."""
        if x0 < self.interval[0] - 1e-12 or x1 > self.interval[1] + 1e-12:
            raise InvalidSectionError("restriction interval exceeds the parent section")
        return ECSection(self.family, dict(self.params), (float(x0), float(x1)),
                         self.order, self.local_map, self.anchor, self.scale)


def _jet_rows(blocks, scale, lo: int, R: int, t) -> np.ndarray:
    """Rows D^lo .. D^R of the generators of blocks at the local
    coordinates t, in x-units: shape (R-lo+1, m) + t.shape.  The orders
    below lo are skipped where no recurrence needs them."""
    cols = []
    for block in blocks:
        cols += block.jet(R, t, lo)
    J = np.array(cols, dtype=float).swapaxes(0, 1)
    if R:                           # D^r picks up scale**r; rows contiguous
        J = np.ascontiguousarray(J)
        for r in range(max(lo, 1), R + 1):
            J[r - lo] *= _pow(scale, r)
    return J


def end_jets(sections: Sequence[ECSection], ends) -> list[np.ndarray]:
    """Rows D^0 .. D^(m-1) of the generators of each section at its two ends
    (x-units, ends[s] = (x0, x1) for sections[s] of order m): one (2, m, m)
    array per section, equal bit for bit to
    [sections[s].jet(m - 1, x) for x in ends[s]].

    Sections of one family and order are evaluated together, with one
    value per section of each parameter, of the anchor and of the scale.
    """
    ends = np.asarray(ends, dtype=float).reshape(len(sections), 2)
    groups: dict[tuple, list[int]] = {}
    for s, sec in enumerate(sections):
        groups.setdefault((sec.family, sec.order), []).append(s)
    out: list = [None] * len(sections)

    def column(values):
        return np.array(values, dtype=float)[:, None]

    for (family, order), idx in groups.items():
        secs = [sections[s] for s in idx]
        fam = FAMILIES[family]
        params = {k: column([sec.params[k] for sec in secs])
                  for k in fam.param_names}
        scale = column([sec.scale for sec in secs])
        t = (ends[idx] - column([sec.anchor for sec in secs])) * scale
        J = _jet_rows(fam.build(params, order), scale, 0, order - 1, t)
        for s, J_s in zip(idx, np.ascontiguousarray(J.transpose(2, 3, 0, 1))):
            out[s] = J_s
    return out


def _map_for(local_map: str, interval) -> tuple[float, float]:
    x0, x1 = interval
    if local_map == "shift":
        return x0, 1.0
    if local_map == "normalized":
        return x0, 1.0 / (x1 - x0)
    raise InvalidSectionError(f"unknown local map {local_map!r}")


def make_section(family: str, params: dict | None, interval: Sequence[float],
                 order: int, local_map: str | None = None, *,
                 anchor: float | None = None, scale: float | None = None) -> ECSection:
    """Validate parameters and construct a section.

    anchor/scale override the map convention; refinement uses this to keep a
    child section on its parent's local coordinate.
    """
    if family not in FAMILIES:
        raise InvalidSectionError(f"unknown section family {family!r}")
    fam = FAMILIES[family]
    params = dict(params or {})
    x0, x1 = float(interval[0]), float(interval[1])
    if not (math.isfinite(x0) and math.isfinite(x1) and x0 < x1):
        raise InvalidSectionError(f"invalid interval [{x0}, {x1}]")
    if not (isinstance(order, (int, np.integer)) and order >= 1):
        raise InvalidSectionError(f"order must be a positive integer, got {order!r}")
    order = int(order)
    if local_map is None:
        local_map = "shift" if fam.affine_invariant else "normalized"
    elif not fam.affine_invariant and local_map != "normalized":
        raise InvalidSectionError(
            f"{family} sections require the 'normalized' local map")
    if anchor is None and scale is None:
        anchor, scale = _map_for(local_map, (x0, x1))
    elif anchor is None or scale is None:
        raise InvalidSectionError("anchor and scale must be given together")
    fam.validate(params, order, (x1 - x0) * scale)
    return ECSection(family, params, (x0, x1), order, local_map,
                     float(anchor), float(scale))


def split_section(section: ECSection, xhat: float,
                  strategy: str = "restrict") -> tuple[ECSection, ECSection]:
    """Split a section at an interior point into two sections spanning it.

    "restrict" keeps the parent generators and local map on both halves and
    works for every family.  "reparametrize" re-anchors each half on its own
    interval with frequency parameters rescaled so the spanned space is
    unchanged; it is unavailable for families whose span is not closed under
    affine substitutions (rational-tension, variable-degree).
    """
    x0, x1 = section.interval
    if not (x0 < xhat < x1):
        raise InvalidSectionError(f"split point {xhat} not inside ({x0}, {x1})")
    if strategy == "restrict":
        return section.with_interval(x0, xhat), section.with_interval(xhat, x1)
    if strategy != "reparametrize":
        raise InvalidSectionError(f"unknown split strategy {strategy!r}")
    fam = FAMILIES[section.family]
    if not fam.affine_invariant:
        raise InvalidSectionError(
            f"{section.family} sections only support the 'restrict' strategy")
    halves = []
    for lo, hi in ((x0, xhat), (xhat, x1)):
        new_anchor, new_scale = _map_for(section.local_map, (lo, hi))
        factor = section.scale / new_scale
        params = dict(section.params)
        for name in fam.param_names:
            params[name] = params[name] * factor
        halves.append(make_section(section.family, params, (lo, hi),
                                   section.order, section.local_map))
    return halves[0], halves[1]


def merge_sections(left: ECSection, right: ECSection) -> ECSection | None:
    """Join two adjacent sections into one when they describe the same space.

    That holds when both carry the same family, parameters and local map
    (restrict-split siblings), so removal of a break point can undo a split.
    Returns None when the sections genuinely differ.
    """
    if left.family != right.family or left.order != right.order:
        return None
    if left.params != right.params:
        return None
    if left.interval[1] != right.interval[0]:
        return None
    if left.anchor != right.anchor or left.scale != right.scale:
        return None
    return ECSection(left.family, dict(left.params),
                     (left.interval[0], right.interval[1]), left.order,
                     left.local_map, left.anchor, left.scale)


# public helpers matching the functional API ------------------------------

def _check_generator(section: ECSection, h: int, x) -> None:
    """Raise unless x lies in the section interval and h names a generator."""
    x_arr = np.asarray(x, dtype=float)
    lo, hi = section.interval
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if np.any(x_arr < lo - tol) or np.any(x_arr > hi + tol):
        raise InvalidSectionError(
            f"evaluation point outside section interval [{lo}, {hi}]")
    if not 1 <= h <= section.order:
        raise InvalidSectionError(
            f"generator index {h} out of range 1..{section.order}")


def eval_generator(section: ECSection, h: int, r: int, x):
    """D^r u_h at x (x-units); x must lie in the section interval."""
    _check_generator(section, h, x)
    return section.eval_all(r, x)[h - 1]


def antiderivative_generator(section: ECSection, h: int, x):
    """Integral of u_h from the section's left endpoint to x: a float for a
    scalar x, an array for an array."""
    _check_generator(section, h, x)
    val = section.integral_all(x)[h - 1]
    return float(val) if val.ndim == 0 else val

"""JSON descriptors for spaces, splines and surfaces.

Schema, with optional keys in parentheses:

section           {"family", ("params"), ("interval"), ("order"),
                   ("local_map"), ("anchor"), ("scale")}
space             {"type": "space", "partition", "sections",
                   ("connections"), ("periodic")}
  partition       {"order", "breakpoints", "multiplicities"}
                  or {"order", "knots", ("grid")}
  connections     [{"at": x, "matrix": [[..]]}, ..]
  periodic        {"period": L}, knot-vector partition form only
spline            {"type": "spline", "space", "coefficients"}
                  periodic designs may give "free_coefficients" instead
multiorder-space  {"type": "multiorder-space", "sections", "continuities"}
                  every section carries an explicit interval and order
surface           {"type": "surface", "u_space", "v_space", "net"}

Section intervals and orders default to the values implied by the enclosing
partition.  anchor/scale are written only when a section does not sit on the
default local coordinate of its map (restricted pieces of normalized-map
sections after refinement).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .basis import (Spline, SplineSpace, TensorSurface, make_spline_space)
from .errors import ChebsplineError, DescriptorError
from .extensions import MultiOrderSpace, build_multiorder_space
from .partition import (ExtendedPartition, build_extended_partition,
                        partition_from_knots)
from .refine import make_periodic_space, tile_periodic_coefficients
from .sections import ECSection, _map_for, make_section
from .transition import validate_connection_matrix


def _fail(where: str, msg: str) -> None:
    raise DescriptorError(f"{where}: {msg}")


@contextmanager
def _translated(where: str):
    """Re-raise a kernel error from the block as a DescriptorError that
    starts with where; descriptor errors pass through as they are."""
    try:
        yield
    except DescriptorError:
        raise
    except ChebsplineError as e:
        raise DescriptorError(f"{where}: {e}") from e


def _get(d, key, where, default=None, required=False):
    if not isinstance(d, dict):
        _fail(where, f"expected an object, got {type(d).__name__}")
    if key not in d:
        if required:
            _fail(where, f"missing required key {key!r}")
        return default
    return d[key]


def _number(v, where) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(where, f"expected a number, got {v!r}")
    if not math.isfinite(v):
        # json reads NaN, Infinity and -Infinity
        _fail(where, f"expected a finite number, got {v!r}")
    return float(v)


def _integer(v, where) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, f"expected an integer, got {v!r}")
    return int(v)


def _number_list(v, where) -> list[float]:
    if not isinstance(v, list):
        _fail(where, f"expected a list, got {type(v).__name__}")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(v)]


def _matrix(v, where) -> np.ndarray:
    if not isinstance(v, list) or not v:
        _fail(where, "expected a non-empty list of rows")
    rows = [_number_list(r, f"{where}[{i}]") for i, r in enumerate(v)]
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        _fail(where, "rows have unequal lengths")
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def section_from_descriptor(d, where: str = "section", *,
                            order: int | None = None,
                            interval=None) -> ECSection:
    family = _get(d, "family", where, required=True)
    if not isinstance(family, str):
        _fail(where, "family must be a string")
    params = _get(d, "params", where, default={})
    if not isinstance(params, dict):
        _fail(f"{where}.params", "expected an object")
    params = {k: _number(v, f"{where}.params.{k}") for k, v in params.items()}
    iv = _get(d, "interval", where)
    if iv is None:
        if interval is None:
            _fail(where, "missing interval and no enclosing partition supplies one")
        iv = [float(interval[0]), float(interval[1])]
    else:
        iv = _number_list(iv, f"{where}.interval")
        if len(iv) != 2:
            _fail(f"{where}.interval", "expected [lo, hi]")
    m = _get(d, "order", where)
    if m is None:
        if order is None:
            _fail(where, "missing order and no enclosing partition supplies one")
        m = int(order)
    else:
        m = _integer(m, f"{where}.order")
    local_map = _get(d, "local_map", where)
    anchor = _get(d, "anchor", where)
    scale = _get(d, "scale", where)
    if anchor is not None:
        anchor = _number(anchor, f"{where}.anchor")
    if scale is not None:
        scale = _number(scale, f"{where}.scale")
    with _translated(where):
        return make_section(family, params, iv, m, local_map,
                            anchor=anchor, scale=scale)


def section_to_descriptor(sec: ECSection, *, implied_order: int | None = None,
                          implied_interval=None) -> dict:
    d: dict = {"family": sec.family}
    if sec.params:
        d["params"] = {k: float(v) for k, v in sorted(sec.params.items())}
    lo, hi = sec.interval
    if implied_interval is None or abs(lo - implied_interval[0]) > 0 \
            or abs(hi - implied_interval[1]) > 0:
        d["interval"] = [lo, hi]
    if implied_order is None or sec.order != implied_order:
        d["order"] = sec.order
    d["local_map"] = sec.local_map
    da, ds = _map_for(sec.local_map, sec.interval)
    if sec.anchor != da or sec.scale != ds:
        d["anchor"] = sec.anchor
        d["scale"] = sec.scale
    return d


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def _partition_from_descriptor(d, where: str) -> ExtendedPartition:
    order = _integer(_get(d, "order", where, required=True), f"{where}.order")
    has_bp = "breakpoints" in d
    has_knots = "knots" in d
    if has_bp == has_knots:
        _fail(where, "give exactly one of breakpoints/multiplicities or knots")
    with _translated(where):
        if has_bp:
            bp = _number_list(d["breakpoints"], f"{where}.breakpoints")
            mult = _get(d, "multiplicities", where, required=True)
            if not isinstance(mult, list):
                _fail(f"{where}.multiplicities", "expected a list")
            mult = [_integer(x, f"{where}.multiplicities[{i}]")
                    for i, x in enumerate(mult)]
            return build_extended_partition(bp, mult, order)
        knots = _number_list(d["knots"], f"{where}.knots")
        grid = _get(d, "grid", where)
        if grid is not None:
            grid = _number_list(grid, f"{where}.grid")
        return partition_from_knots(order, knots, grid)


def _connections_from_descriptor(d, part: ExtendedPartition, where: str):
    raw = _get(d, "connections", where)
    if raw is None:
        return None
    if not isinstance(raw, list):
        _fail(f"{where}.connections", "expected a list")
    pairs = []
    for i, entry in enumerate(raw):
        w = f"{where}.connections[{i}]"
        at = _number(_get(entry, "at", w, required=True), f"{w}.at")
        M = _matrix(_get(entry, "matrix", w, required=True), f"{w}.matrix")
        hits = np.nonzero(np.isclose(part.grid, at, rtol=0, atol=1e-12))[0]
        if len(hits) != 1 or not 0 < hits[0] < len(part.grid) - 1:
            _fail(f"{w}.at", f"{at} is not an interior break point")
        mu = part.multiplicity_of(float(part.grid[hits[0]]))
        with _translated(f"{w}.matrix"):
            validate_connection_matrix(M, part.order - mu)
        pairs.append((at, M))
    return pairs


def space_from_descriptor(d, where: str = "space") -> SplineSpace:
    part = _partition_from_descriptor(
        _get(d, "partition", where, required=True), f"{where}.partition")
    raw_secs = _get(d, "sections", where, required=True)
    if not isinstance(raw_secs, list):
        _fail(f"{where}.sections", "expected a list")
    periodic = _get(d, "periodic", where)
    if periodic is not None:
        period = _number(_get(periodic, "period", f"{where}.periodic",
                              required=True), f"{where}.periodic.period")
        base = [section_from_descriptor(s, f"{where}.sections[{i}]",
                                        order=part.order)
                for i, s in enumerate(raw_secs)]
        if "connections" in d:
            _fail(where, "periodic descriptors do not take connection matrices")
        with _translated(where):
            return make_periodic_space(part.order, part.knots, base, period)
    if len(raw_secs) != part.num_sections:
        _fail(f"{where}.sections",
              f"need {part.num_sections} sections for this partition, "
              f"got {len(raw_secs)}")
    secs = []
    for i, s in enumerate(raw_secs):
        iv = (float(part.grid[i]), float(part.grid[i + 1]))
        secs.append(section_from_descriptor(s, f"{where}.sections[{i}]",
                                            order=part.order, interval=iv))
    conns = _connections_from_descriptor(d, part, where)
    with _translated(where):
        return make_spline_space(part, secs, conns)


def space_to_descriptor(space: SplineSpace) -> dict:
    part = space.partition
    m = part.order
    clamped = (part.multiplicity_of(part.a) == m
               and part.multiplicity_of(part.b) == m
               and part.grid[0] == part.a and part.grid[-1] == part.b)
    if clamped:
        pd = {"order": m, "breakpoints": part.grid.tolist(),
              "multiplicities": part.interior_multiplicities()}
    else:
        pd = {"order": m, "knots": part.knots.tolist()}
        if len(np.setdiff1d(part.grid, np.unique(part.knots))):
            pd["grid"] = part.grid.tolist()
    d: dict = {"type": "space", "partition": pd}
    d["sections"] = [
        section_to_descriptor(sec, implied_order=m,
                              implied_interval=(part.grid[j], part.grid[j + 1]))
        for j, sec in enumerate(space.sections)]
    if space.connections:
        d["connections"] = [
            {"at": float(part.grid[g]), "matrix": M.tolist()}
            for g, M in sorted(space.connections.items())]
    return d


# ---------------------------------------------------------------------------
# splines and surfaces
# ---------------------------------------------------------------------------

def _coefficients(v, where) -> np.ndarray:
    if not isinstance(v, list) or not v:
        _fail(where, "expected a non-empty list")
    if isinstance(v[0], list):
        return _matrix(v, where)
    return np.array(_number_list(v, where), dtype=float)[:, None]


def spline_from_descriptor(d, where: str = "spline") -> Spline:
    space = space_from_descriptor(
        _get(d, "space", where, required=True), f"{where}.space")
    has_c = "coefficients" in d
    has_free = "free_coefficients" in d
    if has_c == has_free:
        _fail(where, "give exactly one of coefficients or free_coefficients")
    with _translated(where):
        if has_free:
            free = _coefficients(d["free_coefficients"],
                                 f"{where}.free_coefficients")
            return Spline(space, tile_periodic_coefficients(space, free))
        return Spline(space, _coefficients(d["coefficients"],
                                           f"{where}.coefficients"))


def spline_to_descriptor(spline: Spline) -> dict:
    return {"type": "spline",
            "space": space_to_descriptor(spline.space),
            "coefficients": spline.coefficients.tolist()}


def multiorder_from_descriptor(d, where: str = "multiorder-space"
                               ) -> MultiOrderSpace:
    raw_secs = _get(d, "sections", where, required=True)
    if not isinstance(raw_secs, list):
        _fail(f"{where}.sections", "expected a list")
    secs = []
    for i, s in enumerate(raw_secs):
        w = f"{where}.sections[{i}]"
        if not isinstance(s, dict) or "interval" not in s or "order" not in s:
            _fail(w, "multi-order sections need explicit interval and order")
        secs.append(section_from_descriptor(s, w))
    cont = _get(d, "continuities", where, required=True)
    if not isinstance(cont, list):
        _fail(f"{where}.continuities", "expected a list")
    cont = [_integer(k, f"{where}.continuities[{i}]")
            for i, k in enumerate(cont)]
    with _translated(where):
        return build_multiorder_space(secs, cont)


def multiorder_to_descriptor(mo: MultiOrderSpace) -> dict:
    return {"type": "multiorder-space",
            "sections": [section_to_descriptor(s) for s in mo.sections],
            "continuities": list(mo.continuities)}


def surface_from_descriptor(d, where: str = "surface") -> TensorSurface:
    u = space_from_descriptor(_get(d, "u_space", where, required=True),
                              f"{where}.u_space")
    v = space_from_descriptor(_get(d, "v_space", where, required=True),
                              f"{where}.v_space")
    raw = _get(d, "net", where, required=True)
    if not isinstance(raw, list) or not raw or not isinstance(raw[0], list):
        _fail(f"{where}.net", "expected a nested list of control points")
    try:
        net = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        _fail(f"{where}.net", "ragged or non-numeric control net")
    if net.ndim not in (2, 3):
        _fail(f"{where}.net", f"expected 2 or 3 axes, got {net.ndim}")
    if not np.isfinite(net).all():
        _fail(f"{where}.net", "control points must be finite")
    with _translated(where):
        return TensorSurface(u, v, net)


def surface_to_descriptor(surface: TensorSurface) -> dict:
    return {"type": "surface",
            "u_space": space_to_descriptor(surface.u_space),
            "v_space": space_to_descriptor(surface.v_space),
            "net": surface.net.tolist()}


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

_BUILDERS = {
    "space": space_from_descriptor,
    "spline": spline_from_descriptor,
    "multiorder-space": multiorder_from_descriptor,
    "surface": surface_from_descriptor,
}


def object_from_descriptor(d):
    """Dispatch on the descriptor's "type" key."""
    kind = _get(d, "type", "descriptor", required=True)
    if kind not in _BUILDERS:
        _fail("descriptor", f"unknown type {kind!r}; "
              f"expected one of {sorted(_BUILDERS)}")
    return _BUILDERS[kind](d, kind)


def descriptor_for(obj) -> dict:
    if isinstance(obj, Spline):
        return spline_to_descriptor(obj)
    if isinstance(obj, SplineSpace):
        return space_to_descriptor(obj)
    if isinstance(obj, MultiOrderSpace):
        return multiorder_to_descriptor(obj)
    if isinstance(obj, TensorSurface):
        return surface_to_descriptor(obj)
    raise DescriptorError(f"no descriptor form for {type(obj).__name__}")


def load_descriptor(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as e:
        raise DescriptorError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DescriptorError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from e
    if not isinstance(d, dict):
        raise DescriptorError(f"{path}: top level must be an object")
    return d


def load_object(path):
    return object_from_descriptor(load_descriptor(path))


def save_descriptor(path, obj) -> None:
    d = obj if isinstance(obj, dict) else descriptor_for(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2)
        fh.write("\n")

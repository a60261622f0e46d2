"""Refinement chains against the per-link loops they replaced, byte for
byte: Bezier extraction, order elevation (r = 1, 2) and periodic_to_clamped
solve the new rows of all their links in one _solve_rows call, and every
link's table, every spline and every ElevationStep equals the one that one
insertion or removal at a time gives.  Also: the number of row solves per
call, a failing row that only a later link needs, the one-grid rule, the
DEBUG record of a chain and the grid snap of insertion and removal."""
import logging
import re

import numpy as np
import pytest

from chebspline import (ChebsplineError, KnotRemovalError, RefinementError,
                        SingularSystemError, Spline, SplineSpace,
                        build_extended_partition, elevate_order, load_object,
                        make_periodic_space, make_section, make_spline_space,
                        periodic_to_clamped, refine, tile_periodic_coefficients,
                        to_bezier_segments, transition)
from chebspline.basis import TensorSurface

from conftest import DESCRIPTORS

INSERT, REMOVE, REFINED = refine._insert, refine._remove, refine._refined


# ---------------------------------------------------------------------------
# the per-link loops: one insertion or one removal, each its own chain
# ---------------------------------------------------------------------------

def insert_loop(space, spline, points, strategy):
    step = None
    for point in points:
        step, spline = INSERT(space, spline, [point], strategy)
        space = step.space
    return step, spline


def remove_loop(space, spline, points):
    residuals = []
    for that in points:
        space, spline, [resid] = REMOVE(space, spline, [that])
        residuals.append(resid)
    return space, spline, residuals


def run(monkeypatch, call, per_link):
    """(result or error, link spaces in order) of call(), with the chains
    or, per_link, the loops; the links are the spaces _refined hands back."""
    links = []

    def recorded(space, chain):
        for link in REFINED(space, chain):
            links.append(link)
            yield link

    with monkeypatch.context() as mp:
        mp.setattr(refine, "_refined", recorded)
        if per_link:
            mp.setattr(refine, "_insert", insert_loop)
            mp.setattr(refine, "_remove", remove_loop)
        try:
            out = call()
        except ChebsplineError as exc:
            out = exc
    return out, links


# ---------------------------------------------------------------------------
# byte-for-byte views
# ---------------------------------------------------------------------------

def table_view(table):
    return ([(i, row.kind, row.start, row.stop, [p.tobytes() for p in row.pieces])
             for i, row in table.rows.items()],
            [(i, rep.size, rep.condition, rep.residual)
             for i, rep in table.reports.items()])


def section_view(sec):
    return (sec.family, sec.params, sec.interval, sec.order, sec.local_map,
            sec.anchor, sec.scale)


def space_view(space):
    part = space.partition
    return (part.order, part.knots.tobytes(), part.grid.tobytes(),
            [section_view(s) for s in space.sections],
            [(g, np.asarray(M).tobytes()) for g, M in space.connections.items()],
            table_view(space.table))


def view(obj):
    """Every array as bytes, every space with its table."""
    if isinstance(obj, Exception):
        return type(obj).__name__, str(obj)
    if isinstance(obj, SplineSpace):
        return space_view(obj)
    if isinstance(obj, Spline):
        return space_view(obj.space), obj.coefficients.tobytes()
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return [view(x) for x in obj]
    if isinstance(obj, refine.BezierSegments):
        return view((obj.space, obj.spline, obj.controls))
    if isinstance(obj, refine.ElevationStep):
        return view((obj.gammas, obj.deltas, obj.removal_residuals)), \
            [section_view(s) for s in obj.targets]
    return obj


def assert_same_as_per_link(monkeypatch, call):
    chained, links = run(monkeypatch, call, False)
    looped, loop_links = run(monkeypatch, call, True)
    assert view(chained) == view(looped)
    assert len(links) == len(loop_links)
    for link, ref in zip(links, loop_links):
        assert space_view(link) == space_view(ref)
    return chained, links


# ---------------------------------------------------------------------------
# cases: every committed spline, generated spaces with connection matrices
# and zero multiplicities, wrap-around splines
# ---------------------------------------------------------------------------

def mixed_spline(seed, m, q, connections=False):
    """Four families on [0, 1], interior multiplicities 0..m-1, with a
    connection matrix on every other break point of multiplicity below
    m - 1 when asked."""
    rng = np.random.default_rng(seed)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, q)), [1.0]])
    mults = rng.integers(0, m, q)
    part = build_extended_partition(grid, mults, m)
    families = [("polynomial", None), ("trigonometric", {"theta": 2.0}),
                ("hyperbolic", {"phi": 1.5}),
                ("variable-degree", {"n1": m, "n2": m + 1})]
    secs = [make_section(*families[k], (grid[j], grid[j + 1]), m)
            for j, k in enumerate(rng.integers(0, len(families), q + 1))]
    links = {}
    for g, mu in enumerate(mults.tolist(), 1):
        if connections and mu < m - 1 and g % 2:
            cnt = m - mu
            M = np.tril(rng.uniform(-0.5, 0.5, (cnt, cnt)), -1)
            M[0, :] = M[:, 0] = 0.0
            links[g] = M + np.diag([1.0, *rng.uniform(0.6, 1.4, cnt - 1)])
    space = make_spline_space(part, secs, links)
    return Spline(space, rng.normal(size=(space.dim, 2)))


def periodic_spline(seed, q, connection=False):
    rng = np.random.default_rng(seed)
    m = 4
    inner = np.sort(rng.uniform(0.05, 0.95, q - 1))
    bp = np.concatenate([[0.0], inner, [1.0]])
    base = [make_section("trigonometric", {"theta": 1.5}, (bp[j], bp[j + 1]), m)
            if j % 2 else make_section("polynomial", None, (bp[j], bp[j + 1]), m)
            for j in range(q)]
    knots = np.concatenate([inner[-(m - 1):] - 1.0, bp[:-1], [1.0],
                            1.0 + inner[:m - 1]])
    space = make_periodic_space(m, knots, base, 1.0)
    if connection:
        g = int(space.partition.grid.searchsorted(0.0))
        space = SplineSpace(space.partition, space.sections,
                            {g: np.array([[1.0, 0, 0], [0, 1.3, 0], [0, 0.2, 0.8]])})
    free = rng.normal(size=(space.dim - (m - 1), 2))
    return Spline(space, tile_periodic_coefficients(space, free))


COMMITTED = [pytest.param(path, id=path.stem)
             for path in sorted(DESCRIPTORS.glob("*.json"))
             if isinstance(load_object(path), Spline)]
GENERATED = {
    "mixed m=4 zero mults": lambda: mixed_spline(1, 4, 7),
    "mixed m=3 connections": lambda: mixed_spline(2, 3, 6, True),
    "mixed m=5 connections": lambda: mixed_spline(3, 5, 6, True),
    "mixed m=4 connections": lambda: mixed_spline(4, 4, 9, True),
    "periodic q=6": lambda: periodic_spline(5, 6),
    "periodic q=9 connection": lambda: periodic_spline(6, 9, True),
}
CASES = [*COMMITTED, *(pytest.param(make, id=name) for name, make in GENERATED.items())]


def spline_of(case):
    spline = load_object(case) if not callable(case) else case()
    spline.space.table
    return spline


def clamped_of(spline):
    part = spline.space.partition
    return all(part.multiplicity_of(x) == part.order for x in (part.a, part.b))


@pytest.mark.parametrize("case", CASES)
def test_bezier_chain_is_the_per_link_loop(case, monkeypatch):
    spline = spline_of(case)
    out, links = assert_same_as_per_link(
        monkeypatch, lambda: to_bezier_segments(spline.space, spline))
    if not isinstance(out, Exception):
        m, part = spline.space.order, spline.space.partition
        assert len(links) == sum(max(0, m - 1 - part.multiplicity_of(float(x)))
                                 for x in part.grid[1:-1])


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_elevation_chain_is_the_per_link_loop(case, r, monkeypatch):
    spline = spline_of(case)
    assert_same_as_per_link(monkeypatch,
                            lambda: elevate_order(spline.space, spline, r))


@pytest.mark.parametrize("case", CASES)
def test_clamping_chain_is_the_per_link_loop(case, monkeypatch):
    spline = spline_of(case)
    out, links = assert_same_as_per_link(
        monkeypatch, lambda: periodic_to_clamped(spline.space, spline))
    if not clamped_of(spline):
        assert len(links) >= 2 and clamped_of(out[1])


def test_the_cases_cover_elevations_that_pass_and_fail(monkeypatch):
    outcomes = set()
    for case in CASES:
        spline = spline_of(case.values[0])
        if clamped_of(spline):
            out, _ = run(monkeypatch, lambda: elevate_order(spline.space, spline, 1),
                         False)
            outcomes.add(type(out).__name__)
    assert {"tuple", "KnotRemovalError"} <= outcomes


# ---------------------------------------------------------------------------
# one row solve per chain
# ---------------------------------------------------------------------------

def count_solves(monkeypatch):
    calls = []
    solve = transition._solve_rows

    def counted(specs):
        out = solve(specs)
        calls.append((len(specs), *out[1:]))
        return out

    monkeypatch.setattr(transition, "_solve_rows", counted)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_each_chain_solves_its_rows_in_one_call(case, monkeypatch):
    spline = spline_of(case)
    clamped = periodic_to_clamped(spline.space, spline)[1]
    clamped.space.table
    calls = count_solves(monkeypatch)
    periodic_to_clamped(spline.space, spline)
    assert len(calls) <= 2
    # extraction; extraction, the glued table and the removals
    for call, most in ((lambda: to_bezier_segments(clamped.space, clamped), 1),
                       (lambda: elevate_order(clamped.space, clamped, 1), 3),
                       (lambda: elevate_order(clamped.space, clamped, 2), 3)):
        calls.clear()
        try:
            call()
        except ChebsplineError:
            pass
        assert 0 < len(calls) <= most


def test_a_chain_logs_one_debug_record(caplog, monkeypatch):
    spline = mixed_spline(7, 4, 8, True)
    spline.space.table
    links = []
    calls = count_solves(monkeypatch)

    def recorded(space, chain):
        links.extend(chain)
        return REFINED(space, chain)

    monkeypatch.setattr(refine, "_refined", recorded)
    with caplog.at_level(logging.DEBUG, logger="chebspline"):
        to_bezier_segments(spline.space, spline)
    [record] = [r for r in caplog.records if r.name == "chebspline"]
    numbers = [float(v) for v in re.findall(r"\d[\d.e+-]*", record.getMessage())]
    [(todo, stacks, ends)] = calls
    rows = sum(link.dim - 1 for link in links)
    # each row the chain solves is some link's, with its own report object
    old = set(map(id, spline.space.table.reports.values()))
    solved = {id(rep) for link in links for rep in link.table.reports.values()} - old
    tables, n_solved, copied, n_stacks, n_ends, _ = numbers
    assert tables == len(links) > 2
    assert n_solved == len(solved) > 0 and copied == rows - todo > 0
    assert (n_stacks, n_ends) == (stacks, ends)


# ---------------------------------------------------------------------------
# a row that only link k needs fails link k, and no link before it
# ---------------------------------------------------------------------------

def system(spec):
    """A row's Hermite system by value: its support, points and condition
    counts (a spec key without the ids of its sections and matrices, which
    a second derivation of the same links makes anew)."""
    return spec.key[:6]


def first_new_system(space, links, k):
    """The system of a ramp row that link k holds and neither space nor any
    earlier link does."""
    seen = {system(spec) for spec in space.table.specs.values()}
    for link in links[:k]:
        seen |= {system(spec) for spec in link._row_specs()[1].values()}
    return next(system(spec) for spec in links[k]._row_specs()[1].values()
                if spec.pieces and system(spec) not in seen)


def inject_failure(monkeypatch, key):
    """_solve_rows gives the row of this system a singular-system error."""
    solve = transition._solve_rows

    def failing(specs):
        outcomes, stacks, ends = solve(specs)
        return [SingularSystemError(f"transition system for f_{spec.index} "
                                    "is singular (injected)", index=spec.index)
                if system(spec) == key else out
                for spec, out in zip(specs, outcomes)], stacks, ends

    monkeypatch.setattr(transition, "_solve_rows", failing)


def bezier_links(spline):
    """The spaces of the Bezier chain of spline, structure only."""
    space, part, m = spline.space, spline.space.partition, spline.space.order
    links = []
    for x in part.grid[1:-1]:
        for _ in range(m - 1 - part.multiplicity_of(float(x))):
            space = refine.refine_space_structure(space, float(x))[0]
            links.append(space)
    return links


@pytest.mark.parametrize("k", [1, 3, 5])
def test_a_row_only_link_k_needs_fails_link_k(k, monkeypatch):
    spline = mixed_spline(8, 4, 6, True)
    spline.space.table
    links = bezier_links(spline)
    assert len(links) > k
    inject_failure(monkeypatch, first_new_system(spline.space, links, k))
    chained, reached = run(monkeypatch,
                           lambda: to_bezier_segments(spline.space, spline), False)
    looped, loop_reached = run(monkeypatch,
                               lambda: to_bezier_segments(spline.space, spline), True)
    assert isinstance(chained, SingularSystemError)
    assert "(injected)" in str(chained)
    assert view(chained) == view(looped)
    assert chained.index == looped.index
    assert len(reached) == len(loop_reached) == k
    # a chain that stops before link k raises nothing
    fresh = bezier_links(spline)
    chain = refine._refined(spline.space, fresh)
    for _ in range(k):
        next(chain)
    with pytest.raises(SingularSystemError, match="injected"):
        next(chain)


def test_a_removal_chain_stops_at_its_first_failing_link(monkeypatch):
    # the spline needs the knot at 1.0, so the first removal fails; the row
    # that only the second removal's table holds is never raised
    part = build_extended_partition([0.0, 1.0, 2.0, 3.0], [2, 2], 4)
    secs = [make_section("trigonometric", {"theta": 1.0}, (j, j + 1.0), 4)
            for j in range(3)]
    space = make_spline_space(part, secs)
    spline = Spline(space, np.random.default_rng(9).normal(size=(space.dim, 2)))
    space.table

    def links():
        first = refine._removal_structure(space, 1.0)[0]
        return [first, refine._removal_structure(first, 2.0)[0]]

    inject_failure(monkeypatch, first_new_system(space, links(), 1))
    with pytest.raises(KnotRemovalError, match="removing 1.0"):
        refine._remove(space, spline, [1.0, 2.0])
    chain = refine._refined(space, links())
    next(chain)
    with pytest.raises(SingularSystemError, match="injected"):
        next(chain)


def test_a_chain_keeps_one_grid():
    spline = mixed_spline(9, 4, 5)
    first = refine.refine_space_structure(spline.space, 0.5123)[0]
    second = refine.refine_space_structure(first, 0.7071)[0]
    with pytest.raises(RefinementError, match="one grid"):
        next(refine._refined(spline.space, [first, second]))
    # so must its sections be: the jets of a grid interval are its section's
    again = refine.refine_space_structure(first, 0.5123)[0]
    twin = SplineSpace(again.partition,
                       [sec.with_interval(*sec.interval) for sec in again.sections])
    with pytest.raises(RefinementError, match="one grid"):
        next(refine._refined(spline.space, [first, twin]))
    # each link alone is a chain of one grid, and a second insertion at a
    # break point keeps it
    [link] = refine._refined(spline.space, [first])
    assert link.table.dim == spline.space.dim + 1
    assert [s.dim for s in refine._refined(spline.space, [first, again])] == \
        [spline.space.dim + 1, spline.space.dim + 2]


# ---------------------------------------------------------------------------
# the grid snap: a searchsorted window, then the isclose test on it
# ---------------------------------------------------------------------------

def snap_whole_grid(grid, that):
    hits = np.nonzero(np.isclose(grid, that, rtol=0,
                                 atol=1e-12 * max(1.0, abs(that))))[0]
    if len(hits):
        j = int(hits[0])
        return j, float(grid[j])
    return None, that


def committed_grids():
    for path in sorted(DESCRIPTORS.glob("*.json")):
        obj = load_object(path)
        if isinstance(obj, TensorSurface):
            spaces = [obj.u_space, obj.v_space]
        else:
            spaces = [getattr(obj, "space", obj)]
        for space in spaces:
            yield path.stem, (space.partition.grid if isinstance(space, SplineSpace)
                              else space.grid)
    # grid points closer than the snap distance: the first one is taken
    yield "crowded", np.array([0.0, 1e-13, 1.5e-12, 2e-12, 1.0, 1.0 + 1e-13])


@pytest.mark.parametrize("name, grid", list(committed_grids()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_grid_snap_is_the_whole_grid_rule(name, grid):
    rng = np.random.default_rng(10)
    points = [float(v) for v in rng.uniform(grid[0] - 1, grid[-1] + 1, 200)]
    for x in grid.tolist():
        atol = 1e-12 * max(1.0, abs(x))
        points += [x, x + 0.5 * atol, x - 0.5 * atol, x + 2 * atol, x - 2 * atol,
                   float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]
    points.append(np.nan)
    for x in points:
        got, ref = refine._snap_to_grid(grid, x), snap_whole_grid(grid, x)
        assert got[0] == ref[0]
        assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()

import dataclasses
import logging
import math
import re
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chebspline import (Spline, build_extended_partition,
                        build_multiorder_space, build_transition_table,
                        insert_knot, make_section,
                        make_spline_space, one_section_space, remove_knot,
                        sample_transitions, sections, transition,
                        validate_connection_matrix)
from chebspline.errors import ConnectionMatrixError, SingularSystemError


def bernstein_table():
    return one_section_space(make_section("polynomial", None, (0.0, 1.0), 3)).table


def mixed_space(theta=2.0, phi=4.0):
    part = build_extended_partition([0.0, 0.25, 0.5, 1.0], [1, 1], 3)
    secs = [make_section("polynomial", None, (0.0, 0.25), 3),
            make_section("trigonometric", {"theta": theta}, (0.25, 0.5), 3, "shift"),
            make_section("hyperbolic", {"phi": phi}, (0.5, 1.0), 3, "shift")]
    return make_spline_space(part, secs)


def test_bernstein_row_coefficients():
    # g_1 solves g(0)=0, g(1)=1, Dg(1)=0, i.e. 2t - t^2
    row = bernstein_table().rows[2]
    assert_allclose(row.pieces[0], [0.0, 2.0, -1.0], atol=1e-13)


def test_mixed_row_leading_piece():
    table = mixed_space().table
    h0 = h1 = 0.25
    theta = 2.0
    b33 = 1.0 / (h0 ** 2 + 2 * (h0 / theta) * math.tan(theta * h1 / 2))
    assert_allclose(table.rows[3].pieces[0], [0.0, 0.0, b33], atol=1e-12)


def test_first_transition_is_one():
    table = mixed_space().table
    for x in np.linspace(0.0, 1.0, 17):
        assert table.eval(1, x) == 1.0


def test_past_end_transition_is_zero():
    space = mixed_space()
    table = space.table
    for x in np.linspace(0.0, 1.0, 17):
        assert table.eval(space.dim + 1, x) == 0.0


def test_continuity_value_matches_printed_coefficients():
    table = mixed_space().table
    h0 = h1 = 0.25
    theta = 2.0
    b34 = 1.0 + 1.0 / (math.cos(theta * h1) - (theta / 2) * h0
                       * math.sin(theta * h1) - 1.0)
    b35 = (1.0 - b34) * math.cos(theta * h1)
    assert_allclose(table.eval(3, 0.25), b34 + b35, rtol=1e-12)
    # same value from the left piece: the solved row is continuous there
    assert_allclose(table.eval(3, 0.25, 0, "left"), b34 + b35, rtol=1e-12)


def test_endpoint_vanishing_orders():
    space = mixed_space()
    table = space.table
    # simple interior knots, m = 3: f_i vanishes m - mu = 2 times at t_i
    for i in (4, 5):
        t_i = space.partition.knot(i)
        for r in range(2):
            assert abs(table.eval(i, t_i, r, "right")) < 1e-12


def test_first_nonvanishing_derivative_positive():
    space = mixed_space()
    table = space.table
    for i in (4, 5):
        t_i = space.partition.knot(i)
        assert table.eval(i, t_i, 2, "right") > 1e-3


def test_bernstein_row_derivative():
    assert_allclose(bernstein_table().eval(2, 0.0, 1, "right"), 2.0)


def test_residuals_small():
    for space in (mixed_space(), mixed_space(theta=10.0, phi=15.0)):
        assert space.table.max_residual < 1e-9


def test_transitions_monotone_range():
    space = mixed_space()
    xs = np.linspace(0.0, 1.0, 1000)
    vals = sample_transitions(space, xs)
    assert vals.min() > -1e-10 and vals.max() < 1 + 1e-10


def test_ramp_shape():
    space = mixed_space()
    table = space.table
    part = space.partition
    m = part.order
    for i in range(2, space.dim + 1):
        lo, hi = part.knot(i), part.knot(i + m - 1)
        assert abs(table.eval(i, part.a)) < 1e-12 or lo == part.a
        assert_allclose(table.eval(i, part.b), 1.0, atol=1e-12)
        if hi < part.b:
            assert_allclose(table.eval(i, hi), 1.0, atol=1e-10)


def test_connection_matrix_validation():
    ok = validate_connection_matrix([[1.0, 0.0], [0.0, 2.0]], 2)
    assert ok.shape == (2, 2)
    with pytest.raises(ConnectionMatrixError):
        validate_connection_matrix([[1.0, 0.0], [0.0, -1.0]], 2)   # d_22 <= 0
    with pytest.raises(ConnectionMatrixError):
        validate_connection_matrix([[1.0, 0.0], [0.5, 2.0]], 2)    # col 0 not e_1
    with pytest.raises(ConnectionMatrixError):
        validate_connection_matrix([[1.0, 0.5], [0.0, 1.0]], 2)    # not lower
    with pytest.raises(ConnectionMatrixError):
        validate_connection_matrix(np.eye(3), 2)                   # wrong size


# -- one jet per section end, one stack per _STACK_ROWS rows of one size -----

def trig_space(n_intervals, order=4, theta=1.0):
    part = build_extended_partition(np.linspace(0.0, 2.0, n_intervals + 1),
                                    [1] * (n_intervals - 1), order)
    secs = [make_section("trigonometric", {"theta": theta},
                         (part.grid[j], part.grid[j + 1]), order, "normalized")
            for j in range(part.num_sections)]
    return make_spline_space(part, secs)


def count_jets(monkeypatch):
    """Record (section, x) of every section end that transition._solve_rows
    evaluates, through its one batched end_jets call per table, the
    end_jets calls and the generator passes (one per group of sections
    evaluated together); also record the specs it solves."""
    calls, batches, passes, solved = [], [], [], []
    end_jets, jet_rows, solve = (transition.end_jets, sections._jet_rows,
                                 transition._solve_rows)

    def counted_end_jets(secs, ends):
        batches.append(len(secs))
        calls.extend((sec, float(x)) for sec, pair in zip(secs, ends)
                     for x in pair)
        return end_jets(secs, ends)

    def counted_jet_rows(blocks, scale, lo, R, t):
        if np.ndim(t) == 2:                  # both ends of several sections
            passes.append(t.shape[0])
        return jet_rows(blocks, scale, lo, R, t)

    def counted_solve(specs):
        solved.extend(specs)
        return solve(specs)

    monkeypatch.setattr(transition, "end_jets", counted_end_jets)
    monkeypatch.setattr(sections, "_jet_rows", counted_jet_rows)
    monkeypatch.setattr(transition, "_solve_rows", counted_solve)
    return calls, batches, passes, solved


def test_fresh_table_evaluates_each_section_end_once(monkeypatch):
    space = trig_space(12)
    calls, batches, passes, _ = count_jets(monkeypatch)
    table = build_transition_table(space)
    per_section = Counter(id(sec) for sec, _ in calls)
    assert len(calls) == len({(id(sec), x) for sec, x in calls})
    assert max(per_section.values()) <= 2
    assert len(calls) <= 2 * len(table.sections)
    for sec, x in calls:
        assert x in sec.interval
    # one batched call per table, one pass for sections of one family
    assert batches == [len(table.sections)] and passes == batches


def test_removal_evaluates_jets_only_where_rows_are_resolved(monkeypatch):
    space = trig_space(11)
    spline = Spline(space, np.random.default_rng(3).normal(size=(space.dim, 2)))
    step, fine = insert_knot(space, spline, 1.1)
    calls, batches, _, solved = count_jets(monkeypatch)
    coarse, _, _ = remove_knot(step.space, fine, 1.1)
    secs = coarse.table.sections
    touched = {j for spec in solved
               for j in range(spec.first_piece, spec.first_piece + len(spec.pieces))}
    assert solved and calls
    assert len(touched) < len(secs)
    assert sum(batches) == len(touched)
    for sec, x in calls:
        j = next(j for j, s in enumerate(secs) if s is sec)
        assert j in touched and x in sec.interval


# every family at an order it takes, with its parameters for an interval
# of length at most 1 (under the shift map) and its local map
FAMILY_CASES = [
    ("polynomial", 3, lambda rng: None, None),
    ("trigonometric", 4, lambda rng: {"theta": rng.uniform(0.5, 3.0)}, "shift"),
    ("trigonometric", 3, lambda rng: {"theta": rng.uniform(0.5, 3.0)},
     "normalized"),
    ("hyperbolic", 3, lambda rng: {"phi": rng.uniform(0.5, 4.0)}, None),
    ("mixed", 5, lambda rng: {"theta": rng.uniform(0.5, 3.0),
                              "phi": rng.uniform(0.5, 4.0)}, None),
    ("trig-envelope", 5, lambda rng: {"theta": rng.uniform(0.5, 6.0)}, None),
    ("rational-tension", 4, lambda rng: {"nu": rng.uniform(3.0, 10.0)}, None),
    ("multi-frequency-trig", 5, lambda rng: {"theta": rng.uniform(0.5, 3.0)},
     None),
    ("variable-degree", 4, lambda rng: {"n1": rng.uniform(3.0, 9.0),
                                        "n2": float(rng.integers(3, 9))}, None),
]


def family_space(rng, family, m, params, lmap, mults, connections=None):
    """Sections of one family (fresh parameters each) on jittered break
    points of [0, 1] with the given interior multiplicities."""
    bp = np.linspace(0.0, 1.0, len(mults) + 2)
    bp[1:-1] += rng.uniform(-0.3, 0.3, len(mults)) / (len(mults) + 1)
    part = build_extended_partition(bp, mults, m)
    secs = [make_section(family, params(rng), (bp[j], bp[j + 1]), m, lmap)
            for j in range(len(bp) - 1)]
    return make_spline_space(part, secs, connections)


def stacked_build_cases():
    rng = np.random.default_rng(21)
    for family, m, params, lmap in FAMILY_CASES:
        mults = [1, 2, 1, 1, m - 1, 1, 1, 1, 2, 1, 1]
        yield family, family_space(rng, family, m, params, lmap, mults)
    mixed = ("mixed", 5, FAMILY_CASES[4][2], None)
    yield "zero multiplicity", family_space(rng, *mixed, [1, 0, 2, 0, 0, 1, 3])
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, -0.4, 0.7]])
    yield "connections", family_space(rng, "trigonometric", 4, FAMILY_CASES[1][2],
                                      "shift", [1, 1, 1, 1, 1, 2, 1, 1, 1],
                                      {3: M, 6: M[:2, :2]})
    # more rows than one stack holds, of every row size
    yield "three stacks", family_space(rng, "hyperbolic", 4, FAMILY_CASES[3][2],
                                       None, [1, 2, 3, 0] * 40)
    secs = [make_section(fam, p, iv, m) for fam, p, iv, m in (
        ("polynomial", None, (0.0, 0.2), 2),
        ("trigonometric", {"theta": 2.0}, (0.2, 0.45), 4),
        ("mixed", {"theta": 1.5, "phi": 2.0}, (0.45, 0.7), 5),
        ("hyperbolic", {"phi": 3.0}, (0.7, 0.85), 3),
        ("variable-degree", {"n1": 4.5, "n2": 5.0}, (0.85, 1.0), 4))]
    yield "multi-order", build_multiorder_space(secs, [1, 2, 0, 2])


def assert_rows_solved_alone(space):
    """Every row and report of space's table equals, byte for byte, the row
    solved alone, and every residual the per-row A @ b one."""
    table = build_transition_table(space)
    assert len(table.specs) == space.dim - 1
    for i, spec in table.specs.items():
        [(row, rep)], _, _ = transition._solve_rows([spec])
        got = table.rows[i]
        assert (got.kind, got.start, got.stop, len(got.pieces)) == \
            (row.kind, row.start, row.stop, len(row.pieces)), i
        for p, q in zip(got.pieces, row.pieces):
            assert p.tobytes() == q.tobytes(), i
        assert table.reports.get(i) == rep, i
        if rep is not None:
            assert rep.residual == row_residual(spec, np.concatenate(row.pieces))


@pytest.mark.parametrize("label, space", list(stacked_build_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_stacked_rows_are_the_rows_solved_alone(label, space):
    assert_rows_solved_alone(space)


def random_connection(rng, cnt):
    """A cnt x cnt connection matrix: lower triangular, positive diagonal,
    first row and column (1, 0, .., 0)."""
    M = np.tril(rng.uniform(-0.6, 0.6, (cnt, cnt)), -1)
    M[0, :] = M[:, 0] = 0.0
    return M + np.diag([1.0, *rng.uniform(0.5, 1.5, cnt - 1)])


def random_section(rng, m, interval):
    family = "polynomial" if m == 2 else \
        rng.choice(["polynomial", "trigonometric", "hyperbolic"])
    params = {"polynomial": None,
              "trigonometric": {"theta": rng.uniform(0.5, 2.5)},
              "hyperbolic": {"phi": rng.uniform(0.5, 3.0)}}[family]
    return make_section(family, params, interval, m)


def random_shape_spaces():
    """Seeded spaces of random row shapes: orders 2 to 6, multiplicities 0
    to m - 1 with connection matrices, multi-order spaces, and one space
    with more rows of one size than a stack holds."""
    rng = np.random.default_rng(30)
    for m in [2, 3, 4, 5, 6] * 2:
        mults = rng.integers(0, m, rng.integers(3, 9)).tolist()
        label = f"order {m}, multiplicities {mults}"
        bp = np.sort(rng.uniform(0.0, 1.0, len(mults) + 2))
        bp[0], bp[-1] = 0.0, 1.0
        part = build_extended_partition(bp, mults, m)
        secs = [random_section(rng, m, (bp[j], bp[j + 1]))
                for j in range(len(bp) - 1)]
        links = {g: random_connection(rng, m - mu)
                 for g, mu in enumerate(mults, 1) if mu < m - 1 and rng.random() < 0.5}
        yield label, make_spline_space(part, secs, links)
    for q in (3, 6, 12):
        orders = rng.integers(2, 7, q + 1)
        bp = np.linspace(0.0, 1.0, q + 2)
        secs = [random_section(rng, int(m), (bp[j], bp[j + 1]))
                for j, m in enumerate(orders)]
        ks = [int(rng.integers(0, min(orders[j], orders[j + 1]))) for j in range(q)]
        yield f"multi-order {orders.tolist()}", build_multiorder_space(secs, ks)
    mults = rng.integers(1, 3, 150).tolist()
    bp = np.linspace(0.0, 1.0, len(mults) + 2)
    part = build_extended_partition(bp, mults, 4)
    secs = [random_section(rng, 4, (bp[j], bp[j + 1])) for j in range(len(bp) - 1)]
    yield "many stacks", make_spline_space(part, secs)


@pytest.mark.parametrize("label, space", list(random_shape_spaces()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_random_row_shapes_are_the_rows_solved_alone(label, space):
    assert_rows_solved_alone(space)
    specs = [s for s in space._row_specs()[1].values() if s.pieces]
    sizes = Counter(sum(sec.order for sec in s.pieces) for s in specs)
    _, stacks, _ = transition._solve_rows(specs)
    # one stack per _STACK_ROWS rows of one size, over the whole call
    assert stacks == sum(-(-c // transition._STACK_ROWS) for c in sizes.values())
    if label == "many stacks":
        n, rows = sizes.most_common(1)[0]
        shapes = {(s.left, s.interior, s.right) for s in specs
                  if sum(sec.order for sec in s.pieces) == n}
        assert rows > transition._STACK_ROWS and len(shapes) >= 3


def row_residual(spec, b):
    """|A b - c| / (|A| |b| + 1) in the inf-norm, one row and one jet per
    section end at a time, each connection matrix applied to its block."""
    def jet(k, end, cnt):
        sec = spec.pieces[k]
        return sec.jet(sec.order - 1, spec.points[k + end])[:cnt]

    orders = [s.order for s in spec.pieces]
    A, c = transition._hermite_system(
        (spec.left, spec.interior, spec.right, *orders), jet)
    offs = np.cumsum([0] + orders)
    r0 = spec.left
    for j, (cnt, M) in enumerate(zip(spec.interior, spec.connections)):
        if M is not None:
            A[r0:r0 + cnt, offs[j]:offs[j + 1]] = M @ jet(j, 1, cnt)
        r0 += cnt
    return float(np.linalg.norm(A @ b - c, np.inf)
                 / (np.linalg.norm(A, np.inf) * np.linalg.norm(b, np.inf) + 1.0))


def zero_generator(monkeypatch, sec):
    """end_jets gives generator 0 of sec as zero at both of its ends, so
    the system of every row across sec has a zero column."""
    end_jets = transition.end_jets

    def zeroed(secs, ends):
        jets = end_jets(secs, ends)
        for s, J in zip(secs, jets):
            if s is sec:
                J[:, :, 0] = 0.0
        return jets

    monkeypatch.setattr(transition, "end_jets", zeroed)


def across(specs, sec):
    """Positions of the specs whose rows cross section sec."""
    return [g for g, spec in enumerate(specs)
            if any(s is sec for s in spec.pieces)]


def non_square(spec):
    return dataclasses.replace(spec, left=spec.left + 1)


def solve_raising(specs):
    """transition._solve_rows, raising the first failing row's error in
    spec order, as _assemble_table raises a table's."""
    outcomes, stacks, ends = transition._solve_rows(specs)
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes, stacks, ends


def test_singular_row_in_a_stack_raises_as_alone(monkeypatch):
    # the rows across one section are singular; a non-square row after
    # them does not raise first
    space = trig_space(10)
    specs = list(space._row_specs()[1].values())
    sec = space.sections[5]
    hit = across(specs, sec)
    bad = specs[hit[0]]
    sizes = Counter(sum(s.order for s in spec.pieces) for spec in specs)
    assert sizes[sum(s.order for s in bad.pieces)] > 1
    specs[hit[-1] + 1] = non_square(specs[hit[-1] + 1])
    zero_generator(monkeypatch, sec)
    with pytest.raises(SingularSystemError) as stacked:
        solve_raising(specs)
    with pytest.raises(SingularSystemError) as alone:
        solve_raising([bad])
    for e in (stacked.value, alone.value):
        assert e.index == bad.index and "is singular" in str(e)
    assert str(stacked.value) == str(alone.value)
    assert (stacked.value.condition, stacked.value.residual) == \
        (alone.value.condition, alone.value.residual)


def test_assembly_error_is_raised_after_the_earlier_rows(monkeypatch):
    # a row whose system cannot be assembled raises where it stands in spec
    # order: ahead of the singular rows after it (a singular row before it
    # raises first, as above)
    space = trig_space(10)
    specs = list(space._row_specs()[1].values())
    sec = space.sections[8]
    bad = 2
    assert across(specs, sec)[0] > bad
    specs[bad] = non_square(specs[bad])
    zero_generator(monkeypatch, sec)
    with pytest.raises(SingularSystemError, match="not square") as err:
        solve_raising(specs)
    assert err.value.index == specs[bad].index


@pytest.mark.parametrize("change", [{"left": 1}, {"right": -1}],
                         ids=["one more", "one fewer"])
def test_non_square_row_in_a_stack_of_square_ones_raises_as_alone(change):
    # the non-square row has the size of the rows around it
    space = trig_space(12)
    specs = list(space._row_specs()[1].values())
    g = len(specs) // 2
    size = sum(s.order for s in specs[g].pieces)
    assert sum(sum(s.order for s in spec.pieces) == size for spec in specs) > 2
    specs[g] = dataclasses.replace(
        specs[g], **{k: getattr(specs[g], k) + d for k, d in change.items()})
    with pytest.raises(SingularSystemError, match="not square") as stacked:
        solve_raising(specs)
    with pytest.raises(SingularSystemError, match="not square") as alone:
        solve_raising([specs[g]])
    assert stacked.value.index == specs[g].index
    assert str(stacked.value) == str(alone.value)


def test_non_square_system_raises():
    space = trig_space(6)
    _, specs = space._row_specs()
    spec = specs[4]
    bad = non_square(spec)
    with pytest.raises(SingularSystemError, match="not square") as err:
        solve_raising([bad])
    assert err.value.index == 4


def test_residual_gate_rejects_a_perturbed_solve(monkeypatch):
    # no known space reaches the gate: a space ill conditioned enough fails
    # as singular first, so the solve itself is perturbed here
    space = trig_space(6)
    solve = np.linalg.solve

    def perturbed(a, b):
        return solve(a, b) * (1.0 + 1e-4)

    monkeypatch.setattr(transition.np.linalg, "solve", perturbed)
    with pytest.raises(SingularSystemError, match="relative residual") as err:
        build_transition_table(space)
    first = min(i for i, spec in space._row_specs()[1].items() if spec.pieces)
    assert err.value.index == first
    assert err.value.residual > transition.RESIDUAL_TOL


def test_residual_gate_rejects_a_non_finite_residual():
    # with n1 = 2.5 below order 4 - 1 the third derivative of (1-t)^n1 is
    # infinite at the section end, so the systems across the break point of
    # multiplicity zero hold -inf: their residuals are NaN, which no
    # comparison with the tolerance may pass
    secs = [make_section("variable-degree", {"n1": 2.5, "n2": 3.0}, iv, 4)
            for iv in ((0.0, 0.5), (0.5, 1.0))]
    space = make_spline_space(build_extended_partition([0.0, 0.5, 1.0], [0], 4),
                              secs)
    with pytest.raises(SingularSystemError, match="relative residual nan"
                       ) as err:
        space.table
    assert math.isnan(err.value.residual)


def test_connection_matrix_entries_must_be_finite():
    M = np.diag([1.0, np.nan, 1.0])
    with pytest.raises(ConnectionMatrixError, match="finite"):
        validate_connection_matrix(M, 3)
    space = family_space(np.random.default_rng(5), "polynomial", 4,
                         lambda rng: None, None, [1], {1: M})
    with pytest.raises(ConnectionMatrixError, match="finite"):
        space.table


def test_table_assembly_logs_one_debug_record(caplog):
    space = trig_space(8)
    spline = Spline(space, np.ones((space.dim, 1)))
    with caplog.at_level(logging.INFO, logger="chebspline"):
        table = space.table
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="chebspline"):
        build_transition_table(space)
        insert_knot(space, spline, 0.3)
    fresh, refined = [
        [float(v) for v in re.findall(r"\d[\d.e+-]*", r.getMessage())]
        for r in caplog.records if r.name == "chebspline"]
    ramps = sum(row.kind == "ramp" for row in table.rows.values())
    sizes = {rep.size for rep in table.reports.values()}
    # tables, rows solved, rows copied, stacked solves (one per row size
    # here: no size has more than _STACK_ROWS rows), section ends
    # evaluated, max condition
    assert fresh == [1, ramps, 0, len(sizes), 2 * len(table.sections),
                     float(f"{table.max_condition:.3e}")]
    assert refined[0] == 1 and 0 < refined[1] < ramps and refined[2] > 0
    assert refined[4] < 2 * len(table.sections)

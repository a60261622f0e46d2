import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from chebspline import (Spline, bernstein_basis, build_extended_partition,
                        eval_bspline, eval_nonzero_basis, eval_spline,
                        eval_spline_derivative, eval_surface, integrate_spline,
                        load_object, make_section, make_spline_space,
                        one_section_space, sample_basis, sample_spline,
                        sample_surface, sample_transitions)
from chebspline.basis import TensorSurface
from chebspline.errors import PartitionError
from conftest import DESCRIPTORS


def polynomial_space(breakpoints, multiplicities, order):
    part = build_extended_partition(breakpoints, multiplicities, order)
    secs = [make_section("polynomial", None,
                         (part.grid[j], part.grid[j + 1]), order)
            for j in range(part.num_sections)]
    return make_spline_space(part, secs)


def mixed_m6_space():
    # {1, t, cos t, sin t, cosh t, sinh t} sections, two repeated interior knots
    part = build_extended_partition([0.0, 0.25, 0.5, 1.0], [2, 1], 6)
    secs = [make_section("mixed", {"theta": 1.0, "phi": 1.0},
                         (part.grid[j], part.grid[j + 1]), 6, "shift")
            for j in range(part.num_sections)]
    return make_spline_space(part, secs)


def test_first_bspline_at_left_end():
    space = polynomial_space([0.0, 0.5, 1.0], [1], 3)
    assert_allclose(eval_bspline(space, 1, 0.0), 1.0)


def test_cubic_uniform_center_value():
    space = polynomial_space([0.0, 1.0, 2.0, 3.0, 4.0], [1, 1, 1], 4)
    i = next(i for i in range(1, space.dim + 1)
             if space.partition.knot(i) == 0.0
             and space.partition.knot(i + 4) == 4.0)
    assert_allclose(eval_bspline(space, i, 2.0), 2.0 / 3.0, rtol=1e-12)


def test_mixed_m6_partition_of_unity():
    space = mixed_m6_space()
    xs = np.linspace(0.0, 1.0, 200)
    sums = sample_basis(space, xs).sum(axis=1)
    assert_allclose(sums, 1.0, atol=1e-12)


def test_matches_cox_de_boor_on_random_knots():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = int(rng.integers(2, 7))
        knots, bps, mults = oracles.random_clamped_knots(rng, m, 2)
        space = polynomial_space([0.0, *bps, 1.0], list(mults), m)
        xs = rng.uniform(0.0, 1.0, 25)
        mine = sample_basis(space, xs)
        ref = np.array([oracles.basis_row(knots, m, x) for x in xs])
        assert_allclose(mine, ref, atol=1e-11)


def test_nonzero_basis_at_ends():
    space = mixed_m6_space()
    first, vals = eval_nonzero_basis(space, 0.0)
    assert first == 1
    assert_allclose(vals, [1, 0, 0, 0, 0, 0], atol=1e-10)
    first, vals = eval_nonzero_basis(space, 1.0)
    assert first + len(vals) - 1 == space.dim
    assert_allclose(vals, [0, 0, 0, 0, 0, 1], atol=1e-10)


def test_nonzero_basis_sums_to_one():
    space = mixed_m6_space()
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, 20):
        _, vals = eval_nonzero_basis(space, x)
        assert_allclose(vals.sum(), 1.0, atol=1e-10)
        assert len(vals) == space.order


def test_constant_control_points_give_constant_curve():
    space = mixed_m6_space()
    P = np.array([2.5, -1.0])
    spline = Spline(space, np.tile(P, (space.dim, 1)))
    for x in np.linspace(0.0, 1.0, 50):
        assert_allclose(eval_spline(spline, x), P, atol=1e-12)


def test_clamped_curve_interpolates_end_control_points():
    space = polynomial_space([0.0, 0.3, 1.0], [1], 4)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(space.dim, 2))
    spline = Spline(space, coeffs)
    assert_allclose(eval_spline(spline, 0.0), coeffs[0], atol=1e-12)
    assert_allclose(eval_spline(spline, 1.0), coeffs[-1], atol=1e-12)


def test_integrate_constant_one():
    space = mixed_m6_space()
    spline = Spline(space, np.ones((space.dim, 1)))
    assert_allclose(integrate_spline(spline, 0.0, 1.0), [1.0], rtol=1e-12)
    assert_allclose(integrate_spline(spline, 0.2, 0.7), [0.5], rtol=1e-10)


@pytest.mark.parametrize("x0, x1", [(-1.0, 1.0), (0.0, 2.0), (-2.0, -1.0)])
def test_integral_outside_the_domain_raises_as_evaluation_does(x0, x1):
    spline = Spline(polynomial_space([0.0, 1.0], [], 3), np.ones((3, 1)))
    with pytest.raises(PartitionError) as evaluated:
        eval_spline(spline, x0 if x0 < 0.0 else x1)
    with pytest.raises(PartitionError) as integrated:
        integrate_spline(spline, x0, x1)
    assert str(integrated.value) == str(evaluated.value)


def test_reversed_integration_bounds_raise():
    spline = Spline(polynomial_space([0.0, 1.0], [], 3), np.ones((3, 1)))
    with pytest.raises(PartitionError, match="x0 <= x1"):
        integrate_spline(spline, 0.6, 0.2)


@pytest.mark.parametrize("sample", [
    sample_basis, sample_transitions,
    lambda space, xs: sample_spline(Spline(space, np.ones((space.dim, 1))), xs)])
@pytest.mark.parametrize("xs", [np.full((3, 2), 0.5), np.float64(0.5)])
def test_samplers_reject_points_that_are_not_1d(sample, xs):
    space = polynomial_space([0.0, 0.5, 1.0], [1], 3)
    with pytest.raises(PartitionError,
                       match=re.escape(f"1-D array, not shape {xs.shape}")):
        sample(space, xs)


def one_point_calls():
    """Every one-point entry point, as a function of the point x."""
    space = polynomial_space([0.0, 0.5, 1.0], [1], 3)
    element = polynomial_space([0.0, 1.0], [], 3)
    spline = Spline(space, np.ones((space.dim, 2)))
    surf = TensorSurface(space, element, np.ones((space.dim, element.dim, 1)))
    return {
        "eval_nonzero_basis": lambda x: eval_nonzero_basis(space, x, 1),
        "eval_bspline": lambda x: eval_bspline(space, 2, x),
        "eval_spline": lambda x: eval_spline(spline, x),
        "eval_spline_derivative": lambda x: eval_spline_derivative(spline, 2, x),
        "eval_surface-u": lambda x: eval_surface(surf, x, 0.5),
        "eval_surface-v": lambda x: eval_surface(surf, 0.5, x),
        "bernstein_basis": lambda x: bernstein_basis(element, 1, x),
        "TransitionTable.eval": lambda x: space.table.eval(3, x, 1),
    }


@pytest.mark.parametrize("name", list(one_point_calls()))
@pytest.mark.parametrize("x", [np.array([0.3]), np.array([0.3, 0.6])],
                         ids=["one-element", "two-element"])
def test_one_point_evaluators_reject_arrays(name, x):
    call = one_point_calls()[name]
    with pytest.raises(PartitionError,
                       match=re.escape(f"needs a number, not shape {x.shape}")):
        call(x)


@pytest.mark.parametrize("name", list(one_point_calls()))
def test_one_point_evaluators_take_any_number(name):
    # a float, a numpy scalar, a 0-d array or an int: the same bits
    call = one_point_calls()[name]

    def bits(x):
        out = call(x)
        return [np.asarray(v).tobytes() for v in
                (out if isinstance(out, tuple) else (out,))]

    assert bits(np.float64(0.3)) == bits(np.array(0.3)) == bits(0.3)
    assert bits(1) == bits(1.0)


def test_sample_surface_is_eval_surface_on_the_grid():
    surf = load_object(DESCRIPTORS / "rounded_square_surface.json")
    us = np.linspace(surf.u_space.a, surf.u_space.b, 37)
    vs = np.linspace(surf.v_space.a, surf.v_space.b, 11)
    got = sample_surface(surf, us, vs)
    want = np.array([[eval_surface(surf, u, v) for v in vs] for u in us])
    assert got.shape == want.shape == (37, 11, surf.net.shape[2])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(surf.net).max()


def test_integral_reads_only_the_rows_alive_on_the_bounds(monkeypatch):
    # one block per grid interval: two integral_all calls for each interval
    # of [x0, x1], however many rows the space has
    from chebspline.sections import ECSection
    calls = []
    integral_all = ECSection.integral_all
    monkeypatch.setattr(ECSection, "integral_all",
                        lambda self, x: calls.append(x) or integral_all(self, x))
    x0, x1 = 0.2999, 0.3005            # inside one grid interval at both K
    nodes, weights = np.polynomial.legendre.leggauss(4)
    xs = 0.5 * (x1 - x0) * nodes + 0.5 * (x0 + x1)
    counts = []
    for K in (10, 1000):
        space = polynomial_space(np.linspace(0.0, 1.0, K + 2), [1] * K, 4)
        spline = Spline(space, np.random.default_rng(K).normal(size=(space.dim, 2)))
        grid = space.table.grid
        intervals = grid.searchsorted(x1) - grid.searchsorted(x0, "right") + 1
        calls.clear()
        got = integrate_spline(spline, x0, x1)
        counts.append(len(calls))
        assert len(calls) <= 2 * intervals
        ref = 0.5 * (x1 - x0) * weights @ sample_spline(spline, xs)
        assert_allclose(got, ref, rtol=1e-12, atol=1e-16)
    assert counts[0] == counts[1]


def row_integral(table, i, u, v):
    """Integral of f_i over [u, v], piece by piece of row i."""
    if i == 1:
        return v - u
    if i == table.dim + 1:
        return 0.0
    row = table.rows[i]
    total = max(0.0, v - max(u, row.stop))
    lo, hi = max(u, row.start), min(v, row.stop)
    if lo >= hi:
        return total
    # the pieces start on the grid interval that holds row.start
    first = int(table.grid.searchsorted(row.start))
    for j, coeff in enumerate(row.pieces, start=first):
        seg_lo, seg_hi = max(lo, table.grid[j]), min(hi, table.grid[j + 1])
        if seg_lo < seg_hi:
            sec = table.sections[j]
            vals = sec.integral_all(seg_hi) - sec.integral_all(seg_lo)
            total += float(coeff @ vals)
    return total


def row_by_row_integral(spline, x0, x1):
    """The integral summed over every row: N_i = f_i - f_{i+1}."""
    table = spline.space.table
    out = np.zeros(spline.dim_target)
    for i in range(1, table.dim + 1):
        w = row_integral(table, i, x0, x1) - row_integral(table, i + 1, x0, x1)
        if w != 0.0:
            out += w * spline.coefficients[i - 1]
    return out


def mixed_m4_space(K, rng):
    # every family of order 4 on simple knots, with a third of the
    # intervals a thousand times shorter than the rest
    gaps = rng.uniform(0.5, 1.5, K + 1) * np.where(rng.uniform(size=K + 1) < 0.3,
                                                   1e-3, 1.0)
    bp = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    bp[-1] = 1.0
    part = build_extended_partition(bp, [1] * K, 4)
    params = [("polynomial", None, None),
              ("trigonometric", {"theta": 2.0}, None),
              ("hyperbolic", {"phi": 3.0}, None),
              ("variable-degree", {"n1": 4, "n2": 6}, "normalized"),
              ("rational-tension", {"nu": 5.0}, "normalized")]
    secs = []
    for j in range(part.num_sections):
        fam, par, lmap = params[j % len(params)]
        secs.append(make_section(fam, par, (part.grid[j], part.grid[j + 1]),
                                 4, lmap))
    return make_spline_space(part, secs)


def integral_cases():
    for path in sorted(DESCRIPTORS.glob("*.json")):
        obj = load_object(path)
        if isinstance(obj, Spline):
            yield pytest.param(obj, id=path.stem)
    rng = np.random.default_rng(14)
    space = mixed_m4_space(1000, rng)
    yield pytest.param(Spline(space, rng.normal(size=(space.dim, 2))),
                       id="mixed-K1000")


@pytest.mark.parametrize("spline", list(integral_cases()))
def test_integral_is_the_row_by_row_integral(spline):
    space = spline.space
    grid = space.table.grid
    grid = grid[(grid >= space.a) & (grid <= space.b)]
    rng = np.random.default_rng(space.dim)
    mid = grid[len(grid) // 2]
    bounds = [(space.a, space.b), (space.a, space.a), (mid, mid),
              (grid[1], grid[-2]), (space.a, grid[1]), (grid[-2], space.b)]
    bounds += [tuple(np.sort(rng.uniform(space.a, space.b, 2)).tolist())
               for _ in range(6)]
    for x0, x1 in bounds:
        got = integrate_spline(spline, x0, x1)
        assert got.tobytes() == row_by_row_integral(spline, x0, x1).tobytes()


def test_derivative_matches_finite_differences():
    space = mixed_m6_space()
    rng = np.random.default_rng(9)
    spline = Spline(space, rng.normal(size=(space.dim, 1)))
    h = 1e-5
    for x in (0.1, 0.33, 0.8):
        fd = (eval_spline(spline, x + h) - eval_spline(spline, x - h)) / (2 * h)
        assert_allclose(eval_spline_derivative(spline, 1, x), fd, atol=1e-5)


def test_bernstein_quadratic_matches_classical():
    space = one_section_space(make_section("polynomial", None, (0.0, 1.0), 3))
    for x in np.linspace(0.0, 1.0, 21):
        for i in range(3):
            assert_allclose(bernstein_basis(space, i, x),
                            oracles.bernstein(2, i, x), atol=1e-12)


def test_bernstein_left_end():
    space = one_section_space(
        make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 4,
                     "normalized"))
    assert_allclose(bernstein_basis(space, 0, 0.0), 1.0)


def test_bernstein_partition_of_unity_trig():
    space = one_section_space(
        make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 3,
                     "normalized"))
    xs = np.linspace(0.0, 1.0, 101)
    total = sum(np.array([bernstein_basis(space, i, x) for x in xs])
                for i in range(3))
    assert_allclose(total, 1.0, atol=1e-12)


def test_support_is_exact_zero_outside():
    space = polynomial_space([0.0, 0.2, 0.5, 0.8, 1.0], [1, 1, 1], 3)
    part = space.partition
    for i in range(1, space.dim + 1):
        lo, hi = part.knot(i), part.knot(i + 3)
        for x in np.linspace(0.0, 1.0, 41):
            if x < lo or x > hi:
                assert eval_bspline(space, i, x) == 0.0


@pytest.mark.parametrize("i", [0, 6])
def test_support_index_out_of_range_raises(i):
    space = polynomial_space([0.0, 0.2, 0.5, 1.0], [1, 1], 3)
    with pytest.raises(PartitionError, match=f"basis index {i} out of range 1..5"):
        space.support(i)


def test_surface_constant_net():
    u_space = mixed_m6_space()
    v_space = polynomial_space([0.0, 1.0], [], 3)
    P = np.array([1.0, -2.0, 0.5])
    net = np.tile(P, (u_space.dim, v_space.dim, 1))
    surf = TensorSurface(u_space, v_space, net)
    for u in (0.0, 0.4, 1.0):
        for v in (0.0, 0.7, 1.0):
            assert_allclose(eval_surface(surf, u, v), P, atol=1e-12)


def test_surface_degenerate_net_reduces_to_curve():
    u_space = polynomial_space([0.0, 0.5, 1.0], [1], 3)
    v_space = polynomial_space([0.0, 1.0], [], 2)
    rng = np.random.default_rng(2)
    curve = rng.normal(size=(u_space.dim, 3))
    net = np.stack([curve, curve], axis=1)          # constant in v
    surf = TensorSurface(u_space, v_space, net)
    spline = Spline(u_space, curve)
    for u in np.linspace(0.0, 1.0, 9):
        assert_allclose(eval_surface(surf, u, 0.3), eval_spline(spline, u),
                        atol=1e-12)


def test_endpoint_zero_counts():
    space = mixed_m6_space()
    part = space.partition
    m = part.order
    for i in (2, 4, 7):
        t_i = part.knot(i)
        muR = part.end_multiplicities(i)[1]
        derivs = [abs(eval_bspline(space, i, t_i, r, "right"))
                  for r in range(m - muR + 1)]
        scale = max(max(derivs), 1e-30)
        for r in range(m - muR):
            assert derivs[r] <= 1e-8 * scale
        assert derivs[m - muR] > 1e-6 * scale

"""End-to-end checks of the package's headline guarantees.

Each test is one self-contained claim, at the tolerance stated in its
docstring, so `pytest -v` reads as a pass/fail scorecard.
"""
import time
from math import cos, cosh, pi, sin, sinh, tan, tanh

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from chebspline import (FAMILIES, Spline, build_extended_partition,
                        closed_form_space, elevate_order, eval_bspline,
                        eval_closed_n4, eval_spline_derivative, insert_knot,
                        insert_knot_right, load_object, make_section,
                        make_spline_space, max_deviation, one_section_space,
                        qec_profile, sample_basis, sample_multiorder_basis,
                        sample_spline)
from chebspline.basis import SplineSpace, TensorSurface
from chebspline.extensions import MultiOrderSpace

from conftest import DESCRIPTORS

ALL_NAMES = sorted(p.stem for p in DESCRIPTORS.glob("*.json"))

SPLINE_NAMES = ["gc_trig_poly_curve_beta0", "gc_trig_poly_curve_beta14",
                "gc_trig_poly_curve_betam7", "tension_closed_curve",
                "tension_zero_mult_curve", "trig_m3_open_curve",
                "trig_m4_open_curve"]


def committed_spaces():
    """(label, space-like) for every committed descriptor."""
    out = []
    for name in ALL_NAMES:
        obj = load_object(DESCRIPTORS / f"{name}.json")
        if isinstance(obj, Spline):
            out.append((name, obj.space))
        elif isinstance(obj, SplineSpace):
            out.append((name, obj))
        elif isinstance(obj, MultiOrderSpace):
            out.append((name, obj))
        elif isinstance(obj, TensorSurface):
            out.append((name + ":u", obj.u_space))
            out.append((name + ":v", obj.v_space))
    return out


def is_quasi(space):
    return any(FAMILIES[s.family].qec for s in space.sections)


def test_01_every_committed_basis_is_a_partition_of_unity():
    """Basis sums equal 1 within 1e-10 at 1000 samples, under 1 s a space."""
    spaces = committed_spaces()
    assert len(spaces) >= 14
    for label, space in spaces:
        start = time.perf_counter()
        if isinstance(space, MultiOrderSpace):
            a, b = space.sections[0].interval[0], space.sections[-1].interval[1]
            xs = np.linspace(a, b, 1000)
            sums = sample_multiorder_basis(space, xs).sum(axis=1)
        else:
            xs = np.linspace(space.a, space.b, 1000)
            sums = sample_basis(space, xs).sum(axis=1)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(sums - 1.0)) <= 1e-10, label
        assert elapsed <= 1.0, f"{label}: {elapsed:.2f}s"


def test_02_polynomial_sections_match_recurrence_oracle():
    """Transition-built values equal Cox-de Boor to 1e-10, 50 random vectors."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for m in range(2, 7):
        for _ in range(10):
            knots, bps, mults = oracles.random_clamped_knots(
                rng, m, int(rng.integers(1, 4)), max_mult=m - 1)
            part = build_extended_partition([0.0, *bps, 1.0], list(mults), m)
            secs = [make_section("polynomial", None,
                                 (part.grid[j], part.grid[j + 1]), m)
                    for j in range(part.num_sections)]
            space = make_spline_space(part, secs)
            xs = np.r_[rng.uniform(0.0, 1.0, 23), 0.0, 1.0]
            mine = sample_basis(space, xs)
            ref = np.array([oracles.basis_row(knots, m, x) for x in xs])
            worst = max(worst, float(np.max(np.abs(mine - ref))))
    assert worst <= 1e-10, worst


def test_03_closed_form_matches_pipeline():
    """Explicit order-4 formulas agree with the solver to 1e-8, 20 knot
    vectors for each of the three section families."""
    rng = np.random.default_rng(314)
    spans = {"A": (0.4, 2.7), "B": (0.5, 8.0), "C": (3.0, 12.0)}
    worst = 0.0
    for case, (lo, hi) in spans.items():
        for _ in range(20):
            t = np.sort(rng.uniform(0.0, 10.0, 11))
            while np.any(np.diff(t) < 0.12):
                t = np.sort(rng.uniform(0.0, 10.0, 11))
            p = float(rng.uniform(lo, hi))
            space = closed_form_space(case, t, p)
            xs = np.linspace(t[3], t[-4], 500, endpoint=False)
            pipe = sample_basis(space, xs)
            closed = np.column_stack(
                [eval_closed_n4(case, t, p, i, xs)
                 for i in range(1, space.dim + 1)])
            worst = max(worst, float(np.max(np.abs(pipe - closed))))
    assert worst <= 1e-8, worst


def test_04_printed_transition_coefficients():
    """Solved rows 3 and 4 of the polynomial/trig/hyperbolic order-3 space
    reproduce the reference coefficient formulas to 1e-10."""
    for theta in (2.0, 10.0):
        for phi in (4.0, 15.0):
            h0 = h1 = 0.25
            h2 = 0.5
            part = build_extended_partition([0.0, 0.25, 0.5, 1.0], [1, 1], 3)
            secs = [make_section("polynomial", None, (0.0, 0.25), 3),
                    make_section("trigonometric", {"theta": theta},
                                 (0.25, 0.5), 3, "shift"),
                    make_section("hyperbolic", {"phi": phi},
                                 (0.5, 1.0), 3, "shift")]
            table = make_spline_space(part, secs).table
            b33 = 1 / (h0 ** 2 + 2 * (h0 / theta) * tan(theta * h1 / 2))
            b34 = 1 + 1 / (cos(theta * h1)
                           - (theta / 2) * h0 * sin(theta * h1) - 1)
            b35 = (1 - b34) * cos(theta * h1)
            b36 = 1 / ((theta / 2) * h0 + tan(theta * h1 / 2))
            b41 = 1 / (1 - cos(theta * h1)
                       + (theta / phi) * sin(theta * h1) * tanh(phi * h2 / 2))
            b44 = 1 + 1 / (cosh(phi * h2) + (phi / theta) * tan(theta * h1 / 2)
                           * sinh(phi * h2) - 1)
            b45 = (1 - b44) * cosh(phi * h2)
            b46 = 1 / ((phi / theta) * tan(theta * h1 / 2) + tanh(phi * h2 / 2))
            assert_allclose(np.concatenate(table.rows[3].pieces),
                            [0.0, 0.0, b33, b34, b35, b36], atol=1e-10)
            assert_allclose(np.concatenate(table.rows[4].pieces),
                            [b41, -b41, 0.0, b44, b45, b46], atol=1e-10)


def test_05_knot_insertion_leaves_curves_unchanged():
    """Ten random knots per committed curve move sampled values at most 1e-9;
    weights stay in [0, 1]; the two endpoint-derivative formulas agree."""
    rng = np.random.default_rng(55)
    for name in SPLINE_NAMES:
        spline = load_object(DESCRIPTORS / f"{name}.json")
        space = spline.space
        a, b = space.a, space.b
        cur_space, cur = space, spline
        for _ in range(10):
            that = float(rng.uniform(a + 0.02 * (b - a), b - 0.02 * (b - a)))
            while np.min(np.abs(cur_space.partition.grid - that)) < 5e-3:
                that = float(rng.uniform(a + 0.02 * (b - a),
                                         b - 0.02 * (b - a)))
            left, _ = insert_knot(cur_space, cur, that)
            right, _ = insert_knot_right(cur_space, cur, that)
            assert np.max(np.abs(left.alphas - right.alphas)) <= 1e-10, name
            assert left.alphas.min() >= -1e-12 and left.alphas.max() <= 1 + 1e-12
            step, cur = insert_knot(cur_space, cur, that)
            cur_space = step.space
        xs = np.linspace(a, b, 1000)
        dev = np.max(np.abs(sample_spline(spline, xs) - sample_spline(cur, xs)))
        assert dev <= 1e-9, f"{name}: {dev:.2e}"


def test_06_order_elevation():
    """r=1 polynomial elevation is the classical one to 1e-12; r=2 keeps the
    committed trig curves within 1e-9; interior multiplicities grow by r."""
    # classical quadratic -> cubic, single segment
    space = one_section_space(make_section("polynomial", None, (0.0, 1.0), 3))
    spline = Spline(space, np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 0.5]]))
    step, out = elevate_order(space, spline, 1)
    assert_allclose(step.gammas[0], [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-12)
    assert_allclose(out.coefficients,
                    oracles.bezier_elevated(spline.coefficients), atol=1e-12)
    assert max_deviation(spline, out) <= 1e-12

    # full pipeline on a multi-interval polynomial spline
    part = build_extended_partition([0.0, 1.0, 2.0, 3.0], [2, 1], 4)
    secs = [make_section("polynomial", None,
                         (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    pspace = make_spline_space(part, secs)
    rng = np.random.default_rng(66)
    pspline = Spline(pspace, rng.normal(size=(pspace.dim, 2)))
    _, pout = elevate_order(pspace, pspline, 1)
    assert pout.space.partition.multiplicity_of(1.0) == 3
    assert pout.space.partition.multiplicity_of(2.0) == 2
    assert max_deviation(pspline, pout) <= 1e-9

    # two-order elevation of the committed trig curves
    for name in ("trig_m3_open_curve", "trig_m4_open_curve"):
        spline = load_object(DESCRIPTORS / f"{name}.json")
        mults = {float(x): spline.space.partition.multiplicity_of(float(x))
                 for x in spline.space.partition.grid[1:-1]}
        _, out = elevate_order(spline.space, spline, 2)
        assert out.space.order == spline.space.order + 2
        for x, mu in mults.items():
            assert out.space.partition.multiplicity_of(x) == mu + 2
        dev = max_deviation(spline, out)
        assert dev <= 1e-9, f"{name}: {dev:.2e}"


def test_07_insertion_and_elevation_do_not_commute():
    """Insert-then-elevate yields six C1 functions (curved second derivative),
    elevate-then-insert five C2 functions, on the same trig element."""
    base_space = one_section_space(
        make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 3, "shift"))
    base = Spline(base_space, np.array([[0.0], [1.0], [0.0]]))

    step, hp = insert_knot(base_space, base, 0.5)
    _, hp = elevate_order(step.space, hp, 1)
    hp_space = hp.space
    assert hp_space.dim == 6
    d2_jumps = []
    for i in range(1, 7):
        d1 = abs(eval_bspline(hp_space, i, 0.5, 1, "right")
                 - eval_bspline(hp_space, i, 0.5, 1, "left"))
        assert d1 < 1e-8
        d2_jumps.append(abs(eval_bspline(hp_space, i, 0.5, 2, "right")
                            - eval_bspline(hp_space, i, 0.5, 2, "left")))
    assert max(d2_jumps) > 1e-3

    _, k = elevate_order(base_space, base, 1)
    step, k = insert_knot(k.space, k, 0.5)
    k_space = k.space
    assert k_space.dim == 5
    for i in range(1, 6):
        for r in (1, 2):
            jump = abs(eval_bspline(k_space, i, 0.5, r, "right")
                       - eval_bspline(k_space, i, 0.5, r, "left"))
            assert jump < 1e-8


def test_08_geometric_continuity():
    """The beta=0 connection curve is C2 at 3/2; the bent bases stay
    nonnegative partitions of unity; identity matrices change nothing."""
    spline = load_object(DESCRIPTORS / "gc_trig_poly_curve_beta0.json")
    for r in (1, 2):
        lo = eval_spline_derivative(spline, r, 1.5, "left")
        hi = eval_spline_derivative(spline, r, 1.5, "right")
        scale = max(1.0, float(np.max(np.abs(lo))))
        assert np.max(np.abs(hi - lo)) <= 1e-8 * scale

    for name in ("gc_trig_poly_curve_betam7", "gc_trig_poly_curve_beta14"):
        space = load_object(DESCRIPTORS / f"{name}.json").space
        xs = np.linspace(space.a, space.b, 1000)
        vals = sample_basis(space, xs)
        assert vals.min() >= -1e-10
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-10

    part = build_extended_partition([0.0, 1.0, 2.0], [1], 4)
    secs = [make_section("trigonometric", {"theta": 1.0},
                         (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    plain = make_spline_space(part, secs)
    gc = make_spline_space(part, secs, [(1.0, np.eye(3))])
    for i in range(2, plain.dim + 1):
        for pa, pb in zip(plain.table.rows[i].pieces, gc.table.rows[i].pieces):
            assert np.array_equal(pa, pb)


def test_09_zero_multiplicity_break_point():
    """The tension curve space has dimension 6, C2 joins at the simple knots
    and a C3 join where the multiplicity is zero."""
    spline = load_object(DESCRIPTORS / "tension_zero_mult_curve.json")
    space = spline.space
    assert space.dim == 6
    for x, through in ((1.0, 2), (3.0, 2), (2.0, 3)):
        for i in range(1, space.dim + 1):
            for r in range(through + 1):
                lo = eval_bspline(space, i, x, r, "left")
                hi = eval_bspline(space, i, x, r, "right")
                scale = max(1.0, abs(lo), abs(hi))
                assert abs(hi - lo) <= 1e-8 * scale, (x, i, r)


def test_10_multi_order_curve_segments():
    """The mixed-order basis has one function per left knot, and each section
    reproduces its segment shape (line, circular arc, cubic, cardioid) to
    1e-9."""
    mo = load_object(DESCRIPTORS / "multiorder_line_circle_cardioid.json")
    dim = len(mo.t_knots)
    xs = np.linspace(0.0, 5.0, 400)
    vals = sample_multiorder_basis(mo, xs)
    assert vals.shape[1] == dim

    def section_residual(sec, targets):
        lo, hi = sec.interval
        ts = np.linspace(lo, hi, 40)
        A = np.array([sec.eval_all(0, x) for x in ts])
        worst = 0.0
        for f in targets:
            y = np.array([f(x) for x in ts])
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            worst = max(worst, float(np.max(np.abs(A @ sol - y))))
        return worst

    secs = mo.sections
    th = pi / 2
    two = 2 * pi / 3
    cases = [
        (secs[0], [lambda x: 0.25 + 0.5 * x]),
        (secs[1], [lambda x: cos(th * (x - 1.0)), lambda x: sin(th * (x - 1.0))]),
        (secs[2], [lambda x: cos(th * (x - 2.0)), lambda x: sin(th * (x - 2.0))]),
        (secs[3], [lambda x: ((x - 3.0) - 0.4) ** 3]),
        (secs[4], [lambda x: 2 * cos(two * (x - 4.0)) - cos(2 * two * (x - 4.0)),
                   lambda x: 2 * sin(two * (x - 4.0)) - sin(2 * two * (x - 4.0))]),
    ]
    for sec, targets in cases:
        assert section_residual(sec, targets) <= 1e-9, sec.family


def test_11_quasi_chebyshevian_vanishing_orders():
    """The envelope/variable-degree bases sum to one, and the measured
    derivative vanishing orders match the counts forced by the generators:
    n-1 where a full set of conditions meets a variable-degree piece, the
    standard m-mu-1 elsewhere."""
    for n in (5, 10, 50):
        space = load_object(DESCRIPTORS / f"qec_envelope_vardeg_n{n}.json")
        xs = np.linspace(space.a, space.b, 1000)
        sums = sample_basis(space, xs).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10

        part = space.partition
        m = part.order
        prof = qec_profile(space.table)

        def predicted(knot_index, side):
            muL, muR = part.end_multiplicities(knot_index)
            mu = muR if side == "right" else muL
            x = part.knot(knot_index)
            j = int(np.searchsorted(part.grid, x, side=side)) - 1
            vd = space.sections[j].family == "variable-degree"
            if vd and m - mu >= 4:
                return n - 1
            return m - mu - 1

        for i, kbar in prof.kbar_right.items():
            assert kbar == predicted(i, "right"), ("right", n, i)
        for i, kbar in prof.kbar_left.items():
            assert kbar == predicted(i + m - 1, "left"), ("left", n, i)


def test_12_endpoint_zero_counts():
    """Every basis function vanishes at its leading knot exactly as often as
    the multiplicity there dictates (quasi spaces may vanish longer)."""
    for label, space in committed_spaces():
        if isinstance(space, MultiOrderSpace):
            continue
        part = space.partition
        m = part.order
        quasi = is_quasi(space)
        for i in range(1, space.dim + 1):
            t_i = part.knot(i)
            if not part.a <= t_i < part.b:
                continue
            muR = part.end_multiplicities(i)[1]
            hi = min(part.knot(i + m), part.b)
            ts = np.linspace(t_i, hi, 60)
            for r in range(m - muR + 1):
                scale = max(float(np.max(np.abs(
                    [eval_bspline(space, i, x, r) for x in ts]))), 1e-12)
                val = abs(eval_bspline(space, i, t_i, r, "right"))
                if r < m - muR:
                    assert val <= 1e-8 * scale, (label, i, r)
                elif not quasi:
                    assert val > 1e-6 * scale, (label, i, r)

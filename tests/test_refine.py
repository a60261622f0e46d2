import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from chebspline import (ChebsplineError, KnotRemovalError, RefinementError,
                        Spline, SplineSpace, build_extended_partition,
                        build_transition_table, elevate_order, insert_knot,
                        insert_knot_right, load_object, make_periodic_space,
                        make_section, make_spline_space, max_deviation,
                        one_section_space, partition_from_knots,
                        periodic_to_clamped, refine, remove_knot,
                        sample_spline, tile_periodic_coefficients,
                        to_bezier_segments, transition)
from chebspline.basis import eval_spline
from conftest import DESCRIPTORS, assert_same_table


def polynomial_space(breakpoints, multiplicities, order):
    part = build_extended_partition(breakpoints, multiplicities, order)
    secs = [make_section("polynomial", None,
                         (part.grid[j], part.grid[j + 1]), order)
            for j in range(part.num_sections)]
    return make_spline_space(part, secs)


def trig_space(breakpoints, multiplicities, order, theta):
    part = build_extended_partition(breakpoints, multiplicities, order)
    secs = [make_section("trigonometric", {"theta": theta},
                         (part.grid[j], part.grid[j + 1]), order, "normalized")
            for j in range(part.num_sections)]
    return make_spline_space(part, secs)


def random_spline(space, rng, d=2):
    return Spline(space, rng.normal(size=(space.dim, d)))


def test_alphas_match_boehm():
    space = polynomial_space([0.0, 1.0, 2.0, 3.0, 4.0], [1, 1, 1], 4)
    rng = np.random.default_rng(0)
    spline = random_spline(space, rng)
    for that in (0.5, 1.5, 2.5, 3.7):
        step, _ = insert_knot(space, spline, that)
        ref = oracles.boehm_alphas(space.partition.knots, 4, that)
        assert_allclose(step.alphas, ref, atol=1e-11)


def test_alpha_staircase():
    rng = np.random.default_rng(1)
    space = trig_space([0.0, 0.5, 1.0, 1.5, 2.0], [1, 2, 1], 4, 1.0)
    spline = random_spline(space, rng)
    for that in rng.uniform(0.05, 1.95, 6):
        step, _ = insert_knot(space, spline, float(that))
        m = space.order
        ell, r = step.ell, step.mult
        a = step.alphas
        assert np.all(a[:max(0, ell - m + 1)] == 1.0)
        assert np.all(a[ell - r + 1:] == 0.0)
        assert np.all((a > -1e-12) & (a < 1 + 1e-12))


def test_insertion_preserves_values():
    rng = np.random.default_rng(2)
    space = trig_space([0.0, 0.5, 1.0], [1], 5, 2.0)
    spline = random_spline(space, rng)
    cur_space, cur = space, spline
    for that in (0.25, 0.5, 0.8):
        step, cur = insert_knot(cur_space, cur, that)
        cur_space = step.space
    assert max_deviation(spline, cur) < 1e-10


def test_new_control_points_on_old_segments():
    rng = np.random.default_rng(3)
    space = polynomial_space([0.0, 1.0, 2.0], [1], 4)
    spline = random_spline(space, rng)
    step, refined = insert_knot(space, spline, 1.3)
    c, chat = spline.coefficients, refined.coefficients
    for i in range(2, len(chat)):                  # 1-based i: 2..new dim
        a = step.alphas[i - 1]
        if 0.0 < a < 1.0:
            expect = a * c[i - 1] + (1 - a) * c[i - 2]
            assert_allclose(chat[i - 1], expect, atol=1e-12)


def test_left_and_right_formulas_agree():
    rng = np.random.default_rng(4)
    space = trig_space([0.0, 0.7, 1.5, 2.0], [1, 1], 4, 1.2)
    spline = random_spline(space, rng)
    for that in rng.uniform(0.1, 1.9, 5):
        left, _ = insert_knot(space, spline, float(that))
        right, _ = insert_knot_right(space, spline, float(that))
        assert_allclose(left.alphas, right.alphas, atol=1e-10)


def test_right_insertion_at_domain_end():
    part = partition_from_knots(3, [0, 0, 0, 1, 2, 3, 4])
    secs = [make_section("polynomial", None,
                         (part.grid[j], part.grid[j + 1]), 3)
            for j in range(part.num_sections)]
    space = make_spline_space(part, secs)
    rng = np.random.default_rng(5)
    spline = random_spline(space, rng)
    step, refined = insert_knot_right(space, spline, space.b)
    assert refined.space.partition.multiplicity_of(space.b) == 2
    xs = np.linspace(space.a, space.b, 300)
    assert np.max(np.abs(sample_spline(spline, xs)
                         - sample_spline(refined, xs))) < 1e-10


def test_bezier_single_section_identity():
    space = one_section_space(
        make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 4,
                     "normalized"))
    rng = np.random.default_rng(6)
    spline = random_spline(space, rng)
    segs = to_bezier_segments(space, spline)
    assert len(segs.controls) == 1
    assert_allclose(segs.controls[0], spline.coefficients, atol=1e-12)


def test_bezier_extraction_classical_cubic():
    space = polynomial_space([0.0, 1.0, 2.0], [1], 4)
    rng = np.random.default_rng(7)
    spline = random_spline(space, rng)
    segs = to_bezier_segments(space, spline)
    assert len(segs.controls) == 2
    for (lo, hi), ctrl in zip([(0.0, 1.0), (1.0, 2.0)], segs.controls):
        for x in np.linspace(lo, hi, 20):
            u = (x - lo) / (hi - lo)
            ref = sum(oracles.bernstein(3, k, u) * ctrl[k] for k in range(4))
            assert_allclose(eval_spline(spline, x), ref, atol=1e-11)


def test_bezier_preserves_values():
    space = trig_space([0.0, 0.5, 1.0, 1.5], [2, 1], 4, 1.0)
    rng = np.random.default_rng(8)
    spline = random_spline(space, rng)
    segs = to_bezier_segments(space, spline)
    assert max_deviation(spline, segs.spline) < 1e-10


def test_elevation_gammas_classical():
    space = one_section_space(make_section("polynomial", None, (0.0, 1.0), 3))
    spline = Spline(space, np.array([[0.0], [1.0], [0.5]]))
    step, out = elevate_order(space, spline, 1)
    assert_allclose(step.gammas[0], [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-12)
    assert_allclose(out.coefficients,
                    oracles.bezier_elevated(spline.coefficients), atol=1e-12)


def test_elevation_r1_trig_to_mixed():
    space = trig_space([0.0, 0.5, 1.0], [1], 3, 2.0)
    rng = np.random.default_rng(9)
    spline = random_spline(space, rng)
    step, out = elevate_order(space, spline, 1)
    assert out.space.order == 4
    assert max_deviation(spline, out) < 1e-9


def test_elevation_r2():
    space = trig_space([0.0, 0.5, 1.0], [1], 3, 2.0)
    rng = np.random.default_rng(10)
    spline = random_spline(space, rng)
    step, out = elevate_order(space, spline, 2)
    assert out.space.order == 5
    assert max_deviation(spline, out) < 1e-9


def test_elevation_multiplicities():
    space = polynomial_space([0.0, 1.0, 2.0, 3.0], [2, 1], 4)
    rng = np.random.default_rng(11)
    spline = random_spline(space, rng)
    _, out = elevate_order(space, spline, 1)
    part = out.space.partition
    assert part.order == 5
    assert part.multiplicity_of(1.0) == 3
    assert part.multiplicity_of(2.0) == 2
    assert max_deviation(spline, out) < 1e-9


def test_remove_inverts_insert():
    space = trig_space([0.0, 1.0, 2.0], [1], 4, 1.0)
    rng = np.random.default_rng(12)
    spline = random_spline(space, rng)
    step, refined = insert_knot(space, spline, 1.4)
    back_space, back, resid = remove_knot(step.space, refined, 1.4)
    assert resid < 1e-10
    assert_allclose(back.coefficients, spline.coefficients, atol=1e-10)
    assert_allclose(back_space.partition.knots, space.partition.knots)


def test_remove_reports_failure():
    space = polynomial_space([0.0, 1.0, 2.0], [1], 4)
    rng = np.random.default_rng(13)
    spline = random_spline(space, rng)          # genuinely kinked at 1
    with pytest.raises(KnotRemovalError):
        remove_knot(space, spline, 1.0)


def test_remove_knot_refusals():
    space = polynomial_space([0.0, 1.0, 2.0, 3.0], [1, 0], 4)
    spline = random_spline(space, np.random.default_rng(14))
    for that in (0.0, 0.5, 3.0):
        with pytest.raises(RefinementError, match="not an interior break point"):
            remove_knot(space, spline, that)
    with pytest.raises(RefinementError, match="carries no knot"):
        remove_knot(space, spline, 2.0)
    part = build_extended_partition([0.0, 1.0, 2.0], [2], 4)
    secs = [make_section("polynomial", None, (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    gc = make_spline_space(part, secs, [(1.0, [[1.0, 0.0], [0.0, 2.0]])])
    with pytest.raises(RefinementError, match="connection matrix"):
        remove_knot(gc, random_spline(gc, np.random.default_rng(15)), 1.0)


def test_periodic_matches_scipy():
    from scipy.interpolate import BSpline
    knots = np.arange(-3.0, 8.0)                # uniform period-4 wrap
    base = [make_section("polynomial", None, (float(j), float(j + 1)), 4)
            for j in range(4)]
    space = make_periodic_space(4, knots, base, 4.0)
    rng = np.random.default_rng(14)
    free = rng.normal(size=(4, 2))
    coeffs = tile_periodic_coefficients(space, free)
    spline = Spline(space, coeffs)
    ref = BSpline(knots, coeffs, 3, extrapolate=False)
    xs = np.linspace(0.0, 4.0 - 1e-9, 400)
    assert np.max(np.abs(sample_spline(spline, xs) - ref(xs))) < 1e-11

    clamped_space, clamped = periodic_to_clamped(space, spline)
    part = clamped_space.partition
    assert part.multiplicity_of(part.a) == 4
    assert part.multiplicity_of(part.b) == 4
    assert np.max(np.abs(sample_spline(clamped, xs) - ref(xs))) < 1e-10


def test_periodic_closed_curve_is_smooth():
    knots = np.arange(-3.0, 8.0)
    base = [make_section("polynomial", None, (float(j), float(j + 1)), 4)
            for j in range(4)]
    space = make_periodic_space(4, knots, base, 4.0)
    free = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    spline = Spline(space, tile_periodic_coefficients(space, free))
    # closure: values and first two derivatives agree at both ends
    from chebspline import eval_spline_derivative
    for r in range(3):
        lo = eval_spline_derivative(spline, r, 0.0, "right")
        hi = eval_spline_derivative(spline, r, 4.0, "left")
        assert_allclose(lo, hi, atol=1e-10)


def mismatched_pair():
    """The trigonometric curve of trig_m4_open_curve.json and a polynomial
    space on its partition."""
    curve = load_object(DESCRIPTORS / "trig_m4_open_curve.json")
    part = curve.space.partition
    poly = make_spline_space(part, [make_section("polynomial", None,
                                                 sec.interval, part.order)
                                    for sec in curve.space.sections])
    return poly, curve


@pytest.mark.parametrize("call", [
    lambda space, s: insert_knot(space, s, 0.4),
    lambda space, s: insert_knot_right(space, s, 0.4),
    to_bezier_segments,
    lambda space, s: elevate_order(space, s, 1),
    lambda space, s: remove_knot(space, s, float(space.partition.grid[1])),
    periodic_to_clamped,
], ids=["insert", "insert_right", "bezier", "elevate", "remove", "clamp"])
def test_refinement_rejects_a_spline_of_another_space(call):
    # the structure would come from the polynomial space and the
    # coefficients from the trigonometric curve
    poly, curve = mismatched_pair()
    with pytest.raises(RefinementError, match="does not live on the given space"):
        call(poly, curve)
    try:
        call(curve.space, curve)
    except KnotRemovalError:          # the curve needs the knot
        pass


def test_clamp_is_identity_on_clamped_input():
    space = polynomial_space([0.0, 1.0, 2.0], [1], 4)
    rng = np.random.default_rng(15)
    spline = random_spline(space, rng)
    out_space, out = periodic_to_clamped(space, spline)
    assert out_space is space and out is spline


def wraparound_spline():
    knots = np.arange(-3.0, 8.0)
    base = [make_section("polynomial", None, (float(j), float(j + 1)), 4)
            if j % 2 else
            make_section("trigonometric", {"theta": 1.0},
                         (float(j), float(j + 1)), 4)
            for j in range(4)]
    space = make_periodic_space(4, knots, base, 4.0)
    free = np.random.default_rng(17).normal(size=(4, 2))
    return Spline(space, tile_periodic_coefficients(space, free))


@pytest.mark.parametrize("spline", [
    pytest.param(wraparound_spline(), id="generated"),
    pytest.param(load_object(DESCRIPTORS / "tension_closed_curve.json"),
                 id="tension_closed_curve")])
def test_wraparound_splines_need_clamping_for_bezier_and_elevation(spline):
    # the Bernstein windows assume m knots at a and b; past them the
    # control slices would come out short or empty
    for call in (lambda: to_bezier_segments(spline.space, spline),
                 lambda: elevate_order(spline.space, spline, 1)):
        with pytest.raises(RefinementError, match="periodic_to_clamped"):
            call()
    space, clamped = periodic_to_clamped(spline.space, spline)
    bez = to_bezier_segments(space, clamped)
    assert all(c.shape == (space.order, 2) for c in bez.controls)


# the committed splines whose r = 1 elevation succeeds
ELEVATES = {"trig_m3_open_curve", "trig_m4_open_curve"}
SPLINES = [pytest.param(path, id=path.stem)
           for path in sorted(DESCRIPTORS.glob("*.json"))
           if isinstance(load_object(path), Spline)]


def refined_spaces(name, spline):
    space = spline.space
    part, m = space.partition, space.order
    x_new = space.a + 0.37 * (space.b - space.a)
    step, fine = insert_knot(space, spline, x_new)
    yield step.space
    for x in part.grid[1:-1]:
        if space.a < x < space.b and part.multiplicity_of(float(x)) < m - 1:
            yield insert_knot(space, spline, float(x))[0].space
    yield insert_knot_right(space, spline, x_new)[0].space
    yield remove_knot(step.space, fine, x_new)[0]
    clamped = periodic_to_clamped(space, spline)[1]
    yield to_bezier_segments(clamped.space, clamped).space
    # the spaces Bezier extraction passes through
    for x in clamped.space.partition.grid[1:-1]:
        while clamped.space.partition.multiplicity_of(float(x)) < m - 1:
            clamped = insert_knot(clamped.space, clamped, float(x))[1]
            yield clamped.space
    if name in ELEVATES:
        yield elevate_order(space, spline, 1)[1].space
    if part.multiplicity_of(space.a) < m or part.multiplicity_of(space.b) < m:
        yield periodic_to_clamped(space, spline)[0]


@pytest.mark.parametrize("path", SPLINES)
def test_refined_tables_match_fresh_builds(path):
    # rows taken over from the parent table, with their reports, must be
    # exactly what a fresh solve of the refined space gives
    spline = load_object(path)
    for space in refined_spaces(path.stem, spline):
        assert_same_table(space.table, build_transition_table(space))


def shared_rows(old, new):
    """(rows of new that are old's objects, rows whose spec old also has)."""
    old_rows = {spec.key: (old.rows[i], old.reports.get(i))
                for i, spec in old.specs.items()}
    same, shared = 0, 0
    for i, spec in new.specs.items():
        if spec.key in old_rows:
            same += 1
            row, rep = old_rows[spec.key]
            shared += new.rows[i] is row and new.reports.get(i) is rep
    return shared, same


@pytest.mark.parametrize("path", SPLINES)
def test_refined_tables_share_the_parents_rows(path):
    # a row whose Hermite system insertion or removal leaves alone is the
    # parent's row object, and so is its report
    spline = load_object(path)
    space = spline.space
    step, fine = insert_knot(space, spline, space.a + 0.37 * (space.b - space.a))
    coarse, _, _ = remove_knot(step.space, fine, step.that)
    for old, new in ((space, step.space), (step.space, coarse)):
        shared, same = shared_rows(old.table, new.table)
        assert shared == same > 0
        assert new.dim - 1 - same <= space.order


def test_insertion_and_removal_derive_only_the_new_specs(monkeypatch):
    spline = load_object(DESCRIPTORS / "trig_m4_open_curve.json")
    space = spline.space
    space.table
    derived = []
    row_specs = SplineSpace._row_specs

    def counted(self):
        derived.append(self)
        return row_specs(self)

    monkeypatch.setattr(SplineSpace, "_row_specs", counted)
    step, fine = insert_knot(space, spline, 0.3 * space.b + 0.7 * space.a)
    assert list(map(id, derived)) == [id(step.space)]
    coarse, _, _ = remove_knot(step.space, fine, step.that)
    assert list(map(id, derived)) == [id(step.space), id(coarse)]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_remove_knot_resolves_only_rows_crossing_it(m, monkeypatch):
    space = trig_space(np.linspace(0.0, 2.75, 12), [1] * 10, m, 1.0)
    spline = random_spline(space, np.random.default_rng(16))
    step, fine = insert_knot(space, spline, 1.1)         # now 12 intervals
    solved = []
    solve = transition._solve_rows
    monkeypatch.setattr(transition, "_solve_rows",
                        lambda specs: solved.extend(s.index for s in specs)
                        or solve(specs))
    coarse, back, resid = remove_knot(step.space, fine, 1.1)
    assert resid < 1e-10
    # only the rows crossing the merged interval see a new system
    assert 0 < len(solved) <= m - 1
    assert_same_table(coarse.table, build_transition_table(coarse))


def test_elevation_solves_only_its_pipeline_rows(monkeypatch):
    # Bezier extraction, the glued target table and the removals; the
    # per-segment Bernstein rows are read from the first two
    spline = load_object(DESCRIPTORS / "trig_m4_open_curve.json")
    spline.space.table
    rows = []
    solve = transition._solve_rows
    monkeypatch.setattr(transition, "_solve_rows",
                        lambda specs: rows.extend(specs) or solve(specs))
    elevate_order(spline.space, spline, 1)
    assert len(rows) <= 40


# the committed splines with a default elevation target on every section
TARGETED = [p for p in SPLINES if all(s.family != "rational-tension" for s
                                      in load_object(p.values[0]).space.sections)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("path", TARGETED)
def test_elevation_gammas_are_the_one_section_ones(path, r, monkeypatch):
    # gamma and delta read from the Bezier and glued tables equal, byte for
    # byte, those of each segment's own one-section spaces
    spline = load_object(path)
    seen = []
    gamma_delta = refine._segment_gamma_delta

    def recorded(src, dst, j, r):
        out = gamma_delta(src, dst, j, r)
        seen.append((src.sections[j], dst.sections[j], out))
        return out

    monkeypatch.setattr(refine, "_segment_gamma_delta", recorded)
    try:
        step, _ = elevate_order(spline.space, spline, r)
    except ChebsplineError:         # a later stage failed; the gammas stand
        step = None
    assert seen
    for src, dst, (gam, delta) in seen:
        ref_gam, ref_delta = gamma_delta(one_section_space(src).table,
                                         one_section_space(dst).table, 0, r)
        assert gam.tobytes() == ref_gam.tobytes()
        if r == 1:
            assert delta is None and ref_delta is None
        else:
            assert delta.tobytes() == ref_delta.tobytes()
    if step is not None:
        assert [g.tobytes() for g in step.gammas] == \
            [gam.tobytes() for _, _, (gam, _) in seen]
        assert step.deltas is None if r == 1 else \
            [d.tobytes() for d in step.deltas] == \
            [delta.tobytes() for _, _, (_, delta) in seen]


def generated_mixed_spline(m=4, q=6):
    """Sections of four families on [0, 1], interior multiplicities 0..m-1."""
    rng = np.random.default_rng(23)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, q)), [1.0]])
    part = build_extended_partition(grid, rng.integers(0, m, q), m)
    families = [("polynomial", None), ("trigonometric", {"theta": 2.0}),
                ("hyperbolic", {"phi": 1.5}),
                ("variable-degree", {"n1": 4, "n2": 5})]
    secs = [make_section(*families[k], (grid[j], grid[j + 1]), m)
            for j, k in enumerate(rng.integers(0, len(families), q + 1))]
    return random_spline(make_spline_space(part, secs), rng)


@pytest.mark.parametrize("spline", [
    *(pytest.param(load_object(p.values[0]), id=p.id) for p in SPLINES),
    pytest.param(generated_mixed_spline(), id="generated_mixed")])
def test_bezier_extraction_keeps_the_grid_and_the_sections(spline):
    # knots go only on break points, so no section is split or replaced
    space, spline = periodic_to_clamped(spline.space, spline)
    bez = to_bezier_segments(space, spline)
    assert_array_equal(bez.space.partition.grid, space.partition.grid)
    assert len(bez.space.sections) == len(space.sections) == len(bez.controls)
    assert all(new is old for new, old in zip(bez.space.sections,
                                              space.sections))


def test_elevation_into_given_target_families():
    spline = load_object(DESCRIPTORS / "trig_m3_open_curve.json")
    family = {"family": "trig-envelope", "params": {"theta": 2.0}}
    outs = []
    for targets in (family, [family] * len(spline.space.sections)):
        step, out = elevate_order(spline.space, spline, 2, targets)
        assert [(t.family, t.order) for t in step.targets] == \
            [("trig-envelope", 5)] * len(spline.space.sections)
        assert max_deviation(spline, out) < 1e-12
        outs.append(out.coefficients.tobytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("targets, segment", [
    ("trig-envelope", 0), (3, 0), ({"params": {"theta": 2.0}}, 0),
    ([{"family": "trig-envelope"}, "trig-envelope", None], 1)])
def test_target_families_entries_must_name_a_family(targets, segment):
    spline = load_object(DESCRIPTORS / "trig_m3_open_curve.json")
    with pytest.raises(RefinementError, match=f"segment {segment}: .* is not "
                                              "a mapping with a 'family' key"):
        elevate_order(spline.space, spline, 2, targets)


def test_target_that_misses_the_source_raises():
    space = polynomial_space([0.0, 0.5, 1.0], [1], 4)
    spline = random_spline(space, np.random.default_rng(17))
    with pytest.raises(RefinementError, match="does not contain"):
        elevate_order(space, spline, 1,
                      {"family": "trigonometric", "params": {"theta": 1.0}})


def variable_degree_spline(n1, n2, m):
    part = build_extended_partition([0.0, 0.4, 1.0], [1], m)
    secs = [make_section("variable-degree", {"n1": n1, "n2": n2},
                         (part.grid[j], part.grid[j + 1]), m)
            for j in range(2)]
    space = make_spline_space(part, secs)
    return random_spline(space, np.random.default_rng(18))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_elevation_past_degenerate_variable_degree_targets(m, r):
    # the variable-degree section of order m+r with n1 = n2 = m+r-2 has
    # dependent generators; the default target is the polynomials of order
    # m+r on the source's local coordinate
    n = m + r - 2
    spline = variable_degree_spline(n, n, m)
    step, out = elevate_order(spline.space, spline, r)
    for src, dst in zip(spline.space.sections, step.targets):
        assert (dst.family, dst.order) == ("polynomial", m + r)
        assert (dst.anchor, dst.scale) == (src.anchor, src.scale)
    assert max_deviation(spline, out) < 1e-9


@pytest.mark.parametrize("n1, n2, m, r", [(3, 3, 4, 2), (2, 3, 4, 1),
                                          (3, 4, 5, 2)])
def test_elevation_of_low_exponent_variable_degree_sources(n1, n2, m, r):
    # an exponent below m+r-2 admits no variable-degree section of order
    # m+r; whole exponents up to m+r-1 lie in the polynomials of that order
    spline = variable_degree_spline(n1, n2, m)
    step, out = elevate_order(spline.space, spline, r)
    for src, dst in zip(spline.space.sections, step.targets):
        assert (dst.family, dst.order) == ("polynomial", m + r)
        assert (dst.anchor, dst.scale) == (src.anchor, src.scale)
    assert max_deviation(spline, out) < 1e-12


@pytest.mark.parametrize("n1, n2", [(2.5, 3), (2, 5)])
def test_low_exponent_source_outside_the_polynomials_needs_a_target(n1, n2):
    # order 4 elevated by 1: n1 < 3 rules out variable-degree targets, and a
    # fractional exponent or one above 4 rules out polynomials of order 5
    spline = variable_degree_spline(n1, n2, 4)
    with pytest.raises(RefinementError, match="target_families"):
        elevate_order(spline.space, spline, 1)


def test_insertion_point_must_be_a_number():
    space = polynomial_space([0.0, 1.0, 2.0], [1], 4)
    spline = random_spline(space, np.random.default_rng(19))
    for insert in (insert_knot, insert_knot_right):
        with pytest.raises(RefinementError, match="outside"):
            insert(space, spline, float("nan"))


# the staircase updates as row loops: the array forms must agree bit for bit

def apply_alphas_loop(alphas, coeffs):
    new_dim = len(alphas)
    old_dim, d = coeffs.shape
    out = np.zeros((new_dim, d))
    for i in range(1, new_dim + 1):
        a = alphas[i - 1]
        if a != 0.0 and i <= old_dim:
            out[i - 1] += a * coeffs[i - 1]
        if a != 1.0 and 2 <= i <= old_dim + 1:
            out[i - 1] += (1.0 - a) * coeffs[i - 2]
    return out


def elevate_controls_loop(c, gam, delta, r):
    n = c.shape[0] - 1
    out = np.zeros((n + 1 + r, c.shape[1]))
    out[0] = c[0]
    if r == 1:
        for i in range(1, n + 1):
            out[i] = gam[i] * c[i] + (1.0 - gam[i]) * c[i - 1]
        out[n + 1] = c[n]
        return out
    out[1] = gam[1] * c[1] + (1.0 - gam[1]) * c[0]
    for i in range(2, n + 1):
        di = delta[i - 1]
        out[i] = gam[i] * c[i] + di * c[i - 1] + (1.0 - gam[i] - di) * c[i - 2]
    out[n + 1] = delta[n] * c[n] + (1.0 - delta[n]) * c[n - 1]
    out[n + 2] = c[n]
    return out


def signed_zeros_and_steps(rng, shape):
    """Values that are 0.0, -0.0, 1.0 or normal, each about a quarter of
    the time: products with them give zeros of both signs."""
    pick = rng.integers(4, size=shape)
    return np.choose(pick, [0.0, -0.0, 1.0, rng.normal(size=shape)])


def test_staircases_match_the_row_loops():
    rng = np.random.default_rng(20)
    for _ in range(200):
        old_dim, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        for new_dim in (old_dim + 1, old_dim):
            alphas = signed_zeros_and_steps(rng, new_dim)
            coeffs = signed_zeros_and_steps(rng, (old_dim, d))
            assert (refine._apply_alphas(alphas, coeffs).tobytes()
                    == apply_alphas_loop(alphas, coeffs).tobytes())
        n, r = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        c = signed_zeros_and_steps(rng, (n + 1, d))
        gam = signed_zeros_and_steps(rng, n + r + 1)
        delta = signed_zeros_and_steps(rng, n + 2) if r == 2 else None
        assert (refine._elevate_controls(c, gam, delta, r).tobytes()
                == elevate_controls_loop(c, gam, delta, r).tobytes())


# connection matrices follow their break point through refinement

CONNECTION = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, -0.4, 0.7]])


def connected_spline():
    """Cubic trigonometric spline on [0, 4], simple knots, a matrix at 2."""
    part = build_extended_partition([0.0, 1.0, 2.0, 3.0, 4.0], [1, 1, 1], 4)
    secs = [make_section("trigonometric", {"theta": 1.0},
                         (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    space = make_spline_space(part, secs, {2: CONNECTION})
    return random_spline(space, np.random.default_rng(21))


def matrix_at(space, x):
    """The connection matrix at break point x (None when identity)."""
    return space.connections.get(int(space.partition.grid.searchsorted(x)))


def assert_matches_fresh_build(space):
    fresh = make_spline_space(space.partition, space.sections, space.connections)
    assert_same_table(space.table, fresh.table)


def test_insertion_left_of_a_connected_point_keeps_its_matrix():
    spline = connected_spline()
    step, fine = insert_knot(spline.space, spline, 1.5)
    assert list(step.space.connections) == [3]
    assert matrix_at(step.space, 2.0) is spline.space.connections[2]
    assert_matches_fresh_build(step.space)
    assert max_deviation(spline, fine) < 1e-12


def test_insertion_at_a_connected_point_shrinks_its_matrix():
    spline = connected_spline()
    cur_space, cur = spline.space, spline
    for k in (2, 1):
        step, cur = insert_knot(cur_space, cur, 2.0)
        cur_space = step.space
        assert list(cur_space.connections) == [2]
        assert_array_equal(matrix_at(cur_space, 2.0), CONNECTION[:k, :k])
        assert_matches_fresh_build(cur_space)
    assert max_deviation(spline, cur) < 1e-12


def test_removal_merging_sections_left_of_a_connected_point_keeps_its_matrix():
    spline = connected_spline()
    step, fine = insert_knot(spline.space, spline, 1.5)
    coarse, out, _ = remove_knot(step.space, fine, 1.5)
    assert len(coarse.sections) == len(spline.space.sections)
    assert list(coarse.connections) == [2]
    assert matrix_at(coarse, 2.0) is spline.space.connections[2]
    assert_matches_fresh_build(coarse)
    assert max_deviation(spline, out) < 1e-12


def test_clamping_keeps_a_matrix_inside_the_domain():
    periodic = wraparound_spline().space
    space = SplineSpace(periodic.partition, periodic.sections, {5: CONNECTION})
    assert periodic.partition.grid[5] == 2.0
    spline = random_spline(space, np.random.default_rng(22))
    clamped, out = periodic_to_clamped(space, spline)
    assert clamped.partition.grid.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(clamped.connections) == [2]
    assert matrix_at(clamped, 2.0) is CONNECTION
    assert_matches_fresh_build(clamped)
    assert max_deviation(spline, out) < 1e-12

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chebspline import (Spline, build_extended_partition,
                        build_multiorder_space, detect_vanishing_order,
                        build_transition_table,
                        eval_bspline, eval_spline_derivative, insert_knot,
                        make_section, make_spline_space, qec_profile,
                        sample_basis, sample_spline)
from chebspline.errors import PartitionError
from conftest import assert_same_table


def gc_curve_space(beta):
    """Trig / polynomial / polynomial / trig space on [0, 3] with
    connection matrices at the three interior break points."""
    part = build_extended_partition([0.0, 1.0, 1.5, 2.0, 3.0], [2, 1, 2], 4)
    fams = [("trigonometric", {"theta": 1.0}), ("polynomial", None),
            ("polynomial", None), ("trigonometric", {"theta": 1.0})]
    secs = [make_section(fam, par, (part.grid[j], part.grid[j + 1]), 4)
            for j, (fam, par) in enumerate(fams)]
    conns = [(1.0, [[1.0, 0.0], [0.0, 4.0]]),
             (1.5, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, beta, 1.0]]),
             (2.0, [[1.0, 0.0], [0.0, 0.25]])]
    return make_spline_space(part, secs, conns)


def plain_trig_space():
    part = build_extended_partition([0.0, 1.0, 2.0], [1], 4)
    secs = [make_section("trigonometric", {"theta": 1.0},
                         (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    return part, secs


def test_identity_matrices_match_parametric_build():
    part, secs = plain_trig_space()
    plain = make_spline_space(part, secs)
    gc = make_spline_space(part, secs, [(1.0, np.eye(3))])
    for i in range(2, plain.dim + 1):
        a, b = plain.table.rows[i], gc.table.rows[i]
        assert plain.table.grid.searchsorted(a.start) == \
            gc.table.grid.searchsorted(b.start)
        for pa, pb in zip(a.pieces, b.pieces):
            assert np.array_equal(pa, pb)


def test_gc_beta_zero_curve_c2_at_middle():
    space = gc_curve_space(0.0)
    assert space.dim == 9
    rng = np.random.default_rng(21)
    spline = Spline(space, rng.normal(size=(space.dim, 2)))
    for r in (0, 1, 2):
        lo = eval_spline_derivative(spline, r, 1.5, "left")
        hi = eval_spline_derivative(spline, r, 1.5, "right")
        assert_allclose(lo, hi, atol=1e-8 * max(1.0, np.abs(lo).max()))


def test_gc_beta_bends_second_derivative():
    beta = 14.0
    space = gc_curve_space(beta)
    rng = np.random.default_rng(22)
    spline = Spline(space, rng.normal(size=(space.dim, 2)))
    d1l = eval_spline_derivative(spline, 1, 1.5, "left")
    d1r = eval_spline_derivative(spline, 1, 1.5, "right")
    d2l = eval_spline_derivative(spline, 2, 1.5, "left")
    d2r = eval_spline_derivative(spline, 2, 1.5, "right")
    assert_allclose(d1r, d1l, atol=1e-8 * max(1.0, np.abs(d1l).max()))
    assert_allclose(d2r, beta * d1l + d2l,
                    atol=1e-7 * max(1.0, np.abs(d2l).max()))


def test_gc_bases_are_partitions_of_unity():
    xs = np.linspace(0.0, 3.0, 500)
    for beta in (-7.0, 0.0, 14.0):
        vals = sample_basis(gc_curve_space(beta), xs)
        assert vals.min() > -1e-10
        assert_allclose(vals.sum(axis=1), 1.0, atol=1e-10)


def refine_structure(space, that):
    """The refined space of an insertion into a zero spline."""
    step, _ = insert_knot(space, Spline(space, np.zeros(space.dim)), that)
    return step.space


def test_refine_gc_on_existing_break_point_shrinks_matrix():
    space = gc_curve_space(14.0)
    refined = refine_structure(space, 1.0)
    g = int(np.nonzero(np.isclose(refined.partition.grid, 1.0))[0][0])
    assert refined.connections[g].shape == (1, 1)
    assert_allclose(refined.connections[g], [[1.0]])


def test_refine_gc_on_fresh_point_attaches_identity():
    space = gc_curve_space(14.0)
    refined = refine_structure(space, 0.5)
    g = int(np.nonzero(np.isclose(refined.partition.grid, 0.5))[0][0])
    assert g not in refined.connections       # absent matrix means identity
    assert refined.dim == space.dim + 1


def test_gc_insertion_preserves_values():
    space = gc_curve_space(-7.0)
    rng = np.random.default_rng(23)
    spline = Spline(space, rng.normal(size=(space.dim, 2)))
    cur_space, cur = space, spline
    for that in (0.5, 1.0, 2.6):
        step, cur = insert_knot(cur_space, cur, that)
        cur_space = step.space
    xs = np.linspace(0.0, 3.0, 700)
    assert np.max(np.abs(sample_spline(spline, xs)
                         - sample_spline(cur, xs))) < 1e-9


def test_multiorder_degenerates_to_uniform_order():
    part = build_extended_partition([0.0, 1.0, 2.0], [1], 4)
    secs = [make_section("trigonometric", {"theta": 1.0},
                         (part.grid[j], part.grid[j + 1]), 4)
            for j in range(part.num_sections)]
    plain = make_spline_space(part, secs)
    mo = build_multiorder_space(list(secs), [2])       # C^2 = simple knot
    xs = np.linspace(0.0, 2.0, 300)
    assert_allclose(sample_basis(mo, xs), sample_basis(plain, xs),
                    atol=1e-12)


def test_multiorder_table_matches_single_order_table():
    # one order m and k_i = m - 1 - mu_i: the two space kinds share the rule
    # for every row, so their tables agree byte for byte
    m, mults = 5, [1, 2, 0, 3]
    part = build_extended_partition([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], mults, m)
    fams = [("polynomial", None), ("trigonometric", {"theta": 1.0}),
            ("hyperbolic", {"phi": 1.0}), ("mixed", {"theta": 1.0, "phi": 1.0}),
            ("polynomial", None)]
    secs = [make_section(fam, par, (part.grid[j], part.grid[j + 1]), m)
            for j, (fam, par) in enumerate(fams)]
    single = build_transition_table(make_spline_space(part, secs))
    mo = build_multiorder_space(secs, [m - 1 - mu for mu in mults])
    assert_allclose(mo.t_knots, part.knots[:part.dim], rtol=0, atol=0)
    assert (mo.table.order, mo.table.dim) == (single.order, single.dim)
    assert mo.table.grid.tobytes() == single.grid.tobytes()
    assert_same_table(mo.table, single)


def multi_order_sections():
    return [
        make_section("polynomial", None, (0.0, 1.0), 2),
        make_section("trigonometric", {"theta": np.pi / 2}, (1.0, 2.0), 3),
        make_section("trigonometric", {"theta": np.pi / 2}, (2.0, 3.0), 3),
        make_section("polynomial", None, (3.0, 4.0), 4),
        make_section("multi-frequency-trig", {"theta": 2 * np.pi / 3},
                     (4.0, 5.0), 5),
    ]


def test_multiorder_mixed_orders_partition_of_unity():
    mo = build_multiorder_space(multi_order_sections(), [1, 1, 1, 1])
    assert len(mo.t_knots) == 9
    xs = np.linspace(0.0, 5.0, 500)
    vals = sample_basis(mo, xs)
    assert vals.shape[1] == 9
    assert_allclose(vals.sum(axis=1), 1.0, atol=1e-10)
    assert vals.min() > -1e-10


def test_multiorder_support():
    mo = build_multiorder_space(multi_order_sections(), [1, 1, 1, 1])
    dim = len(mo.t_knots)
    for i in (1, dim // 2, dim):
        lo, hi = mo.t_knots[i - 1], mo.s_knots[i - 1]
        for x in np.linspace(0.0, 5.0, 101):
            if x < lo - 1e-12 or x > hi + 1e-12:
                assert eval_bspline(mo, i, x) == 0.0


def test_multiorder_support_index_out_of_range_raises():
    mo = build_multiorder_space(multi_order_sections(), [1, 1, 1, 1])
    for i in (0, mo.dim + 1):
        with pytest.raises(PartitionError,
                           match=f"basis index {i} out of range 1..{mo.dim}"):
            mo.support(i)


def test_vanishing_order_ec_case():
    part, secs = plain_trig_space()
    space = make_spline_space(part, secs)
    table = space.table
    # simple interior knot t_5 = 1, m = 4: f_5 vanishes to order m - mu - 1 = 2
    assert part.knot(5) == 1.0
    assert detect_vanishing_order(table, 5, "left") == 2


def variable_degree_space(n):
    part = build_extended_partition([0.0, 1.0, 2.0], [1], 5)
    secs = [make_section("trig-envelope", {"theta": 1.0}, (0.0, 1.0), 5,
                         "normalized"),
            make_section("variable-degree", {"n1": n, "n2": n}, (1.0, 2.0), 5)]
    return make_spline_space(part, secs)


def test_vanishing_order_exceeds_ec_bound():
    space = variable_degree_space(10)
    prof = qec_profile(space.table)
    # at the right end of the variable-degree section the first n-1
    # derivatives of the ramp die out, far beyond the EC count
    assert max(prof.kbar_left.values()) > 3


def test_qec_basis_partition_of_unity():
    space = variable_degree_space(5)
    xs = np.linspace(0.0, 2.0, 400)
    vals = sample_basis(space, xs)
    assert_allclose(vals.sum(axis=1), 1.0, atol=1e-10)
    assert vals.min() > -1e-10


def test_connection_dict_keys_are_grid_indices():
    # with break points [0, .5, 1, 2] the key 2 names the break point 1.0,
    # not the location 2.0 (the domain end)
    part = build_extended_partition([0.0, 0.5, 1.0, 2.0], [1, 1], 3)
    secs = [make_section("polynomial", None, (part.grid[j], part.grid[j + 1]), 3)
            for j in range(part.num_sections)]
    M = [[1.0, 0.0], [0.0, 2.0]]
    by_index = make_spline_space(part, secs, {2: M})
    by_location = make_spline_space(part, secs, [(1.0, M)])
    assert list(by_index.connections) == [2]
    assert np.array_equal(by_index.connections[2], by_location.connections[2])
    xs = np.linspace(0.0, 2.0, 50)
    assert np.array_equal(sample_basis(by_index, xs), sample_basis(by_location, xs))

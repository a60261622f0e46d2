import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chebspline import (InvalidSectionError, load_object, make_section,
                        split_section)
from chebspline.refine import _default_target
from chebspline.sections import (FAMILIES, antiderivative_generator, end_jets,
                                 eval_generator)
from conftest import DESCRIPTORS


def test_make_trig_section_shift_map():
    sec = make_section("trigonometric", {"theta": 2.0}, (0.0, 0.25), 3, "shift")
    assert sec.order == 3
    # generators are {1, cos 2t, sin 2t} with t = x - 0
    x = 0.2
    assert_allclose(eval_generator(sec, 1, 0, x), 1.0)
    assert_allclose(eval_generator(sec, 2, 0, x), math.cos(2 * x))
    assert_allclose(eval_generator(sec, 3, 0, x), math.sin(2 * x))


def test_make_constant_section():
    sec = make_section("polynomial", None, (0.0, 1.0), 1)
    assert_allclose(eval_generator(sec, 1, 0, 0.7), 1.0)


def test_trig_frequency_bound_rejected():
    with pytest.raises(InvalidSectionError):
        make_section("trigonometric", {"theta": 4.0}, (0.0, 1.0), 3)


@pytest.mark.parametrize("family, params", [
    ("hyperbolic", {"phi": math.inf}),
    ("trigonometric", {"theta": math.nan}),
    ("variable-degree", {"n1": 4.0, "n2": -math.inf})])
def test_non_finite_parameters_rejected(family, params):
    with pytest.raises(InvalidSectionError, match="must be finite"):
        make_section(family, params, (0.0, 1.0), 4)


def test_eval_generator_polynomial_derivative():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    # D t^2 = 2t at t = 1/2
    assert_allclose(eval_generator(sec, 3, 1, 0.5), 1.0)


def test_eval_generator_trig_at_zero():
    sec = make_section("trigonometric", {"theta": 2.0}, (0.0, 0.25), 3, "shift")
    assert_allclose(eval_generator(sec, 2, 0, 0.0), 1.0)


def test_eval_generator_rational_tension_at_one():
    sec = make_section("rational-tension", {"nu": 4.0}, (0.0, 1.0), 4)
    # t^3 / (1 + (nu-3)(1-t)t) equals 1 at t = 1
    assert_allclose(eval_generator(sec, 4, 0, 1.0), 1.0)


def test_eval_generator_out_of_interval():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    with pytest.raises(InvalidSectionError):
        eval_generator(sec, 2, 0, 1.5)


def test_eval_generator_index_out_of_range():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    with pytest.raises(InvalidSectionError):
        eval_generator(sec, 4, 0, 0.5)


def test_antiderivative_constant():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    assert_allclose(antiderivative_generator(sec, 1, 1.0), 1.0)


def test_antiderivative_trig_closed_form():
    sec = make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 3, "shift")
    x = math.pi / 8
    assert_allclose(antiderivative_generator(sec, 2, x), math.sin(2 * x) / 2.0,
                    rtol=1e-12)


def test_antiderivative_vanishes_at_left_end():
    for fam, params in [("polynomial", None),
                        ("trigonometric", {"theta": 1.0}),
                        ("hyperbolic", {"phi": 2.0})]:
        sec = make_section(fam, params, (0.25, 0.75), 3)
        for h in range(1, 4):
            assert antiderivative_generator(sec, h, 0.25) == 0.0


def test_antiderivative_matches_quadrature():
    from scipy.integrate import quad
    sec = make_section("hyperbolic", {"phi": 3.0}, (0.0, 0.5), 4, "normalized")
    for h in range(1, 5):
        ref, _ = quad(lambda x: eval_generator(sec, h, 0, x), 0.0, 0.4)
        assert_allclose(antiderivative_generator(sec, h, 0.4), ref, atol=1e-10)


def test_split_trig_reparametrize_halves_theta():
    sec = make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 3,
                       "normalized")
    left, right = split_section(sec, 0.5, "reparametrize")
    assert_allclose(left.params["theta"], 1.0)
    assert_allclose(right.params["theta"], 1.0)
    assert left.interval == (0.0, 0.5) and right.interval == (0.5, 1.0)


def test_split_rational_tension_restrict_keeps_generators():
    sec = make_section("rational-tension", {"nu": 4.0}, (0.0, 1.0), 4)
    left, right = split_section(sec, 0.5, "restrict")
    x = 0.3
    for h in range(1, 5):
        assert_allclose(eval_generator(left, h, 0, x),
                        eval_generator(sec, h, 0, x), rtol=1e-14)
    x = 0.8
    for h in range(1, 5):
        assert_allclose(eval_generator(right, h, 0, x),
                        eval_generator(sec, h, 0, x), rtol=1e-14)


def test_split_rational_tension_rejects_reparametrize():
    sec = make_section("rational-tension", {"nu": 4.0}, (0.0, 1.0), 4)
    with pytest.raises(InvalidSectionError):
        split_section(sec, 0.5, "reparametrize")


def test_split_polynomial_same_order_both_strategies():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    for strategy in ("restrict", "reparametrize"):
        left, right = split_section(sec, 0.3, strategy)
        assert left.order == right.order == 3
        assert left.family == right.family == "polynomial"


def test_split_requires_strict_interior_point():
    sec = make_section("polynomial", None, (0.0, 1.0), 3)
    for bad in (0.0, 1.0, 1.4):
        with pytest.raises(InvalidSectionError):
            split_section(sec, bad)


def test_restricted_pieces_stay_in_parent_space():
    # every parent generator restricted to a child interval must be exactly
    # representable in the child's span; check by collocation least squares
    parent = make_section("trigonometric", {"theta": 2.5}, (0.0, 1.0), 5,
                          "normalized")
    for strategy in ("restrict", "reparametrize"):
        left, right = split_section(parent, 0.4, strategy)
        for child in (left, right):
            xs = np.linspace(child.interval[0], child.interval[1], 40)
            A = np.array([[eval_generator(child, h, 0, x)
                           for h in range(1, 6)] for x in xs])
            for h in range(1, 6):
                y = np.array([eval_generator(parent, h, 0, x) for x in xs])
                _, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
                resid = np.linalg.norm(A @ np.linalg.lstsq(A, y, rcond=None)[0] - y)
                assert resid < 1e-9


# -- jets --------------------------------------------------------------------
# The generators of each family, and each derivative order written out on
# its own: the arithmetic every jet row must reproduce bit for bit.

HALF_PI = 0.5 * math.pi


def _generators(family, params, m):
    # every family's entry is built; parameters it lacks read 1
    p = {"theta": 1.0, "phi": 1.0, "nu": 1.0, "n1": 1.0, "n2": 1.0, **(params or {})}
    mono = [("mono", k) for k in range(m)]
    th = p["theta"]
    trig = [("trig", th, 0.0), ("trig", th, -HALF_PI)]
    hyp = [("hyp", p["phi"], "cosh"), ("hyp", p["phi"], "sinh")]
    return {
        "polynomial": mono,
        "trigonometric": mono[:m - 2] + trig,
        "hyperbolic": mono[:m - 2] + hyp,
        "mixed": mono[:m - 4] + trig + hyp,
        "trig-envelope": mono[:m - 4] + trig
        + [("ttrig", th, 0.0), ("ttrig", th, -HALF_PI)],
        "rational-tension": mono[:2] + [("rat", p["nu"], True),
                                        ("rat", p["nu"], False)],
        "multi-frequency-trig": mono[:1] + trig
        + [("trig", 2.0 * th, 0.0), ("trig", 2.0 * th, -HALF_PI)],
        "variable-degree": mono[:m - 2] + [("pow", float(p["n1"]), True),
                                           ("pow", float(p["n2"]), False)],
    }[family]


def _order_r(gen, r, t):
    t = np.asarray(t, dtype=float)
    kind = gen[0]
    if kind == "mono":
        k = gen[1]
        if r > k:
            return np.zeros_like(t)
        return math.perm(k, r) * t ** (k - r)
    if kind == "trig":
        th, p = gen[1:]
        return th ** r * np.cos(th * t + p + r * HALF_PI)
    if kind == "ttrig":
        th, p = gen[1:]
        out = t * th ** r * np.cos(th * t + p + r * HALF_PI)
        if r >= 1:
            out = out + r * th ** (r - 1) * np.cos(th * t + p + (r - 1) * HALF_PI)
        return out
    if kind == "hyp":
        phi, fn = gen[1:]
        use_cosh = (r % 2 == 0) == (fn == "cosh")
        return phi ** r * (np.cosh if use_cosh else np.sinh)(phi * t)
    if kind == "pow":
        n, mirror = gen[1:]
        if n.is_integer() and r > int(n):
            return np.zeros_like(t)
        c = 1.0
        for j in range(r):
            c *= n - j
        sign = (-1.0) ** r if mirror else 1.0
        with np.errstate(divide="ignore"):
            if not mirror:
                return sign * c * t ** (n - r)
            # (1-t)**e by the pow of one float64, point by point
            base = np.atleast_1d(1.0 - t)
            power = np.array([b ** (n - r) for b in base]).reshape(t.shape)
            return sign * c * power
    assert kind == "rat"
    nu, mirror = gen[1:]
    k = nu - 3.0
    num = np.array([1.0, -3.0, 3.0, -1.0] if mirror else [0.0, 0.0, 0.0, 1.0])
    poly = np.polynomial.polynomial

    def qder(s):
        if s == 0:
            return poly.polyval(t, np.array([1.0, k, -k]))
        if s == 1:
            return k - 2.0 * k * t
        return np.full_like(t, -2.0 * k) if s == 2 else np.zeros_like(t)

    fs = []
    for rr in range(r + 1):
        acc = (poly.polyval(t, poly.polyder(num, rr) if rr else num)
               if rr <= 3 else np.zeros_like(t)).astype(float)
        for s in range(rr):
            acc -= math.comb(rr, s) * fs[s] * qder(rr - s)
        fs.append(acc / qder(0))
    return fs[r]


JET_SECTIONS = [
    ("polynomial", None, 4, None),
    ("trigonometric", {"theta": 2.0}, 4, None),
    ("hyperbolic", {"phi": 3.0}, 3, None),
    ("mixed", {"theta": 1.5, "phi": 2.5}, 6, None),
    ("trig-envelope", {"theta": 3.0}, 5, None),
    ("rational-tension", {"nu": 3.0}, 4, None),
    ("rational-tension", {"nu": 7.5}, 4, None),
    ("multi-frequency-trig", {"theta": 1.2}, 5, None),
    ("variable-degree", {"n1": 5.0, "n2": 7.0}, 4, None),
    ("variable-degree", {"n1": 3.5, "n2": 4.25}, 4, None),
    ("mixed", {"theta": 1.5, "phi": 2.5}, 5, "normalized"),
]


@pytest.mark.parametrize("family, params, order, lmap", JET_SECTIONS)
def test_jet_rows_are_the_one_order_formulas(family, params, order, lmap):
    sec = make_section(family, params, (0.3, 0.9), order, lmap)
    gens = _generators(family, params, order)
    lo, hi = sec.interval
    rng = np.random.default_rng(order)
    xs = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 998)), [hi]])
    for x in (lo, hi, xs):
        t = sec.to_local(x)
        for R in range(order + 3):
            J = sec.jet(R, x)
            assert J.shape == (R + 1, order) + np.shape(x)
            for r in range(R + 1):
                want = np.array([sec.scale ** r * _order_r(g, r, t) for g in gens],
                                dtype=float)
                assert J[r].tobytes() == want.tobytes(), (x, R, r)
                assert sec.eval_all(r, x).tobytes() == want.tobytes()


# orders each family is drawn at, and its parameters for a local length
ORDERS = {"polynomial": (1, 7), "mixed": (5, 8), "trig-envelope": (5, 8),
          "rational-tension": (4, 5), "multi-frequency-trig": (5, 6)}


def random_params(rng, family, m, local):
    theta = rng.uniform(0.05, 0.99) * math.pi / local   # theta * local < pi
    phi = rng.uniform(0.1, 5.0) / local
    if family == "variable-degree":     # whole or fractional, >= m - 2
        n1, n2 = (float(rng.integers(m - 2, m + 6)) if rng.uniform() < 0.5
                  else rng.uniform(m - 2, m + 5) for _ in range(2))
        return {"n1": n1 + 0.5 if n1 == n2 == m - 2 else n1, "n2": n2}
    if family == "rational-tension":
        return {"nu": 3.0 if rng.uniform() < 0.2 else rng.uniform(3.0, 12.0)}
    return {"polynomial": None, "trigonometric": {"theta": theta},
            "hyperbolic": {"phi": phi}, "mixed": {"theta": theta, "phi": phi},
            "trig-envelope": {"theta": 2.0 * theta},
            "multi-frequency-trig": {"theta": theta}}[family]


def random_sections(rng, family, count):
    """count valid sections of one family on random intervals of length
    1e-3 to 2, under both local maps where the family allows both."""
    free = FAMILIES[family].affine_invariant
    out = []
    for _ in range(count):
        x0, h = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 0.3)
        lmap = ("shift", "normalized")[rng.integers(2)] if free else "normalized"
        m = int(rng.integers(*ORDERS.get(family, (3, 7))))
        params = random_params(rng, family, m, h if lmap == "shift" else 1.0)
        out.append(make_section(family, params, (x0, x0 + h), m, lmap))
    return out


def test_end_jets_are_the_jets_at_each_end():
    # the table build's end jets, all families in one call, against one
    # jet per section end
    rng = np.random.default_rng(2016)
    secs = [sec for family in FAMILIES
            for sec in random_sections(rng, family, 200)]
    jets = end_jets(secs, [sec.interval for sec in secs])
    for sec, J in zip(secs, jets):
        assert J.shape == (2, sec.order, sec.order)
        for end, x in enumerate(sec.interval):
            assert J[end].tobytes() == sec.jet(sec.order - 1, x).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_random_sections_are_the_one_order_formulas(family):
    rng = np.random.default_rng(len(family))
    for sec in random_sections(rng, family, 20):
        gens = _generators(family, sec.params, sec.order)
        x0, x1 = sec.interval
        xs = np.concatenate([[x0], rng.uniform(x0, x1, 998), [x1]])
        t = sec.to_local(xs)
        for r in range(sec.order):
            want = np.array([sec.scale ** r * _order_r(g, r, t) for g in gens],
                            dtype=float)
            assert sec.eval_all(r, xs).tobytes() == want.tobytes(), r


def test_batched_variable_degree_values_are_the_one_point_ones():
    # whole and fractional exponents: values at many points at once equal
    # the values at each point on its own, bit for bit
    rng = np.random.default_rng(22)
    secs = random_sections(rng, "variable-degree", 200)
    assert any(not float(sec.params["n1"]).is_integer() for sec in secs)
    assert any(float(sec.params["n1"]).is_integer() for sec in secs)
    for sec in secs:
        x0, x1 = sec.interval
        xs = np.concatenate([[x0], rng.uniform(x0, x1, 30), [x1]])
        for r in range(sec.order):
            want = np.array([sec.eval_all(r, x) for x in xs]).T
            assert sec.eval_all(r, xs).tobytes() == want.tobytes(), (sec, r)


def test_plain_cubic_antiderivative_of_rational_tension():
    # nu = 3 leaves q = 1: the generators are (1-t)**3 and t**3
    x0, x1 = 0.2, 1.1
    sec = make_section("rational-tension", {"nu": 3.0}, (x0, x1), 4)
    xs = np.linspace(x0, x1, 7)
    t, h = (xs - x0) / (x1 - x0), x1 - x0
    assert_allclose(antiderivative_generator(sec, 3, xs),
                    h * (1.0 - (1.0 - t) ** 4) / 4.0, rtol=1e-14, atol=1e-16)
    assert_allclose(antiderivative_generator(sec, 4, xs), h * t ** 4 / 4.0,
                    rtol=1e-14, atol=1e-16)


def test_degenerate_variable_degree_rejected():
    # n1 = n2 = order-2 = 4: (1-t)**4 - t**4 is a cubic, so the six
    # generators span only the polynomials of degree 4
    with pytest.raises(InvalidSectionError, match="dependent"):
        make_section("variable-degree", {"n1": 4, "n2": 4}, (0.0, 1.0), 6)
    make_section("variable-degree", {"n1": 4, "n2": 5}, (0.0, 1.0), 6)


def test_fractional_variable_degree_section_must_stay_in_the_unit_interval():
    # continued across a multiplicity-0 break point with its neighbour's
    # anchor and scale, the section reads t in [1, 1.64], where (1-t)**5.5
    # is NaN: that section is refused, a whole exponent is not
    left = make_section("variable-degree", {"n1": 5.5, "n2": 7}, (0.0, 1.0), 4)
    with pytest.raises(InvalidSectionError, match="leaves"):
        make_section("variable-degree", {"n1": 5.5, "n2": 7}, (1.0, 1.64), 4,
                     anchor=left.anchor, scale=left.scale)
    with pytest.raises(InvalidSectionError, match="leaves"):
        make_section("variable-degree", {"n1": 5, "n2": 7.5}, (-0.2, 0.5), 4,
                     anchor=0.0, scale=1.0)
    make_section("variable-degree", {"n1": 5, "n2": 7}, (1.0, 1.64), 4,
                 anchor=left.anchor, scale=left.scale)


def test_library_made_variable_degree_sections_stay_in_the_unit_interval():
    # the normalized map, restrict splits and their elevation targets, and
    # the committed descriptors
    rng = np.random.default_rng(40)
    for _ in range(300):
        x0 = rng.uniform(-5.0, 5.0)
        x1 = x0 + rng.uniform(1e-3, 3.0)
        n1, n2 = rng.uniform(4.0, 9.0, 2)      # fractional, targets exist
        sec = make_section("variable-degree", {"n1": n1, "n2": n2}, (x0, x1), 4)
        cut = rng.uniform(x0, x1)
        for half in split_section(sec, cut):
            for r in (1, 2):
                _default_target(half, r)
    for path in sorted(DESCRIPTORS.glob("*.json")):
        load_object(path)


def test_antiderivative_of_an_array():
    sec = make_section("trigonometric", {"theta": 2.0}, (0.0, 1.0), 4)
    xs = np.array([0.1, 0.5, 0.9])
    for h in range(1, 5):
        vals = antiderivative_generator(sec, h, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        assert_allclose(vals, [antiderivative_generator(sec, h, float(x))
                               for x in xs], rtol=1e-14)
        assert isinstance(antiderivative_generator(sec, h, 0.5), float)

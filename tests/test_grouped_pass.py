"""The grouped read path of the batched samplers against the per-interval
loop it replaced, byte for byte: sample_basis, sample_transitions and
sample_spline (r = 0, 1, 2) on every committed descriptor and on generated
spaces of every family at orders 3 to 5, multi-order spaces, connection
matrices and zero multiplicities; integrate_spline against its weight
loop."""
import numpy as np
import pytest

from chebspline import (Spline, TensorSurface, build_extended_partition,
                        build_multiorder_space, eval_spline_derivative,
                        integrate_spline, load_object, make_section,
                        make_spline_space, sample_basis, sample_spline,
                        sample_transitions, sections)
from chebspline.basis import _row_values
from chebspline.partition import _interval_index

from conftest import DESCRIPTORS


# ---------------------------------------------------------------------------
# the per-interval loop: one section evaluation, one block and one matrix
# product per grid interval holding points
# ---------------------------------------------------------------------------

def rows_per_interval(space, xs, r=0):
    table = space.table
    js = _interval_index(table.grid, xs, "right", space.a, space.b)
    order = np.argsort(js, kind="stable")
    found, starts = np.unique(js[order], return_index=True)
    for j, idx in zip(found, np.split(order, starts[1:])):
        lo, P = table._block(j)
        yield idx, lo, _row_values(P, table.sections[j].eval_all(r, xs[idx]))


def differences(V, head=1.0):
    pad = np.zeros((1, V.shape[1]))
    F = np.concatenate([pad + head, V, pad])
    return F[:-1] - F[1:]


def basis_loop(space, xs):
    out = np.zeros((len(xs), space.dim))
    for idx, lo, V in rows_per_interval(space, xs):
        out[idx, lo - 2:lo - 1 + len(V)] = differences(V).T
    return out


def transitions_loop(space, xs):
    out = np.zeros((len(xs), space.dim - 1))
    for idx, lo, V in rows_per_interval(space, xs):
        out[idx, :lo - 2] = 1.0
        out[idx, lo - 2:lo - 2 + len(V)] = V.T
    return out


def spline_loop(spline, xs, r=0):
    c = spline.coefficients
    out = np.zeros((len(xs), spline.dim_target))
    for idx, lo, V in rows_per_interval(spline.space, xs, r):
        out[idx] = differences(V, 1.0 if r == 0 else 0.0).T @ c[lo - 2:lo - 1 + len(V)]
    return out


def integral_loop(spline, x0, x1):
    """integrate_spline with its rows and weights taken one at a time."""
    space = spline.space
    table = space.table
    grid = table.grid
    j0, j1 = _interval_index(grid, np.array([x0, x1]), "right",
                             space.a, space.b).tolist()
    first = table._block(j0)[0] - 1
    hi, alive = table._block(j1)
    I = np.array([x1 - x0 if i == 1 else 0.0 if i == table.dim + 1
                  else max(0.0, x1 - max(x0, table.rows[i].stop))
                  for i in range(first, hi + len(alive) + 1)])
    for j in range(j0, j1 + 1):
        u, v = max(x0, grid[j]), min(x1, grid[j + 1])
        if u < v:
            lo, P = table._block(j)
            sec = table.sections[j]
            vals = sec.integral_all(v) - sec.integral_all(u)
            I[lo - first:lo - first + len(P)] += _row_values(P, vals[:, None])[:, 0]
    w = I[:-1] - I[1:]
    out = np.zeros(spline.dim_target)
    for k in np.flatnonzero(w):
        out += w[k] * spline.coefficients[first + k - 1]
    return out


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

FAMILIES_BY_ORDER = {
    3: ("polynomial", "trigonometric", "hyperbolic", "variable-degree"),
    4: ("polynomial", "trigonometric", "hyperbolic", "variable-degree",
        "rational-tension"),
    5: ("polynomial", "trigonometric", "hyperbolic", "variable-degree",
        "mixed", "trig-envelope", "multi-frequency-trig"),
}


def random_section(rng, family, interval, m):
    """A valid section; variable-degree exponents are fractional."""
    h = interval[1] - interval[0]
    theta = rng.uniform(0.3, 0.9) * np.pi / h
    params = {"polynomial": {},
              "trigonometric": {"theta": theta},
              "hyperbolic": {"phi": rng.uniform(0.5, 2.0) / h},
              "mixed": {"theta": theta, "phi": rng.uniform(0.5, 2.0) / h},
              "trig-envelope": {"theta": theta},
              "multi-frequency-trig": {"theta": theta},
              "rational-tension": {"nu": rng.uniform(3.0, 9.0)},
              # above 2, so that D^2 stays bounded at the ends
              "variable-degree": {"n1": rng.uniform(m - 0.5, m + 2.0),
                                  "n2": rng.uniform(m - 0.5, m + 2.0)}}[family]
    return make_section(family, params, interval, m)


def breakpoints(rng, K):
    gaps = rng.uniform(0.5, 1.5, K + 1)
    bp = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    bp[-1] = 1.0
    return bp


def cycling_space(rng, K, m, families, mults=None, conns=None):
    """Sections cycling through families on K interior break points."""
    bp = breakpoints(rng, K)
    part = build_extended_partition(bp, mults or [1] * K, m)
    secs = [random_section(rng, families[j % len(families)],
                           (part.grid[j], part.grid[j + 1]), m)
            for j in range(part.num_sections)]
    return make_spline_space(part, secs, conns)


def zero_mult_space(rng):
    """Order 4, multiplicities 0 to 3, connection matrices at two points."""
    mults = [0, 1, 2, 0, 3, 1, 0, 1, 2, 1]
    bp = breakpoints(rng, len(mults))
    part = build_extended_partition(bp, mults, 4)
    secs = []
    for j in range(part.num_sections):
        fam = FAMILIES_BY_ORDER[4][j % 5]
        # no knot at a break point of multiplicity 0: the family and its
        # parameters continue across it
        if j and mults[j - 1] == 0:
            prev = secs[-1]
            secs.append(make_section(prev.family, prev.params,
                                     (part.grid[j], part.grid[j + 1]), 4))
        else:
            secs.append(random_section(rng, fam, (part.grid[j], part.grid[j + 1]), 4))
    conns = [(float(bp[2]), [[1.0, 0.0, 0.0], [0.0, 1.3, 0.0], [0.0, -0.4, 0.8]]),
             (float(bp[6]), [[1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.5, 1.6]])]
    return make_spline_space(part, secs, conns)


def multiorder_space(rng, nsec):
    bp = breakpoints(rng, nsec - 1)
    secs, orders = [], []
    for j in range(nsec):
        m = int(rng.integers(2, 6))
        fams = FAMILIES_BY_ORDER.get(m, ("polynomial",))
        secs.append(random_section(rng, fams[int(rng.integers(len(fams)))],
                                   (bp[j], bp[j + 1]), m))
        orders.append(m)
    conts = [int(rng.integers(0, min(orders[i], orders[i + 1])))
             for i in range(nsec - 1)]
    return build_multiorder_space(secs, conts)


def generated():
    rng = np.random.default_rng(38)
    for m, families in FAMILIES_BY_ORDER.items():
        for fam in families:
            yield f"{fam}-m{m}-K1", cycling_space(rng, 1, m, (fam,))
        for K in (10, 100, 1000):
            yield f"all-m{m}-K{K}", cycling_space(rng, K, m, families)
    yield "zero-mult-connections", zero_mult_space(rng)
    for nsec in (3, 12, 40):
        yield f"multiorder-{nsec}", multiorder_space(rng, nsec)


def committed():
    for path in sorted(DESCRIPTORS.glob("*.json")):
        obj = load_object(path)
        if isinstance(obj, Spline):
            yield path.stem, obj.space
        elif isinstance(obj, TensorSurface):
            yield path.stem + "-u", obj.u_space
            yield path.stem + "-v", obj.v_space
        else:
            yield path.stem, obj


SPACES = [pytest.param(space, id=name)
          for name, space in [*committed(), *generated()]]


def point_sets(space, rng):
    """Sorted, unsorted and duplicate points; a, b and every break point;
    an empty array; a point alone in each of some intervals, none in the
    others; many points in one interval."""
    a, b = space.a, space.b
    grid = space.table.grid
    inner = grid[(grid >= a) & (grid <= b)]
    mids = 0.5 * (inner[:-1] + inner[1:])
    dense = np.linspace(a, b, 301)
    return [dense, rng.permutation(np.concatenate([dense, inner])),
            np.repeat(rng.uniform(a, b, 7), 3), np.array([]), np.array([a]),
            np.array([b]), inner, mids[::3],
            np.concatenate([mids[::2], np.full(5, mids[0])]),
            rng.uniform(inner[0], inner[1], 2000)]


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("space", SPACES)
def test_grouped_pass_is_the_interval_loop_bit_for_bit(space):
    rng = np.random.default_rng(space.dim)
    for xs in point_sets(space, rng):
        assert same_bytes(sample_basis(space, xs), basis_loop(space, xs))
        assert same_bytes(sample_transitions(space, xs), transitions_loop(space, xs))
        for d in (1, 2):
            spline = Spline(space, rng.uniform(-1.0, 1.0, (space.dim, d)))
            for r in (0, 1, 2):
                assert same_bytes(sample_spline(spline, xs, r),
                                  spline_loop(spline, xs, r)), (len(xs), d, r)


@pytest.mark.parametrize("space", SPACES)
def test_a_lone_point_reads_eval_spline_derivative(space):
    # one point in every other interval: each is alone in its interval
    rng = np.random.default_rng(space.dim)
    grid = space.table.grid
    inner = grid[(grid >= space.a) & (grid <= space.b)]
    xs = (inner[:-1] + rng.uniform(0.1, 0.9, len(inner) - 1) * np.diff(inner))[::2]
    for d in (1, 2):
        spline = Spline(space, rng.uniform(-1.0, 1.0, (space.dim, d)))
        for r in (0, 1, 2):
            want = np.array([eval_spline_derivative(spline, r, float(x)) for x in xs])
            assert same_bytes(sample_spline(spline, xs, r), want.reshape(len(xs), d))


def test_parameter_powers_are_taken_once_per_interval(monkeypatch):
    # a parameter given per point reaches pow once per run of equal values,
    # so at most once per interval holding points, not once per point
    rng = np.random.default_rng(5)
    space = cycling_space(rng, 10, 5, FAMILIES_BY_ORDER[5])
    spline = Spline(space, rng.uniform(-1.0, 1.0, (space.dim, 2)))
    xs = np.linspace(space.a, space.b, 3000)
    pow_, runs = sections._pow, sections._runs
    inside, arrays, counts = [False], [], []

    def pow_spy(p, r):
        if isinstance(p, np.ndarray) and r > 1 and p.size >= sections._RUNS_FROM:
            arrays.append(p.size)
        inside[0] = True
        try:
            return pow_(p, r)
        finally:
            inside[0] = False

    def runs_spy(values):
        out = runs(values)
        if inside[0]:
            counts.append(len(out[0]))
        return out

    monkeypatch.setattr(sections, "_pow", pow_spy)
    monkeypatch.setattr(sections, "_runs", runs_spy)
    got = sample_spline(spline, xs, 2)
    assert got.tobytes() == spline_loop(spline, xs, 2).tobytes()
    assert max(arrays) > space.partition.num_sections
    assert len(counts) == len(arrays)
    assert max(counts) <= space.partition.num_sections
    assert runs(np.array([0.5, 0.5, 2.0, -0.0, 0.0])) == \
        ([0.5, 2.0, -0.0, 0.0], [0, 2, 3, 4, 5])


@pytest.mark.parametrize("space", [p for p in SPACES if "K1000" not in p.id])
def test_integral_is_the_weight_loop(space):
    grid = space.table.grid
    inner = grid[(grid >= space.a) & (grid <= space.b)]
    rng = np.random.default_rng(space.dim)
    bounds = [(space.a, space.b), (space.a, space.a), (space.b, space.b),
              (inner[0], inner[-2]), (inner[1], inner[-1])]
    bounds += [tuple(np.sort(rng.uniform(space.a, space.b, 2)).tolist())
               for _ in range(6)]
    for d in (1, 2):
        spline = Spline(space, rng.uniform(-1.0, 1.0, (space.dim, d)))
        for x0, x1 in bounds:
            assert integrate_spline(spline, x0, x1).tobytes() == \
                integral_loop(spline, x0, x1).tobytes()

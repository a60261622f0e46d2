"""The batched samplers and the scalar entry points against per-function
TransitionTable.eval, on every committed descriptor: single-order,
multi-order, periodic spaces and both directions of the surface; batched
derivatives against the scalar path."""
import numpy as np
import pytest
from numpy.testing import assert_array_equal

from chebspline import (PartitionError, Spline, TensorSurface,
                        eval_nonzero_basis, eval_spline_derivative, load_object,
                        sample_basis, sample_spline, sample_transitions)

from conftest import DESCRIPTORS

EPS = np.finfo(float).eps

OBJECTS = [(path.stem, load_object(path))
           for path in sorted(DESCRIPTORS.glob("*.json"))]


def spaces():
    for name, obj in OBJECTS:
        if isinstance(obj, Spline):
            yield name, obj.space
        elif isinstance(obj, TensorSurface):
            yield name + "-u", obj.u_space
            yield name + "-v", obj.v_space
        else:
            yield name, obj


CASES = [pytest.param(space, id=name) for name, space in spaces()]
SPLINES = [pytest.param(obj, id=name) for name, obj in OBJECTS
           if isinstance(obj, Spline)]


def break_points(space):
    grid = space.table.grid
    return grid[(grid >= space.a) & (grid <= space.b)]


def samples(space):
    return np.union1d(np.linspace(space.a, space.b, 301), break_points(space))


def side(space, x):
    return "left" if x == space.b else "right"


def within_condition(got, want, space):
    tol = 32 * space.table.max_condition * EPS
    return np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("space", CASES)
def test_batched_samplers_match_per_function_eval(space):
    table = space.table
    xs = samples(space)
    f = np.array([[table.eval(i, x, 0, side(space, x))
                   for i in range(1, space.dim + 2)] for x in xs])
    for got, want in ((sample_basis(space, xs), f[:, :-1] - f[:, 1:]),
                      (sample_transitions(space, xs), f[:, 1:-1])):
        assert got.shape == want.shape
        assert within_condition(got, want, space)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("space", CASES)
def test_batched_derivatives_are_the_scalar_ones(space, r):
    # unit coefficients make sample_spline the matrix of D^r N_i; only the
    # powers of variable-degree sections round differently on arrays
    xs = samples(space)
    got = sample_spline(Spline(space, np.eye(space.dim)), xs, r)
    want = np.zeros_like(got)
    for k, x in enumerate(xs):
        lo, vals = eval_nonzero_basis(space, x, r, side(space, x))
        want[k, lo - 1:lo - 1 + len(vals)] = vals
    if any(sec.family == "variable-degree" for sec in space.table.sections):
        assert within_condition(got, want, space)
    else:
        assert_array_equal(got, want)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("spline", SPLINES)
def test_sampled_spline_derivatives_match_the_scalar_path(spline, r):
    # one matrix product per interval against one per point
    space = spline.space
    xs = samples(space)
    want = np.array([eval_spline_derivative(spline, r, x, side(space, x))
                     for x in xs])
    assert within_condition(sample_spline(spline, xs, r), want, space)


@pytest.mark.parametrize("space", CASES)
def test_nonzero_basis_is_exact_difference_of_rows(space):
    table = space.table
    bps = break_points(space)
    xs = np.union1d(bps, 0.5 * (bps[:-1] + bps[1:]))
    for x in xs:
        for side in ("left", "right"):
            if (x == space.a and side == "left") or (x == space.b and side == "right"):
                continue
            for r in range(table.order):
                lo, vals = eval_nonzero_basis(space, x, r, side)
                got = np.zeros(space.dim)
                got[lo - 1:lo - 1 + len(vals)] = vals
                f = [table.eval(i, x, r, side) for i in range(1, space.dim + 2)]
                assert_array_equal(got, np.subtract(f[:-1], f[1:]))


def test_transition_index_out_of_range_raises():
    space = next(iter(CASES)).values[0]
    table = space.table
    x = 0.5 * (space.a + space.b)
    for i in (0, space.dim + 2):
        with pytest.raises(PartitionError):
            table.eval(i, x)

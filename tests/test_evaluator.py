"""The batched samplers and the scalar entry points against per-function
TransitionTable.eval, on every committed descriptor: single-order,
multi-order, periodic spaces and both directions of the surface."""
import numpy as np
import pytest
from numpy.testing import assert_array_equal

from chebspline import (PartitionError, Spline, TensorSurface,
                        eval_nonzero_basis, load_object, sample_basis,
                        sample_transitions)

from conftest import DESCRIPTORS

EPS = np.finfo(float).eps


def spaces():
    for path in sorted(DESCRIPTORS.glob("*.json")):
        obj = load_object(path)
        if isinstance(obj, Spline):
            yield path.stem, obj.space
        elif isinstance(obj, TensorSurface):
            yield path.stem + "-u", obj.u_space
            yield path.stem + "-v", obj.v_space
        else:
            yield path.stem, obj


CASES = [pytest.param(space, id=name) for name, space in spaces()]


def break_points(space):
    grid = space.table.grid
    return grid[(grid >= space.a) & (grid <= space.b)]


@pytest.mark.parametrize("space", CASES)
def test_batched_samplers_match_per_function_eval(space):
    table = space.table
    xs = np.union1d(np.linspace(space.a, space.b, 301), break_points(space))
    f = np.array([[table.eval(i, x, 0, "left" if x == space.b else "right")
                   for i in range(1, space.dim + 2)] for x in xs])
    tol = 32 * table.max_condition * EPS
    for got, want in ((sample_basis(space, xs), f[:, :-1] - f[:, 1:]),
                      (sample_transitions(space, xs), f[:, 1:-1])):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


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

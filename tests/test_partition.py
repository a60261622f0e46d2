import numpy as np
import pytest
from numpy.testing import assert_allclose

from chebspline import PartitionError, build_extended_partition, partition_from_knots


def mixed_partition():
    # breakpoints (0, 1/4, 1/2, 1), interior multiplicities (2, 1), order 6
    return build_extended_partition([0.0, 0.25, 0.5, 1.0], [2, 1], 6)


def test_mixed_knot_vector():
    part = mixed_partition()
    assert_allclose(part.knots, [0, 0, 0, 0, 0, 0, 0.25, 0.25, 0.5,
                                 1, 1, 1, 1, 1, 1])
    assert part.K == 3
    assert part.dim == 9


def test_bernstein_case():
    part = build_extended_partition([0.0, 1.0], [], 3)
    assert_allclose(part.knots, [0, 0, 0, 1, 1, 1])
    assert part.K == 0
    assert part.dim == 3


def test_zero_multiplicity_breakpoint():
    part = build_extended_partition([0.0, 1.0, 2.0, 3.0, 4.0], [1, 0, 1], 4)
    # mu = 0 keeps the point in the grid but out of the knot vector
    assert_allclose(part.knots, [0, 0, 0, 0, 1, 3, 4, 4, 4, 4])
    assert_allclose(part.grid, [0, 1, 2, 3, 4])
    assert part.dim == 6


def test_end_multiplicities_repeated_interior():
    part = mixed_partition()
    muL, muR = part.end_multiplicities(7)
    assert muR == 2
    # continuity order k = m - mu - 1
    assert part.order - muR - 1 == 3


def test_end_multiplicities_clamped_left():
    for m in (2, 4, 6):
        part = build_extended_partition([0.0, 1.0], [], m)
        assert part.end_multiplicities(1)[1] == m


def test_end_multiplicities_simple_knot():
    part = build_extended_partition([0.0, 0.5, 1.0], [1], 4)
    # knots 0 0 0 0 0.5 1 1 1 1: the simple knot 0.5 is t_5
    assert part.knot(5) == 0.5
    muL, muR = part.end_multiplicities(5)
    assert muL == muR == 1
    assert part.order - 1 - muR == 2


def test_end_multiplicities_are_the_runs():
    # an unclamped vector with runs of every length up to the order
    knots = [-1.0, -0.5, 0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 1.5, 2.0]
    part = partition_from_knots(4, knots)
    for i, t in enumerate(knots, start=1):
        left = next(n for n in range(1, i + 1)
                    if n == i or knots[i - 1 - n] != t)
        right = next(n for n in range(1, len(knots) - i + 2)
                     if i - 1 + n == len(knots) or knots[i - 1 + n] != t)
        assert part.end_multiplicities(i) == (left, right), i


def test_round_trip():
    part = mixed_partition()
    again = build_extended_partition(part.grid,
                                     part.interior_multiplicities(),
                                     part.order)
    assert_allclose(again.knots, part.knots)
    assert_allclose(again.grid, part.grid)


def test_from_knots_matches_builder():
    part = mixed_partition()
    again = partition_from_knots(6, part.knots)
    assert_allclose(again.knots, part.knots)
    assert again.K == part.K


def test_multiplicity_cap():
    with pytest.raises(PartitionError):
        build_extended_partition([0.0, 0.5, 1.0], [5], 4)


def test_unsorted_breakpoints_rejected():
    with pytest.raises(PartitionError):
        build_extended_partition([0.0, 0.6, 0.4, 1.0], [1, 1], 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_break_points_rejected(bad):
    with pytest.raises(PartitionError, match="finite"):
        build_extended_partition([0.0, bad, 1.0], [1], 3)
    with pytest.raises(PartitionError, match="finite"):
        build_extended_partition([bad, 1.0], [], 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_knots_rejected(bad):
    with pytest.raises(PartitionError, match="finite"):
        partition_from_knots(3, [0.0, 0.0, 0.0, bad, 1.0, 1.0, 1.0])
    # a grid must span the knots, which a non-finite value cannot
    with pytest.raises(PartitionError):
        partition_from_knots(3, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                             grid=[0.0, bad, 1.0])

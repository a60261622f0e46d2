"""Raise the order of a spline, then undo an insertion by least squares.

Polynomial single-segment elevation reproduces the classical Bezier rule;
on mixed spaces the same machinery works section by section, with every
interior multiplicity growing by the number of added orders.
"""
import pathlib

import numpy as np

from chebspline import (Spline, elevate_order, insert_knot, load_object,
                        make_section, max_deviation, one_section_space,
                        remove_knot)

HERE = pathlib.Path(__file__).parent

# classical check: quadratic -> cubic on one segment
space = one_section_space(make_section("polynomial", None, (0.0, 1.0), 3))
spline = Spline(space, np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 0.5]]))
step, out = elevate_order(space, spline, 1)
print(f"quadratic -> cubic weights: {np.round(step.gammas[0], 6)}")
print(f"elevated control points:\n{np.round(out.coefficients, 6)}")

# a trig curve, two orders up
curve = load_object(HERE / "descriptors" / "trig_m4_open_curve.json")
_, lifted = elevate_order(curve.space, curve, 2)
print(f"orders {curve.space.order} -> {lifted.space.order}, "
      f"dims {curve.space.dim} -> {lifted.space.dim}, "
      f"deviation {max_deviation(curve, lifted):.2e}")
for x in curve.space.partition.grid[1:-1]:
    print(f"  multiplicity at {x}: "
          f"{curve.space.partition.multiplicity_of(float(x))} -> "
          f"{lifted.space.partition.multiplicity_of(float(x))}")

# inserting a knot and removing it again restores the spline
step, dense = insert_knot(curve.space, curve, 0.4)
_, removed, resid = remove_knot(step.space, dense, 0.4)
print(f"insert then remove at 0.4: residual {resid:.2e}, "
      f"deviation {max_deviation(curve, removed):.2e}")

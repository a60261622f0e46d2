"""Bend a curve at a break point with a connection matrix.

The committed curves share control points; only the lower-triangular matrix
tying the derivatives across x = 3/2 differs.  beta = 0 makes the joint
parametrically C2, larger |beta| folds second-derivative information into
the first-derivative direction while the basis stays a nonnegative
partition of unity.
"""
import pathlib

import numpy as np

from chebspline import (eval_spline_derivative, insert_knot, load_object,
                        sample_basis, sample_spline, svg_curve_plot, write_svg)

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

curves = {}
for tag in ("beta0", "beta14", "betam7"):
    curves[tag] = load_object(HERE / "descriptors" /
                              f"gc_trig_poly_curve_{tag}.json")

for tag, curve in curves.items():
    d1l = eval_spline_derivative(curve, 1, 1.5, "left")
    d1r = eval_spline_derivative(curve, 1, 1.5, "right")
    d2l = eval_spline_derivative(curve, 2, 1.5, "left")
    d2r = eval_spline_derivative(curve, 2, 1.5, "right")
    print(f"{tag}: D1 jump {np.max(np.abs(d1r - d1l)):.2e}, "
          f"D2 jump {np.max(np.abs(d2r - d2l)):.2e}")
    space = curve.space
    xs = np.linspace(space.a, space.b, 800)
    vals = sample_basis(space, xs)
    print(f"  basis min {vals.min():.2e}, "
          f"unity defect {np.max(np.abs(vals.sum(axis=1) - 1)):.2e}")

# knot insertion works across the matrices too
curve = curves["beta14"]
step, refined = insert_knot(curve.space, curve, 0.8)
print(f"insert at 0.8: dim {curve.space.dim} -> {step.space.dim}")

# raising the multiplicity at a matrix location spends its derivative rows
shrunk = insert_knot(curve.space, curve, 1.0)[0].space
gi = int(np.flatnonzero(np.isclose(curve.space.partition.grid, 1.0))[0])
gj = int(np.flatnonzero(np.isclose(shrunk.partition.grid, 1.0))[0])
print(f"matrix at 1.0: {curve.space.connections[gi].shape} -> "
      f"{shrunk.connections[gj].shape}")

xs = np.linspace(curve.space.a, curve.space.b, 500)
doc = svg_curve_plot([sample_spline(c, xs) for c in curves.values()])
write_svg(OUT / "gc_family.svg", doc)
print(f"wrote {OUT / 'gc_family.svg'}")

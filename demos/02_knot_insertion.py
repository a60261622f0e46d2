"""Insert knots into a trigonometric curve without moving it.

Every insertion rewrites the control points through convex weights, so the
control polygon walks toward the curve while the curve itself stays put.
"""
import pathlib

import numpy as np

from chebspline import (insert_knot, load_object, max_deviation,
                        sample_spline, svg_curve_plot, write_svg)

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

curve = load_object(HERE / "descriptors" / "trig_m4_open_curve.json")
space = curve.space
print(f"start: dim {space.dim}, breakpoints {space.partition.grid}")

refined = curve
for that in np.linspace(space.a, space.b, 9)[1:-1]:
    if space.partition.multiplicity_of(float(that)) == 0:
        step, refined = insert_knot(refined.space, refined, float(that))
        lo, hi = step.alphas.min(), step.alphas.max()
        print(f"inserted {that:.3f}: dim {step.space.dim}, "
              f"weights in [{lo:.3f}, {hi:.3f}]")

print(f"max curve deviation after refining: {max_deviation(curve, refined):.2e}")

xs = np.linspace(space.a, space.b, 400)
pts = sample_spline(curve, xs)
doc = svg_curve_plot([pts, curve.coefficients, refined.coefficients])
write_svg(OUT / "insertion_polygons.svg", doc)
print(f"wrote {OUT / 'insertion_polygons.svg'} "
      "(curve, coarse polygon, refined polygon)")

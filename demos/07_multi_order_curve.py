"""One spline, five sections, five different orders.

Each section's generator span contains one segment shape exactly: a line,
two quarter-circle arcs, a cubic, and a cardioid lobe.  The basis has one
function per left knot, so the dimension is read straight off the knot
list.
"""
import pathlib
from math import cos, pi, sin

import numpy as np

from chebspline import (load_object, sample_basis, svg_curve_plot,
                        svg_function_plot, write_svg)

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

mo = load_object(HERE / "descriptors" / "multiorder_line_circle_cardioid.json")
orders = [s.order for s in mo.sections]
print(f"section orders {orders}, dimension {len(mo.t_knots)}")
print(f"t-knots {np.asarray(mo.t_knots)}")

xs = np.linspace(mo.sections[0].interval[0], mo.sections[-1].interval[1], 800)
vals = sample_basis(mo, xs)
print(f"unity defect {np.max(np.abs(vals.sum(axis=1) - 1)):.2e}")
write_svg(OUT / "multiorder_basis.svg", svg_function_plot(xs, list(vals.T)))

th = pi / 2
two = 2 * pi / 3
shapes = [
    ("line", 0, lambda t: (0.25 + 0.5 * t, 0.1 * t)),
    ("arc", 1, lambda t: (cos(th * t), sin(th * t))),
    ("arc", 2, lambda t: (-sin(th * t), cos(th * t))),
    ("cubic", 3, lambda t: (t - 1.0, (t - 0.4) ** 3)),
    ("cardioid", 4, lambda t: (2 * cos(two * t) - cos(2 * two * t),
                               2 * sin(two * t) - sin(2 * two * t))),
]

pieces = []
for name, j, shape in shapes:
    sec = mo.sections[j]
    lo, hi = sec.interval
    ts = np.linspace(lo, hi, 60)
    A = np.array([sec.eval_all(0, x) for x in ts])
    target = np.array([shape(x - lo) for x in ts])
    sol, *_ = np.linalg.lstsq(A, target, rcond=None)
    resid = np.max(np.abs(A @ sol - target))
    print(f"{name}: representation residual {resid:.2e}")
    pieces.append(A @ sol + np.array([2.5 * j, 0.0]))

write_svg(OUT / "multiorder_segments.svg", svg_curve_plot(pieces))
print(f"wrote {OUT / 'multiorder_basis.svg'} "
      f"and {OUT / 'multiorder_segments.svg'}")

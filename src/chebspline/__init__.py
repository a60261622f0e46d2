"""Piecewise Chebyshevian splines via transition functions.

B-spline bases over sections drawn from different extended Chebyshev spaces
(polynomial, trigonometric, hyperbolic, tension, variable-degree, ..),
with knot insertion, order elevation, Bezier extraction, geometric and
multi-order continuity, and JSON/CSV/SVG plumbing.
"""

from .basis import (Spline, SplineSpace, TensorSurface, bernstein_basis,
                    eval_bspline, eval_nonzero_basis, eval_spline,
                    eval_spline_derivative, eval_surface, integrate_spline,
                    make_spline_space, one_section_space, sample_basis,
                    sample_spline, sample_surface, sample_transitions)
from .closedform import closed_form_space, eval_closed_n4
from .descriptors import (descriptor_for, load_descriptor, load_object,
                          object_from_descriptor, save_descriptor,
                          space_from_descriptor, space_to_descriptor,
                          spline_from_descriptor, spline_to_descriptor,
                          surface_from_descriptor, surface_to_descriptor)
from .errors import (ChebsplineError, ConnectionMatrixError, DescriptorError,
                     InvalidSectionError, KnotRemovalError, PartitionError,
                     RefinementError, SingularSystemError)
from .extensions import (MultiOrderSpace, QECProfile, build_multiorder_space,
                         detect_vanishing_order, qec_profile,
                         sample_multiorder_basis)
from .output import (csv_text, curvature_comb, svg_curve_plot,
                     svg_function_plot, write_csv, write_svg)
from .partition import (ExtendedPartition, build_extended_partition,
                        partition_from_knots)
from .refine import (BezierSegments, ElevationStep, RefinementStep,
                     elevate_order, insert_knot, insert_knot_right,
                     make_periodic_space, max_deviation, periodic_to_clamped,
                     remove_knot, tile_periodic_coefficients,
                     to_bezier_segments)
from .sections import (ECSection, FAMILIES, make_section, merge_sections,
                       split_section)
from .transition import (RowReport, TransitionRow, TransitionTable,
                         build_transition_table, validate_connection_matrix)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

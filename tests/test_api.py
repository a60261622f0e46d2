"""The public surface of the package, written out: adding or removing a
public name, or a public field of a result dataclass, shows up in the diff
of these lists."""

import dataclasses

import chebspline

PUBLIC = [
    "BezierSegments", "ChebsplineError", "ConnectionMatrixError",
    "DescriptorError", "ECSection", "ElevationStep", "ExtendedPartition",
    "FAMILIES", "InvalidSectionError", "KnotRemovalError",
    "MultiOrderSpace", "PartitionError", "QECProfile", "RefinementError",
    "RefinementStep", "RowReport", "SingularSystemError", "Spline",
    "SplineSpace", "TensorSurface", "TransitionRow", "TransitionTable",
    "basis", "bernstein_basis", "build_extended_partition",
    "build_multiorder_space", "build_transition_table",
    "closed_form_space", "closedform", "csv_text", "curvature_comb",
    "descriptor_for", "descriptors", "detect_vanishing_order",
    "elevate_order", "errors", "eval_bspline", "eval_closed_n4",
    "eval_nonzero_basis", "eval_spline", "eval_spline_derivative",
    "eval_surface", "extensions", "insert_knot", "insert_knot_right",
    "integrate_spline", "load_descriptor", "load_object",
    "make_periodic_space", "make_section", "make_spline_space",
    "max_deviation", "merge_sections", "object_from_descriptor",
    "one_section_space", "output", "partition", "partition_from_knots",
    "periodic_to_clamped", "qec_profile", "refine", "remove_knot",
    "sample_basis", "sample_multiorder_basis", "sample_spline",
    "sample_transitions", "save_descriptor", "sections",
    "space_from_descriptor", "space_to_descriptor",
    "spline_from_descriptor", "spline_to_descriptor", "split_section",
    "surface_from_descriptor", "surface_to_descriptor", "svg_curve_plot",
    "svg_function_plot", "tile_periodic_coefficients",
    "to_bezier_segments", "transition", "validate_connection_matrix",
    "write_csv", "write_svg",
]


def test_public_names_are_pinned():
    assert sorted(chebspline.__all__) == PUBLIC


# public fields, in order, of the dataclasses the library hands out
FIELDS = {
    "TransitionRow": ["kind", "start", "stop", "pieces"],
    "RowReport": ["size", "condition", "residual"],
    "RefinementStep": ["that", "ell", "mult", "alphas", "space", "formula",
                       "strategy"],
    "ElevationStep": ["r", "gammas", "deltas", "targets", "removal_residuals"],
    "BezierSegments": ["space", "spline", "sections", "controls", "steps"],
    "QECProfile": ["kbar_right", "kbar_left"],
    "ExtendedPartition": ["order", "knots", "grid", "a", "b"],
    "ECSection": ["family", "params", "interval", "order", "local_map",
                  "anchor", "scale"],
}


def test_public_fields_are_pinned():
    for name, fields in FIELDS.items():
        got = [f.name for f in dataclasses.fields(getattr(chebspline, name))
               if not f.name.startswith("_")]
        assert got == fields, name

"""The public surface of the package, written out: adding or removing a
public name, a public field of a result dataclass, or a parameter of a
public function, or changing a default, shows up in the diff of these
lists."""

import dataclasses
import inspect

import chebspline
from chebspline.cli import main

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
    "sample_surface", "sample_transitions", "save_descriptor", "sections",
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
    "RefinementStep": ["that", "ell", "mult", "alphas", "space"],
    "ElevationStep": ["gammas", "deltas", "targets", "removal_residuals"],
    "BezierSegments": ["space", "spline", "controls"],
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


# every public function's parameters, as its signature reads without
# annotations
PARAMETERS = {
    "bernstein_basis": "space, i, x, r=0, side='right'",
    "build_extended_partition": "breakpoints, multiplicities, order",
    "build_multiorder_space": "sections, continuities",
    "build_transition_table": "space",
    "closed_form_space": "case, knots, param",
    "csv_text": "header, columns",
    "curvature_comb": "points, d1, d2",
    "descriptor_for": "obj",
    "detect_vanishing_order": "table, i, side='left'",
    "elevate_order": "space, spline, r, target_families=None",
    "eval_bspline": "space, i, x, r=0, side='right'",
    "eval_closed_n4": "case, knots, param, i, x",
    "eval_nonzero_basis": "space, x, r=0, side='right'",
    "eval_spline": "spline, x, side='right'",
    "eval_spline_derivative": "spline, r, x, side='right'",
    "eval_surface": "surface, u, v",
    "insert_knot": "space, spline, that, strategy='restrict'",
    "insert_knot_right": "space, spline, that",
    "integrate_spline": "spline, x0, x1",
    "load_descriptor": "path",
    "load_object": "path",
    "make_periodic_space": "order, knots, base_sections, period",
    "make_section":
        "family, params, interval, order, local_map=None, *, anchor=None, scale=None",
    "make_spline_space": "partition, sections, connections=None",
    "max_deviation": "s1, s2",
    "merge_sections": "left, right",
    "object_from_descriptor": "d",
    "one_section_space": "section",
    "partition_from_knots": "order, knots, grid=None",
    "periodic_to_clamped": "space, spline",
    "qec_profile": "table",
    "remove_knot": "space, spline, that",
    "sample_basis": "space, xs",
    "sample_multiorder_basis": "space, xs",
    "sample_spline": "spline, xs, r=0",
    "sample_surface": "surface, us, vs",
    "sample_transitions": "space, xs",
    "save_descriptor": "path, obj",
    "space_from_descriptor": "d, where='space'",
    "space_to_descriptor": "space",
    "spline_from_descriptor": "d, where='spline'",
    "spline_to_descriptor": "spline",
    "split_section": "section, xhat, strategy='restrict'",
    "surface_from_descriptor": "d, where='surface'",
    "surface_to_descriptor": "surface",
    "svg_curve_plot": "curves, combs=None",
    "svg_function_plot": "xs, ys_list",
    "tile_periodic_coefficients": "space, free_coeffs",
    "to_bezier_segments": "space, spline",
    "validate_connection_matrix": "M, order",
    "write_csv": "path, header, columns",
    "write_svg": "path, text",
}


def test_public_parameters_are_pinned():
    blank = inspect.Parameter.empty
    got = {}
    for name in chebspline.__all__:
        obj = getattr(chebspline, name)
        if inspect.isfunction(obj):
            sig = inspect.signature(obj)
            sig = sig.replace(return_annotation=blank, parameters=[
                p.replace(annotation=blank) for p in sig.parameters.values()])
            got[name] = str(sig)[1:-1]
    assert got == PARAMETERS


# every command's options, in order: a required one by name, an optional
# one with its default
OPTIONS = {
    "basis": "--input, --output, --samples=1000, --format='csv'",
    "bezier": "--input, --output",
    "clamp": "--input, --output",
    "elevate": "--input, --output, --r=1",
    "eval": "--input, --output, --samples=1000, --format='csv', "
            "--comb/--no-comb=False",
    "insert": "--input, --output, --at, --strategy='restrict'",
    "kref-demo": "--output, --samples=1000, --format='csv'",
    "surface": "--input, --output, --samples=40, --format='csv', "
               "--isolines=9",
}


def test_cli_options_are_pinned():
    got = {}
    for name, cmd in main.commands.items():
        opts = ["/".join(p.opts + p.secondary_opts) for p in cmd.params]
        got[name] = ", ".join(o if p.required else f"{o}={p.default!r}"
                              for o, p in zip(opts, cmd.params))
    assert got == OPTIONS

"""Command line front end.

Subcommands load JSON descriptors, run the numerical kernel and write CSV or
SVG artifacts.  Exit codes: 0 on success, 2 for descriptor problems, 3 for
numerical failures inside the kernel.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from . import descriptors as dsc
from .basis import (Spline, SplineSpace, TensorSurface, sample_basis,
                    sample_spline, sample_surface, sample_transitions)
from .errors import ChebsplineError, DescriptorError
from .extensions import MultiOrderSpace
from .output import (curvature_comb, svg_curve_plot, svg_function_plot,
                     write_csv, write_svg)
from .partition import build_extended_partition
from .refine import (elevate_order, insert_knot, max_deviation,
                     periodic_to_clamped, to_bezier_segments)
from .sections import make_section


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except DescriptorError as e:
            click.echo(f"descriptor error: {e}", err=True)
            sys.exit(2)
        except ChebsplineError as e:
            click.echo(f"numerical failure: {type(e).__name__}: {e}", err=True)
            sys.exit(3)
        except OSError as e:
            click.echo(f"i/o error: {e}", err=True)
            sys.exit(2)
    return wrapper


def _in_opt(fn):
    return click.option("--input", "input_path", required=True,
                        type=click.Path(), help="descriptor file")(fn)


def _out_opt(fn):
    return click.option("--output", "output_path", required=True,
                        type=click.Path(), help="artifact path")(fn)


def _samples_opt(default=1000):
    return click.option("--samples", type=click.IntRange(min=2),
                        default=default, show_default=True,
                        help="number of uniform sample points")


_format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "svg"]),
                           default="csv", show_default=True)


def _stem(path: str) -> str:
    lower = path.lower()
    if lower.endswith(".csv") or lower.endswith(".svg"):
        return path[:-4]
    return path


def _artifact(path: str, fmt: str) -> str:
    return path if path.lower().endswith("." + fmt) else _stem(path) + "." + fmt


def _load(input_path: str, kind, need: str):
    """The object input_path describes; a DescriptorError with the message
    need unless it is a kind."""
    obj = dsc.load_object(input_path)
    if not isinstance(obj, kind):
        raise DescriptorError(need)
    return obj


def _save(output_path: str, before: Spline, after: Spline) -> None:
    """Write after's descriptor and report the change of dimension."""
    dsc.save_descriptor(output_path, after)
    click.echo(f"wrote {output_path} "
               f"(dim {before.space.dim} -> {after.space.dim})")


@click.group()
def main():
    """Piecewise Chebyshevian spline bases, refinement and artifacts."""


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _basis_data(obj, samples: int):
    """(xs, basis matrix, transition matrix)."""
    if isinstance(obj, Spline):
        obj = obj.space
    if not isinstance(obj, (SplineSpace, MultiOrderSpace)):
        raise DescriptorError("basis needs a space, spline or multiorder-space "
                              f"descriptor, not {type(obj).__name__}")
    xs = np.linspace(obj.a, obj.b, samples)
    return xs, sample_basis(obj, xs), sample_transitions(obj, xs)


def _write_basis(xs, vals, output_path: str, fmt: str,
                 trans=None) -> list[str]:
    """Write the basis columns N_1, .. of vals and, when given, the
    transition columns f_2, .. of trans to the .transitions sibling; returns
    the paths written."""
    files = [(_artifact(output_path, fmt), vals, "N", 1)]
    if trans is not None:
        files.append((_stem(output_path) + ".transitions." + fmt, trans, "f", 2))
    for path, data, name, first in files:
        cols = [data[:, j] for j in range(data.shape[1])]
        if fmt == "csv":
            names = [f"{name}_{first + j}" for j in range(len(cols))]
            write_csv(path, ["x"] + names, [xs] + cols)
        else:
            write_svg(path, svg_function_plot(xs, cols))
    return [path for path, *_ in files]


@main.command("basis")
@_in_opt
@_out_opt
@_samples_opt()
@_format_opt
@_guarded
def basis_cmd(input_path, output_path, samples, fmt):
    """Sample every B-spline basis function and its transition functions."""
    obj = dsc.load_object(input_path)
    xs, vals, trans = _basis_data(obj, samples)
    paths = _write_basis(xs, vals, output_path, fmt, trans)
    click.echo(f"wrote {' and '.join(paths)} "
               f"({vals.shape[1]} basis functions, {samples} samples)")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _coord_names(d: int) -> list[str]:
    base = ["x", "y", "z"]
    return base[:d] + [f"c{j}" for j in range(4, d + 1)]


@main.command("eval")
@_in_opt
@_out_opt
@_samples_opt()
@_format_opt
@click.option("--comb/--no-comb", default=False,
              help="overlay a curvature comb (svg curves only)")
@_guarded
def eval_cmd(input_path, output_path, samples, fmt, comb):
    """Evaluate a spline curve at uniform parameter samples."""
    obj = dsc.load_object(input_path)
    if isinstance(obj, TensorSurface):
        raise click.UsageError("use the surface command for surfaces")
    if not isinstance(obj, Spline):
        raise DescriptorError(
            f"eval needs a spline descriptor, not {type(obj).__name__}")
    if comb and fmt != "svg":
        raise click.UsageError("--comb requires --format svg")
    xs = np.linspace(obj.space.a, obj.space.b, samples)
    vals = sample_spline(obj, xs)
    d = vals.shape[1]
    out = _artifact(output_path, fmt)
    if fmt == "csv":
        if d == 1:
            write_csv(out, ["x", "y"], [xs, vals[:, 0]])
        else:
            write_csv(out, _coord_names(d), [vals[:, j] for j in range(d)])
    elif d == 1:
        write_svg(out, svg_function_plot(xs, [vals[:, 0]]))
    else:
        combs = None
        if comb:
            combs = [curvature_comb(vals[:, :2], sample_spline(obj, xs, 1)[:, :2],
                                    sample_spline(obj, xs, 2)[:, :2])]
        write_svg(out, svg_curve_plot([vals[:, :2]], combs))
    click.echo(f"wrote {out} ({samples} samples, {d} coordinates)")


# ---------------------------------------------------------------------------
# refinement commands
# ---------------------------------------------------------------------------

@main.command("insert")
@_in_opt
@_out_opt
@click.option("--at", "ats", type=float, multiple=True, required=True,
              help="knot to insert; repeat for several")
@click.option("--strategy", type=click.Choice(["restrict", "reparametrize"]),
              default="restrict", show_default=True,
              help="how refined sections parametrize themselves")
@_guarded
def insert_cmd(input_path, output_path, ats, strategy):
    """Insert knots into a spline, writing the refined descriptor."""
    spline = _load(input_path, Spline, "insert needs a spline descriptor")
    original = spline
    for t in ats:
        step, spline = insert_knot(spline.space, spline, float(t), strategy)
        dev = max_deviation(original, spline)
        click.echo(f"insert t={t:g}: multiplicity {step.mult}, "
                   f"max deviation {dev:.3e}")
    _save(output_path, original, spline)


@main.command("elevate")
@_in_opt
@_out_opt
@click.option("--r", "r", type=click.IntRange(1, 2), default=1,
              show_default=True, help="how many orders to raise")
@_guarded
def elevate_cmd(input_path, output_path, r):
    """Raise the section order of a spline by r, writing the descriptor."""
    spline = _load(input_path, Spline, "elevate needs a spline descriptor")
    step, elevated = elevate_order(spline.space, spline, r)
    dev = max_deviation(spline, elevated)
    resid = max(step.removal_residuals) if step.removal_residuals else 0.0
    click.echo(f"elevated order {spline.space.order} -> "
               f"{elevated.space.order}: max deviation {dev:.3e}, "
               f"knot-removal residual {resid:.3e}")
    _save(output_path, spline, elevated)


@main.command("bezier")
@_in_opt
@_out_opt
@_guarded
def bezier_cmd(input_path, output_path):
    """Extract the Bezier form: every interior knot at multiplicity m-1."""
    spline = _load(input_path, Spline, "bezier needs a spline descriptor")
    bez = to_bezier_segments(spline.space, spline)
    dev = max_deviation(spline, bez.spline)
    click.echo(f"extracted {len(bez.controls)} segments of order "
               f"{spline.space.order}: max deviation {dev:.3e}")
    _save(output_path, spline, bez.spline)


@main.command("clamp")
@_in_opt
@_out_opt
@_guarded
def clamp_cmd(input_path, output_path):
    """Convert a wrap-around (periodic) spline to clamped end knots."""
    spline = _load(input_path, Spline, "clamp needs a spline descriptor")
    cspace, cspline = periodic_to_clamped(spline.space, spline)
    dev = max_deviation(spline, cspline)
    click.echo(f"clamped on [{cspace.a:g}, {cspace.b:g}]: "
               f"max deviation {dev:.3e}")
    _save(output_path, spline, cspline)


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

@main.command("surface")
@_in_opt
@_out_opt
@_samples_opt(default=40)
@_format_opt
@click.option("--isolines", type=click.IntRange(min=2), default=9,
              show_default=True, help="isocurves per direction (svg)")
@_guarded
def surface_cmd(input_path, output_path, samples, fmt, isolines):
    """Sample a tensor-product surface on a uniform parameter grid."""
    surf = _load(input_path, TensorSurface,
                 "surface needs a surface descriptor")
    us = np.linspace(surf.u_space.a, surf.u_space.b, samples)
    vs = np.linspace(surf.v_space.a, surf.v_space.b, samples)
    out = _artifact(output_path, fmt)
    d = surf.net.shape[2]
    if fmt == "csv":
        rows = sample_surface(surf, us, vs).reshape(-1, d)
        uu = np.repeat(us, len(vs))
        vv = np.tile(vs, len(us))
        write_csv(out, ["u", "v"] + _coord_names(d),
                  [uu, vv] + [rows[:, j] for j in range(d)])
    else:
        u_lines = sample_surface(
            surf, np.linspace(surf.u_space.a, surf.u_space.b, isolines), vs)
        v_lines = sample_surface(
            surf, us, np.linspace(surf.v_space.a, surf.v_space.b, isolines))
        curves = list(u_lines[:, :, :2]) + list(v_lines.transpose(1, 0, 2)[:, :, :2])
        write_svg(out, svg_curve_plot(curves))
    click.echo(f"wrote {out} ({samples}x{samples} samples)")


# ---------------------------------------------------------------------------
# k-refinement demo
# ---------------------------------------------------------------------------

@main.command("kref-demo")
@_out_opt
@_samples_opt()
@_format_opt
@_guarded
def kref_cmd(output_path, samples, fmt):
    """Insertion and elevation do not commute: emit the four stage bases.

    One trigonometric element of order 3 is refined along two routes, knot
    insertion at 1/2 followed by order elevation and the reverse; the first
    yields six C1 blending functions, the second five C2 ones.
    """
    theta = 2.0
    part = build_extended_partition([0.0, 1.0], [], 3)
    sec = make_section("trigonometric", {"theta": theta}, (0.0, 1.0), 3)
    base_space = SplineSpace(part, [sec])
    base = Spline(base_space, [[0.0], [1.0], [0.0]])

    _, hp_ins = insert_knot(base_space, base, 0.5)
    _, hp_final = elevate_order(hp_ins.space, hp_ins, 1)
    _, k_elev = elevate_order(base_space, base, 1)
    _, k_final = insert_knot(k_elev.space, k_elev, 0.5)

    stem = _stem(output_path)
    panels = [("hp_inserted", hp_ins), ("hp_elevated", hp_final),
              ("k_elevated", k_elev), ("k_inserted", k_final)]
    for tag, spl in panels:
        xs = np.linspace(spl.space.a, spl.space.b, samples)
        vals = sample_basis(spl.space, xs)
        _write_basis(xs, vals, f"{stem}_{tag}", fmt)
        click.echo(f"wrote {stem}_{tag}.{fmt} "
                   f"({vals.shape[1]} basis functions)")
    click.echo(f"h-p route: {hp_ins.space.dim} -> {hp_final.space.dim} "
               f"functions; k route: {k_elev.space.dim} -> "
               f"{k_final.space.dim} functions")


if __name__ == "__main__":
    main()

import json

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from chebspline import Spline, descriptor_for, load_object, save_descriptor
from chebspline.cli import main

from conftest import DESCRIPTORS

SPACE = DESCRIPTORS / "poly_trig_hyperbolic_m3.json"
CURVE = DESCRIPTORS / "trig_m4_open_curve.json"
CLOSED = DESCRIPTORS / "tension_closed_curve.json"
SURFACE = DESCRIPTORS / "rounded_square_surface.json"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_basis_csv(tmp_path):
    out = tmp_path / "basis.csv"
    res = run("basis", "--input", SPACE, "--output", out, "--samples", 200)
    assert res.exit_code == 0, res.output
    header, data = read_csv(out)
    assert header[0] == "x"
    assert header[1:] == [f"N_{i}" for i in range(1, len(header))]
    assert data.shape == (200, len(header))
    assert_allclose(data[:, 1:].sum(axis=1), 1.0, atol=1e-10)
    # transition-function sibling artifact
    sib_header, sib = read_csv(tmp_path / "basis.transitions.csv")
    assert sib_header[0] == "x"
    assert sib_header[1] == "f_2"
    assert np.all(sib[:, 1:] >= -1e-10) and np.all(sib[:, 1:] <= 1 + 1e-10)


def test_basis_svg(tmp_path):
    out = tmp_path / "basis.svg"
    res = run("basis", "--input", SPACE, "--output", out, "--samples", 100,
              "--format", "svg")
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("<svg")
    assert (tmp_path / "basis.transitions.svg").exists()


def test_eval_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    res = run("eval", "--input", CURVE, "--output", out, "--samples", 150)
    assert res.exit_code == 0, res.output
    header, data = read_csv(out)
    assert header == ["x", "y"]
    assert data.shape == (150, 2)
    spline = load_object(CURVE)
    assert_allclose(data[0], spline.coefficients[0], atol=1e-12)
    assert_allclose(data[-1], spline.coefficients[-1], atol=1e-12)


def test_eval_scalar_spline_writes_parameter_column(tmp_path):
    space = load_object(SPACE)
    rng = np.random.default_rng(41)
    spline = Spline(space, rng.normal(size=(space.dim, 1)))
    src = tmp_path / "scalar.json"
    save_descriptor(src, descriptor_for(spline))
    out = tmp_path / "scalar.csv"
    res = run("eval", "--input", src, "--output", out, "--samples", 50)
    assert res.exit_code == 0, res.output
    header, data = read_csv(out)
    assert header == ["x", "y"]
    assert_allclose(data[:, 0], np.linspace(space.a, space.b, 50), atol=1e-12)


def test_eval_svg_with_comb(tmp_path):
    out = tmp_path / "curve.svg"
    res = run("eval", "--input", CURVE, "--output", out, "--format", "svg",
              "--comb", "--samples", 120)
    assert res.exit_code == 0, res.output
    assert "<polyline" in out.read_text()


def test_comb_is_the_scalar_path_comb(tmp_path):
    # the comb reads D^1 and D^2 from the batched evaluator; the SVG equals
    # one built from per-point derivatives (the left side at b)
    from chebspline import eval_spline_derivative, sample_spline
    from chebspline.output import curvature_comb, svg_curve_plot
    out = tmp_path / "closed.svg"
    res = run("eval", "--input", CLOSED, "--output", out, "--format", "svg",
              "--comb", "--samples", 400)
    assert res.exit_code == 0, res.output
    spline = load_object(CLOSED)
    xs = np.linspace(spline.space.a, spline.space.b, 400)
    vals = sample_spline(spline, xs)[:, :2]
    d1, d2 = (np.array([eval_spline_derivative(
        spline, r, float(x), "left" if x == xs[-1] else "right")[:2]
        for x in xs]) for r in (1, 2))
    assert out.read_text() == svg_curve_plot(
        [vals], [curvature_comb(vals, d1, d2)])


def test_comb_requires_svg(tmp_path):
    res = run("eval", "--input", CURVE, "--output", tmp_path / "x.csv",
              "--comb")
    assert res.exit_code == 2


def test_eval_rejects_surface(tmp_path):
    res = run("eval", "--input", SURFACE, "--output", tmp_path / "x.csv")
    assert res.exit_code == 2


def test_insert_preserves_curve(tmp_path):
    out = tmp_path / "refined.json"
    res = run("insert", "--input", CURVE, "--output", out,
              "--at", 0.3, "--at", 0.7)
    assert res.exit_code == 0, res.output
    assert "max deviation" in res.output
    before = load_object(CURVE)
    after = load_object(out)
    assert after.space.dim == before.space.dim + 2
    xs = np.linspace(before.space.a, before.space.b, 500)
    from chebspline import sample_spline
    assert np.max(np.abs(sample_spline(before, xs)
                         - sample_spline(after, xs))) < 1e-10


def test_insert_over_multiplicity_is_kernel_error(tmp_path):
    res = run("insert", "--input", CURVE, "--output", tmp_path / "x.json",
              "--at", 0.25, "--at", 0.25, "--at", 0.25, "--at", 0.25)
    assert res.exit_code == 3


def test_elevate(tmp_path):
    out = tmp_path / "elevated.json"
    res = run("elevate", "--input", CURVE, "--output", out, "--r", 2)
    assert res.exit_code == 0, res.output
    before = load_object(CURVE)
    after = load_object(out)
    assert after.space.order == before.space.order + 2
    from chebspline import max_deviation
    assert max_deviation(before, after) < 1e-9


def test_bezier(tmp_path):
    out = tmp_path / "bez.json"
    res = run("bezier", "--input", CURVE, "--output", out)
    assert res.exit_code == 0, res.output
    after = load_object(out)
    part = after.space.partition
    m = part.order
    for x in part.breakpoints()[1:-1]:
        assert part.multiplicity_of(float(x)) == m - 1


def test_clamp(tmp_path):
    out = tmp_path / "clamped.json"
    res = run("clamp", "--input", CLOSED, "--output", out)
    assert res.exit_code == 0, res.output
    before = load_object(CLOSED)
    after = load_object(out)
    part = after.space.partition
    assert part.multiplicity_of(part.a) == part.order
    xs = np.linspace(part.a, part.b, 400)
    from chebspline import sample_spline
    assert np.max(np.abs(sample_spline(before, xs)
                         - sample_spline(after, xs))) < 1e-10


def test_surface_csv(tmp_path):
    out = tmp_path / "surf.csv"
    res = run("surface", "--input", SURFACE, "--output", out, "--samples", 12)
    assert res.exit_code == 0, res.output
    header, data = read_csv(out)
    assert header[:2] == ["u", "v"]
    assert data.shape == (144, 5)
    # u-major ordering: v varies fastest
    assert_allclose(data[:12, 0], data[0, 0], atol=1e-15)


def test_surface_svg(tmp_path):
    out = tmp_path / "surf.svg"
    res = run("surface", "--input", SURFACE, "--output", out,
              "--samples", 16, "--format", "svg", "--isolines", 5)
    assert res.exit_code == 0, res.output
    assert out.read_text().count("<polyline") == 10


def test_kref_demo(tmp_path):
    out = tmp_path / "kref.csv"
    res = run("kref-demo", "--output", out, "--samples", 80)
    assert res.exit_code == 0, res.output
    assert "6" in res.output and "5" in res.output
    for tag in ("_hp_inserted", "_hp_elevated", "_k_elevated", "_k_inserted"):
        sub = tmp_path / f"kref{tag}.csv"
        assert sub.exists(), sub
    _, hp = read_csv(tmp_path / "kref_hp_elevated.csv")
    _, k = read_csv(tmp_path / "kref_k_inserted.csv")
    assert hp.shape[1] - 1 == 6
    assert k.shape[1] - 1 == 5


def test_missing_input_is_exit_2(tmp_path):
    res = run("basis", "--input", tmp_path / "nope.json",
              "--output", tmp_path / "x.csv")
    assert res.exit_code == 2


def test_bad_descriptor_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "space", "partition": {"order": 3}}))
    res = run("basis", "--input", bad, "--output", tmp_path / "x.csv")
    assert res.exit_code == 2


def test_csv_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run("basis", "--input", SPACE, "--output", out, "--samples", 64)
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


MULTIORDER = DESCRIPTORS / "multiorder_line_circle_cardioid.json"


@pytest.mark.parametrize("command, descriptor", [
    ("basis", SURFACE), ("eval", SPACE), ("insert", SPACE), ("elevate", SURFACE),
    ("bezier", MULTIORDER), ("clamp", SPACE), ("surface", CURVE)])
def test_wrong_descriptor_type_is_exit_2(tmp_path, command, descriptor):
    extra = ("--at", 0.5) if command == "insert" else ()
    res = run(command, "--input", descriptor, "--output", tmp_path / "x.csv",
              *extra)
    assert res.exit_code == 2
    assert "needs a" in res.output

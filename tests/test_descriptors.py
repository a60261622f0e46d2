import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chebspline import (DescriptorError, Spline, SplineSpace, descriptor_for,
                        load_descriptor, load_object, object_from_descriptor,
                        sample_spline, save_descriptor)
from chebspline.basis import TensorSurface
from chebspline.extensions import MultiOrderSpace

from conftest import DESCRIPTORS

ALL_NAMES = sorted(p.stem for p in DESCRIPTORS.glob("*.json"))


def test_corpus_is_present():
    assert len(ALL_NAMES) >= 12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip(tmp_path, name):
    path = DESCRIPTORS / f"{name}.json"
    obj = load_object(path)
    d1 = descriptor_for(obj)
    out = tmp_path / "again.json"
    save_descriptor(out, d1)
    d2 = descriptor_for(object_from_descriptor(load_descriptor(out)))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_spline_descriptor_preserves_curve(tmp_path):
    path = DESCRIPTORS / "trig_m4_open_curve.json"
    spline = load_object(path)
    assert isinstance(spline, Spline)
    out = tmp_path / "copy.json"
    save_descriptor(out, descriptor_for(spline))
    again = load_object(out)
    xs = np.linspace(spline.space.a, spline.space.b, 300)
    assert_allclose(sample_spline(again, xs), sample_spline(spline, xs),
                    atol=1e-14)


def test_object_types():
    seen = set()
    for name in ALL_NAMES:
        obj = load_object(DESCRIPTORS / f"{name}.json")
        seen.add(type(obj).__name__)
    assert {"SplineSpace", "Spline"} <= seen
    assert isinstance(load_object(DESCRIPTORS / "rounded_square_surface.json"),
                      TensorSurface)
    assert isinstance(
        load_object(DESCRIPTORS / "multiorder_line_circle_cardioid.json"),
        MultiOrderSpace)


def test_missing_key_has_context(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "space",
                               "partition": {"order": 3, "breakpoints": [0, 1]},
                               "sections": [{"family": "polynomial"}]}))
    with pytest.raises(DescriptorError) as err:
        load_object(bad)
    assert "partition" in str(err.value)


def test_unknown_family_is_descriptor_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "space",
        "partition": {"order": 3, "breakpoints": [0.0, 1.0],
                      "multiplicities": []},
        "sections": [{"family": "warp"}]}))
    with pytest.raises(DescriptorError) as err:
        load_object(bad)
    assert "warp" in str(err.value)


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "space",,}')
    with pytest.raises(DescriptorError) as err:
        load_descriptor(bad)
    assert "line" in str(err.value)


def test_bad_connection_matrix_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "space",
        "partition": {"order": 3, "breakpoints": [0.0, 0.5, 1.0],
                      "multiplicities": [1]},
        "sections": [{"family": "polynomial"}, {"family": "polynomial"}],
        "connections": [{"at": 0.5, "matrix": [[1.0, 0.0], [0.0, -2.0]]}]}))
    with pytest.raises(DescriptorError):
        load_object(bad)


def test_periodic_requires_knots_form(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "space",
        "periodic": {"period": 1.0},
        "partition": {"order": 3, "breakpoints": [0.0, 1.0],
                      "multiplicities": []},
        "sections": [{"family": "polynomial"}]}))
    with pytest.raises(DescriptorError):
        load_object(bad)


def _poly_space(**extra):
    d = {"type": "space",
         "partition": {"order": 3, "breakpoints": [0.0, 1.0],
                       "multiplicities": []},
         "sections": [{"family": "polynomial"}]}
    d.update(extra)
    return d


# (descriptor, path the message starts with, part of the kernel's message):
# each feeds one translation site a value the kernel, not the descriptor
# reader, rejects
TRANSLATED = {
    "section": (_poly_space(sections=[{"family": "trigonometric",
                                       "params": {"theta": -1.0}}]),
                "space.sections[0]", "theta must be positive"),
    "partition": (_poly_space(partition={"order": 3,
                                         "breakpoints": [0.0, 0.5, 1.0],
                                         "multiplicities": [7]}),
                  "space.partition", "multiplicities must lie in"),
    "connection matrix": (
        _poly_space(partition={"order": 3, "breakpoints": [0.0, 0.5, 1.0],
                               "multiplicities": [1]},
                    sections=[{"family": "polynomial"}] * 2,
                    connections=[{"at": 0.5,
                                  "matrix": [[1.0, 0.0], [0.0, -2.0]]}]),
        "space.connections[0].matrix", "diagonal must be positive"),
    "periodic": (
        _poly_space(partition={"order": 3,
                               "knots": [-0.5, -0.25, 0.0, 0.5, 1.0, 1.25, 1.5]},
                    sections=[{"family": "polynomial", "interval": [0.0, 0.5]},
                              {"family": "polynomial", "interval": [0.5, 1.0]}],
                    periodic={"period": 2.0}),
        "space", "does not match the domain length"),
    "space": (_poly_space(sections=[{"family": "polynomial", "order": 4}]),
              "space", "section 0 has order 4, expected 3"),
    "spline": ({"type": "spline", "space": _poly_space(),
                "coefficients": [1.0, 2.0]},
               "spline", "expected 3 coefficients, got 2"),
    "multi-order": ({"type": "multiorder-space",
                     "sections": [{"family": "polynomial", "interval": [0.0, 1.0],
                                   "order": 3},
                                  {"family": "polynomial", "interval": [1.0, 2.0],
                                   "order": 4}],
                     "continuities": [5]},
                    "multiorder-space", "continuity order k_1=5"),
    "surface": ({"type": "surface", "u_space": _poly_space(),
                 "v_space": _poly_space(), "net": [[0.0, 0.0], [0.0, 0.0]]},
                "surface", "does not match space dimensions"),
}


@pytest.mark.parametrize("site", list(TRANSLATED))
def test_kernel_errors_carry_the_descriptor_path(site):
    d, where, kernel_msg = TRANSLATED[site]
    with pytest.raises(DescriptorError) as err:
        object_from_descriptor(d)
    msg = str(err.value)
    assert msg.startswith(f"{where}: "), msg
    assert kernel_msg in msg


NAN, INF = float("nan"), float("inf")
# json reads and writes NaN and Infinity; a descriptor must not carry them
NON_FINITE = {
    "coefficient": ({"type": "spline", "space": _poly_space(),
                     "coefficients": [0.0, NAN, 1.0]},
                    "spline.coefficients[1]"),
    "break point": (_poly_space(partition={"order": 3,
                                           "breakpoints": [0.0, INF],
                                           "multiplicities": []}),
                    "space.partition.breakpoints[1]"),
    "parameter": (_poly_space(sections=[{"family": "trigonometric",
                                         "params": {"theta": NAN}}]),
                  "space.sections[0].params.theta"),
    "net": ({"type": "surface", "u_space": _poly_space(),
             "v_space": _poly_space(),
             "net": [[0.0, 1.0, 2.0], [0.0, -INF, 2.0], [0.0, 1.0, 2.0]]},
            "surface.net"),
}


@pytest.mark.parametrize("site", list(NON_FINITE))
def test_non_finite_numbers_are_descriptor_errors(tmp_path, site):
    d, where = NON_FINITE[site]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    with pytest.raises(DescriptorError) as err:
        load_object(path)
    assert str(err.value).startswith(f"{where}: "), str(err.value)
    assert "finite" in str(err.value)

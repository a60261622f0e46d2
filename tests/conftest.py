import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))             # oracles.py

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESCRIPTORS = ROOT / "demos" / "descriptors"


@pytest.fixture(scope="session")
def descriptor_dir():
    return DESCRIPTORS


def descriptor_path(name):
    return DESCRIPTORS / f"{name}.json"


def assert_same_table(table, ref):
    """Rows equal byte for byte (kind, support, first piece, coefficients)
    and reports equal.  A row's first piece is the grid interval its support
    starts in."""
    from numpy.testing import assert_array_equal
    assert table.rows.keys() == ref.rows.keys()
    for i, row in table.rows.items():
        other = ref.rows[i]
        assert (row.kind, row.start, row.stop, table.grid.searchsorted(row.start)) == \
            (other.kind, other.start, other.stop, ref.grid.searchsorted(other.start)), i
        assert len(row.pieces) == len(other.pieces), i
        for p, q in zip(row.pieces, other.pieces):
            assert_array_equal(p, q)
    assert table.reports == ref.reports

"""Byte identity of the column-wise report encoders, beyond the bundled configs.

Residual tables are drawn with hypothesis: float columns (numpy arrays that
hold -0.0, the smallest subnormal, the largest double, 1e16 and integral
values among arbitrary finite floats) and columns of other JSON scalars
(ints, bools, None, floats and strings with non-ASCII characters, quotes,
commas and line breaks).  bundle_json must give the text json.dumps gives
for the same table as a list of row objects, and write_csv and
residuals.csv the bytes csv.writer writes for the same rows.  A NaN or an
infinity anywhere in a table is a DomainError with the message json's own
error gives.
"""

import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kipa_lab import report
from kipa_lab.errors import DomainError
from kipa_lab.report import write_csv

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16, 1.0, 3.0, 2.0**53]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(float))
TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\'\r\n\t %é€\\'), st.characters()), max_size=8)
SCALARS = st.one_of(st.integers(-10**20, 10**20), st.booleans(), st.none(), FLOATS, TEXT)
NAMES = st.lists(st.text(alphabet="abxyz_%é\"", min_size=1, max_size=6), min_size=1, max_size=5, unique=True)
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def tables(draw, min_rows=0, max_rows=12):
    """(names, columns): equal-length columns, each a float array or a list of scalars."""
    names = draw(NAMES)
    n = draw(st.integers(min_rows, max_rows))
    columns = []
    for _ in names:
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float))
        else:
            columns.append(draw(st.lists(SCALARS, min_size=n, max_size=n)))
    return names, columns


def _values(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else list(col)


def _bundle(names, columns) -> dict:
    return report.make_bundle("t", {"seed": 0}, {"a": 1.5, "b": [1, None, "x"]}, dict(zip(names, columns)))


def _expected_json(names, columns) -> str:
    """json.dumps of the same bundle with its residuals as a list of row objects."""
    rows = [dict(zip(names, row)) for row in zip(*map(_values, columns))]
    return json.dumps({**_bundle(names, columns), "residuals": rows}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_writer_text(names, columns) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(names)
    w.writerows(zip(*map(_values, columns)))
    return buf.getvalue()


def _write_csv_text(names, columns) -> str:
    buf = io.StringIO()
    write_csv(buf, names, columns)
    return buf.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables())
def test_bundle_json_equals_json_dumps_of_the_rows(table):
    names, columns = table
    assert report.bundle_json(_bundle(names, columns)) == _expected_json(names, columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables())
def test_write_csv_equals_csv_writer(table):
    names, columns = table
    assert _write_csv_text(names, columns) == _csv_writer_text(names, columns)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tables(min_rows=1))
def test_residuals_csv_equals_csv_writer(tmp_path_factory, table):
    # write_bundle takes the float cells bundle_json made; the file must not change.
    names, columns = table
    bundle = _bundle(names, columns)
    out = tmp_path_factory.mktemp("out")
    paths = report.write_bundle(bundle, str(out), report.bundle_json(bundle), None)
    assert [os.path.basename(p) for p in paths] == ["result.json", "residuals.csv"]
    with open(paths[1], newline="") as fh:
        assert fh.read() == _csv_writer_text(names, columns)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables(min_rows=1), st.data())
def test_non_finite_cell_is_a_domain_error(table, data):
    names, columns = table
    i = data.draw(st.integers(0, len(names) - 1))
    j = data.draw(st.integers(0, len(columns[i]) - 1))
    columns[i][j] = data.draw(st.sampled_from(NON_FINITE))
    with pytest.raises(ValueError) as want:
        _expected_json(names, columns)
    with pytest.raises(DomainError) as got:
        report.bundle_json(_bundle(names, columns))
    assert str(got.value) == f"the result holds a non-finite number ({want.value})"


@pytest.mark.parametrize("kind", ["float", "scalars"])
def test_empty_table(tmp_path, kind):
    columns = [np.array([]), np.array([])] if kind == "float" else [[], []]
    bundle = _bundle(["x", "y"], columns)
    text = report.bundle_json(bundle)
    assert text == _expected_json(["x", "y"], columns) and '"residuals": [],' in text
    assert _write_csv_text(["x", "y"], columns) == "x,y\r\n"
    assert report.write_bundle(bundle, str(tmp_path), text, None) == [str(tmp_path / "result.json")]


@pytest.mark.parametrize("cell", [1.5, -0.0, 5e-324, "", None, 'a,"b"\n'])
def test_one_row_one_column(tmp_path, cell):
    columns = [np.array([cell])] if isinstance(cell, float) else [[cell]]
    bundle = _bundle(["c"], columns)
    text = report.bundle_json(bundle)
    assert text == _expected_json(["c"], columns)
    assert _write_csv_text(["c"], columns) == _csv_writer_text(["c"], columns)
    report.write_bundle(bundle, str(tmp_path), text, None)
    assert (tmp_path / "residuals.csv").read_bytes().decode() == _csv_writer_text(["c"], columns)

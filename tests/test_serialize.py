"""JSON/TSV schema round trips, byte-exact after canonicalization."""

from argparse import Namespace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import cli
from umbra.catalog import Report
from umbra.fps import poly, series
from umbra.operators import ShiftOp, shift_by, validate_delta
from umbra.serialize import (
    dumps,
    form_cells,
    form_to_json,
    poly_to_json,
    report_to_json,
    series_to_json,
)
from umbra.umbral import basic_form, basic_set, tri_from_form

from oracles import (
    matrix_to_json,
    poly_from_json,
    series_from_json,
    shiftop_from_json,
    shiftop_to_json,
    triangle_from_json,
    triangle_text,
    triangle_to_json,
    triangle_to_tsv,
)


def test_series_schema_shape():
    f = series([0, 1, F(-1, 2)], 3)
    obj = series_to_json(f)
    assert obj == {"kind": "series", "trunc": 3, "coeffs": ["0", "1", "-1/2", "0"]}


def test_series_round_trip_bytes():
    f = series([0, 1, F(-1, 2), F(5, 3)], 5)
    blob = dumps(series_to_json(f))
    back = series_from_json(series_to_json(f))
    assert back == f
    assert dumps(series_to_json(back)) == blob


def test_poly_round_trip():
    p = poly([F(1, 6), -1, 1])
    assert poly_from_json(poly_to_json(p)) == p
    blob = dumps(poly_to_json(p))
    assert dumps(poly_to_json(poly_from_json(poly_to_json(p)))) == blob


def test_shiftop_and_delta_round_trip():
    op = ShiftOp(series([1, F(1, 2)], 4))
    assert shiftop_from_json(shiftop_to_json(op)).indicator == op.indicator
    delta = validate_delta(shift_by(1, 6) - 1)
    obj = shiftop_to_json(delta)
    assert obj["unit"] == "1"
    back = shiftop_from_json(obj)
    assert back.indicator == delta.indicator and back.unit == delta.unit
    blob = dumps(obj)
    assert dumps(shiftop_to_json(back)) == blob


def test_triangle_schema_and_tsv():
    tri = basic_set(validate_delta(shift_by(1, 6) - 1), 3, "transfer")
    obj = triangle_to_json(tri)
    assert obj["kind"] == "triangle" and obj["n"] == 3
    assert obj["rows"][3] == ["0", "2", "-3", "1"]
    assert triangle_from_json(obj) == tri
    assert dumps(triangle_to_json(triangle_from_json(obj))) == dumps(obj)
    tsv = triangle_to_tsv(tri)
    assert tsv.splitlines()[3] == "0\t2\t-3\t1"


def test_triangle_form_prints_as_its_triangle():
    form = basic_form(validate_delta(shift_by(1, 6) - 1), 3, "transfer")
    assert form_to_json(form, 3) == triangle_to_json(tri_from_form(form))


@pytest.mark.parametrize(
    "form, message",
    [
        (([[1], [0, 1]], [1, 1]), "triangle must have 3 rows"),
        (([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]], [1, 1, 1, 1]), "triangle must have 3 rows"),
        (([[1], [0, 1], [0, 0, 1]], [1, 1]), "triangle must have 3 rows"),
        (([[1], [0, 1, 0], [0, 0, 1]], [1, 1, 1]), "row 1 must have 2 entries"),
    ],
)
def test_row_form_printer_refuses_a_triangle_of_the_wrong_size(form, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        form_cells(form, 2)


@st.composite
def row_forms(draw):
    """Triangle forms of rows 0..n: each row over d = d0 c, each entry v0 c or v0 d, so entries
    come unreduced, with d | v, with d = 1, zero, negative, and of 300 bits and more."""
    small, big = st.integers(-60, 60), st.integers(2**300, 2**320)
    n = draw(st.integers(0, 4))
    rows, dens = [], []
    for m in range(n + 1):
        d0 = draw(st.one_of(st.just(1), st.integers(1, 40), big))
        c = draw(st.sampled_from([1, 6, 2**64]))
        d = d0 * c
        entries = st.one_of(small, big, big.map(lambda v: -v))
        rows.append([draw(entries) * draw(st.sampled_from([c, d])) for _ in range(m + 1)])
        dens.append(d)
    return rows, dens


@settings(derandomize=True, max_examples=200, deadline=None)
@given(row_forms())
def test_row_form_printer_matches_the_fraction_triangle(form):
    tri, n = tri_from_form(form), len(form[0]) - 1
    for fmt, decimal in (("json", False), ("tsv", False), ("pretty", False), ("pretty", True)):
        args = Namespace(format=fmt, decimal=decimal, order=n)
        assert cli._triangle_text(form, args) == triangle_text(tri, fmt, decimal), (fmt, decimal)


def test_matrix_schema():
    m = ((F(1), F(0)), (F(1, 2), F(1)))
    obj = matrix_to_json(m)
    assert obj == {"kind": "matrix", "n": 2, "rows": [["1", "0"], ["1/2", "1"]]}


def test_report_schema():
    rep = Report()
    rep.record("touchard", "spivey", {}, None)
    rep.record("abel", "abel_identity", {"a": F(1, 2)}, {"n": 3, "x": "1/2"})
    out = report_to_json(rep)
    assert out[0] == {"identity": "spivey", "family": "touchard", "params": {}, "status": "pass"}
    assert out[1]["status"] == "fail"
    assert out[1]["params"] == {"a": "1/2"}
    assert out[1]["counterexample"] == {"n": "3", "x": "1/2"}


def test_dumps_canonical():
    obj = {"b": 1, "a": [1, 2]}
    assert dumps(obj) == '{"a":[1,2],"b":1}'

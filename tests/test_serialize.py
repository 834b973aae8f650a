"""JSON/TSV schema round trips, byte-exact after canonicalization."""

from fractions import Fraction as F

from umbra.catalog import Report
from umbra.fps import poly, series
from umbra.operators import ShiftOp, shift_by, validate_delta
from umbra.serialize import (
    dumps,
    poly_to_json,
    report_to_json,
    series_to_json,
    triangle_to_json,
    triangle_to_tsv,
)
from umbra.umbral import basic_set

from oracles import (
    matrix_to_json,
    poly_from_json,
    series_from_json,
    shiftop_from_json,
    shiftop_to_json,
    triangle_from_json,
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

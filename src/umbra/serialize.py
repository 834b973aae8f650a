"""JSON/TSV schemas shared with the CLI.

All rationals are canonical "num/den" strings (plain integer when den = 1).
``dumps`` is the canonical encoder: sorted keys, compact separators, so that
serialize(deserialize(s)) == s byte-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fps import Poly, Series, poly, series
from .operators import DeltaOp, ShiftOp, validate_delta
from .rational import rat, rat_str
from .umbral import Triangle, triangle


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- series -----------------------------------------------------------------


def series_to_json(f: Series) -> dict:
    return {"kind": "series", "trunc": f.trunc, "coeffs": [rat_str(c) for c in f.coeffs]}


def series_from_json(obj: dict) -> Series:
    if obj.get("kind") != "series":
        raise ValueError("not a series object")
    return series([rat(c) for c in obj["coeffs"]], int(obj["trunc"]))


# -- polynomials --------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {"kind": "poly", "coeffs": [rat_str(c) for c in p.coeffs]}


def poly_from_json(obj: dict) -> Poly:
    if obj.get("kind") != "poly":
        raise ValueError("not a poly object")
    return poly([rat(c) for c in obj["coeffs"]])


# -- operators ----------------------------------------------------------------


def shiftop_to_json(T: ShiftOp) -> dict:
    out = {"kind": "shiftop", "indicator": series_to_json(T.indicator)}
    if isinstance(T, DeltaOp):
        out["unit"] = rat_str(T.unit)
    return out


def shiftop_from_json(obj: dict) -> ShiftOp:
    if obj.get("kind") != "shiftop":
        raise ValueError("not a shiftop object")
    ind = series_from_json(obj["indicator"])
    if "unit" in obj:
        op = validate_delta(ShiftOp(ind))
        if op.unit != rat(obj["unit"]):
            raise ValueError("stored unit does not match the indicator")
        return op
    return ShiftOp(ind)


# -- triangles ----------------------------------------------------------------


def triangle_to_json(t: Triangle) -> dict:
    return {"kind": "triangle", "n": t.n, "rows": [[rat_str(v) for v in row] for row in t.rows]}


def triangle_from_json(obj: dict) -> Triangle:
    if obj.get("kind") != "triangle":
        raise ValueError("not a triangle object")
    t = triangle(obj["rows"])
    if t.n != int(obj["n"]):
        raise ValueError("row count does not match n")
    return t


def triangle_to_tsv(t: Triangle) -> str:
    return "\n".join("\t".join(rat_str(v) for v in row) for row in t.rows) + "\n"


# -- matrices -----------------------------------------------------------------


def matrix_to_json(m: tuple[tuple[Fraction, ...], ...]) -> dict:
    return {"kind": "matrix", "n": len(m), "rows": [[rat_str(v) for v in row] for row in m]}


# -- reports ------------------------------------------------------------------


def report_to_json(report) -> list[dict]:
    out = []
    for r in report.results:
        item = {
            "identity": r.identity,
            "family": r.family,
            "params": {k: rat_str(rat(v)) for k, v in r.params.items()},
            "status": r.status,
        }
        if r.counterexample is not None:
            item["counterexample"] = {k: str(v) for k, v in r.counterexample.items()}
        out.append(item)
    return out


def disagreement_to_json(exc) -> dict:
    return {
        "error": "route disagreement",
        "construction": exc.construction,
        "routes": list(exc.routes),
        "index": exc.index,
        "values": [str(v) for v in exc.values],
    }

"""JSON/TSV schemas shared with the CLI.

All rationals are canonical "num/den" strings (plain integer when den = 1).
``dumps`` is the canonical encoder: sorted keys, compact separators, so that
serialize(deserialize(s)) == s byte-exactly.  The package writes these
schemas only; the readers that check that round trip are the tests' own
(``tests/oracles.py``).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import shown
from .fps import Poly, Series
from .rational import rat, rat_str
from .umbral import Triangle


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- series -----------------------------------------------------------------


def series_to_json(f: Series) -> dict:
    return {"kind": "series", "trunc": f.trunc, "coeffs": [rat_str(c) for c in f.coeffs]}


# -- polynomials --------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {"kind": "poly", "coeffs": [rat_str(c) for c in p.coeffs]}


# -- triangles ----------------------------------------------------------------


def triangle_to_json(t: Triangle) -> dict:
    return {"kind": "triangle", "n": t.n, "rows": [[rat_str(v) for v in row] for row in t.rows]}


def triangle_to_tsv(t: Triangle) -> str:
    return "\n".join("\t".join(rat_str(v) for v in row) for row in t.rows) + "\n"


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
        "values": [shown(v) for v in exc.values],
    }


def to_json(value):
    """The schema of one CLI result: a Series, Poly, Triangle, Fraction or catalog Report."""
    schemas = {Series: series_to_json, Poly: poly_to_json, Triangle: triangle_to_json, Fraction: rat_str}
    return schemas.get(type(value), report_to_json)(value)

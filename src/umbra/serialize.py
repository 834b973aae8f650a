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
from math import gcd
from typing import Callable

from .errors import shown
from .fps import Poly, Series
from .rational import rat, rat_str, ratio_str
from .umbral import RowForm


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- series -----------------------------------------------------------------


def series_to_json(f: Series) -> dict:
    return {"kind": "series", "trunc": f.trunc, "coeffs": [rat_str(c) for c in f.coeffs]}


# -- polynomials --------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {"kind": "poly", "coeffs": [rat_str(c) for c in p.coeffs]}


# -- triangles ----------------------------------------------------------------


def _lowest(v: int, d: int) -> str:
    g = gcd(v, d)
    return ratio_str(v // g, d // g)


def form_cells(form: RowForm, n: int, entry: Callable[[int, int], str] | None = None) -> list[list[str]]:
    """The text of rows 0..n of a triangle form (rows, dens), dens > 0: entry k of row m is
    rows[m][k] / dens[m] as ``entry(v, d)`` gives it, by default in lowest terms after one
    gcd (``ratio_str``), the bytes that ``rat_str`` prints for that Fraction.  ValueError
    unless the form has n + 1 rows and dens, row m of m + 1 entries: a triangle of the
    wrong size is refused, not printed."""
    rows, dens = form
    if not len(rows) == len(dens) == n + 1:
        raise ValueError(f"triangle must have {n + 1} rows")
    for m, row in enumerate(rows):
        if len(row) != m + 1:
            raise ValueError(f"row {m} must have {m + 1} entries")
    entry = entry or _lowest
    return [[entry(v, d) for v in row] for row, d in zip(rows, dens)]


def form_to_json(form: RowForm, n: int) -> dict:
    return {"kind": "triangle", "n": n, "rows": form_cells(form, n)}


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
    """The schema of one CLI result but a triangle (``form_to_json``): a Series, Poly, Fraction
    or catalog Report."""
    schemas = {Series: series_to_json, Poly: poly_to_json, Fraction: rat_str}
    return schemas.get(type(value), report_to_json)(value)

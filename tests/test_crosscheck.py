"""The one cross-check mechanism: `agree`, `RouteDisagreement` and the CLI's exit 1.

Each injection below makes one route of one construction return a wrong
answer; the CLI must then exit 1 with a single JSON counterexample, also
under `python -O`.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from umbra import bell, flow, fps, sigma, umbral
from umbra.catalog import identity_check
from umbra.cli import main
from umbra.errors import RouteDisagreement, agree, shown
from umbra.fps import poly, series
from umbra.umbral import UmbralOp, triangle

ROOT = Path(__file__).resolve().parents[1]


# -- agree ----------------------------------------------------------------------------------------


def test_agree_returns_first_route():
    a, b = poly([1, 2]), poly([1, 2])
    assert agree("demo", one=a, two=b) is a


@pytest.mark.parametrize(
    "one, two, index, values",
    [
        (F(1, 2), F(1, 3), [], (F(1, 2), F(1, 3))),
        (poly([1, 2]), poly([1, 2, 5]), [2], (0, 5)),
        (series([0, 1, 3], 2), series([0, 1, 4], 2), [2], (3, 4)),
        (triangle([[1], [0, 1], [0, 1, 1]]), triangle([[1], [0, 1], [0, 7, 1]]), [2, 1], (1, 7)),
    ],
)
def test_agree_locates_first_difference(one, two, index, values):
    with pytest.raises(RouteDisagreement, match="demo routes disagree") as info:
        agree("demo", one=one, two=two)
    exc = info.value
    assert (exc.construction, exc.routes, exc.index, exc.values) == ("demo", ("one", "two"), index, values)


def test_shown_gives_sign_and_bit_lengths_past_the_digit_limit():
    assert shown(F(-(2**80000), 3)) == "-<80001-bit numerator>/<2-bit denominator>"
    assert shown(2**80000) == "<80001-bit numerator>/<1-bit denominator>"
    assert shown(F(-1, 3)) == "-1/3"


def test_agree_names_first_route_that_differs():
    with pytest.raises(RouteDisagreement) as info:
        agree("demo", a=F(1), b=F(1), c=F(2), d=F(3))
    assert info.value.routes == ("a", "c")


# -- injected disagreements through the CLI -------------------------------------------------------


def _wrong_km(Q, n, gain=1):
    phi = umbral.basic_km(Q, n)
    rows = [list(r) for r in phi.tri.rows]
    rows[3][2] += gain
    return UmbralOp(triangle(rows), phi.delta)


def _edit_shifted_columns(edit):
    """An injection that lets ``edit(cols)`` change the integer Krylov columns (nums, den) of
    (phi-1)^p in place, entry i at row k + i, before they are weighted."""

    def inject(mp):
        real = flow._column_powers

        def corrupted(phi, k, pmax):
            cols = [(list(nums), den) for nums, den in real(phi, k, pmax)]
            edit(cols)
            return cols

        mp.setattr(flow, "_column_powers", corrupted)

    return inject


def _plus_one(cols, p, i):
    nums, den = cols[p]
    nums[i] += den  # entry i of column p gains 1


def _wrong_first_row(cols):
    _plus_one(cols, 1, 1)  # x^2 of itlog or f^s: for exp(x)-1, the leading term fixes it


def _wrong_last_row(cols):
    _plus_one(cols, 1, -1)  # x^N of itlog or f^s, fixed only by the x^(N+k-1) coefficient


def _doubled(cols):
    for nums, _ in cols:
        nums[:] = [2 * v for v in nums]  # itlog: 2 lam, which also solves Julia's equation


def _corrupt_frac_coefficients(j):
    """An injection that adds x^j (x^N for j = None) to the unchecked f^s of ``frac_iterate``."""

    def inject(mp):
        real = flow._frac_coefficients

        def corrupted(f, s, n):
            return real(f, s, n) + series([0] * (n if j is None else j) + [1], n)

        mp.setattr(flow, "_frac_coefficients", corrupted)

    return inject


def _wrong_bell_column(mp):
    # phi_pow's Bell route: E_(2,1) = 1! D B_(2,1) of bell._bell_columns gains D, so B_(2,1)
    # gains 1; the flow triangle of frac_iterate reads flow's own binding and stays clean
    real = bell._bell_columns

    def corrupted(a, n, k, depth):
        cols, d = real(a, n, k, depth)
        if k >= 1 and n >= 2:
            cols[1][2] += d
        return cols, d

    mp.setattr(bell, "_bell_columns", corrupted)


def _wrong_power_entry(mp):
    # phi_pow's power-table route: [x^2] g^1 of umbral's power table gains 1, so entry
    # (2, 1) = 2!/1! [x^2] g gains 2
    real = umbral.powers

    def corrupted(f, count):
        for k, (p, dp) in enumerate(real(f, count)):
            if k == 1:
                p = [p[0], p[1], p[2] + dp, *p[3:]]
            yield p, dp

    mp.setattr(umbral, "powers", corrupted)


def _edit_flow_rows(edit):
    """An injection that lets ``edit(rows, den)`` change the integer flow triangle, rows over
    one denominator, and returns the pair the Krylov columns then read."""

    def inject(mp):
        real = flow._flow_triangle
        mp.setattr(flow, "_flow_triangle", lambda f, n: edit(*real(f, n)))

    return inject


def _halved_rows(rows, den):
    return rows, 2 * den  # every entry halved, the unit diagonal included


def _wrong_bell_entry(rows, den):
    rows[2][1] += den  # B_(2,1) = a_2 gains 1; the diagonal stays 1
    return rows, den


def _corrupt_sigma(mp):
    real = sigma.sigma_apply
    mp.setattr(sigma, "sigma_apply", lambda *args, **kwargs: real(*args, **kwargs) + 1)


def _corrupt_niederhausen(mp):
    real = umbral.exp_series
    mp.setattr(umbral, "exp_series", lambda f: real(f).scale(2))


def _corrupt_power(mp):
    real = fps.power

    def corrupted(f, p, q):
        g = real(f, p, q)
        g[3] += 1
        return g

    mp.setattr(fps, "power", corrupted)


def _corrupt_powers(mp):
    # umbral's binding of the power table that genfunc and km read: every f^k,
    # k >= 1, gains x^(k+1).  Transfer and Steffensen read reciprocal_powers instead,
    # so genfunc and km are wrong and transfer catches genfunc first.
    real = umbral.powers

    def corrupted(f, count):
        for k, (p, dp) in enumerate(real(f, count)):
            if 0 < k < len(p) - 1:
                p = p[: k + 1] + [p[k + 1] + dp] + p[k + 2 :]
            yield p, dp

    mp.setattr(umbral, "powers", corrupted)


def _corrupt_reciprocal_powers(mp):
    # umbral's binding of the (D/Q)^k table that transfer and Steffensen read: every
    # (D/Q)^k, k >= 5, gains x.  Column 0 of transfer's row k - 1 is [x^(k-1)] Q'(D/Q)^k,
    # which reads x^1 only through Q'_(k-2), zero for k >= 5 as Q' has degree 2, so both
    # routes stay well-formed triangles and go wrong off column 0 and the diagonal.
    real = umbral.reciprocal_powers

    def corrupted(g, count):
        for k, (p, dp) in enumerate(real(g, count)):
            if k >= 5:
                p = [p[0], p[1] + dp, *p[2:]]
            yield p, dp

    mp.setattr(umbral, "reciprocal_powers", corrupted)


# name -> (argv, injection, expected disagreement document)
INJECTIONS = {
    "basic": (
        ["basic", "--delta", "exp(D)-1", "--route", "all", "--order", "5", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "km", _wrong_km),
        {"construction": "basic", "routes": ["transfer", "km"], "index": [3, 2], "values": ["-3", "-2"]},
    ),
    "basic_past_digit_limit": (
        # -3 + 2^80000 has 24083 digits, past the 21845 the CLI can print
        ["basic", "--delta", "exp(D)-1", "--route", "all", "--order", "5", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "km", lambda Q, n: _wrong_km(Q, n, 2**80000)),
        {
            "construction": "basic",
            "routes": ["transfer", "km"],
            "index": [3, 2],
            "values": ["-3", "<80000-bit numerator>/<1-bit denominator>"],
        },
    ),
    "basic_powers": (
        ["basic", "--delta", "exp(D)-1", "--route", "all", "--order", "5", "--format", "json"],
        _corrupt_powers,
        {"construction": "basic", "routes": ["transfer", "genfunc"], "index": [2, 1], "values": ["-1", "1"]},
    ),
    "basic_reciprocal_powers": (
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "16", "--format", "json"],
        _corrupt_reciprocal_powers,
        {
            "construction": "basic",
            "routes": ["transfer", "steffensen"],
            "index": [4, 1],
            "values": ["30859/720", "-49/144"],
        },
    ),
    "itlog": (
        ["itlog", "--series", "exp(x)-1", "--order", "8", "--format", "json"],
        _edit_shifted_columns(_wrong_first_row),
        {
            "construction": "itlog",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1", "1/2"],
        },
    ),
    "itlog_last": (
        ["itlog", "--series", "exp(x)-1", "--order", "8", "--format", "json"],
        _edit_shifted_columns(_wrong_last_row),
        {
            "construction": "itlog",
            "routes": ["coefficient", "equation"],
            "index": [9],
            "values": ["17/145152", "31/725760"],
        },
    ),
    "itlog_scaled": (
        ["itlog", "--series", "x+3/5*x^3+x^5", "--order", "8", "--format", "json"],
        _edit_shifted_columns(_doubled),
        {
            "construction": "itlog",
            "routes": ["coefficient", "leading_term"],
            "index": [3],
            "values": ["6/5", "3/5"],
        },
    ),
    "iterate": (
        ["iterate", "--series", "exp(x)-1", "--s", "1/2", "--order", "8"],
        _edit_shifted_columns(_wrong_first_row),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1/2", "1/4"],
        },
    ),
    "iterate_last": (
        ["iterate", "--series", "exp(x)-1", "--s", "1/2", "--order", "8"],
        _edit_shifted_columns(_wrong_last_row),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "equation"],
            "index": [9],
            "values": ["7963/4644864", "38951/23224320"],
        },
    ),
    "phipow": (
        # g = q^(-s) gains x^2; frac_iterate's leading term catches it before any triangle
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _corrupt_frac_coefficients(2),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["3/4", "-1/4"],
        },
    ),
    "phipow_last": (
        # g gains x^N, fixed only by g o q = q o g
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _corrupt_frac_coefficients(None),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "equation"],
            "index": [6],
            "values": ["19313/7680", "7793/7680"],
        },
    ),
    "phipow_flow": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _wrong_bell_column,
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [2, 1], "values": ["1/2", "-1/2"]},
    ),
    "phipow_flow_columns": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _wrong_power_entry,
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [2, 1], "values": ["-1/2", "3/2"]},
    ),
    "phipow_flow_rows": (
        # every entry of the flow triangle that frac_iterate reads is halved, the diagonal too
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _edit_flow_rows(_halved_rows),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["-1/8", "-1/4"],
        },
    ),
    "itlog_flow_rows": (
        ["itlog", "--series", "exp(x)-1", "--order", "8", "--format", "json"],
        _edit_flow_rows(_halved_rows),
        {
            "construction": "itlog",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1/4", "1/2"],
        },
    ),
    "itlog_bell_entry": (
        ["itlog", "--series", "exp(x)-1", "--order", "8", "--format", "json"],
        _edit_flow_rows(_wrong_bell_entry),
        {
            "construction": "itlog",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1", "1/2"],
        },
    ),
    "iterate_flow_rows": (
        ["iterate", "--series", "exp(x)-1", "--s", "1/2", "--order", "8"],
        _edit_flow_rows(_halved_rows),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1/8", "1/4"],
        },
    ),
    "iterate_bell_entry": (
        # B_(2,1) of the flow triangle gains 1; frac_iterate's checks never read that triangle
        ["iterate", "--series", "exp(x)-1", "--s", "1/2", "--order", "8"],
        _edit_flow_rows(_wrong_bell_entry),
        {
            "construction": "fractional iterate",
            "routes": ["coefficient", "leading_term"],
            "index": [2],
            "values": ["1/2", "1/4"],
        },
    ),
    "pow_rat": (
        ["series", "sqrt(1+x)", "--order", "6", "--format", "json"],
        _corrupt_power,
        {
            "construction": "pow_rat",
            "routes": ["recurrence", "equation"],
            "index": [2],
            "values": ["47/16", "-1/16"],
        },
    ),
    "faulhaber": (
        ["faulhaber", "--n", "3"],
        _corrupt_sigma,
        {"construction": "faulhaber", "routes": ["closed", "sigma"], "index": [0], "values": ["0", "1"]},
    ),
    "niederhausen": (
        ["check", "--family", "abel", "--params", "a=1", "--order", "6", "--format", "json"],
        _corrupt_niederhausen,
        {
            "construction": "niederhausen",
            "routes": ["generating_function", "column"],
            "index": [1],
            "values": ["2", "1"],
        },
    ),
}


def _check_document(out: str, expected: dict):
    doc = json.loads(out)  # exactly one JSON document
    assert doc == {"error": "route disagreement", **expected}


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_injected_disagreement_exits_1_with_json(name, monkeypatch, capsys):
    argv, inject, expected = INJECTIONS[name]
    inject(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    _check_document(captured.out, expected)
    assert captured.err == ""


def test_catalog_reports_route_disagreement_as_counterexample(monkeypatch):
    monkeypatch.setitem(umbral.BASIC_ROUTES, "km", _wrong_km)
    result = identity_check("falling", n=4).results[0]
    assert result.identity == "five_routes"
    assert result.counterexample == {"route": "km", "against": "transfer"}


def test_pow_rat_checks_the_constant_term(monkeypatch):
    # 2 f^r satisfies f g' = r f' g too; only g(0) = 1 tells it from f^r
    real = fps.power
    monkeypatch.setattr(fps, "power", lambda f, p, q: [2 * v for v in real(f, p, q)])
    with pytest.raises(RouteDisagreement) as info:
        fps.pow_rat(series([1, 1], 4), F(1, 2))
    assert (info.value.routes, info.value.values) == (("recurrence", "constant_term"), (2, 1))


_SUBPROCESS = """
import sys
import pytest
from test_crosscheck import INJECTIONS
from umbra.cli import main

argv, inject, _ = INJECTIONS[sys.argv[1]]
inject(pytest.MonkeyPatch())
sys.exit(main(argv))
"""


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_injected_disagreement_survives_optimize_flag(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SUBPROCESS, name],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    _check_document(proc.stdout, INJECTIONS[name][2])
    assert "Traceback" not in proc.stderr


# -- source guard ---------------------------------------------------------------------------------


def test_library_has_no_assert():
    """Cross-checks go through `agree`; `python -O` strips assert statements."""
    for path in sorted((ROOT / "src" / "umbra").glob("*.py")):
        text = path.read_text()
        assert "AssertionError" not in text, path.name
        asserts = [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"

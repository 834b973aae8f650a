"""The one cross-check mechanism: `agree`, `RouteDisagreement` and the CLI's exit 1.

Each injection below makes one route of one construction return a wrong
answer; the CLI must then exit 1 with a single JSON counterexample, also
under `python -O`.  Each shape injection breaks one condition of the basic-set
shape check (`umbral._check_basic`) in the one form it checks; the CLI must then
exit 2 with that condition's message, also under `python -O`.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
import pytest

import umbra
from umbra import _kernel, bell, catalog, cli, flow, fps, sigma, umbral
from umbra.catalog import family, identity_check
from umbra.cli import main
from umbra.errors import RouteDisagreement, agree, shown
from umbra.fps import monomial, poly, series
from umbra.operators import ShiftOp, validate_delta

from oracles import triangle

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


def _outcome(**routes):
    """(index, values) of agree's disagreement over ``routes``, or None if they agree."""
    try:
        agree("demo", **routes)
    except RouteDisagreement as exc:
        return exc.index, exc.values
    return None


def _same_outcome(forms, fractions):
    """Integer forms and Fraction values give one verdict and index, and one pair of values
    when an entry differs; with no differing entry the values are the routes' own."""
    got, want = _outcome(one=forms[0], two=forms[1]), _outcome(one=fractions[0], two=fractions[1])
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert got[1] == (want[1] if got[0] else forms)


@st.composite
def _vector_pair(draw):
    """Two vector forms: the second is the first over k times its denominator (k = 1 keeps
    it), maybe with zeros past its end and one entry shifted; neither need be reduced."""
    nums = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
    den, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    other = [k * v for v in nums] + [0] * draw(st.integers(0, 2))
    i, shift = draw(st.integers(0, len(other) - 1)), draw(st.integers(-2, 2))
    other[i] += shift
    return (nums, den), (other, k * den)


@given(_vector_pair())
def test_agree_on_vector_forms_matches_series(pair):
    (x, dx), (y, dy) = pair
    _same_outcome(pair, [series([F(v, d) for v in nums], len(nums) - 1) for nums, d in ((x, dx), (y, dy))])


@st.composite
def _row_pair(draw):
    """Two triangle forms by rows, row m over its own denominator: the second scales row m
    by k_m, so neither need be reduced, maybe with a zero row more and one entry shifted."""
    n = draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=m + 1, max_size=m + 1)) for m in range(n + 1)]
    dens = [draw(st.integers(1, 12)) for _ in range(n + 1)]
    scale = [draw(st.integers(1, 3)) for _ in range(n + 1)]
    extra = draw(st.integers(0, 1))
    other = [[s * v for v in row] for s, row in zip(scale, rows)] + [[0] * (n + 2)] * extra
    m = draw(st.integers(0, n))
    other[m][draw(st.integers(0, m))] += draw(st.integers(-2, 2))
    return (rows, dens), (other, [s * d for s, d in zip(scale, dens)] + [1] * extra)


def _tri_of_rows(form):
    rows, dens = form
    return triangle([[F(v, d) for v in row] for row, d in zip(rows, dens)])


@given(_row_pair())
def test_agree_on_row_forms_matches_triangles(pair):
    tris = [_tri_of_rows(form) for form in pair]
    _same_outcome(pair, tris)


def test_agree_names_first_route_that_differs():
    with pytest.raises(RouteDisagreement) as info:
        agree("demo", a=F(1), b=F(1), c=F(2), d=F(3))
    assert info.value.routes == ("a", "c")


# -- injected disagreements through the CLI -------------------------------------------------------


def _wrong_route(route, m, k, gain=1):
    """A route for ``BASIC_ROUTES``, which returns its integer form: the form of ``route``,
    by rows, with entry (m, k) raised by ``gain``."""

    def wrong(Q, n):
        rows, dens = out = route(Q, n)
        rows[m][k] += gain * dens[m]
        return out

    return wrong


_wrong_km = _wrong_route(umbral.basic_km, 3, 2)


def _extra_row(route):
    """A route for ``BASIC_ROUTES``: the form of ``route`` with row n + 1 = x^(n+1) appended,
    which passes the shape check of a basic set whose delta has unit 1."""

    def wrong(Q, n):
        rows, dens = out = route(Q, n)
        rows.append([0] * (n + 1) + [1])
        dens.append(1)
        return out

    return wrong


def _missing_row(route):
    """A route for ``BASIC_ROUTES``: the form of ``route`` without its last row."""

    def wrong(Q, n):
        rows, dens = out = route(Q, n)
        del rows[-1], dens[-1]
        return out

    return wrong


def _negated_row(route, m):
    """A route for ``BASIC_ROUTES``: the form of ``route`` with row m's numerators and its
    denominator negated, the same values, which ``agree`` and the basic-set shape check accept."""

    def wrong(Q, n):
        rows, dens = out = route(Q, n)
        rows[m], dens[m] = [-v for v in rows[m]], -dens[m]
        return out

    return wrong


def _wrong_row_form(name, m, k):
    """An injection that raises entry (m, k) of the triangle form that ``umbral.<name>``
    returns by 1."""

    def inject(mp):
        real = getattr(umbral, name)

        def wrong(*args):
            rows, dens = out = real(*args)
            rows[m][k] += dens[m]
            return out

        mp.setattr(umbral, name, wrong)

    return inject


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


def _wrong_bell_column(m, k):
    """An injection into phi_pow's Bell route: E_(m,k) = k! D^k B_(m,k) of bell._bell_columns
    gains D (so B_(2,1) gains 1); the flow triangle of frac_iterate reads flow's own binding
    and stays clean."""

    def inject(mp):
        real = bell._bell_columns

        def corrupted(a, n, kk, depth):
            cols, d = real(a, n, kk, depth)
            if k <= kk and m <= n:
                cols[k][m] += d
            return cols, d

        mp.setattr(bell, "_bell_columns", corrupted)

    return inject


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


def _corrupt_sigma_op(extra):
    """An injection that adds ``extra(p)`` to what ``SigmaOp.apply(p)`` returns."""

    def inject(mp):
        real = sigma.SigmaOp.apply
        mp.setattr(sigma.SigmaOp, "apply", lambda self, p: real(self, p) + extra(p))

    return inject


def _corrupt_niederhausen(mp):
    real = umbral.exp_series
    mp.setattr(umbral, "exp_series", lambda f: real(f).scale(2))


def _corrupt_power(mp):
    # g_3 of Miller's recurrence, the kernel's solved-prefix loop as pow_rat reads it, gains 1
    real = fps.recurrence

    def corrupted(*args, **kwargs):
        g = real(*args, **kwargs)
        g[3] += 1
        return g

    mp.setattr(fps, "recurrence", corrupted)


def _corrupt_last_power(mp):
    # g_N of Miller's recurrence gains 1; only f g' reads it, at x^(N-1)
    real = fps.recurrence

    def corrupted(*args, **kwargs):
        g = real(*args, **kwargs)
        g[-1] += 1
        return g

    mp.setattr(fps, "recurrence", corrupted)


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
    # The table is graded by b: entry 1 of (p, dp) is p[1] / (dp b).
    real = umbral.reciprocal_powers

    def corrupted(g, count):
        b, table = real(g, count)

        def wrong():
            for k, (p, dp) in enumerate(table):
                if k >= 5:
                    p = [p[0], p[1] + dp * b, *p[2:]]
                yield p, dp

        return b, wrong()

    mp.setattr(umbral, "reciprocal_powers", corrupted)


def _corrupt_relation_power(mp):
    # g^4 of genfunc's Q(g) = t steps (k >= d = 3 for a cubic Q) gains t^5, so entry (5, 4)
    # = 5!/4! [t^5] g^4 gains 5; the steps after it read the wrong g^4 too
    real = umbral._relation_powers

    def corrupted(g, q, n):
        for k, (p, dp) in enumerate(real(g, q, n)):
            if k == 4:
                p = [*p[:5], p[5] + dp, *p[6:]]
            yield p, dp

    mp.setattr(umbral, "_relation_powers", corrupted)


def _corrupt_divided_row(mp):
    # the recurrence route's quotient reversed(r) / Q' for row 6 gains 1 in its last entry,
    # which is U_0, so r_1 of row 6 gains 1 and the rows after it read the wrong row 6;
    # entry i of a quotient (u, du) graded by b is u[i] / (du b^i)
    real = umbral.divider

    def corrupted(g):
        b, divide = real(g)

        def wrong(h, dh):
            u, du = divide(h, dh)
            return ([*u[:-1], u[-1] + du * b ** (len(u) - 1)] if len(h) == 6 else u), du

        return b, wrong

    mp.setattr(umbral, "divider", corrupted)


def _corrupt_divider(mp):
    # the kernel's graded division at both bindings: every quotient of at least six entries
    # gains x^5, so transfer and Steffensen (through reciprocal_powers) and recurrence all go
    # wrong at once, each in its own way: transfer's (5, 0) entry is no longer 0
    real = _kernel.divider

    def corrupted(g):
        b, divide = real(g)

        def wrong(h, dh):
            u, du = divide(h, dh)
            return ([*u[:5], u[5] + du * b**5, *u[6:]] if len(u) > 5 else u), du

        return b, wrong

    mp.setattr(_kernel, "divider", corrupted)
    mp.setattr(umbral, "divider", corrupted)


def _corrupt_closed_form(m, k=None):
    """An injection into the integer row form of the closed form that ``triangle`` reads: entry
    (m, k) gains 1, or, with no k, row m's denominator is doubled."""

    def inject(mp):
        real = catalog.family

        def corrupted(name, /, **params):
            spec = real(name, **params)

            def form(n):
                rows, dens = out = spec.closed_form(n)
                if k is None:
                    dens[m] *= 2
                else:
                    rows[m][k] += dens[m]
                return out

            return catalog.FamilySpec(spec.name, spec.params, spec.delta, form)

        mp.setattr(catalog, "family", corrupted)

    return inject


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
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "km", _wrong_route(umbral.basic_km, 3, 2, 2**80000)),
        {
            "construction": "basic",
            "routes": ["transfer", "km"],
            "index": [3, 2],
            "values": ["-3", "<80000-bit numerator>/<1-bit denominator>"],
        },
    ),
    "basic_recurrence": (
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "8", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "recurrence", _wrong_route(umbral.basic_recurrence, 7, 2)),
        {
            "construction": "basic",
            "routes": ["transfer", "recurrence"],
            "index": [7, 2],
            "values": ["86597/5760", "92357/5760"],
        },
    ),
    "basic_transfer": (
        # the route that agree returns is the wrong one; steffensen is the first to differ
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "8", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _wrong_route(umbral.basic_transfer, 6, 3)),
        {
            "construction": "basic",
            "routes": ["transfer", "steffensen"],
            "index": [6, 3],
            "values": ["-209/288", "-497/288"],
        },
    ),
    "basic_km_zero_diagonal": (
        # only the returned route's form is shape-checked (umbral._check_basic): a zero
        # diagonal entry of another route is a disagreement
        ["basic", "--delta", "exp(D)-1", "--route", "all", "--order", "5", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "km", _wrong_route(umbral.basic_km, 4, 4, -1)),
        {"construction": "basic", "routes": ["transfer", "km"], "index": [4, 4], "values": ["1", "0"]},
    ),
    "basic_genfunc": (
        ["basic", "--delta", "exp(D)-1", "--route", "all", "--order", "6", "--format", "json"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "genfunc", _wrong_route(umbral.basic_genfunc, 5, 3)),
        {"construction": "basic", "routes": ["transfer", "genfunc"], "index": [5, 3], "values": ["35", "36"]},
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
    "basic_genfunc_relation": (
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "20", "--format", "json"],
        _corrupt_relation_power,
        {
            "construction": "basic",
            "routes": ["transfer", "genfunc"],
            "index": [5, 4],
            "values": ["5/48", "245/48"],
        },
    ),
    "basic_recurrence_divided": (
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "20", "--format", "json"],
        _corrupt_divided_row,
        {
            "construction": "basic",
            "routes": ["transfer", "recurrence"],
            "index": [6, 1],
            "values": ["10003/2880", "12883/2880"],
        },
    ),
    "basic_divider": (
        ["basic", "--delta=2*D-D^2/3+3*D^3/5", "--route", "all", "--order", "20", "--format", "json"],
        _corrupt_divider,
        {
            "construction": "basic",
            "routes": ["transfer", "steffensen"],
            "index": [5, 0],
            "values": ["945/2", "0"],
        },
    ),
    "basic_divider_negative_lead": (
        # the graded loop on Q/D and Q' with lead -3/2: the quotients carry 1/lead as -2 over 3
        ["basic", "--delta=-3/2*D+D^2/5-2*D^3/7", "--route", "all", "--order", "20", "--format", "json"],
        _corrupt_divider,
        {
            "construction": "basic",
            "routes": ["transfer", "steffensen"],
            "index": [5, 0],
            "values": ["-2660/27", "0"],
        },
    ),
    "basic_recurrence_divided_negative_lead": (
        ["basic", "--delta=-3/2*D+D^2/5-2*D^3/7", "--route", "all", "--order", "20", "--format", "json"],
        _corrupt_divided_row,
        {
            "construction": "basic",
            "routes": ["transfer", "recurrence"],
            "index": [6, 1],
            "values": ["180158464/28704375", "208862839/28704375"],
        },
    ),
    "triangle_closed_form": (
        ["triangle", "--family", "touchard", "--order", "12", "--format", "json"],
        _corrupt_closed_form(7, 3),
        {
            "construction": "triangle",
            "routes": ["recurrence", "closed_form"],
            "index": [7, 3],
            "values": ["301", "302"],
        },
    ),
    "triangle_closed_form_den": (
        # row 7 of stretch's closed form is (2/3)^7 x^7 over 3^7; its denominator doubles
        ["triangle", "--family", "stretch", "--params", "lam=2/3", "--order", "12", "--format", "json"],
        _corrupt_closed_form(7),
        {
            "construction": "triangle",
            "routes": ["recurrence", "closed_form"],
            "index": [7, 7],
            "values": ["128/2187", "64/2187"],
        },
    ),
    "triangle_recurrence": (
        ["triangle", "--family", "touchard", "--order", "12", "--format", "json"],
        lambda mp: mp.setattr(cli, "basic_recurrence", _wrong_route(umbral.basic_recurrence, 7, 3)),
        {
            "construction": "triangle",
            "routes": ["recurrence", "closed_form"],
            "index": [7, 3],
            "values": ["302", "301"],
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
        _wrong_bell_column(2, 1),
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [2, 1], "values": ["1/2", "-1/2"]},
    ),
    "phipow_flow_columns": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _wrong_power_entry,
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [2, 1], "values": ["-1/2", "3/2"]},
    ),
    "phipow_bell_rows": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _wrong_row_form("_bell_form", 4, 2),
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [4, 2], "values": ["17/4", "13/4"]},
    ),
    "phipow_power_rows": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5", "--format", "tsv"],
        _wrong_row_form("_power_rows", 5, 3),
        {"construction": "phi_pow", "routes": ["bell", "powers"], "index": [5, 3], "values": ["10", "11"]},
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
    "pow_rat_last": (
        ["series", "sqrt(1+x)", "--order", "64", "--format", "json"],
        _corrupt_last_power,
        {
            "construction": "pow_rat",
            "routes": ["recurrence", "equation"],
            "index": [63],
            "values": [
                "170141937827273701907525607198963676769/2658455991569831745807614120560689152",
                "754366804470175838303483079571041/2658455991569831745807614120560689152",
            ],
        },
    ),
    "faulhaber": (
        ["faulhaber", "--n", "3"],
        _corrupt_sigma,
        {"construction": "faulhaber", "routes": ["closed", "sigma"], "index": [0], "values": ["0", "1"]},
    ),
    "sigma_equation": (
        # s gains x^(d+1), which vanishes at the anchor 0, so only Q s = p tells
        ["sum", "--poly=x^2", "--from=0", "--format", "json"],
        _corrupt_sigma_op(lambda p: monomial(int(p.degree()) + 1)),
        {"construction": "sigma", "routes": ["basic", "equation"], "index": [0], "values": ["1", "0"]},
    ),
    "sigma_anchor": (
        # s gains 1, which Q s = p cannot see
        ["sum", "--poly=x^2", "--from=3/2", "--format", "json"],
        _corrupt_sigma_op(lambda p: 1),
        {"construction": "sigma", "routes": ["basic", "anchor"], "index": [], "values": ["1", "0"]},
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


# name -> (argv, injection, the message of the shape condition it breaks); only the returned
# route's form is checked, so each corrupts a single route or phi_pow's Bell route
SHAPE_INJECTIONS = {
    "shape_corner": (
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _wrong_route(umbral.basic_transfer, 0, 0)),
        "umbral triangle must have coeff[0][0] = 1",
    ),
    "shape_column_0": (
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _wrong_route(umbral.basic_transfer, 3, 0)),
        "umbral triangle must have coeff[n][0] = 0 for n >= 1",
    ),
    "shape_zero_diagonal": (
        # entry (3, 3) of exp(D)-1's basic set is 1, and becomes 0
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _wrong_route(umbral.basic_transfer, 3, 3, -1)),
        "umbral triangle must have nonzero diagonal",
    ),
    "shape_unit_diagonal": (
        # the unit of 2*D-D^2/3 is 2: entry (3, 3) is 1/8, and becomes 9/8
        ["basic", "--delta=2*D-D^2/3", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _wrong_route(umbral.basic_transfer, 3, 3)),
        "diagonal must equal unit^(-n)",
    ),
    # a form of the wrong size passes the basic set's checks and is refused by the printer
    "shape_extra_row": (
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _extra_row(umbral.basic_transfer)),
        "triangle must have 6 rows",
    ),
    "shape_missing_row": (
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _missing_row(umbral.basic_transfer)),
        "triangle must have 6 rows",
    ),
    # so is a row over a negative denominator, which would print as "-1/-1"
    "shape_negative_denominator": (
        ["basic", "--delta", "exp(D)-1", "--route", "transfer", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _negated_row(umbral.basic_transfer, 3)),
        "row 3 must have a positive denominator",
    ),
    "shape_sheffer_extra_row": (
        # row 6 has degree 6, past the Appell operator's x^5
        ["sheffer", "--appell=1+D", "--delta", "exp(D)-1", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _extra_row(umbral.basic_transfer)),
        "indicator trunc 5 < deg p = 6; operator not resolved deeply enough",
    ),
    "shape_sheffer_missing_row": (
        ["sheffer", "--appell=1+D", "--delta", "exp(D)-1", "--order", "5"],
        lambda mp: mp.setitem(umbral.BASIC_ROUTES, "transfer", _missing_row(umbral.basic_transfer)),
        "triangle must have 6 rows",
    ),
    "shape_phipow_corner": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5"],
        _wrong_bell_column(0, 0),
        "umbral triangle must have coeff[0][0] = 1",
    ),
    "shape_phipow_column_0": (
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2", "--order", "5"],
        _wrong_bell_column(3, 0),
        "umbral triangle must have coeff[n][0] = 0 for n >= 1",
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPE_INJECTIONS))
def test_injected_shape_fault_exits_2_with_its_message(name, monkeypatch, capsys):
    argv, inject, message = SHAPE_INJECTIONS[name]
    inject(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


SHAPE_DELTAS = {
    "exp(D)-1": lambda t: validate_delta(ShiftOp(fps.expm1(t))),
    "2*D-D^2/3+3*D^3/5+D^4/2": lambda t: validate_delta(ShiftOp(series([0, 2, F(-1, 3), F(3, 5), F(1, 2)], t))),
    "catalan": family("catalan").delta,
}


@pytest.mark.parametrize("n", [0, 1, 2, 12])
@pytest.mark.parametrize("delta", sorted(SHAPE_DELTAS))
def test_triangle_forms_have_the_shape_agree_relies_on(delta, n):
    # agree compares triangle forms row by row (errors._lines) and checks no shape of its
    # own: every builder gives rows 0..n, row m of m + 1 entries, over positive int dens
    Q = SHAPE_DELTAS[delta](n + 1)
    g = fps.comp_inv(Q.indicator.truncate(max(n, 1)))
    forms = [route(Q, n) for route in umbral.BASIC_ROUTES.values()]
    forms += [umbral._bell_form(g, n), umbral._power_rows(_kernel.powers(g.coeffs, n), n)]
    for rows, dens in forms:
        assert len(rows) == len(dens) == n + 1
        assert [len(row) for row in rows] == list(range(1, n + 2))
        assert type(dens) is list and all(type(d) is int and d > 0 for d in dens)


def test_pow_rat_checks_the_constant_term(monkeypatch):
    # 2 f^r satisfies f g' = r f' g too; only g(0) = 1 tells it from f^r
    real = fps.recurrence
    monkeypatch.setattr(fps, "recurrence", lambda *args: [2 * v for v in real(*args)])
    with pytest.raises(RouteDisagreement) as info:
        fps.pow_rat(series([1, 1], 4), F(1, 2))
    assert (info.value.routes, info.value.values) == (("recurrence", "constant_term"), (2, 1))


def test_integer_checks_take_no_series_product_derivative_or_composition(monkeypatch):
    # pow_rat, itlog, frac_iterate and phi_pow compare their checks as integer forms
    f, q = series([1, F(1, 3), F(-2, 7), F(1, 11)], 16), series([0, 1, F(-1, 2), F(3, 7), F(1, 5)], 12)
    Q, calls = validate_delta(ShiftOp(q)), []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(fps.Series, name, spy(name, getattr(fps.Series, name)))
    for real in (fps.derive, fps.compose):
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "umbra" and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, spy(real.__name__, real))
    fps.pow_rat(f, F(-5, 2))
    flow.itlog(q)
    flow.frac_iterate(q, F(2, 3))
    flow.phi_pow(Q, F(1, 2), 10)
    assert calls == []


@pytest.mark.parametrize("name", ["derivative", "falling", "catalan", "laguerre"])
@pytest.mark.parametrize("a", [F(0), F(1, 2)])
def test_sigma_check_rejects_every_single_coefficient_corruption(name, a, monkeypatch):
    # Q s = p and s(a) = 0 fix s: adding x^i breaks s(a) = 0 unless a^i = 0, and Q x^i
    # has degree exactly i - 1, so Q s = p breaks otherwise
    Q = family(name).delta(9)
    p = poly([3, F(-1, 2), 0, F(2, 7), 5])
    s = sigma.sigma_apply(Q, a, p)
    for i in range(len(s.coeffs)):
        bad = s + monomial(i)
        monkeypatch.setattr(sigma.SigmaOp, "apply", lambda self, q: bad)
        with pytest.raises(RouteDisagreement) as info:
            sigma.sigma_apply(Q, a, p)
        assert (info.value.construction, info.value.routes) == (
            "sigma", ("basic", "anchor" if a**i else "equation")
        ), i


_SUBPROCESS = """
import contextlib, io, json, sys, traceback
import pytest
from test_crosscheck import INJECTIONS, SHAPE_INJECTIONS
from umbra.cli import main

rows = {}
for name, (argv, inject, _) in sorted({**INJECTIONS, **SHAPE_INJECTIONS}.items()):
    out, err, mp, code = io.StringIO(), io.StringIO(), pytest.MonkeyPatch(), None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            inject(mp)
            code = main(argv)
    except Exception:
        err.write(traceback.format_exc())
    finally:
        mp.undo()
    rows[name] = (code, out.getvalue(), err.getvalue())
json.dump(rows, sys.__stdout__)
"""


@pytest.fixture(scope="module")
def optimized_rows():
    """(exit code, stdout, stderr) of every injection and shape injection row, all run in
    one `python -O` interpreter, each with its own MonkeyPatch undone after it; an
    exception that escapes a row is that row's stderr traceback, with no exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SUBPROCESS],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(INJECTIONS))
def test_injected_disagreement_survives_optimize_flag(name, optimized_rows):
    code, out, err = optimized_rows[name]
    assert code == 1, err
    _check_document(out, INJECTIONS[name][2])
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(SHAPE_INJECTIONS))
def test_injected_shape_fault_survives_optimize_flag(name, optimized_rows):
    assert optimized_rows[name] == [2, "", f"error: {SHAPE_INJECTIONS[name][2]}\n"]


# -- source guard ---------------------------------------------------------------------------------


def test_library_has_no_assert():
    """Cross-checks go through `agree`; `python -O` strips assert statements.

    The walk covers every module under src/umbra, subpackages included."""
    paths = sorted((ROOT / "src" / "umbra").rglob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert "AssertionError" not in text, path.name
        asserts = [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"


def test_library_has_no_global():
    """Every function is pure: none rebinds module state, such as a cache."""
    paths = sorted((ROOT / "src" / "umbra").rglob("*.py"))
    assert paths
    for path in paths:
        found = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Global)]
        assert not found, f"{path.name}: global statement at lines {found}"


def test_library_has_no_cache():
    """No request leaves state behind for the next: no object in any umbra module, nor any
    attribute of a class defined there, is a functools cache, but the argument parser, which
    reads no environment and holds no result."""
    found = []
    for name in ["umbra"] + [info.name for info in pkgutil.walk_packages(umbra.__path__, "umbra.")]:
        for key, obj in vars(importlib.import_module(name)).items():
            owned = vars(obj).items() if isinstance(obj, type) and obj.__module__ == name else ()
            found += [f"{name}.{key}"] * hasattr(obj, "cache_info")
            found += [f"{name}.{key}.{attr}" for attr, value in owned if hasattr(value, "cache_info")]
    assert found == ["umbra.cli.build_parser"]

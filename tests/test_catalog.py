"""Family catalog: closed forms, lookups, identity reports."""

import ast
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import cycle
from math import factorial
from pathlib import Path

import pytest

from umbra import catalog, flow, sigma, umbral
from umbra._kernel import scaled
from umbra.catalog import (
    DEFAULT_CHECK_SET,
    IdentityResult,
    Report,
    check_all,
    family,
    identity_check,
    lah,
    stirling_rows,
)
from umbra.errors import UnknownFamily
from umbra.fps import Poly, poly, series, x_series
from umbra.operators import shift_by
from umbra.umbral import (
    Triangle, binomial_convolution, is_binomial_type, tri_from_form, tri_to_form
)

import oracles
from oracles import tri_identity


def test_family_lookup_and_params():
    spec = family("abel", a="1")
    assert spec.params["a"] == 1
    rows, dens = spec.closed_form(3)
    assert rows[3] == [0, 9, -6, 1] and dens[3] == 1
    with pytest.raises(UnknownFamily):
        family("nope")
    with pytest.raises(UnknownFamily):
        family("stretch", lam=0)
    for name, params in DEFAULT_CHECK_SET + (("divided_difference", {"h": F(0)}),):
        spec = family(name, **{k: str(v) for k, v in params.items()})
        assert (spec.name, spec.params) == (name, params)


@pytest.mark.parametrize("value", [F(5, 2), F(-1, 3), "5/2", "2.0", "x"], ids=repr)
def test_family_refuses_a_p_that_is_not_an_integer(value):
    # a Fraction is refused like the string "5/2", not cut to its integer part
    message = f"bad value {value!r} for parameter 'p' of family 'degenerate_laguerre'"
    with pytest.raises(UnknownFamily) as info:
        family("degenerate_laguerre", p=value)
    assert str(info.value) == message
    assert family("degenerate_laguerre", p=F(6, 3)).params == {"p": 2}


def test_number_helpers_match_oracles():
    first, second = stirling_rows(64, True), stirling_rows(64, False)
    assert [len(row) for row in first] == [len(row) for row in second] == list(range(1, 66))
    for n in range(65):
        for k in range(n + 1):
            assert first[n][k] == oracles.stirling1_unsigned(n, k)
            assert second[n][k] == oracles.stirling2(n, k)
            assert lah(n, k) == oracles.lah(n, k)
    assert stirling_rows(0, True) == stirling_rows(0, False) == [[1]]
    assert lah(4, 2) == 36
    assert [sum(row) for row in stirling_rows(5, False)] == [1, 1, 2, 5, 15, 52]


def test_divided_difference_h_zero_is_derivative():
    spec = family("divided_difference", h=0)
    assert spec.delta(8).indicator == x_series(8)
    rep = identity_check("divided_difference", n=6, h=0)
    assert rep.all_passed


def test_abel_a_zero_degenerates_to_monomials():
    spec = family("abel", a=0)
    assert tri_from_form(spec.basic(6)) == tri_identity(6)
    rep = identity_check("abel", n=6, a=0)
    assert rep.all_passed


def test_catalan_family_delta():
    spec = family("catalan")
    ind = spec.delta(6).indicator
    assert ind[1] == 1 and ind[2] == -1 and all(ind[i] == 0 for i in (0, 3, 4, 5, 6))


def test_closed_forms_match_routes():
    for name, params in DEFAULT_CHECK_SET:
        spec = family(name, **params)
        tri, closed = tri_from_form(spec.basic(12)), tri_from_form(spec.closed_form(12))
        for n in range(13):
            for k in range(n + 1):
                assert tri.entry(n, k) == closed.entry(n, k), (name, params, n, k)


# every family in its default parameters, and the parameters whose row forms have their own
# denominators, signs or zeros: a negative or fractional lam, h and a, h = a = 0, p past 3
CLOSED_FORM_SPECS = DEFAULT_CHECK_SET + (
    ("stretch", {"lam": F(-2, 3)}),
    ("divided_difference", {"h": F(-3, 5)}),
    ("divided_difference", {"h": F(0)}),
    ("abel", {"a": F(0)}),
    ("abel", {"a": F(-1, 2)}),
    ("abel", {"a": F(3, 7)}),
    ("degenerate_laguerre", {"p": 4}),
    ("degenerate_laguerre", {"p": 5}),
)


@pytest.mark.parametrize("name, params", CLOSED_FORM_SPECS)
def test_closed_form_rows_match_the_entry_formulas(name, params):
    # rows 0..N for every N = 0..64: rows of m + 1 integers over positive integer dens, the
    # entry formula's values, and row m's denominator a divisor of v^m for a parameter u/v
    spec = family(name, **params)
    rows, dens = spec.closed_form(64)
    v = next((q.denominator for q in params.values() if isinstance(q, F)), 1)
    assert [len(row) for row in rows] == list(range(1, 66)) and len(dens) == 65
    for m, (row, d) in enumerate(zip(rows, dens)):
        assert type(d) is int and d > 0 and v**m % d == 0, (m, d)
        assert all(type(c) is int for c in row)
        expected = [oracles.closed_form_entry(name, params, m, k) for k in range(m + 1)]
        assert [F(c, d) for c in row] == expected, m
    for n in range(64):
        head, head_dens = spec.closed_form(n)
        assert (head, head_dens) == (rows[: n + 1], dens[: n + 1]), n


def test_degenerate_laguerre_row_values():
    spec = family("degenerate_laguerre", p=2)
    tri = tri_from_form(spec.basic(4))
    assert list(tri.rows[2]) == [0, 0, 1]  # L_{2,2} = x^2
    assert list(tri.rows[3]) == [0, -6, 0, 1]  # x^3 - 6x
    assert list(tri.rows[4]) == [0, 0, -24, 0, 1]  # x^4 - 24x^2


def test_touchard_identities_pass():
    rep = identity_check("touchard", n=10)
    assert rep.all_passed
    names = {r.identity for r in rep.results}
    assert {"spivey", "dobinski", "touchard_recurrence", "five_routes"} <= names


def test_laguerre_identities_pass():
    rep = identity_check("laguerre", n=8)
    assert rep.all_passed
    assert {"erdelyi", "laguerre_commutation", "laguerre_involution", "lah_connection"} <= {
        r.identity for r in rep.results
    }


def test_report_records_failures():
    rep = Report()
    rep.record("fake", "broken", {}, {"n": 3})
    rep.record("fake", "fine", {}, None)
    assert not rep.all_passed
    assert rep.results[0].status == "fail"
    assert rep.results[0].counterexample == {"n": 3}
    assert rep.results[1].passed


def test_identity_status_is_read_from_the_counterexample():
    assert IdentityResult("fake", "fine", {}, None).status == "pass"
    assert IdentityResult("fake", "broken", {}, {"n": 3}).status == "fail"


def test_check_all_passes():
    report = check_all(n=8)
    assert report.all_passed
    families_run = {(r.family, tuple(sorted((k, str(v)) for k, v in r.params.items()))) for r in report.results}
    assert len(families_run) == len(DEFAULT_CHECK_SET)


def test_identity_check_seeded_is_deterministic():
    a = identity_check("falling", n=8, seed=5)
    b = identity_check("falling", n=8, seed=5)
    assert [(r.identity, r.status) for r in a.results] == [
        (r.identity, r.status) for r in b.results
    ]


# -- the depth of every identity row; no catalog function branches on a family's name -------------

# family(params), identity, and the depth its check runs at in check_all at orders 0, 7 and 64.
# No output shows a depth (check --all prints the same bytes from order 10 up), so a table edit
# that moves a cap fails here and nowhere else.
_DEPTHS = """
derivative                 five_routes                 0 7 10
derivative                 binomial_type               0 7 8
derivative                 transform_roundtrip         0 7 10
stretch(lam=2)             five_routes                 0 7 10
stretch(lam=2)             binomial_type               0 7 8
stretch(lam=2)             transform_roundtrip         0 7 10
stretch(lam=3)             five_routes                 0 7 10
stretch(lam=3)             binomial_type               0 7 8
stretch(lam=3)             transform_roundtrip         0 7 10
falling                    five_routes                 0 7 10
falling                    binomial_type               0 7 8
falling                    transform_roundtrip         0 7 10
falling                    chu_vandermonde             0 7 8
falling                    stirling_recurrences        0 7 10
falling                    gen_bernoulli               0 7 8
falling                    special_class               0 7 8
rising                     five_routes                 0 7 10
rising                     binomial_type               0 7 8
rising                     transform_roundtrip         0 7 10
divided_difference(h=1/2)  five_routes                 0 7 10
divided_difference(h=1/2)  binomial_type               0 7 8
divided_difference(h=1/2)  transform_roundtrip         0 7 10
divided_difference(h=1/2)  conjugation                 0 7 10
divided_difference(h=1/2)  special_class               0 7 8
touchard                   five_routes                 0 7 10
touchard                   binomial_type               0 7 8
touchard                   transform_roundtrip         0 7 10
touchard                   spivey                      0 7 10
touchard                   dobinski                    0 7 10
touchard                   touchard_recurrence         0 7 10
touchard                   special_class               0 7 8
abel(a=1)                  five_routes                 0 7 10
abel(a=1)                  binomial_type               0 7 8
abel(a=1)                  transform_roundtrip         0 7 10
abel(a=1)                  abel_identity               0 7 8
abel(a=1)                  smooth_abel                 0 7 8
abel(a=1)                  abel_inverse_niederhausen   0 7 8
catalan                    five_routes                 0 7 10
catalan                    binomial_type               0 7 8
catalan                    transform_roundtrip         0 7 10
catalan                    catalan_bell                0 7 8
catalan                    catalan_numbers             0 7 10
catalan                    special_class               0 7 8
catalan                    special_class_inverse       0 7 8
laguerre                   five_routes                 0 7 10
laguerre                   binomial_type               0 7 8
laguerre                   transform_roundtrip         0 7 10
laguerre                   erdelyi                     0 7 8
laguerre                   laguerre_commutation        0 7 8
laguerre                   laguerre_involution         0 7 8
laguerre                   lah_connection              0 7 8
laguerre                   laguerre_powers             0 7 8
degenerate_laguerre(p=1)   five_routes                 0 7 10
degenerate_laguerre(p=1)   binomial_type               0 7 8
degenerate_laguerre(p=1)   transform_roundtrip         0 7 10
degenerate_laguerre(p=1)   degenerate_closed_form      0 7 8
degenerate_laguerre(p=1)   degenerate_laguerre_ode     0 7 8
degenerate_laguerre(p=1)   degenerate_cross            0 6 6
degenerate_laguerre(p=2)   five_routes                 0 7 10
degenerate_laguerre(p=2)   binomial_type               0 7 8
degenerate_laguerre(p=2)   transform_roundtrip         0 7 10
degenerate_laguerre(p=2)   degenerate_closed_form      0 7 8
degenerate_laguerre(p=2)   degenerate_laguerre_ode     0 7 8
degenerate_laguerre(p=2)   degenerate_cross            0 6 6
degenerate_laguerre(p=3)   five_routes                 0 7 10
degenerate_laguerre(p=3)   binomial_type               0 7 8
degenerate_laguerre(p=3)   transform_roundtrip         0 7 10
degenerate_laguerre(p=3)   degenerate_closed_form      0 7 8
degenerate_laguerre(p=3)   degenerate_laguerre_ode     0 7 8
degenerate_laguerre(p=3)   degenerate_cross            0 6 6
"""


def test_every_identity_row_runs_at_its_pinned_depth(monkeypatch):
    seen = []

    def wrap(identity, check):
        def run(spec, n, sets, **kwargs):
            params = ",".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
            seen.append((f"{spec.name}({params})" if params else spec.name, identity, n))
            return check(spec, n, sets, **kwargs)

        return run

    common = {"_check_routes": "five_routes", "_check_binomial": "binomial_type",
              "_check_transform_roundtrip": "transform_roundtrip"}
    for attr, identity in common.items():
        monkeypatch.setattr(catalog, attr, wrap(identity, getattr(catalog, attr)))
    for name, (make_spec, check_params, rows) in list(catalog._FAMILIES.items()):
        wrapped = tuple((identity, wrap(identity, check), cap) for identity, check, cap in rows)
        monkeypatch.setitem(catalog._FAMILIES, name, (make_spec, check_params, wrapped))
    pinned = [line.split() for line in _DEPTHS.strip().splitlines()]
    for col, order in enumerate((0, 7, 64)):
        seen.clear()
        assert check_all(order).all_passed
        assert seen == [(label, identity, int(row[col])) for label, identity, *row in pinned], order


def _family_name_comparisons(source: str) -> list[tuple[int, str]]:
    """(line, name) of each family name that a comparison or a match case inside a function
    or lambda of ``source`` reads."""
    names, hits = set(catalog.FAMILY_NAMES), []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Compare, ast.MatchValue)):
                hits += [
                    (c.lineno, c.value) for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value in names
                ]
    return sorted(set(hits))


def test_no_catalog_function_compares_with_a_family_name():
    # the table is the one place that says which family has which identity
    assert _family_name_comparisons(Path(catalog.__file__).read_text()) == []
    branching = (
        "def check(spec):\n"
        "    if spec.name == 'falling' or spec.name in ('catalan', 'rising'):\n"
        "        return 1\n"
        "    match spec.name:\n"
        "        case 'laguerre':\n"
        "            return 2\n"
        "f = lambda name: 'abel' != name\n"
    )
    assert _family_name_comparisons(branching) == [
        (2, "catalan"), (2, "falling"), (2, "rising"), (5, "laguerre"), (7, "abel")
    ]


# the calls that build or read a Fraction Triangle: the library's view, which the engine does not use
_TRIANGLE_CALLS = {
    "Triangle", "triangle", "tri_from_form", "tri_compose", "tri_invert", "tri_identity", "scaled_rows",
    "basic_set", "basic_from_inverse_series", "transform_seq",
}


def _triangle_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call in ``source`` of a name in _TRIANGLE_CALLS, bare or as an
    attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            hits += [(node.lineno, name)] * (name in _TRIANGLE_CALLS)
    return sorted(hits)


@pytest.mark.parametrize("module", [catalog, flow, sigma], ids=lambda m: m.__name__)
def test_engine_modules_build_no_triangle(module):
    # check's identities, the flow layer and sigma read integer row forms
    assert _triangle_calls(Path(module.__file__).read_text()) == []


def test_triangle_call_guard_sees_bare_and_attribute_calls():
    source = "t = umbral.tri_from_form(form)\nu = Triangle(rows)\nf = tri_compose\ng = _kernel.scaled_rows(r)\n"
    assert _triangle_calls(source) == [(1, "tri_from_form"), (2, "Triangle"), (4, "scaled_rows")]


# -- one basic set per (family, params, depth) in a check request --------------------------------


def _spy_basic_sets(monkeypatch):
    """Spy on the routes in ``umbral.BASIC_ROUTES``, which ``umbral.basic_set`` calls:
    returns (built, routes), the (Q, n) of each basic set built by the transfer route
    outside five_routes and the name of each route builder that five_routes calls."""
    built, routes, inside = [], [], []

    def route_spy(name, route):
        def spy(Q, n):
            if inside:
                routes.append(name)
            elif name == "transfer":
                built.append((Q, n))
            return route(Q, n)

        return spy

    for name, route in umbral.BASIC_ROUTES.items():
        monkeypatch.setitem(umbral.BASIC_ROUTES, name, route_spy(name, route))
    five_routes = catalog._check_routes

    def check_routes(*args):
        inside.append(True)
        try:
            return five_routes(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(catalog, "_check_routes", check_routes)
    return built, routes


@pytest.mark.parametrize("name, params", DEFAULT_CHECK_SET)
def test_identity_check_builds_each_basic_set_once(monkeypatch, name, params):
    built, routes = _spy_basic_sets(monkeypatch)
    assert identity_check(name, n=10, **params).all_passed
    assert built and max(Counter(built).values()) == 1
    # five_routes builds its own sets, one per route
    assert sorted(routes) == sorted(umbral.BASIC_ROUTES)


def test_check_all_builds_each_basic_set_once(monkeypatch):
    # laguerre and degenerate_laguerre p=1 have one delta, so sets are told apart by family
    built, routes = _spy_basic_sets(monkeypatch)
    families, real = [], catalog.FamilySpec.basic

    def basic(spec, n):
        families.append((spec.name, tuple(spec.params.items()), n))
        return real(spec, n)

    monkeypatch.setattr(catalog.FamilySpec, "basic", basic)
    assert check_all(10).all_passed
    assert len(built) > len(families) > 0 and max(Counter(families).values()) == 1
    assert Counter(routes) == {name: len(DEFAULT_CHECK_SET) for name in umbral.BASIC_ROUTES}


def test_identity_checks_do_not_share_their_basic_sets(monkeypatch):
    built, _ = _spy_basic_sets(monkeypatch)
    identity_check("laguerre", n=8)
    first = list(built)
    identity_check("laguerre", n=8)
    assert first and built == first + first


def test_basic_set_key_holds_the_coerced_params():
    sets = {}
    phi = catalog._basic(sets, family("stretch", lam=2), 4)
    assert catalog._basic(sets, family("stretch", lam=F(2)), 4) is phi
    assert catalog._basic(sets, family("stretch", lam="2"), 4) is phi and len(sets) == 1


# -- the binomial convolution -----------------------------------------------------------------

_CORRUPTIONS = {"x": poly([0, 1]), "cubic": poly([0, F(1, 2), F(-3, 2), 1])}  # x(x-1/2)(x-1)

_CONVOLUTION_SITES = {
    "binomial_type": lambda: catalog._check_binomial(family("falling"), 8, {}),
    "chu_vandermonde": lambda: catalog._check_chu_vandermonde(family("falling"), 8, {}),
    "abel_identity": lambda: catalog._check_abel_identity(family("abel", a=1), 8, {}),
    "smooth_abel": lambda: catalog._check_smooth_abel(family("abel", a=1), 8, {}),
    "degenerate_cross": lambda: catalog._check_degenerate_cross(family("degenerate_laguerre", p=2), 6, {}),
}

# Counterexamples captured when these sites ran on a half-grid of values, with p_m replaced
# by p_m + c: in the basic triangle's entries (the Sheffer sets of degenerate_cross are made
# from it), and in the Abel polynomials x(x - ak)^(k-1) for the two Abel identities
# (smooth_abel's convolution uses them for p_x).  The column-EGF form reports the grid's
# degree; its documents dropped the grid point (x, y), and smooth_abel's "grid" form is
# now named "convolution".
_CONVOLUTION_COUNTEREXAMPLES = {
    (2, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 3},
        "abel_identity": {"n": 3},
        "smooth_abel": {"form": "convolution", "n": 2},
        "degenerate_cross": {"n": 3, "u": "0", "v": "0"},
    },
    (3, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 4},
        "abel_identity": {"n": 4},
        "smooth_abel": {"form": "convolution", "n": 3},
        "degenerate_cross": {"n": 4, "u": "0", "v": "0"},
    },
    (5, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 6},
        "abel_identity": {"n": 6},
        "smooth_abel": {"form": "convolution", "n": 5},
        "degenerate_cross": {"n": 6, "u": "0", "v": "0"},
    },
    (3, "cubic"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 3},
        "abel_identity": {"n": 3},
        "smooth_abel": {"form": "convolution", "n": 3},
        "degenerate_cross": {"n": 3, "u": "0", "v": "0"},
    },
    (5, "cubic"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 5},
        "abel_identity": {"n": 5},
        "smooth_abel": {"form": "convolution", "n": 5},
        "degenerate_cross": {"n": 5, "u": "0", "v": "0"},
    },
}


def _plus(form, m, extra: Poly):
    """The row form `form` with p_m + extra in row m: row m and its denominator are lifted
    by the lcm of extra's denominators."""
    rows, dens = [list(r) for r in form[0]], list(form[1])
    e, de = scaled([extra[k] for k in range(m + 1)])
    rows[m] = [v * de + c * dens[m] for v, c in zip(rows[m], e)]
    dens[m] *= de
    return rows, dens


def _corrupt_entries(monkeypatch, m, extra=_CORRUPTIONS["x"]):
    real = catalog.FamilySpec.basic
    monkeypatch.setattr(catalog.FamilySpec, "basic", lambda spec, n: _plus(real(spec, n), m, extra))


def _corrupt_abel(monkeypatch, m, extra=_CORRUPTIONS["x"]):
    real = catalog._abel_form
    monkeypatch.setattr(catalog, "_abel_form", lambda a, n: _plus(real(a, n), m, extra))


@pytest.mark.parametrize("site", sorted(_CONVOLUTION_SITES))
@pytest.mark.parametrize("m, corruption", sorted(_CONVOLUTION_COUNTEREXAMPLES))
def test_convolution_identity_reports_the_first_failing_degree(monkeypatch, site, m, corruption):
    assert _CONVOLUTION_SITES[site]() is None
    corrupt = _corrupt_abel if site in ("abel_identity", "smooth_abel") else _corrupt_entries
    corrupt(monkeypatch, m, _CORRUPTIONS[corruption])
    assert _CONVOLUTION_SITES[site]() == _CONVOLUTION_COUNTEREXAMPLES[m, corruption][site]


@pytest.mark.parametrize(
    "basic_row, abel_row, expected",
    [
        (5, 2, {"form": "convolution", "n": 2}),
        (4, 3, {"form": "convolution", "n": 3}),
        (3, 3, {"form": "sheffer", "n": 3}),
        (2, 5, {"form": "sheffer", "n": 2}),
    ],
)
def test_smooth_abel_reports_the_lower_degree_of_its_two_forms(
    monkeypatch, basic_row, abel_row, expected
):
    # at equal degree the Sheffer form comes first; captured as above
    _corrupt_entries(monkeypatch, basic_row)
    _corrupt_abel(monkeypatch, abel_row)
    assert _CONVOLUTION_SITES["smooth_abel"]() == expected


@pytest.mark.parametrize(
    "exponent, expected",
    [
        ("0", {"u": "0", "v": "0", "n": 4}),
        ("1", {"u": "0", "v": "1", "n": 3}),
        ("2", {"u": "1", "v": "1", "n": 3}),
        ("-1", {"u": "-1/2", "v": "-1/2", "n": 3}),
        ("-1/2", {"u": "0", "v": "-1/2", "n": 3}),
        ("1/2", {"u": "1", "v": "-1/2", "n": 3}),
    ],
)
def test_degenerate_cross_names_the_corrupted_exponent_pair(monkeypatch, exponent, expected):
    # p_3 + x in the cross sequence of one exponent only; captured as above
    real = catalog.cross

    def cross(C, u, phi):
        rows, dens = sh = real(C, u, phi)
        if u == F(exponent):
            rows[3][1] += dens[3]
        return sh

    monkeypatch.setattr(catalog, "cross", cross)
    assert _CONVOLUTION_SITES["degenerate_cross"]() == expected


def test_binomial_grid_oracle_returns_the_point_itself():
    rows = [list(r) for r in tri_from_form(family("falling").basic(8)).rows]
    assert oracles.binomial_grid(rows, rows, rows, 8) is None
    assert oracles.binomial_grid([[2]] + rows[1:], rows, rows, 8) == (0, 0, 0)
    rows[2][1] += 1
    assert oracles.binomial_grid(rows, rows, rows, 8) == (3, F(1, 2), F(1, 2))


def _row_form(rows):
    """The row form of lists of coefficient rows, row m of m + 1 entries."""
    return tri_to_form(Triangle(tuple(map(tuple, rows))))


def _sweep_convolution(lists: dict, triples: list) -> int:
    """``binomial_convolution`` against the grid oracle on each triple of `lists` keys: clean,
    then with each single entry (m, k), k <= m, of one list raised by 1.  Both must name the
    same first failing degree, and both None on the clean lists; the convolution reads each
    list as one row form, so a key named twice in a triple is one object.  Returns the
    number of corrupted inputs."""
    n = len(next(iter(lists.values()))) - 1
    forms = {key: _row_form(rows) for key, rows in lists.items()}
    for triple in triples:
        rows = [lists[key] for key in triple]
        assert binomial_convolution(*[forms[key] for key in triple]) is None, triple
        assert oracles.binomial_grid(*rows, n) is None, triple
    count = 0
    for key, clean in lists.items():
        for m in range(n + 1):
            for k in range(m + 1):
                bad = {**lists, key: [list(r) for r in clean]}
                bad[key][m][k] += 1
                bad_forms = {**forms, key: _row_form(bad[key])}
                for triple in (t for t in triples if key in t):
                    hit = oracles.binomial_grid(*[bad[t] for t in triple], n)
                    got = binomial_convolution(*[bad_forms[t] for t in triple])
                    assert got == (hit and hit[0]), (triple, key, m, k)
                    count += 1
    return count


@pytest.mark.parametrize("name, params", DEFAULT_CHECK_SET)
@pytest.mark.parametrize("N", [0, 1, 8])
def test_convolution_matches_the_grid_oracle_on_basic_sets(name, params, N):
    # Chu-Vandermonde's triple (T, T, T)
    lists = {"T": tri_from_form(family(name, **params).basic(N)).rows}
    assert _sweep_convolution(lists, [("T", "T", "T")]) == (N + 1) * (N + 2) // 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_convolution_matches_the_grid_oracle_on_degenerate_cross_pairs(p):
    # the nine (u, v) triples of degenerate_cross, on its six Sheffer sets at n = 6
    n, exps = 6, (F(0), F(1), F(-1, 2))
    phi = family("degenerate_laguerre", p=p).basic(n)
    base = catalog.ShiftOp(catalog._degenerate_base(p, n + 3))
    lists = {w: tri_from_form(catalog.cross(base, w, phi)).rows for w in {u + v for u in exps for v in exps}}
    assert _sweep_convolution(lists, [(u + v, u, v) for u in exps for v in exps])


@pytest.mark.parametrize("a", [F(1), F(-1), F(1, 2)])
def test_convolution_matches_the_grid_oracle_on_abel_and_smooth_polynomials(a):
    # abel_identity's (Abel, Abel, Abel) and smooth_abel's (smooth, Abel, smooth) at N = 8, as
    # Poly products x (x - ak)^(k-1) and (x - am)^m: catalog's integer rows must be these
    abel = [poly([1])] + [poly([0, 1]) * poly([-a * k, 1]) ** (k - 1) for k in range(1, 9)]
    lists = {
        "abel": oracles.tri_from_polys(abel).rows,
        "smooth": oracles.tri_from_polys([poly([-a * m, 1]) ** m for m in range(9)]).rows,
    }
    assert tri_from_form(catalog._abel_form(a, 8)).rows == lists["abel"]
    assert _sweep_convolution(lists, [("abel", "abel", "abel"), ("smooth", "abel", "smooth")])


@pytest.mark.parametrize(
    "name, params",
    [("touchard", {}), ("falling", {}), ("laguerre", {}), ("catalan", {}), ("abel", {"a": 1})],
)
def test_is_binomial_type_rejects_every_single_entry_corruption(name, params):
    # the grid alone decides, and the coefficient identity, now an oracle, gives the same
    # verdict.  The one exception is entry (N, 1): column 1 is the EGF of the inverse
    # indicator, so that triangle is the basic triangle of another delta operator.
    N = 10
    tri = tri_from_form(family(name, **params).basic(N))
    assert is_binomial_type(tri_to_form(tri)) and oracles.binomial_identity_ref(tri)
    for m in range(N + 1):
        for k in range(m + 1):
            rows = [list(r) for r in tri.rows]
            rows[m][k] += 1
            bad = Triangle(tuple(tuple(r) for r in rows))
            basic = (m, k) == (N, 1)
            assert is_binomial_type(tri_to_form(bad)) == basic, (m, k)
            assert oracles.binomial_identity_ref(bad) == basic, (m, k)
            if basic:
                col1 = series([0] + [bad.entry(j, 1) / factorial(j) for j in range(1, N + 1)], N)
                assert umbral.basic_from_inverse_series(col1, N) == bad


def _with_entry_raised(tri: Triangle, m: int, k: int) -> Triangle:
    rows = [list(r) for r in tri.rows]
    rows[m][k] += 1
    return Triangle(tuple(map(tuple, rows)))


@pytest.mark.parametrize("name, params", DEFAULT_CHECK_SET)
def test_binomial_type_and_grid_oracle_reject_every_single_entry_corruption(name, params):
    # the column-EGF test and the grid it replaced, now an oracle, give one verdict on every
    # single-entry corruption; only entry (N, 1) gives the basic triangle of another delta
    N = 12
    tri = tri_from_form(family(name, **params).basic(N))
    assert is_binomial_type(tri_to_form(tri)) and oracles.binomial_grid_ref(tri)
    for m in range(N + 1):
        for k in range(m + 1):
            bad = _with_entry_raised(tri, m, k)
            basic = (m, k) == (N, 1)
            assert is_binomial_type(tri_to_form(bad)) == basic, (m, k)
            assert oracles.binomial_grid_ref(bad) == basic, (m, k)


@pytest.mark.parametrize("name, params", DEFAULT_CHECK_SET)
@pytest.mark.parametrize("N", [0, 1])
def test_binomial_type_at_depth_zero_and_one(name, params, N):
    # at N = 0 only the guard speaks; at N = 1, p_1(x+y) = p_1(x) + p_1(y) asks coeff[1][0] = 0
    tri = tri_from_form(family(name, **params).basic(N))
    assert is_binomial_type(tri_to_form(tri)) and oracles.binomial_grid_ref(tri)
    for m in range(N + 1):
        for k in range(m + 1):
            bad = _with_entry_raised(tri, m, k)
            expected = (m, k) == (1, 1) and bad.entry(1, 1) != 0  # c_1 alone is free at N = 1
            assert is_binomial_type(tri_to_form(bad)) == oracles.binomial_grid_ref(bad) == expected, (m, k)


# -- identities on triangle products and scaled rows: counterexamples ----------------------------
#
# Captured before these checks moved onto value tables and integer rows, with the
# corruptions below; each names the first failing point in the unchanged scan order.
# Erdelyi's and Lah's grid forms have since gone: Erdelyi's repeated its coefficient form,
# and Lah's is now its closed-form twin, which names a row.


def _corrupt_basic(monkeypatch, name, row, col):
    """Add 1 to entry (row, col) of every basic triangle of the family `name`, in its row form."""
    real = catalog.FamilySpec.basic

    def basic(spec, n):
        rows, dens = form = real(spec, n)
        if spec.name == name and row <= n:
            rows[row][col] += dens[row]
        return form

    monkeypatch.setattr(catalog.FamilySpec, "basic", basic)


def _corrupt_number(monkeypatch, name, at):
    real = getattr(catalog, name)
    monkeypatch.setattr(catalog, name, lambda n, k: real(n, k) + ((n, k) == at))


def _corrupt_stirling(monkeypatch, first_kind, at):
    """Add 1 to entry ``at`` of every table of Stirling rows of one kind that the catalog builds."""
    real = catalog.stirling_rows

    def rows(n, kind):
        out = real(n, kind)
        if kind == first_kind and at[0] <= n:
            out[at[0]][at[1]] += 1
        return out

    monkeypatch.setattr(catalog, "stirling_rows", rows)


def _erdelyi():
    return catalog._check_erdelyi(family("laguerre"), 8, {})


def _lah_connection():
    return catalog._check_lah_connection(family("laguerre"), 8, {})


def _spivey():
    return catalog._check_spivey(family("touchard"), 10, {})


@pytest.mark.parametrize(
    "row, col, expected",
    [
        (2, 1, {"lam": "2", "n": 2, "k": 1}),
        (3, 2, {"lam": "2", "n": 3, "k": 1}),
        (8, 3, {"lam": "2", "n": 8, "k": 1}),
    ],
)
def test_erdelyi_coefficient_form_fails_on_a_corrupted_row(monkeypatch, row, col, expected):
    assert _erdelyi() is None
    _corrupt_basic(monkeypatch, "laguerre", row, col)
    assert _erdelyi() == expected


@pytest.mark.parametrize(
    "at, expected",
    [((3, 2), {"lam": "2", "n": 3, "k": 2}), ((7, 7), {"lam": "2", "n": 7, "k": 7})],
)
def test_erdelyi_coefficient_form_fails_on_a_corrupted_lah_number(monkeypatch, at, expected):
    _corrupt_number(monkeypatch, "lah", at)
    assert _erdelyi() == expected


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda mp: _corrupt_basic(mp, "laguerre", 3, 1), {"n": 8}),
        # p_m + c in every basic triangle: the basic-set form fails first
        (lambda mp: _corrupt_entries(mp, 2), {"n": 8}),
        (lambda mp: _corrupt_entries(mp, 4, _CORRUPTIONS["cubic"]), {"n": 8}),
        # only the closed-form twin reads the Lah numbers; it names the first failing row
        (lambda mp: _corrupt_number(mp, "lah", (5, 1)), {"n": 5}),
        (lambda mp: _corrupt_number(mp, "lah", (8, 4)), {"n": 8}),
    ],
)
def test_lah_connection_fails_on_a_corruption(monkeypatch, corrupt, expected):
    assert _lah_connection() is None
    corrupt(monkeypatch)
    assert _lah_connection() == expected


@pytest.mark.parametrize(
    "row, col, expected",
    [
        (2, 1, {"form": "operator", "n": 1, "m": 1}),
        (4, 2, {"form": "operator", "n": 1, "m": 3}),
        (7, 3, {"form": "operator", "n": 1, "m": 6}),
        (10, 9, {"form": "operator", "n": 1, "m": 9}),
    ],
)
def test_spivey_operator_form_fails_on_a_corrupted_row(monkeypatch, row, col, expected):
    assert _spivey() is None
    _corrupt_basic(monkeypatch, "touchard", row, col)
    assert _spivey() == expected


def test_spivey_bell_form_fails_on_a_corrupted_stirling_number(monkeypatch):
    _corrupt_stirling(monkeypatch, False, (3, 2))
    assert _spivey() == {"form": "bell", "n": 1, "m": 2}


class _FixedDraws:
    """Stands in for the seeded generator: every trial draws the integers `seq`."""

    def __init__(self, seq):
        self.draws = cycle([v for s in seq for v in (s, 1)])  # numerator, denominator

    def randint(self, lo, hi):
        return next(self.draws)


@pytest.mark.parametrize(
    "col, seq, expected",
    [
        # (T s)_0 = s_0 != 0: the forward round trip sees the corrupted inverse
        (0, [1] * 9, {"mode": "row", "trial": 0}),
        # falling row 2 is x^2 - x, so (T s)_2 = 0 while s_2 = 1: only the inverse-first trip fails
        (2, [1] * 9, {"mode": "row", "trial": 0, "orientation": "inverse-first"}),
        # s_1 = (T s)_1 = 0 hides the entry from both row trips; the column trip sees it
        (1, [1, 0] + [1] * 7, {"mode": "column", "trial": 0}),
    ],
)
def test_transform_roundtrip_fails_on_a_corrupted_inverse(monkeypatch, col, seq, expected):
    spec = family("falling")
    assert catalog._check_transform_roundtrip(spec, 8, {}, _FixedDraws(seq)) is None
    real = catalog.form_inverse

    def form_inverse(form):
        rows, dens = inv = real(form)
        rows[8][col] += dens[8]
        return inv

    monkeypatch.setattr(catalog, "form_inverse", form_inverse)
    assert catalog._check_transform_roundtrip(spec, 8, {}, _FixedDraws(seq)) == expected


def _row_check(name, identity):
    """The check of the identity row ``identity`` in the table row of the family ``name``."""
    return next(check for ident, check, _ in catalog._FAMILIES[name][2] if ident == identity)


@pytest.mark.parametrize(
    "name, params, identity",
    [
        ("falling", {}, "special_class"),
        ("divided_difference", {"h": F(1, 2)}, "special_class"),
        ("touchard", {}, "special_class"),
        ("laguerre", {}, "laguerre_commutation"),
        ("catalan", {}, "special_class"),
    ],
)
@pytest.mark.parametrize("row, col", [(3, 1), (5, 2), (8, 7)])
def test_special_class_fails_on_a_corrupted_row(monkeypatch, name, params, identity, row, col):
    # n = 1 reaches every row of the triangle, so the first failure is always there
    check, spec = _row_check(name, identity), family(name, **params)
    assert check(spec, 8, {}) is None
    _corrupt_basic(monkeypatch, name, row, col)
    assert check(spec, 8, {}) == {"n": 1}


@pytest.mark.parametrize("row, col", [(3, 1), (5, 2), (8, 7)])
def test_special_class_inverse_reads_the_set_of_the_inverse_delta(monkeypatch, row, col):
    # the Catalan set itself is not read; the set of Q^[-1] is, and a corrupted entry fails at n = 1
    check, spec = _row_check("catalan", "special_class_inverse"), family("catalan")
    _corrupt_basic(monkeypatch, "catalan", row, col)
    assert check(spec, 8, {}) is None
    real = catalog.basic_form

    def basic_form(Q, n, route):
        rows, dens = form = real(Q, n, route)
        rows[row][col] += dens[row]
        return form

    monkeypatch.setattr(catalog, "basic_form", basic_form)
    assert check(spec, 8, {}) == {"n": 1}


def test_five_routes_fails_on_a_corrupted_closed_form():
    # the five routes agree; the closed form, read as a row form, is compared with them
    spec = family("touchard")

    def closed_form(n):
        rows, dens = form = spec.closed_form(n)
        rows[n][1] += dens[n]
        return form

    assert catalog._check_routes(spec, 6, {}) is None
    bad = catalog.FamilySpec(spec.name, spec.params, spec.delta, closed_form)
    assert catalog._check_routes(bad, 6, {}) == {"route": "closed_form"}


@pytest.mark.parametrize("row, col", [(3, 1), (5, 2), (8, 7)])
def test_catalan_bell_fails_on_a_corrupted_set_or_bell_table(monkeypatch, row, col):
    # each of the two triangles is compared with the closed form on its own
    check, spec = _row_check("catalan", "catalan_bell"), family("catalan")
    assert check(spec, 8, {}) is None
    _corrupt_basic(monkeypatch, "catalan", row, col)
    assert check(spec, 8, {}) == {"n": row, "k": col}
    monkeypatch.undo()
    real = catalog.inverse_series_form

    def inverse_series_form(f, n):
        rows, dens = form = real(f, n)
        rows[row][col] += dens[row]
        return form

    monkeypatch.setattr(catalog, "inverse_series_form", inverse_series_form)
    assert check(spec, 8, {}) == {"n": row, "k": col}


@pytest.mark.parametrize("row, col", [(3, 1), (8, 7)])
def test_laguerre_involution_fails_on_a_corrupted_row(monkeypatch, row, col):
    check, spec = _row_check("laguerre", "laguerre_involution"), family("laguerre")
    assert check(spec, 8, {}) is None
    _corrupt_basic(monkeypatch, "laguerre", row, col)
    assert check(spec, 8, {}) == {"n": 8}


def test_special_class_fails_on_a_wrong_operator_pair():
    # falling's pair is (1, E^-1); with V = E^+1 the identity fails at its first degree
    wrong = partial(catalog._check_special_class, lambda T: (catalog._op([1], T), shift_by(1, T)))
    assert _row_check("falling", "special_class")(family("falling"), 8, {}) is None
    assert wrong(family("falling"), 8, {}) == {"n": 1}


# -- the last Poly-loop identities on scaled rows; the degenerate base at any p -----------------

_POLY_METHODS = ("__add__", "__mul__", "__rmul__", "__sub__", "derivative")


def test_row_identities_make_no_poly_arithmetic(monkeypatch):
    # these identities compare integer rows; a Poly loop makes hundreds of these calls each
    calls = []

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for name in _POLY_METHODS:
        counting(Poly, name)
    counting(Triangle, "apply_poly")
    assert catalog._check_stirling_recurrences(family("falling"), 10, {}) is None
    assert catalog._check_touchard_recurrence(family("touchard"), 10, {}) is None
    for p in (1, 2, 3):
        assert catalog._check_degenerate_ode(family("degenerate_laguerre", p=p), 8, {}) is None
    assert calls == []


def test_degenerate_basic_set_costs_its_depth_not_p():
    # the base 1 - p x^p is built through x^t only; p + 1 Fractions would take tens of MB
    tracemalloc.start()
    try:
        form = family("degenerate_laguerre", p=10**6).basic(4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert tri_from_form(form) == tri_identity(4)  # x^m: the term -p x^p lies past x^4


@pytest.mark.parametrize(
    "check, n", [(catalog._check_degenerate_ode, 8), (catalog._check_degenerate_cross, 6)]
)
def test_degenerate_identities_resolve_the_base_at_n_plus_3(monkeypatch, check, n):
    # rows 0..n read the base through x^n; a base resolved at n + p + 3 fails here at once
    real = catalog.pow_rat

    def pow_rat(f, r):
        assert f.trunc <= n + 3, f"pow_rat at trunc {f.trunc} > {n + 3}"
        return real(f, r)

    monkeypatch.setattr(catalog, "pow_rat", pow_rat)
    monkeypatch.setattr(umbral, "pow_rat", pow_rat)
    assert check(family("degenerate_laguerre", p=10**5), n, {}) is None

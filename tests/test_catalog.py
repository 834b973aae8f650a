"""Family catalog: closed forms, lookups, identity reports."""

import sys
import tracemalloc
from fractions import Fraction as F
from itertools import cycle
from math import factorial

import pytest

from umbra import _kernel, catalog, umbral
from umbra.catalog import (
    DEFAULT_CHECK_SET,
    IdentityResult,
    Report,
    bell_number,
    check_all,
    family,
    identity_check,
    lah,
    stirling1_unsigned,
    stirling2,
)
from umbra.errors import UnknownFamily
from umbra.fps import Poly, poly, series, x_series
from umbra.umbral import (
    Triangle, UmbralOp, binomial_grid, is_binomial_type, tri_identity
)

import oracles


def test_family_lookup_and_params():
    spec = family("abel", a="1")
    assert spec.params["a"] == 1
    assert spec.closed_form(3, 1) == 9 and spec.closed_form(3, 2) == -6
    with pytest.raises(UnknownFamily):
        family("nope")
    with pytest.raises(UnknownFamily):
        family("stretch", lam=0)
    for name, params in DEFAULT_CHECK_SET + (("divided_difference", {"h": F(0)}),):
        spec = family(name, **{k: str(v) for k, v in params.items()})
        assert (spec.name, spec.params) == (name, params)


def test_number_helpers_match_oracles():
    for n in range(10):
        for k in range(n + 1):
            assert stirling1_unsigned(n, k) == oracles.stirling1_unsigned(n, k)
            assert stirling2(n, k) == oracles.stirling2(n, k)
            assert lah(n, k) == oracles.lah(n, k)
    assert lah(4, 2) == 36
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_divided_difference_h_zero_is_derivative():
    spec = family("divided_difference", h=0)
    assert spec.delta(8).indicator == x_series(8)
    rep = identity_check("divided_difference", n=6, h=0)
    assert rep.all_passed


def test_abel_a_zero_degenerates_to_monomials():
    spec = family("abel", a=0)
    from umbra.umbral import tri_identity

    assert spec.basic(6).tri == tri_identity(6)
    rep = identity_check("abel", n=6, a=0)
    assert rep.all_passed


def test_catalan_family_delta():
    spec = family("catalan")
    ind = spec.delta(6).indicator
    assert ind[1] == 1 and ind[2] == -1 and all(ind[i] == 0 for i in (0, 3, 4, 5, 6))


def test_closed_forms_match_routes():
    for name, params in DEFAULT_CHECK_SET:
        spec = family(name, **params)
        if spec.closed_form is None:
            continue
        tri = spec.basic(12).tri
        for n in range(13):
            for k in range(n + 1):
                assert tri.entry(n, k) == spec.closed_form(n, k), (name, params, n, k)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_degenerate_laguerre_closed_form_matches_the_binomial_form(p):
    form = family("degenerate_laguerre", p=p).closed_form
    for n in range(40):
        for k in range(-1, n + 2):
            assert form(n, k) == oracles.degenerate_laguerre(p, n, k), (n, k)


def test_degenerate_laguerre_row_values():
    spec = family("degenerate_laguerre", p=2)
    tri = spec.basic(4).tri
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


# -- the binomial-convolution grid ------------------------------------------------------------

_CORRUPTIONS = {"x": poly([0, 1]), "cubic": poly([0, F(1, 2), F(-3, 2), 1])}  # x(x-1/2)(x-1)

_GRID_SITES = {
    "binomial_type": lambda: catalog._check_binomial(family("falling"), 8),
    "chu_vandermonde": lambda: catalog._check_chu_vandermonde(family("falling"), 8),
    "abel_identity": lambda: catalog._check_abel_identity(family("abel", a=1), 8),
    "smooth_abel": lambda: catalog._check_smooth_abel(family("abel", a=1), 8),
    "degenerate_cross": lambda: catalog._check_degenerate_cross(family("degenerate_laguerre", p=2), 6),
}

# Counterexamples captured before the five sites shared `binomial_grid`, with p_m replaced
# by p_m + c: the triangle rows for the basic and Sheffer sets, the Abel polynomials
# x(x - ak)^(k-1) for the two Abel identities (smooth_abel's grid uses them for p_x).
# binomial_type's coefficient identity reads the triangle entries, so only its grid fails.
_GRID_COUNTEREXAMPLES = {
    (2, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 3, "x": "1/2", "y": "1/2"},
        "abel_identity": {"n": 3, "x": "1/2", "y": "1/2"},
        "smooth_abel": {"form": "grid", "n": 2, "x": "1/2", "y": "0"},
        "degenerate_cross": {"n": 3, "u": "0", "v": "0"},
    },
    (3, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 4, "x": "1/2", "y": "1/2"},
        "abel_identity": {"n": 4, "x": "1/2", "y": "1/2"},
        "smooth_abel": {"form": "grid", "n": 3, "x": "1/2", "y": "0"},
        "degenerate_cross": {"n": 4, "u": "0", "v": "0"},
    },
    (5, "x"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 6, "x": "1/2", "y": "1/2"},
        "abel_identity": {"n": 6, "x": "1/2", "y": "1/2"},
        "smooth_abel": {"form": "grid", "n": 5, "x": "1/2", "y": "0"},
        "degenerate_cross": {"n": 6, "u": "0", "v": "0"},
    },
    (3, "cubic"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 3, "x": "1/2", "y": "1"},
        "abel_identity": {"n": 3, "x": "1/2", "y": "1"},
        "smooth_abel": {"form": "grid", "n": 3, "x": "3/2", "y": "0"},
        "degenerate_cross": {"n": 3, "u": "0", "v": "0"},
    },
    (5, "cubic"): {
        "binomial_type": {"n": 8},
        "chu_vandermonde": {"n": 5, "x": "1/2", "y": "1"},
        "abel_identity": {"n": 5, "x": "1/2", "y": "1"},
        "smooth_abel": {"form": "grid", "n": 5, "x": "3/2", "y": "0"},
        "degenerate_cross": {"n": 5, "u": "0", "v": "0"},
    },
}


def _corrupt_rows(monkeypatch, m, extra=_CORRUPTIONS["x"]):
    real = Triangle.row_poly
    monkeypatch.setattr(
        Triangle, "row_poly", lambda tri, n: real(tri, n) + (extra if n == m else poly([]))
    )


def _corrupt_abel(monkeypatch, m, extra=_CORRUPTIONS["x"]):
    real = catalog._abel_polys

    def abel_polys(a, n):
        polys = real(a, n)
        polys[m] = polys[m] + extra
        return polys

    monkeypatch.setattr(catalog, "_abel_polys", abel_polys)


@pytest.mark.parametrize("site", sorted(_GRID_SITES))
@pytest.mark.parametrize("m, corruption", sorted(_GRID_COUNTEREXAMPLES))
def test_grid_identity_reports_the_first_failing_point(monkeypatch, site, m, corruption):
    assert _GRID_SITES[site]() is None
    corrupt = _corrupt_abel if site in ("abel_identity", "smooth_abel") else _corrupt_rows
    corrupt(monkeypatch, m, _CORRUPTIONS[corruption])
    assert _GRID_SITES[site]() == _GRID_COUNTEREXAMPLES[m, corruption][site]


@pytest.mark.parametrize(
    "basic_row, abel_row, expected",
    [
        (5, 2, {"form": "grid", "n": 2, "x": "1/2", "y": "0"}),
        (4, 3, {"form": "grid", "n": 3, "x": "1/2", "y": "0"}),
        (3, 3, {"form": "sheffer", "n": 3}),
        (2, 5, {"form": "sheffer", "n": 2}),
    ],
)
def test_smooth_abel_reports_the_lower_degree_of_its_two_forms(
    monkeypatch, basic_row, abel_row, expected
):
    # at equal degree the Sheffer form comes first; captured as above
    _corrupt_rows(monkeypatch, basic_row)
    _corrupt_abel(monkeypatch, abel_row)
    assert _GRID_SITES["smooth_abel"]() == expected


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
        sh = real(C, u, phi)
        if u != F(exponent):
            return sh
        rows = [sh.row_poly(k) for k in range(sh.n + 1)]
        rows[3] = rows[3] + poly([0, 1])
        return oracles.tri_from_polys(rows)

    monkeypatch.setattr(catalog, "cross", cross)
    assert _GRID_SITES["degenerate_cross"]() == expected


def test_binomial_grid_returns_the_point_itself():
    rows = [family("falling").basic(8).tri.row_poly(m) for m in range(9)]
    assert binomial_grid(rows, rows, rows, 8) is None
    assert binomial_grid([poly([2])] + rows[1:], rows, rows, 8) == (0, 0, 0)
    rows[2] = rows[2] + poly([0, 1])
    assert binomial_grid(rows, rows, rows, 8) == (3, F(1, 2), F(1, 2))


def _count_half_grid(monkeypatch) -> list[tuple[int, int]]:
    """Record (polynomials, points) for each call of ``_kernel.half_grid``."""
    real, calls = _kernel.half_grid, []

    def counting(polys, n):
        calls.append((len(polys), 2 * n + 3))
        return real(polys, n)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "umbra" and getattr(module, "half_grid", None) is real:
            monkeypatch.setattr(module, "half_grid", counting)
    return calls


def test_is_binomial_type_evaluates_each_polynomial_once_per_point(monkeypatch):
    # the inline grid evaluated every p_k again for each (x, y): thousands of calls at N = 8;
    # the three sets of the grid are one set here, so it is tabulated once
    N = 8
    tri = family("touchard").basic(N).tri
    calls = _count_half_grid(monkeypatch)
    assert is_binomial_type(tri)
    assert 0 < sum(p * t for p, t in calls) <= (N + 1) * (2 * N + 3)


@pytest.mark.parametrize(
    "name, params",
    [("touchard", {}), ("falling", {}), ("laguerre", {}), ("catalan", {}), ("abel", {"a": 1})],
)
def test_is_binomial_type_rejects_every_single_entry_corruption(name, params):
    # the grid alone decides, and the coefficient identity, now an oracle, gives the same
    # verdict.  The one exception is entry (N, 1): column 1 is the EGF of the inverse
    # indicator, so that triangle is the basic triangle of another delta operator.
    N = 10
    tri = family(name, **params).basic(N).tri
    assert is_binomial_type(tri) and oracles.binomial_identity_ref(tri)
    for m in range(N + 1):
        for k in range(m + 1):
            rows = [list(r) for r in tri.rows]
            rows[m][k] += 1
            bad = Triangle(tuple(tuple(r) for r in rows))
            basic = (m, k) == (N, 1)
            assert is_binomial_type(bad) == basic, (m, k)
            assert oracles.binomial_identity_ref(bad) == basic, (m, k)
            if basic:
                col1 = series([0] + [bad.entry(j, 1) / factorial(j) for j in range(1, N + 1)], N)
                assert umbral.basic_from_inverse_series(col1, N).tri == bad


def test_degenerate_cross_tabulates_each_row_set_once(monkeypatch):
    # six exponent sums u + v, nine (u, v) scans: each Sheffer row set is evaluated once
    n = 6
    calls = _count_half_grid(monkeypatch)
    assert catalog._check_degenerate_cross(family("degenerate_laguerre", p=2), n) is None
    assert calls == [(n + 1, 2 * n + 3)] * 6


# -- identities on value tables and scaled rows: counterexamples ---------------------------------
#
# Captured before these checks moved onto value tables and integer rows, with the
# corruptions below; each names the first failing point in the unchanged scan order.


def _corrupt_basic(monkeypatch, name, row, col):
    """Add 1 to entry (row, col) of every basic triangle of the family `name`."""
    real = catalog.FamilySpec.basic

    def basic(spec, n):
        op = real(spec, n)
        if spec.name != name or row > n:
            return op
        rows = [list(r) for r in op.tri.rows]
        rows[row][col] += 1
        return UmbralOp(Triangle(tuple(map(tuple, rows))), op.delta)

    monkeypatch.setattr(catalog.FamilySpec, "basic", basic)


def _corrupt_number(monkeypatch, name, at):
    real = getattr(catalog, name)
    monkeypatch.setattr(catalog, name, lambda n, k: real(n, k) + ((n, k) == at))


def _erdelyi():
    return catalog._check_erdelyi(family("laguerre"), 8)


def _lah_connection():
    return catalog._check_lah_connection(family("laguerre"), 8)


def _spivey():
    return catalog._check_spivey(family("touchard"), 10)


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
    "m, corruption, expected",
    [
        (2, "x", {"lam": "2", "n": 2, "x": "1/2"}),
        (4, "x", {"lam": "2", "n": 4, "x": "1/2"}),
        (3, "cubic", {"lam": "2", "n": 3, "x": "1"}),
        (6, "cubic", {"lam": "2", "n": 6, "x": "1"}),
    ],
)
def test_erdelyi_grid_form_fails_on_a_corrupted_polynomial(monkeypatch, m, corruption, expected):
    # the coefficient form reads the triangle, so only the grid sees L_m + c
    _corrupt_rows(monkeypatch, m, _CORRUPTIONS[corruption])
    assert _erdelyi() == expected


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda mp: _corrupt_basic(mp, "laguerre", 3, 1), {"n": 8}),
        (lambda mp: _corrupt_rows(mp, 2), {"n": 3, "x": "1/2"}),
        (lambda mp: _corrupt_rows(mp, 4, _CORRUPTIONS["cubic"]), {"n": 5, "x": "3/2"}),
        (lambda mp: _corrupt_number(mp, "lah", (5, 1)), {"n": 5, "x": "1/2"}),
        (lambda mp: _corrupt_number(mp, "lah", (8, 4)), {"n": 8, "x": "1/2"}),
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
    _corrupt_number(monkeypatch, "stirling2", (3, 2))
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
    assert catalog._check_transform_roundtrip(spec, 8, _FixedDraws(seq)) is None
    real = catalog.tri_invert

    def tri_invert(tri):
        rows = [list(r) for r in real(tri).rows]
        rows[8][col] += 1
        return Triangle(tuple(map(tuple, rows)))

    monkeypatch.setattr(catalog, "tri_invert", tri_invert)
    assert catalog._check_transform_roundtrip(spec, 8, _FixedDraws(seq)) == expected


@pytest.mark.parametrize("name", ["falling", "touchard", "laguerre", "catalan"])
@pytest.mark.parametrize("row, col", [(3, 1), (5, 2), (8, 7)])
def test_special_class_fails_on_a_corrupted_row(monkeypatch, name, row, col):
    # n = 1 reaches every row of the triangle, so the first failure is always there
    assert catalog._check_special_class(family(name), 8) is None
    _corrupt_basic(monkeypatch, name, row, col)
    assert catalog._check_special_class(family(name), 8) == {"n": 1}


# -- the last Poly-loop identities on scaled rows; the degenerate base at any p -----------------

_POLY_METHODS = ("__add__", "__mul__", "__rmul__", "__sub__", "derivative", "times_x")


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
    assert catalog._check_stirling_recurrences(family("falling"), 10) is None
    assert catalog._check_touchard_recurrence(family("touchard"), 10) is None
    for p in (1, 2, 3):
        assert catalog._check_degenerate_ode(family("degenerate_laguerre", p=p), 8) is None
    assert calls == []


def test_degenerate_basic_set_costs_its_depth_not_p():
    # the base 1 - p x^p is built through x^t only; p + 1 Fractions would take tens of MB
    tracemalloc.start()
    try:
        tri = family("degenerate_laguerre", p=10**6).basic(4).tri
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert tri == tri_identity(4)  # x^m: the term -p x^p lies past x^4


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
    assert check(family("degenerate_laguerre", p=10**5), n) is None

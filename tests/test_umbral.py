"""Triangles, the five basic-set routes, Sheffer machinery, transforms."""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from umbra import umbral
from umbra.errors import NotDelta, SingularTriangle, TruncationError
from umbra.fps import (
    comp_inv,
    poly,
    pow_rat,
    compose,
    exp_series,
    log1p,
    monomial,
    mul_inv,
    series,
    x_series,
)
from umbra.operators import (
    ShiftOp,
    apply_op,
    derivative_op,
    diamond,
    divide,
    pincherle,
    shift_by,
    validate_delta,
)
from umbra.umbral import (
    BASIC_ROUTES,
    Triangle,
    UmbralOp,
    basic_from_inverse_series,
    basic_genfunc,
    basic_transfer,
    connection_constants,
    cross,
    delta_of,
    is_binomial_type,
    niederhausen,
    sheffer,
    special_class_check,
    transform_seq,
    tri_compose,
    tri_identity,
    tri_invert,
    triangle,
)

from oracles import (
    commutation_expansion_check, identity_op, lah, power_coeffs, power_coeffs_direct, stirling1_unsigned, tri_from_polys
)

T = 16
N = 10


def delta_catalog():
    return {
        "D": derivative_op(T),
        "D/2": validate_delta(ShiftOp(x_series(T) / 2)),
        "Delta": validate_delta(shift_by(1, T) - 1),
        "Nabla": validate_delta(1 - shift_by(-1, T)),
        "log1p": validate_delta(ShiftOp(log1p(T))),
        "Catalan": validate_delta(ShiftOp(series([0, 1, -1], T))),
        "Laguerre": validate_delta(ShiftOp(mul_inv(series([1, -1], T)).shift_up(1).truncate(T))),
        "Abel": validate_delta(ShiftOp(x_series(T) * exp_series(x_series(T)))),
    }


# -- routes and known triangles ---------------------------------------------------


def test_five_routes_agree():
    for name, Q in delta_catalog().items():
        tris = {r: f(Q, N).tri for r, f in BASIC_ROUTES.items()}
        base = tris.pop("transfer")
        for route, tri in tris.items():
            assert tri == base, (name, route)


def test_identity_triangle_for_derivative():
    assert basic_transfer(derivative_op(T), 4).tri == tri_identity(4)


def test_falling_is_signed_stirling1():
    tri = basic_transfer(delta_catalog()["Delta"], N).tri
    for n in range(N + 1):
        for k in range(n + 1):
            assert tri.entry(n, k) == (-1) ** (n - k) * stirling1_unsigned(n, k)
    assert list(tri.rows[3]) == [0, 2, -3, 1]


def test_steffensen_abel_row():
    Q = delta_catalog()["Abel"]
    row2 = BASIC_ROUTES["steffensen"](Q, 2).tri.rows[2]
    assert list(row2) == [0, -2, 1]  # x(x - 2a) at a = 1


def test_catalan_closed_form_row():
    tri = basic_transfer(delta_catalog()["Catalan"], 2).tri
    assert list(tri.rows[2]) == [0, 2, 1]


def test_genfunc_touchard():
    tri = BASIC_ROUTES["genfunc"](delta_catalog()["log1p"], 3).tri
    assert list(tri.rows[3]) == [0, 1, 3, 1]


def test_km_stretch_is_diagonal():
    Q = validate_delta(ShiftOp(x_series(T) / 2))
    tri = BASIC_ROUTES["km"](Q, 2).tri
    assert tri == triangle([[1], [0, 2], [0, 0, 4]])


def test_unit_diagonal_law():
    Q = validate_delta(ShiftOp(x_series(T) / 3))
    tri = basic_transfer(Q, 5).tri
    assert tri.diagonal() == tuple(F(3) ** n for n in range(6))


# -- delta_of / composition closure ------------------------------------------------


def test_delta_of_identity_triangle():
    phi = UmbralOp(tri_identity(6))
    assert delta_of(phi).indicator == x_series(6)


def test_delta_of_round_trip():
    for name, Q in delta_catalog().items():
        got = delta_of(basic_transfer(Q, N))
        assert all(got.indicator[i] == Q.indicator[i] for i in range(N + 1)), name


def test_delta_of_lah_triangle():
    tri = triangle(
        [[lah(n, k) * (-1) ** (n - k) for k in range(n + 1)] for n in range(9)]
    )
    got = delta_of(UmbralOp(tri))
    expected = mul_inv(series([1, -1], 8)).shift_up(1).truncate(8)  # t/(1-t)
    assert all(got.indicator[i] == expected[i] for i in range(9))


def test_delta_of_rejects_zero_column():
    tri = triangle([[1], [0, 1], [0, 0, 1]])
    bad = Triangle(((F(1),), (F(0), F(1)), (F(0), F(0), F(1))))
    # zero the (1,1) entry to break delta extraction
    rows = [list(r) for r in bad.rows]
    rows[1][1] = F(0)
    with pytest.raises((NotDelta, ValueError)):
        delta_of(Triangle(tuple(tuple(r) for r in rows)))


def test_composition_closure():
    cat = delta_catalog()
    pairs = [("Delta", "log1p"), ("Catalan", "D/2"), ("Laguerre", "Delta")]
    for qn, rn in pairs:
        Q, R = cat[qn], cat[rn]
        phi = basic_transfer(Q, 8)
        psi = basic_transfer(R, 8)
        combined = tri_compose(psi.tri, phi.tri)
        got = delta_of(UmbralOp(combined))
        expected = diamond(Q, R).indicator
        assert all(got.indicator[i] == expected[i] for i in range(9))


# -- triangle algebra -----------------------------------------------------------------


def test_stirling_pair_inverse():
    falling = basic_transfer(delta_catalog()["Delta"], 8).tri
    touchard = basic_transfer(delta_catalog()["log1p"], 8).tri
    assert tri_compose(falling, touchard) == tri_identity(8)
    assert tri_invert(falling) == touchard
    assert list(tri_invert(falling).rows[3]) == [0, 1, 3, 1]


def test_tri_invert_identity():
    assert tri_invert(tri_identity(6)) == tri_identity(6)


def test_tri_invert_requires_diagonal():
    rows = [[F(1)], [F(0), F(0)]]
    with pytest.raises(SingularTriangle):
        tri_invert(Triangle(tuple(tuple(r) for r in rows)))


def test_transform_round_trips_random():
    rng = random.Random(20)
    tri = basic_transfer(delta_catalog()["Catalan"], N).tri
    inv = tri_invert(tri)
    for _ in range(20):
        seq = [F(rng.randint(-30, 30), rng.randint(1, 11)) for _ in range(N + 1)]
        for mode in ("row", "column"):
            assert transform_seq(inv, transform_seq(tri, seq, mode), mode) == seq
            assert transform_seq(tri, transform_seq(inv, seq, mode), mode) == seq


def test_transform_zero_and_window():
    tri = basic_transfer(delta_catalog()["Delta"], 8).tri
    assert transform_seq(tri, [0] * 5, "row") == [0] * 5
    # windowed (start=2) round trip
    seq = [F(1), F(-2), F(3)]
    out = transform_seq(tri, seq, "row", start=2)
    assert transform_seq(tri_invert(tri), out, "row", start=2) == seq


@pytest.mark.parametrize("mode", ["row", "column"])
@pytest.mark.parametrize("seq, start", [([1, 2, 3, 4, 5], 0), ([1, 2], 2)])
def test_transform_refuses_a_sequence_past_the_depth(mode, seq, start):
    # rows 3 and 4 are unknown at depth 2, not zero
    tri = triangle([[1], [0, 1], [0, 1, 1]])
    with pytest.raises(TruncationError):
        transform_seq(tri, seq, mode, start)
    assert transform_seq(tri, seq[:3 - start], mode, start)


def test_pascal_involution():
    # binomial triangle from E: coeff[n][k] = C(n,k); signed conjugate inverts it
    pascal = triangle([[comb(n, k) for k in range(n + 1)] for n in range(9)])
    inv = tri_invert(pascal)
    for n in range(9):
        for k in range(n + 1):
            assert inv.entry(n, k) == (-1) ** (n - k) * comb(n, k)


# -- binomial-type detector --------------------------------------------------------------


def test_detector_accepts_catalog():
    for name, Q in delta_catalog().items():
        assert is_binomial_type(basic_transfer(Q, 8).tri), name


def test_detector_rejects_bernoulli():
    D = derivative_op(T)
    Delta = delta_catalog()["Delta"]
    bern = sheffer(divide(D, Delta), basic_transfer(D, 8))
    assert not is_binomial_type(bern)


def test_detector_rejects_second_kind_bernoulli():
    D = derivative_op(T)
    Delta = delta_catalog()["Delta"]
    psi = sheffer(divide(Delta, D), basic_transfer(Delta, 8))
    assert psi.entry(1, 0) == F(1, 2)
    assert not is_binomial_type(psi)


def test_detector_rejects_perturbations():
    rng = random.Random(99)
    base = basic_transfer(delta_catalog()["Delta"], 8).tri
    for _ in range(5):
        n = rng.randint(2, 8)
        k = rng.randint(2, n)
        rows = [list(r) for r in base.rows]
        rows[n][k] += F(rng.randint(1, 5), rng.randint(1, 3))
        assert not is_binomial_type(Triangle(tuple(tuple(r) for r in rows)))


# -- Sheffer / cross ------------------------------------------------------------------------


def test_bernoulli_sheffer_row():
    D = derivative_op(T)
    Delta = delta_catalog()["Delta"]
    sh = sheffer(divide(D, Delta), basic_transfer(D, 6))
    assert list(sh.rows[2]) == [F(1, 6), -1, 1]


def test_second_kind_bernoulli_integral_rows():
    Delta = delta_catalog()["Delta"]
    sh = sheffer(divide(Delta, derivative_op(T)), basic_transfer(Delta, 6))
    for n in range(7):
        anti = basic_transfer(Delta, 6).tri.row_poly(n).antiderivative(0)
        assert sh.row_poly(n) == anti.shifted(1) - anti


def test_sheffer_defining_relation():
    for name, Q in delta_catalog().items():
        A = ShiftOp(series([1, F(1, 2), F(-1, 3)], T))
        sh = sheffer(A, basic_transfer(Q, 8))
        for n in range(1, 9):
            assert apply_op(Q, sh.row_poly(n)) == n * sh.row_poly(n - 1), name


def test_sheffer_bivariate_identity_on_grid():
    Q = delta_catalog()["Delta"]
    phi = basic_transfer(Q, 6)
    sh = sheffer(divide(derivative_op(T), Q), phi)
    pts = [F(i, 2) for i in range(8)]
    for n in range(7):
        sn = sh.row_poly(n)
        for x in pts:
            for y in pts:
                rhs = sum(
                    comb(n, k) * sh.row_poly(k)(x) * phi.tri.row_poly(n - k)(y)
                    for k in range(n + 1)
                )
                assert sn(x + y) == rhs


def test_sheffer_and_cross_return_the_triangle_of_their_rows():
    Q = delta_catalog()["Laguerre"]
    phi = basic_transfer(Q, 6)
    A = ShiftOp(series([1, F(1, 2), F(-1, 3)], T))
    C, u = ShiftOp(series([1, -1], T)), F(-3, 2)

    def rows(op):
        return tri_from_polys([apply_op(op, phi.tri.row_poly(m)) for m in range(7)])

    assert sheffer(A, phi) == rows(A)
    assert cross(C, u, phi) == rows(ShiftOp(pow_rat(C.indicator, u)))


def test_sheffer_without_a_cached_delta_does_not_recover_it(monkeypatch):
    # the Sheffer triangle reads only phi's rows: no delta_of, so no comp_inv
    Q = delta_catalog()["Delta"]
    phi = UmbralOp(basic_transfer(Q, 6).tri)
    calls = []
    for name in ("delta_of", "comp_inv"):
        monkeypatch.setattr(umbral, name, lambda *args, _name=name: calls.append(_name))
    tri = sheffer(ShiftOp(series([1, 1], T)), phi)
    assert calls == [] and tri.n == 6


def test_apply_poly_past_the_depth_raises():
    tri = basic_transfer(delta_catalog()["Delta"], 4).tri
    assert tri.apply_poly(poly([])) == poly([])
    with pytest.raises(TruncationError):
        tri.apply_poly(monomial(5))


def test_cross_zero_exponent_is_basic():
    Q = delta_catalog()["Laguerre"]
    phi = basic_transfer(Q, 6)
    assert cross(ShiftOp(series([1, 0, -2], T)), 0, phi) == phi.tri


def test_cross_two_parameter_convolution():
    # phi^{(u+v)}_n(x+y) = sum C(n,k) phi^{(u)}_k(x) phi^{(v)}_{n-k}(y)
    Q = delta_catalog()["Laguerre"]
    phi = basic_transfer(Q, 5)
    C = ShiftOp(series([1, -1], T))
    pts = [F(i, 2) for i in range(7)]
    for u in (F(0), F(1), F(-1, 2)):
        for v in (F(1, 2), F(2)):
            su = cross(C, u, phi)
            sv = cross(C, v, phi)
            suv = cross(C, u + v, phi)
            for n in range(6):
                for x in pts:
                    for y in pts:
                        rhs = sum(
                            comb(n, k) * su.row_poly(k)(x) * sv.row_poly(n - k)(y)
                            for k in range(n + 1)
                        )
                        assert suv.row_poly(n)(x + y) == rhs


# -- connection constants / niederhausen ---------------------------------------------------------


def test_connection_constants_self_is_identity():
    phi = basic_transfer(delta_catalog()["Catalan"], 6)
    assert connection_constants(phi, phi) == tri_identity(6)


def test_connection_rising_falling_is_lah():
    rising = basic_transfer(delta_catalog()["Nabla"], 8)
    falling = basic_transfer(delta_catalog()["Delta"], 8)
    conn = connection_constants(rising, falling)
    for n in range(9):
        for k in range(n + 1):
            assert conn.entry(n, k) == lah(n, k)
    # grid check of phi_n(x) = sum_k conn[n][k] psi_k(x)
    pts = [F(i, 3) for i in range(10)]
    for n in range(9):
        for x in pts:
            rhs = sum(conn.entry(n, k) * falling.tri.row_poly(k)(x) for k in range(n + 1))
            assert rising.tri.row_poly(n)(x) == rhs


def test_niederhausen_identity_gives_idempotent():
    ident = basic_transfer(derivative_op(T), 8)
    nie = niederhausen(ident)
    for n in range(9):
        for k in range(n + 1):
            expected = comb(n, k) * F(k) ** (n - k) if (n, k) != (0, 0) else F(1)
            assert nie.tri.entry(n, k) == expected
    # the delta of the transform is the Lambert-type series comp_inv(t e^t)
    ind = nie.delta.indicator
    assert [ind[i] for i in range(1, 5)] == [1, -1, F(3, 2), F(-8, 3)]
    assert all(compose(x_series(8) * exp_series(x_series(8)), ind)[i] == x_series(8)[i] for i in range(9))


def test_niederhausen_delta_series_formula():
    # the transform's delta expands as R = sum_n phi_{n-1}(-n)/n! D^n
    for name in ("D", "Delta", "D/2", "Laguerre"):
        Q = delta_catalog()[name]
        phi = basic_transfer(Q, 9)
        nie = niederhausen(phi)
        for n in range(1, 10):
            expected = phi.tri.row_poly(n - 1)(-n) / factorial(n)
            assert nie.delta.indicator[n] == expected, (name, n)


def test_niederhausen_abel_inverse():
    a = F(2)
    stretch_tri = triangle(
        [[a**n if n == k else 0 for k in range(n + 1)] for n in range(9)]
    )
    stretch = UmbralOp(stretch_tri, validate_delta(ShiftOp(x_series(T) / a)))
    nie = niederhausen(stretch)
    abel = validate_delta(ShiftOp(x_series(T) * exp_series(x_series(T) * a)))
    assert nie.tri == tri_invert(basic_transfer(abel, 8).tri)


# -- coefficient extraction routes -------------------------------------------------------------------


def test_power_coeffs_matches_direct():
    for name, Q in delta_catalog().items():
        for n in range(1, 8):
            assert power_coeffs(Q, n) == power_coeffs_direct(Q, n), name


def test_power_coeffs_derivative_trivial():
    pc = power_coeffs(derivative_op(T), 5)
    assert pc[-1] == 1 and all(v == 0 for v in pc[:-1])


def test_power_coeffs_gen_bernoulli():
    pc = power_coeffs(delta_catalog()["Delta"], 3)
    # (t/(e^t-1))^3 EGF coefficients, wired to signed Stirling-1 ratios
    for k in range(1, 4):
        expected = F((-1) ** (3 - k) * stirling1_unsigned(3, k), comb(2, k - 1))
        assert pc[k - 1] == expected


def test_coeff_via_ratio_inverse_multiderivative_is_lah():
    # Q = D/(1+D): [t^m] g^k = [t^(m-k)] (g/t)^k, the ratio route, runs through
    # (1-D)^{-k} expansions
    Q = validate_delta(ShiftOp(mul_inv(series([1, 1], T)).shift_up(1).truncate(T)))
    tri = basic_genfunc(Q, 8).tri
    for n in range(9):
        for k in range(n + 1):
            assert tri.entry(n, k) == lah(n, k)


def test_catalan_inverse_closed_form():
    # coeff[n][k] of the inverse Catalan operator: C(k, n-k) n!/k! (-1)^{n-k}
    Q = delta_catalog()["Catalan"]
    cinv = tri_invert(basic_transfer(Q, 9).tri)
    for n in range(10):
        for k in range(n + 1):
            expected = F(comb(k, n - k) * factorial(n), factorial(k)) * (-1) ** (n - k)
            assert cinv.entry(n, k) == expected


# -- operator identities ------------------------------------------------------------------------------


def test_special_class_trivial_identity():
    phi = basic_transfer(derivative_op(T), 6)
    one = identity_op(T)
    assert special_class_check(phi, one, one, 3)


def test_special_class_falling():
    phi = basic_transfer(delta_catalog()["Delta"], 8)
    assert special_class_check(phi, identity_op(T), shift_by(-1, T), 4)


def test_special_class_laguerre():
    phi = basic_transfer(delta_catalog()["Laguerre"], 8)
    om = ShiftOp(series([1, -1], T))
    assert special_class_check(phi, om, om, 4)


def test_special_class_detects_wrong_operators():
    phi = basic_transfer(delta_catalog()["Delta"], 8)
    assert not special_class_check(phi, identity_op(T), shift_by(1, T), 2)


def test_commutation_expansion_reduces_to_recurrence_at_one():
    # n = 1 is the first commutation equality phi X = X (Q')^{-1} phi
    for name, Q in delta_catalog().items():
        phi = basic_transfer(Q, 8)
        assert commutation_expansion_check(phi, 1), name
        qp_inv = ShiftOp(mul_inv(pincherle(Q).indicator))
        for m in range(7):
            # phi X x^m = X (Q')^{-1} phi x^m (operators act right-to-left)
            lhs = phi.tri.apply_poly(monomial(m + 1))
            rhs = apply_op(qp_inv, phi.tri.apply_poly(monomial(m))).times_x()
            assert lhs == rhs, name


def test_commutation_expansion_higher():
    assert commutation_expansion_check(basic_transfer(delta_catalog()["Delta"], 8), 2)
    assert commutation_expansion_check(basic_transfer(derivative_op(T), 8), 3)
    assert commutation_expansion_check(basic_transfer(delta_catalog()["Catalan"], 8), 2)


def test_differential_equation_invariant():
    # (n - X Q/Q') phi_n = 0
    for name, Q in delta_catalog().items():
        phi = basic_transfer(Q, N)
        ratio = divide(Q, pincherle(Q))
        for n in range(N + 1):
            pn = phi.tri.row_poly(n)
            assert (n * pn - apply_op(ratio, pn).times_x()).is_zero(), name


def test_basicness_conditions():
    for name, Q in delta_catalog().items():
        tri = basic_transfer(Q, N).tri
        assert tri.entry(0, 0) == 1
        for n in range(1, N + 1):
            assert tri.entry(n, 0) == 0
            assert tri.entry(n, n) != 0


def test_bell_route_equals_operator_routes():
    for name, Q in delta_catalog().items():
        got = basic_from_inverse_series(comp_inv(Q.indicator), N)
        assert got.tri == basic_transfer(Q, N).tri, name

"""Anchored pseudoinverses, Faulhaber, Euler-Maclaurin, fractional sums."""

import random
from fractions import Fraction as F

import pytest

from umbra import sigma, umbral
from umbra.cli import main
from umbra.errors import TruncationError
from umbra.fps import exp_series, mul_inv, poly, series, x_series
from umbra.operators import ShiftOp, apply_op, derivative_op, shift_by, validate_delta
from umbra.sigma import (
    SigmaOp,
    bernoulli2_poly,
    bernoulli_numbers,
    euler_maclaurin_residual,
    faulhaber,
    frac_sum_eval,
    sigma_apply,
    sigma_identities_check,
)

from oracles import bernoulli_polynomial, direct_sum, integral, sigma_corollary

T = 18


def catalog_deltas():
    return {
        "D": derivative_op(T),
        "Delta": validate_delta(shift_by(1, T) - 1),
        "Nabla": validate_delta(1 - shift_by(-1, T)),
        "Catalan": validate_delta(ShiftOp(series([0, 1, -1], T))),
        "Laguerre": validate_delta(ShiftOp(mul_inv(series([1, -1], T)).shift_up(1).truncate(T))),
        "Abel": validate_delta(ShiftOp(x_series(T) * exp_series(x_series(T)))),
    }


# -- Bernoulli machinery ----------------------------------------------------------


def test_bernoulli_numbers():
    bs = bernoulli_numbers(8)
    assert bs[0] == 1 and bs[1] == F(-1, 2) and bs[2] == F(1, 6)
    assert bs[3] == 0 and bs[4] == F(-1, 30) and bs[6] == F(1, 42)


def test_bernoulli_polynomial():
    assert bernoulli_polynomial(2) == poly([F(1, 6), -1, 1])
    # defining property: int_x^{x+1} B_n = x^n
    for n in range(7):
        anti = bernoulli_polynomial(n).antiderivative(0)
        assert anti.shifted(1) - anti == poly([0] * n + [1])


# -- defining relations -------------------------------------------------------------


def test_defining_relations_catalog():
    for name, Q in catalog_deltas().items():
        for a in (F(0), F(1), F(-1, 2)):
            s = SigmaOp(Q, a, depth=12)
            for m in range(13):
                p = poly([0] * m + [1])
                assert apply_op(Q, s.apply(p)) == p, name
                got = s.apply(apply_op(Q, p))
                assert got == p - p(a), name


def test_two_routes_coincide_random():
    rng = random.Random(8)
    for name, Q in catalog_deltas().items():
        s = SigmaOp(Q, F(1, 2), depth=10)
        for _ in range(5):
            p = poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 9))])
            assert s.apply(p) == sigma_corollary(Q, F(1, 2), p), name


def test_anchored_integration():
    D = derivative_op(T)
    out = sigma_apply(D, 2, poly([0, 0, 1]))
    assert out == poly([F(-8, 3), 0, 0, F(1, 3)])
    assert out(2) == 0


def test_anchored_summation_matches_direct_sums():
    Delta = catalog_deltas()["Delta"]
    rng = random.Random(17)
    for _ in range(6):
        p = poly([F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))])
        out = sigma_apply(Delta, 0, p)
        for x in range(0, 9):
            assert out(x) == direct_sum(p, 0, x)


def test_catalan_sigma_integration_route():
    # Lambda^{-1} = I (1-D)^{-1} applied to x^3
    Lam = catalog_deltas()["Catalan"]
    out = sigma_apply(Lam, 0, poly([0, 0, 0, 1]))
    inner = apply_op(ShiftOp(mul_inv(series([1, -1], T))), poly([0, 0, 0, 1]))
    anti = inner.antiderivative(0)
    assert out == anti - anti(0)


def test_sigma_on_zero():
    Delta = catalog_deltas()["Delta"]
    assert sigma_apply(Delta, 3, poly([])).is_zero()


def test_sigma_past_its_depth_raises_truncation_error():
    s = SigmaOp(catalog_deltas()["Laguerre"], F(1, 2), depth=3)
    assert not s.apply(poly([1, 2, 3, 4])).is_zero()
    with pytest.raises(TruncationError):
        s.apply(poly([1, 2, 3, 4, 5]))


# -- Faulhaber ------------------------------------------------------------------------


def test_faulhaber_small():
    assert faulhaber(0) == poly([0, 1])
    assert faulhaber(1) == poly([0, F(-1, 2), F(1, 2)])
    assert faulhaber(1)(4) == 6
    assert faulhaber(2)(5) == 30


def test_faulhaber_matches_direct_sums():
    for n in range(11):
        fp = faulhaber(n)  # three internal routes asserted equal
        p = poly([0] * n + [1])
        for x in range(9):
            assert fp(x) == direct_sum(p, 0, x)


# -- Euler-Maclaurin ---------------------------------------------------------------------


def test_euler_maclaurin_trivial_and_linear():
    assert euler_maclaurin_residual(poly([1]), 0).is_zero()
    assert euler_maclaurin_residual(poly([0, 1]), 0) == poly([0, F(-1, 2)])


def test_euler_maclaurin_cubic():
    out = euler_maclaurin_residual(poly([0, 0, 0, 1]), 0)
    assert out == poly([0, 0, F(1, 4), F(-1, 2)])


def test_euler_maclaurin_random():
    rng = random.Random(23)
    for _ in range(10):
        p = poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 9))])
        a = F(rng.randint(-2, 2), rng.randint(1, 3))
        res = euler_maclaurin_residual(p, a)  # dual route asserted internally
        # spot value: residual(x) = sum_a p - int_a p at integer x >= a
        for x in range(3):
            if x >= a:
                sigma_val = frac_sum_eval(p, a, x)
                assert res(x) == sigma_val - integral(p, a, x)


# -- sigma identities ------------------------------------------------------------------------


def test_sigma_identities_pairs():
    cat = catalog_deltas()
    assert sigma_identities_check(cat["D"], cat["Delta"], 0, 8)
    assert sigma_identities_check(cat["Delta"], cat["D"], 0, 8)
    assert sigma_identities_check(cat["Catalan"], cat["D"], F(-1, 2), 6)
    assert sigma_identities_check(cat["Laguerre"], cat["Delta"], 1, 6)


def test_sigma_identity_faulhaber_engine():
    # (c) with Q = D, R = Delta is Sum = I B: check through faulhaber values
    D = catalog_deltas()["D"]
    for n in range(6):
        p = poly([0] * n + [1])
        lhs = sigma_apply(catalog_deltas()["Delta"], 0, p)
        assert lhs == faulhaber(n)


def test_inverse_bernoulli_is_unit_integral():
    # B^{-1} f = int_x^{x+1} f  (identity (d) with Q = Delta, R = D)
    from umbra.operators import divide

    Delta = catalog_deltas()["Delta"]
    D = catalog_deltas()["D"]
    binv = divide(Delta, D)
    rng = random.Random(31)
    for _ in range(5):
        p = poly([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))])
        anti = p.antiderivative(0)
        assert apply_op(binv, p) == anti.shifted(1) - anti


# -- fractional sums ----------------------------------------------------------------------------


def test_frac_sum_basics():
    assert frac_sum_eval(poly([0, 0, 1]), 0, 5) == 30
    assert frac_sum_eval(poly([1]), 0, F(7, 2)) == F(7, 2)
    assert frac_sum_eval(poly([4, -1, 2]), F(2, 3), F(2, 3)) == 0


def test_frac_sum_additivity():
    rng = random.Random(41)
    for _ in range(8):
        p = poly([F(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))])
        a, b, c = (F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3))
        assert frac_sum_eval(p, a, b) + frac_sum_eval(p, b, c) == frac_sum_eval(p, a, c)


def test_fractional_geometric_sum_orderwise():
    # Sum_0 e^{xt} = (e^{xt}-1)/(e^t-1), checked per t-order as polynomials in x
    n = 8
    Delta = catalog_deltas()["Delta"]
    lhs_polys = []
    for k in range(n + 1):
        # t^k coefficient of e^{xt} is x^k/k!
        from math import factorial

        lhs_polys.append(sigma_apply(Delta, 0, poly([0] * k + [F(1, factorial(k))])))
    # rhs: (e^{xt}-1)/(e^t-1) expanded in t with polynomial coefficients:
    # multiply series-in-t with polynomial coefficients by mul_inv(e^t-1 / t) / t shift
    from math import factorial

    egf = mul_inv(series([F(1, factorial(j + 1)) for j in range(n + 1)], n))  # t/(e^t-1)
    for k in range(n + 1):
        rhs = poly([])
        # [t^k] (e^{xt}-1)/t * (t/(e^t-1)): convolve
        for j in range(k + 1):
            # [t^j] of (e^{xt}-1)/t = x^{j+1}/(j+1)!
            term = poly([0] * (j + 1) + [F(1, factorial(j + 1))])
            rhs = rhs + egf[k - j] * term
        assert lhs_polys[k] == rhs


# -- second-kind Bernoulli -------------------------------------------------------------------------


def test_bernoulli2_small():
    assert bernoulli2_poly(0) == poly([1])
    assert bernoulli2_poly(1) == poly([F(1, 2), 1])
    assert bernoulli2_poly(2) == poly([F(-1, 6), 0, 1])


def test_bernoulli2_integral_oracle():
    from umbra.umbral import basic_set

    Delta = catalog_deltas()["Delta"]
    falling = basic_set(Delta, 8, "transfer")
    for n in range(8):
        psi = bernoulli2_poly(n)  # internal dual-route assertion
        assert integral(falling.row_poly(n), 0, 1) == psi(0)


# -- the route of SigmaOp ------------------------------------------------------------------


# (poly, lower bound, last argument) of the 54 `sum` requests that the small_order
# benchmark workload draws on seeds 1-3: cubics with small rational coefficients
_SUM_REQUESTS = [
    ("1/2 + 1/7*x + 1/5*x^2 + 3/11*x^3", "-5/2", "--format=json"),
    ("1/11 - 3/5*x + 1/7*x^2 + 1/2*x^3", "3/2", "--at=13/2"),
    ("3/7 - 1/5*x + 1/2*x^2 + 1/11*x^3", "-1/2", "--format=json"),
    ("-1/11 + 3/5*x + 1/7*x^2 + 1/2*x^3", "-1/2", "--at=3/2"),
    ("-1/2 + 1/11*x + 3/5*x^2 - 1/7*x^3", "3/2", "--format=json"),
    ("1/2 - 1/11*x + 1/7*x^2 - 3/5*x^3", "5/2", "--at=7/2"),
    ("-1/5 + 3/2*x + 1/11*x^2 + 1/7*x^3", "5/2", "--format=json"),
    ("-1/2 - 1/5*x + 3/11*x^2 - 1/7*x^3", "-5/2", "--at=1/2"),
    ("-1/7 + 1/11*x + 1/5*x^2 - 3/2*x^3", "-3/2", "--format=json"),
    ("-1/7 + 1/11*x + 1/5*x^2 + 3/2*x^3", "-5/2", "--at=-3/2"),
    ("-1/5 + 3/2*x - 1/7*x^2 - 1/11*x^3", "3/2", "--format=json"),
    ("-1/2 - 1/11*x - 3/5*x^2 + 1/7*x^3", "-1/2", "--at=11/2"),
    ("1/2 - 1/5*x - 3/11*x^2 + 1/7*x^3", "1/2", "--format=json"),
    ("3/2 + 1/5*x + 1/11*x^2 - 1/7*x^3", "-3/2", "--at=1/2"),
    ("-1/5 + 1/7*x + 1/2*x^2 - 3/11*x^3", "-5/2", "--format=json"),
    ("-1/11 - 3/5*x - 1/2*x^2 + 1/7*x^3", "-1/2", "--at=-1/2"),
    ("-1/2 - 1/7*x - 1/11*x^2 - 3/5*x^3", "-1/2", "--format=json"),
    ("1/7 + 1/5*x + 3/11*x^2 + 1/2*x^3", "-3/2", "--at=9/2"),
    ("-1/2 - 1/5*x - 3/7*x^2 - 1/11*x^3", "7/2", "--format=json"),
    ("1/11 - 1/7*x + 1/5*x^2 - 3/2*x^3", "-5/2", "--at=3/2"),
    ("3/2 + 1/5*x - 1/11*x^2 - 1/7*x^3", "5/2", "--format=json"),
    ("-1/5 - 1/11*x - 3/7*x^2 - 1/2*x^3", "-5/2", "--at=3/2"),
    ("-1/11 - 1/2*x - 3/7*x^2 + 1/5*x^3", "-7/2", "--format=json"),
    ("1/7 + 3/2*x - 1/11*x^2 + 1/5*x^3", "-5/2", "--at=5/2"),
    ("3/2 - 1/11*x + 1/5*x^2 + 1/7*x^3", "-3/2", "--format=json"),
    ("1/2 + 3/7*x - 1/5*x^2 - 1/11*x^3", "5/2", "--at=5/2"),
    ("3/7 - 1/11*x + 1/2*x^2 + 1/5*x^3", "-5/2", "--format=json"),
    ("3/2 + 1/11*x - 1/7*x^2 - 1/5*x^3", "-7/2", "--at=5/2"),
    ("-1/7 + 1/5*x + 3/11*x^2 + 1/2*x^3", "3/2", "--format=json"),
    ("1/5 + 1/2*x + 1/11*x^2 + 3/7*x^3", "-7/2", "--at=-1/2"),
    ("1/11 + 3/2*x - 1/7*x^2 - 1/5*x^3", "1/2", "--format=json"),
    ("3/7 - 1/11*x + 1/2*x^2 - 1/5*x^3", "-5/2", "--at=-5/2"),
    ("3/7 - 1/5*x - 1/11*x^2 + 1/2*x^3", "-5/2", "--format=json"),
    ("3/5 + 1/2*x + 1/11*x^2 + 1/7*x^3", "1/2", "--at=9/2"),
    ("1/2 - 1/11*x + 3/5*x^2 - 1/7*x^3", "5/2", "--format=json"),
    ("-1/5 + 1/7*x + 1/2*x^2 + 3/11*x^3", "5/2", "--at=9/2"),
    ("1/7 + 1/11*x + 1/5*x^2 - 3/2*x^3", "7/2", "--format=json"),
    ("1/5 + 1/7*x - 1/11*x^2 - 3/2*x^3", "-5/2", "--at=1/2"),
    ("1/7 + 3/5*x - 1/2*x^2 + 1/11*x^3", "7/2", "--format=json"),
    ("-1/5 - 3/11*x - 1/2*x^2 + 1/7*x^3", "1/2", "--at=7/2"),
    ("1/7 - 3/5*x - 1/2*x^2 + 1/11*x^3", "5/2", "--format=json"),
    ("-3/2 + 1/5*x - 1/11*x^2 + 1/7*x^3", "1/2", "--at=3/2"),
    ("1/2 - 1/11*x + 3/5*x^2 + 1/7*x^3", "1/2", "--format=json"),
    ("-1/5 - 1/2*x - 3/11*x^2 + 1/7*x^3", "3/2", "--at=3/2"),
    ("3/7 - 1/5*x - 1/11*x^2 - 1/2*x^3", "-5/2", "--format=json"),
    ("-1/11 + 1/2*x - 1/5*x^2 + 3/7*x^3", "3/2", "--at=3/2"),
    ("-3/7 + 1/11*x - 1/5*x^2 - 1/2*x^3", "-1/2", "--format=json"),
    ("1/7 - 3/5*x + 1/2*x^2 - 1/11*x^3", "-5/2", "--at=-1/2"),
    ("-3/11 - 1/2*x - 1/7*x^2 - 1/5*x^3", "7/2", "--format=json"),
    ("-1/11 + 1/2*x + 1/7*x^2 + 3/5*x^3", "1/2", "--at=7/2"),
    ("1/5 - 3/7*x + 1/11*x^2 - 1/2*x^3", "1/2", "--format=json"),
    ("-1/5 - 3/11*x - 1/2*x^2 + 1/7*x^3", "3/2", "--at=9/2"),
    ("-1/2 + 1/11*x + 1/5*x^2 - 3/7*x^3", "-3/2", "--format=json"),
    ("3/2 - 1/5*x - 1/7*x^2 + 1/11*x^3", "5/2", "--at=7/2"),
]


def test_sigma_prints_what_the_transfer_route_gives(capsys, monkeypatch):
    # SigmaOp builds its basic set by the recurrence route; sigma_apply's checks fix s
    # whatever the route, so every output must be that of SigmaOp on basic_transfer
    argvs = [["faulhaber", "--n", str(n), "--format", "json"] for n in range(25)]
    argvs += [["sum", f"--poly={p}", f"--from={a}", last] for p, a, last in _SUM_REQUESTS]

    def outputs():
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    got = outputs()
    assert all(code == 0 and out and not err for code, out, err in got)
    monkeypatch.setitem(umbral.BASIC_ROUTES, "recurrence", umbral.basic_transfer)
    assert outputs() == got

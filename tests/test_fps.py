"""Series arithmetic, composition, inverses, rational powers, Lagrange."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.errors import ConstantTermError, NotInvertible, OrderError
from umbra.fps import (
    INF,
    comp_inv,
    compose,
    const,
    derive,
    exp_series,
    expm1,
    lagrange_power,
    log1p,
    log_series,
    mul_inv,
    poly,
    pow_rat,
    series,
    x_series,
)

from oracles import catalan, integrate, newton_comp_inv

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=5)


def small_series(order1: bool = False, trunc: int = 8):
    def build(coeffs):
        cs = list(coeffs)
        if order1:
            cs[0] = F(0)
            if cs[1] == 0:
                cs[1] = F(1)
        return series(cs, trunc)

    return st.lists(rationals, min_size=trunc + 1, max_size=trunc + 1).map(build)


# -- arithmetic ----------------------------------------------------------------


def test_add_disjoint_supports():
    assert series([0, 1], 4) + series([0, 0, 1], 4) == series([0, 1, 1], 4)


def test_mul_difference_of_squares():
    assert series([1, 1], 4) * series([1, -1], 4) == series([1, 0, -1], 4)


def test_scale():
    assert series([0, 2], 4).scale(F(1, 2)) == x_series(4)


def test_truncation_contract_min():
    a = series([1, 1, 1], 6)
    b = series([1, 1], 3)
    assert (a + b).trunc == 3
    assert (a * b).trunc == 3
    assert compose(x_series(9), series([0, 1], 4)).trunc == 4


def test_order_sentinel():
    assert const(0, 5).order() == INF
    assert x_series(5).order() == 1
    assert series([0, 0, 0, 7], 5).order() == 3


def test_shift_down_requires_order():
    with pytest.raises(OrderError):
        series([1, 1], 4).shift_down(1)
    assert series([0, 0, 3], 4).shift_down(2) == series([3], 2)


def test_truncate_never_extends():
    from umbra.errors import TruncationError

    with pytest.raises(TruncationError):
        x_series(3).truncate(5)


def test_poly_trims_and_degree_sentinel():
    from umbra.fps import poly as mkpoly

    assert mkpoly([1, 0, 0]).coeffs == (F(1),)
    assert mkpoly([]).degree() == -INF
    assert mkpoly([0]).is_zero()
    assert (mkpoly([0, 1]) - mkpoly([0, 1])).is_zero()


@given(small_series())
@settings(max_examples=50)
def test_rat_canonical_after_ops(f):
    g = f * f + f.scale(F(3, 7))
    for c in g.coeffs:
        assert c.denominator >= 1
        from math import gcd

        assert gcd(abs(c.numerator), c.denominator) == 1


# -- calculus --------------------------------------------------------------------


def test_derive_cubic():
    assert derive(series([0, 0, 0, 1], 5)) == series([0, 0, 3], 4)


def test_integrate_square():
    assert integrate(series([0, 0, 1], 3), 0) == series([0, 0, 0, F(1, 3)], 3)


def test_derive_integrate_round_trip():
    f = series([1, 1], 6)
    assert derive(integrate(f, 5)) == f.truncate(5)


# -- composition and inverses ------------------------------------------------


def test_compose_expansion():
    f = series([0, 0, 1], 6)  # x^2
    g = series([0, 1, 1], 6)  # x + x^2
    assert compose(f, g) == series([0, 0, 1, 2, 1], 6)


def test_compose_identity_neutral():
    f = series([3, 1, -2, 5], 7)
    assert compose(f, x_series(7)) == f


def test_compose_exp_log():
    assert compose(expm1(10), log1p(10)) == x_series(10)


def test_compose_requires_order():
    with pytest.raises(OrderError):
        compose(x_series(4), series([1, 1], 4))


def test_mul_inv_geometric():
    assert mul_inv(series([1, -1], 6)) == series([1] * 7, 6)
    assert mul_inv(const(1, 4)) == const(1, 4)


def test_mul_inv_bernoulli_egf():
    b = mul_inv(expm1(8).shift_down(1))
    assert b[0] == 1 and b[1] == F(-1, 2) and b[2] == F(1, 12) and b[3] == 0
    # cross-check B_2 = 1/6 against the Faulhaber oracle sum_{k<x} k^2
    poly_sum = poly([0, F(1, 6), F(-1, 2), F(1, 3)])  # x^3/3 - x^2/2 + x/6
    assert b[2] * 2 == F(1, 6)  # B_2 = 2! [t^2]
    assert poly_sum(5) == sum(k * k for k in range(5))


def test_mul_inv_requires_unit():
    with pytest.raises(NotInvertible):
        mul_inv(x_series(4))


def test_comp_inv_log():
    assert comp_inv(expm1(9)) == log1p(9)


def test_comp_inv_identity():
    assert comp_inv(x_series(6)) == x_series(6)


def test_comp_inv_catalan():
    g = comp_inv(series([0, 1, -1], 8))
    for n in range(1, 9):
        assert g[n] == catalan(n - 1)


def test_comp_inv_requires_order_one():
    with pytest.raises(OrderError):
        comp_inv(series([1, 1], 4))
    with pytest.raises(OrderError):
        comp_inv(series([0, 0, 1], 4))


@given(small_series(order1=True))
@settings(max_examples=30, deadline=None)
def test_comp_inv_round_trip(f):
    g = comp_inv(f)
    assert compose(f, g) == x_series(f.trunc)
    assert compose(g, f) == x_series(f.trunc)


def test_comp_inv_round_trip_trunc_32():
    f = series([0, 1, F(-1, 2), 0, F(2, 7), 3] + [F(1, 3)] * 27, 32)
    g = comp_inv(f)
    assert compose(f, g) == x_series(32)
    assert compose(g, f) == x_series(32)


@given(small_series(order1=True))
@settings(max_examples=20, deadline=None)
def test_comp_inv_matches_newton_oracle(f):
    assert comp_inv(f) == newton_comp_inv(f)


# -- rational powers -------------------------------------------------------------


def test_pow_rat_square():
    assert pow_rat(series([1, 1], 5), 2) == series([1, 2, 1], 5)


def test_pow_rat_sqrt_one_minus_4x():
    f = series([1, -4], 7)
    h = pow_rat(f, F(1, 2))
    assert h * h == f.truncate(7)
    assert h[1] == -2 and h[2] == -2 and h[3] == -4


def test_pow_rat_zero_exponent():
    assert pow_rat(series([1, 5, -3], 6), 0) == const(1, 6)


def test_pow_rat_integer_agrees_with_mul():
    f = series([1, 2, -1], 6)
    assert pow_rat(f, 3) == f * f * f
    assert pow_rat(f, -1) == mul_inv(f)


def test_pow_rat_requires_unit_constant():
    with pytest.raises(ConstantTermError):
        pow_rat(series([2, 1], 4), F(1, 2))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=3), st.fractions(min_value=-3, max_value=3, max_denominator=3))
@settings(max_examples=25, deadline=None)
def test_pow_rat_addition_law(a, b):
    f = series([1, 1, -2, F(1, 3)], 7)
    assert pow_rat(f, a + b) == pow_rat(f, a) * pow_rat(f, b)


# -- exp / log -------------------------------------------------------------------


def test_exp_series_factorials():
    e = exp_series(x_series(6))
    assert [e[n] for n in range(7)] == [F(1, __import__("math").factorial(n)) for n in range(7)]


def test_log_series_alternating():
    assert log_series(series([1, 1], 7)) == log1p(7)


def test_exp_log_round_trips():
    f = series([0, 1, F(-1, 2), F(2, 5)], 8)
    assert log_series(exp_series(f)) == f
    g = series([1, 1, 1], 8)
    assert exp_series(log_series(g)) == g


def test_exp_log_preconditions():
    with pytest.raises(ConstantTermError):
        exp_series(series([1, 1], 4))
    with pytest.raises(ConstantTermError):
        log_series(series([0, 1], 4))


# -- Lagrange-Buermann -----------------------------------------------------------


def test_lagrange_matches_comp_inv_log():
    lp = lagrange_power(expm1(8), 1, 6)
    expected = log1p(6)
    assert all(lp[n] == expected[n] for n in range(7))


def test_lagrange_catalan_entry():
    lp = lagrange_power(series([0, 1, -1], 8), 1, 5)
    assert lp[3] == 2  # C_2


def test_lagrange_identity_self_inverse():
    assert lagrange_power(x_series(8), 3, 5) == series([0, 0, 0, 1], 5)


@pytest.mark.parametrize(
    "f",
    [
        series([0, F(-3, 2), F(1, 5), 0, F(-2, 7)], 40),  # (f/x)^-n by division
        series([0, 2, 0, 0, F(1, 65537)], 16),  # divides at n_max = 16, not at 15
        expm1(16).scale(2),  # dense
    ],
    ids=["short", "boundary", "dense"],
)
def test_lagrange_with_non_unit_leads(f):
    g = comp_inv(f)
    for n_max in (0, 1, 11, f.trunc - 1, f.trunc):
        for k in (1, 2):
            assert lagrange_power(f, k, n_max) == (g**k).truncate(n_max), (n_max, k)


def test_lagrange_equals_comp_inv_powers():
    f = series([0, 1, F(-1, 2), F(1, 3), 2, F(3, 5), -1], 24, )
    g = comp_inv(f)
    for k in range(1, 7):
        gk = g**k
        lp = lagrange_power(f, k, 24)
        assert all(lp[n] == gk[n] for n in range(25))

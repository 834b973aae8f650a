"""Expansion/isomorphism theorem surfaces: operators in powers of any delta."""

from fractions import Fraction as F
from math import factorial

from umbra.fps import log1p, monomial, poly, series, x_series
from umbra.operators import (
    ShiftOp,
    apply_op,
    derivative_op,
    diamond,
    divide,
    shift_by,
    validate_delta,
)
from umbra.umbral import basic_set

T = 14


def expand_in_delta(U: ShiftOp, Q, depth: int):
    """Coefficients a_k = Ev_0(U p_k) of the expansion U = sum a_k Q^k / k!."""
    phi = basic_set(Q, depth, "transfer")
    return [apply_op(U, phi.row_poly(k))(0) for k in range(depth + 1)]


def apply_expansion(coeffs, Q, p):
    """Apply sum a_k Q^k / k! to a polynomial (finite sum)."""
    out = poly([])
    qp = p
    for k, a in enumerate(coeffs):
        if a:
            out = out + a * qp / factorial(k)
        if qp.is_zero():
            break
        qp = apply_op(Q, qp)
    return out


def test_expansion_of_shift_in_forward_difference():
    # E^1 = sum_k p_k(1) Delta^k / k! with p_k the falling factorials:
    # the coefficients are p_k(1) = (1)_k = [1, 1, 0, 0, ...]
    Delta = validate_delta(shift_by(1, T) - 1)
    E = shift_by(1, T)
    coeffs = expand_in_delta(E, Delta, 8)
    assert coeffs[0] == 1 and coeffs[1] == 1 and all(c == 0 for c in coeffs[2:])
    for d in range(7):
        p = monomial(d)
        assert apply_expansion(coeffs, Delta, p) == p.shifted(1)


def test_expansion_of_bernoulli_in_forward_difference():
    Delta = validate_delta(shift_by(1, T) - 1)
    B = divide(derivative_op(T), Delta)
    coeffs = expand_in_delta(B, Delta, 8)
    for d in range(7):
        p = poly([F(1, 3), -2, 0, 1][: d + 1])
        assert apply_expansion(coeffs, Delta, p) == apply_op(B, p)


def test_expansion_recovers_indicator_when_q_is_derivative():
    # for Q = D the expansion coefficients are k! [t^k] of the indicator
    U = ShiftOp(series([1, F(1, 2), F(-2, 3), 0, 5], T))
    coeffs = expand_in_delta(U, derivative_op(T), 8)
    for k in range(9):
        assert coeffs[k] == U.indicator[k] * factorial(k)


def test_diamond_algebra_laws():
    Delta = validate_delta(shift_by(1, T) - 1)
    L = validate_delta(ShiftOp(log1p(T)))
    Lam = validate_delta(ShiftOp(series([0, 1, -1], T)))
    D = derivative_op(T)
    # D is neutral on both sides
    assert diamond(Delta, D).indicator == Delta.indicator
    assert diamond(D, Delta).indicator == Delta.indicator
    # associativity
    lhs = diamond(diamond(Delta, L), Lam).indicator
    rhs = diamond(Delta, diamond(L, Lam)).indicator
    assert lhs == rhs
    # right distributivity over +: (T + U) <> V = T <> V + U <> V
    lhs2 = diamond(Delta + Lam, L).indicator
    rhs2 = (diamond(Delta, L) + diamond(Lam, L)).indicator
    assert lhs2 == rhs2


def test_isomorphism_respects_ring_structure():
    # f -> f(Q) is a ring map: products of indicator series compose with apply
    Delta = validate_delta(shift_by(1, T) - 1)
    f = series([1, F(1, 2), -1], T)
    g = series([0, 2, 0, F(1, 3)], T)
    fq = diamond(ShiftOp(f), Delta)
    gq = diamond(ShiftOp(g), Delta)
    fg_q = diamond(ShiftOp(f * g), Delta)
    for d in range(7):
        p = monomial(d)
        assert apply_op(fg_q, p) == apply_op(fq, apply_op(gq, p))


def test_unit_equivalences():
    # Qx = c <=> [x^n] phi_n = c^{-n} <=> phi_1 = x/c
    for c in (F(1), F(1, 3), F(-2)):
        Q = validate_delta(ShiftOp(x_series(T).scale(c) + series([0, 0, 1], T)))
        assert Q.unit == c
        phi = basic_set(Q, 6, "transfer")
        assert phi.row_poly(1) == poly([0, 1 / c])
        for n in range(7):
            assert phi.entry(n, n) == c ** (-n)

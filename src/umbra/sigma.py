"""Sigma operators: anchored pseudoinverses of delta operators on polynomials.

Q^{-1}_{(a)} is the unique right inverse of Q with value 0 at the anchor a:
QQ^{-1}_{(a)} = 1 and Q^{-1}_{(a)}Q = 1 - Ev_a.   For Q = D this is anchored
integration, for Q = Delta anchored summation; the same machinery yields
Faulhaber's formula, the operational Euler-Maclaurin identity and fractional
sums.  Q s = p and s(a) = 0 fix s = Q^{-1}_{(a)} p, so ``sigma_apply`` checks
its one construction by those two equations.  Sigma operators are
deliberately exposed only as actions on polynomials: they are not
shift-invariant and must never be expanded as a series in D (the
divergent-geometric-series trap).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ._kernel import weighted_sum
from .errors import TruncationError, agree
from .fps import Poly, expm1, mul_inv, poly
from .operators import DeltaOp, apply_op, derivative_op, shift_by, validate_delta, divide
from .rational import RatLike, rat
from .umbral import basic_form


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = -1/2) as exact rationals, from the EGF t/(e^t - 1)."""
    egf = mul_inv(expm1(n + 1).shift_down(1))
    return [egf[k] * factorial(k) for k in range(n + 1)]


class SigmaOp:
    """Anchored pseudoinverse of a delta operator, by the basic-set route.

    Precomputes the basic triangle of Q through row ``depth + 1`` as a row form, so it acts
    on polynomials of degree <= ``depth``.  The triangle is built by the recurrence
    route, the cheapest of the five: ``sigma_apply`` checks s by Q s = p and
    s(a) = 0, which fix s whatever route built the triangle.
    """

    def __init__(self, Q: DeltaOp, anchor: RatLike = 0, depth: int = 16):
        self.anchor = rat(anchor)
        self._phi = basic_form(Q, depth + 1, "recurrence")

    def apply(self, p: Poly) -> Poly:
        """Expand p in {phi_n}, shift indices, re-anchor."""
        if p.is_zero():
            return p
        (rows, dens), d = self._phi, len(p.coeffs) - 1
        if d >= len(rows) - 1:
            raise TruncationError(f"sigma depth {len(rows) - 2} < deg p = {d}")
        # monomial coefficients a -> coordinates b on the integer rows, p = sum_n b_n r_n: a_j
        # is sum_{n>=j} b_n r_n[j], solved by back substitution from j = deg p down
        b = [Fraction(0)] * (d + 1)
        for j in range(d, -1, -1):
            b[j] = (p.coeffs[j] - sum([b[n] * rows[n][j] for n in range(j + 1, d + 1)])) / rows[j][j]
        # p = sum_n c_n phi_n with c_n = b_n d_n, and s is sum_n c_n phi_{n+1}/(n+1)
        terms = [(v * dens[n] / (n + 1), (rows[n + 1], dens[n + 1])) for n, v in enumerate(b)]
        nums, den = weighted_sum(terms, d + 2)
        out = poly([Fraction(v, den) for v in nums])
        return out - out(self.anchor)


def sigma_apply(Q: DeltaOp, a: RatLike, p: Poly) -> Poly:
    """One-shot anchored sigma application, checked by the equations that fix it.

    s = Q^{-1}_{(a)} p is the one polynomial with s(a) = 0 and Q s = p: Q lowers
    degree by exactly one and its kernel on polynomials is the constants.
    """
    d = 0 if p.is_zero() else int(p.degree())
    s = SigmaOp(Q, a, depth=d + 1).apply(p)
    agree("sigma", basic=s(a), anchor=Fraction(0))
    agree("sigma", basic=apply_op(Q, s), equation=p)
    return s


def _delta_op(trunc: int) -> DeltaOp:
    return validate_delta(shift_by(1, trunc) - 1)


def delta_sum(p: Poly, a: RatLike) -> Poly:
    """The anchored Delta-sigma of p: Delta resolved at deg p + 4, then ``sigma_apply``."""
    d = 0 if p.is_zero() else int(p.degree())
    return sigma_apply(_delta_op(d + 4), a, p)


def faulhaber(n: int) -> Poly:
    """Power-sum polynomial: F_n(x) = sum_{k=0}^{x-1} k^n for integer x.

    The Bernoulli-number closed form and the anchored sigma of Delta must
    coincide exactly.
    """
    bs = bernoulli_numbers(n)
    closed = [Fraction(0)] * (n + 2)
    for k in range(n + 1):
        closed[n + 1 - k] = Fraction(comb(n + 1, k), n + 1) * bs[k]
    return agree("faulhaber", closed=poly(closed), sigma=delta_sum(poly([0] * n + [1]), 0))


def euler_maclaurin_residual(p: Poly, a: RatLike = 0) -> Poly:
    """Sum_a p - Int_a p, computed two ways (must match exactly).

    Route A subtracts the two anchored sigmas; route B is the operational
    Euler-Maclaurin sum over Bernoulli numbers, finite at degree + 1 terms.
    """
    a = rat(a)
    if p.is_zero():
        return p
    d = int(p.degree())
    route_a = delta_sum(p, a) - sigma_apply(derivative_op(d + 4), a, p)
    bs = bernoulli_numbers(d + 1)
    route_b = poly([])
    deriv = p
    for k in range(1, d + 2):
        if bs[k]:
            route_b = route_b + Fraction(bs[k], factorial(k)) * (deriv - deriv(a))
        deriv = deriv.derivative()
    return agree("Euler-Maclaurin", sigma=route_a, bernoulli=route_b)


def sigma_identities_check(Q: DeltaOp, R: DeltaOp, a: RatLike, depth: int) -> bool:
    """The four sigma identities, verified on monomials up to ``depth``.

    (a) Ev_a Q^{-1}_{(a)} = 0
    (b) (AQ)^{-1}_{(a)} = Q^{-1}_{(a)} A^{-1}  with A = R/Q (an Appell operator)
    (c) Q^{-1}_{(a)} = R^{-1}_{(a)} (R/Q)
    (d) Q/R applied directly = Q R^{-1}_{(a)} = Q R^{-1}_{(0)}
    """
    a = rat(a)
    sq = SigmaOp(Q, a, depth)
    sr = SigmaOp(R, a, depth)
    sr0 = SigmaOp(R, 0, depth)
    r_over_q = divide(R, Q)
    q_over_r = divide(Q, R)
    aq = validate_delta(r_over_q * Q)  # equals R as an operator; built independently
    s_aq = SigmaOp(aq, a, depth)
    a_inv = q_over_r  # (R/Q)^{-1} = Q/R
    for m in range(depth + 1):
        p = poly([0] * m + [1])
        if sq.apply(p)(a) != 0:
            return False
        if s_aq.apply(p) != sq.apply(apply_op(a_inv, p)):
            return False
        if sq.apply(p) != sr.apply(apply_op(r_over_q, p)):
            return False
        lhs = apply_op(q_over_r, p)
        if lhs != apply_op(Q, sr.apply(p)) or lhs != apply_op(Q, sr0.apply(p)):
            return False
    return True


def frac_sum_eval(p: Poly, a: RatLike, x: RatLike) -> Fraction:
    """The fractional sum: anchored Delta-sigma of p evaluated at x.

    For integers a <= x this reproduces sum_{k=a}^{x-1} p(k); the bounds may
    be arbitrary rationals.
    """
    return delta_sum(p, a)(x)


def bernoulli2_poly(n: int) -> Poly:
    """Bernoulli polynomial of the second kind: B^{-1} applied to (x)_n.

    Checked against the anchored-integral oracle int_x^{x+1} (t)_n dt, and
    the commutation n phi_{n-1} = (psi_n)' of the two Sheffer families.
    """
    trunc = n + 3
    delta = _delta_op(trunc)
    b_inv = divide(delta, derivative_op(trunc))  # indicator (e^t - 1)/t
    rows, dens = basic_form(delta, n + 1, "transfer")
    falling, prev = (poly([Fraction(v, dens[m]) for v in rows[m]]) for m in (n, max(n - 1, 0)))
    route1 = apply_op(b_inv, falling)
    anti = falling.antiderivative(0)
    agree("second-kind Bernoulli", operator=route1, integral=anti.shifted(1) - anti)
    lower = n * prev  # n phi_{n-1}; zero for n = 0
    agree("second-kind Bernoulli commutation", derivative=route1.derivative(), falling=lower)
    return route1

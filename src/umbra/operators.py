"""Shift-invariant operators on polynomials, represented by indicator series.

A shift-invariant operator T is stored as its indicator: the series with
T = indicator(D).  Applying T to a polynomial of degree d therefore needs the
indicator resolved to trunc >= d; anything shallower raises TruncationError
instead of silently truncating.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernel import apply_derivatives
from .errors import NotDelta, OrderError, Record, TruncationError
from .fps import (
    INF,
    Poly,
    Series,
    compose,
    derive,
    exp_series,
    iterate_int,
    poly,
    quotient,
    x_series,
)
from .rational import RatLike, rat


class ShiftOp(Record):
    """Shift-invariant operator with explicit truncated indicator."""

    __slots__ = ("indicator",)
    indicator: Series

    def __init__(self, indicator: Series):
        object.__setattr__(self, "indicator", indicator)

    def __add__(self, other: "ShiftOp | RatLike") -> "ShiftOp":
        o = other.indicator if isinstance(other, ShiftOp) else rat(other)
        return ShiftOp(self.indicator + o)

    __radd__ = __add__

    def __neg__(self) -> "ShiftOp":
        return ShiftOp(-self.indicator)

    def __sub__(self, other: "ShiftOp | RatLike") -> "ShiftOp":
        o = other.indicator if isinstance(other, ShiftOp) else rat(other)
        return ShiftOp(self.indicator - o)

    def __rsub__(self, other: RatLike) -> "ShiftOp":
        return ShiftOp(rat(other) - self.indicator)

    def __mul__(self, other: "ShiftOp | RatLike") -> "ShiftOp":
        o = other.indicator if isinstance(other, ShiftOp) else rat(other)
        return ShiftOp(self.indicator * o)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ShiftOp":
        return ShiftOp(self.indicator**k)


class DeltaOp(ShiftOp):
    """Shift-invariant operator of indicator order exactly 1; unit c = [D^1]."""

    __slots__ = ()

    @property
    def unit(self) -> Fraction:
        return self.indicator[1]

    def is_unitary(self) -> bool:
        return self.unit == 1


def derivative_op(trunc: int) -> DeltaOp:
    return DeltaOp(x_series(trunc))


def shift_by(a: RatLike, trunc: int) -> ShiftOp:
    """E^a = exp(a D), the shift f(x) -> f(x+a)."""
    return ShiftOp(exp_series(x_series(trunc).scale(rat(a))))


def validate_delta(T: ShiftOp) -> DeltaOp:
    """Check that the indicator has order exactly 1."""
    ind = T.indicator
    order = ind.order()
    if order == INF:
        raise NotDelta("indicator is the zero series")
    if order == 0:
        raise NotDelta("indicator has order 0 (invertible, not delta)")
    if order >= 2:
        raise NotDelta(f"indicator has order {order} >= 2")
    return DeltaOp(ind)


def is_appell(T: ShiftOp) -> bool:
    """Invertible shift-invariant operator: nonzero constant term."""
    return T.indicator[0] != 0


def apply_op(T: ShiftOp, p: Poly) -> Poly:
    """T p via the expansion in D: sum_k c_k p^(k), one exact correlation."""
    d = p.degree()
    if d == -INF:
        return p
    if T.indicator.trunc < d:
        raise TruncationError(
            f"indicator trunc {T.indicator.trunc} < deg p = {d}; operator not resolved deeply enough"
        )
    return poly(apply_derivatives(T.indicator.coeffs, [p.coeffs])[0])


def pincherle(T: ShiftOp) -> ShiftOp:
    """Pincherle derivative T' = Tx - xT; equals indicator differentiation."""
    return ShiftOp(derive(T.indicator))


def divide(U: ShiftOp, V: ShiftOp) -> ShiftOp:
    """Operator division per the shared-factor definition U = D^k P, V = D^k R:
    U/V = P/R, the indicator quotient ``fps.quotient``."""
    return ShiftOp(quotient(U.indicator, V.indicator))


def diamond(T: ShiftOp, U: ShiftOp) -> ShiftOp:
    """Indicator composition (T o U signature): indicator of result = T~ o U~."""
    if U.indicator.order() < 1:
        raise OrderError("diamond requires the right operand to have order >= 1")
    return ShiftOp(compose(T.indicator, U.indicator))


def bracket_iterate(Q: DeltaOp, n: int) -> DeltaOp:
    """Q^[n]: n-fold indicator self-composition, compositional inverse for n < 0."""
    return validate_delta(ShiftOp(iterate_int(Q.indicator, n)))

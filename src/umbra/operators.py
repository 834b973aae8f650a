"""Shift-invariant operators on polynomials, represented by indicator series.

A shift-invariant operator T is stored as its indicator: the series with
T = indicator(D).  Applying T to a polynomial of degree d therefore needs the
indicator resolved to trunc >= d; anything shallower raises TruncationError
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernel import apply_derivatives
from .errors import DivisionOrderError, NotDelta, OrderError, TruncationError
from .fps import (
    INF,
    Poly,
    Series,
    compose,
    const,
    derive,
    exp_series,
    iterate_int,
    mul_inv,
    poly,
    x_series,
)
from .rational import RatLike, rat


@dataclass(frozen=True)
class ShiftOp:
    """Shift-invariant operator with explicit truncated indicator."""

    indicator: Series

    def order(self) -> int | float:
        return self.indicator.order()

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


@dataclass(frozen=True)
class DeltaOp(ShiftOp):
    """Shift-invariant operator of indicator order exactly 1; unit c = [D^1]."""

    unit: Fraction

    def is_unitary(self) -> bool:
        return self.unit == 1


def derivative_op(trunc: int) -> DeltaOp:
    return DeltaOp(x_series(trunc), Fraction(1))


def identity_op(trunc: int) -> ShiftOp:
    return ShiftOp(const(1, trunc))


def shift_by(a: RatLike, trunc: int) -> ShiftOp:
    """E^a = exp(a D), the shift f(x) -> f(x+a)."""
    return ShiftOp(exp_series(x_series(trunc).scale(rat(a))))


def validate_delta(T: ShiftOp) -> DeltaOp:
    """Check that the indicator has order exactly 1 and attach the unit."""
    ind = T.indicator
    order = ind.order()
    if order == INF:
        raise NotDelta("indicator is the zero series")
    if order == 0:
        raise NotDelta("indicator has order 0 (invertible, not delta)")
    if order >= 2:
        raise NotDelta(f"indicator has order {order} >= 2")
    return DeltaOp(ind, ind[1])


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
    return poly(apply_derivatives(T.indicator.coeffs, p.coeffs))


def pincherle(T: ShiftOp) -> ShiftOp:
    """Pincherle derivative T' = Tx - xT; equals indicator differentiation."""
    return ShiftOp(derive(T.indicator))


def divide(U: ShiftOp, V: ShiftOp) -> ShiftOp:
    """Operator division per the shared-factor definition U = D^k P, V = D^k R.

    k is the order of V; requires ord(U) >= k, and never expands a
    non-invertible divisor into a divergent geometric series.
    """
    k = V.order()
    if k == INF:
        raise DivisionOrderError("division by the zero operator")
    k = int(k)
    if U.order() < k:
        raise DivisionOrderError(f"ord(U) = {U.order()} < ord(V) = {k}")
    p_part = U.indicator.shift_down(k) if k else U.indicator
    r_part = V.indicator.shift_down(k) if k else V.indicator
    return ShiftOp(p_part * mul_inv(r_part))


def diamond(T: ShiftOp, U: ShiftOp) -> ShiftOp:
    """Indicator composition (T o U signature): indicator of result = T~ o U~."""
    if U.order() < 1:
        raise OrderError("diamond requires the right operand to have order >= 1")
    return ShiftOp(compose(T.indicator, U.indicator))


def bracket_iterate(Q: DeltaOp, n: int) -> DeltaOp:
    """Q^[n]: n-fold indicator self-composition, compositional inverse for n < 0."""
    return validate_delta(ShiftOp(iterate_int(Q.indicator, n)))


# ---------------------------------------------------------------------------
# elementary operators (the non-shift-invariant ones act on Poly directly)
# ---------------------------------------------------------------------------


def elementary(kind: str, p: Poly, a: RatLike | None = None):
    """Dispatch for the elementary-operator table; eval returns a scalar."""
    if kind == "identity":
        return p
    if kind == "eval":
        return p(0 if a is None else a)
    if kind == "scalar":
        return rat(a) * p
    if kind == "mulx":
        return p.times_x()
    if kind == "shift":
        return p.shifted(1 if a is None else a)
    if kind == "symmetry":
        return p.reflected()
    if kind == "derivative":
        return p.derivative()
    raise ValueError(f"unknown elementary operator kind: {kind!r}")

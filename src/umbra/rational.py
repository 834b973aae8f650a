"""Exact rational scalars.

The coefficient domain is the rationals and nothing else.  Python's
``fractions.Fraction`` already keeps values in canonical reduced form
(gcd(num, den) = 1, den > 0, arbitrary-precision integers), so it is used
directly; this module adds the parsing/formatting used by the JSON schemas
and the row of generalized binomial coefficients needed for fractional
iteration.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import UmbraError

RatLike = Fraction | int | str


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "num/den" string to a canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value).strip())


def rat_str(q: RatLike) -> str:
    """"num/den", or "num" when den == 1; UmbraError past Python's int-to-str digit limit."""
    q = rat(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise UmbraError(f"a coefficient would exceed {sys.get_int_max_str_digits()} digits") from None


def binom_row(r: RatLike, k: int) -> list[Fraction]:
    """[C(r, 0), ..., C(r, k)], each from the last: C(r, j) = C(r, j-1) (r-j+1)/j."""
    r = rat(r)
    row = [Fraction(1)]
    for j in range(1, k + 1):
        row.append(row[-1] * (r - j + 1) / j)
    return row

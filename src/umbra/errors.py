"""Exception hierarchy shared by all umbra modules."""

from fractions import Fraction
from math import gcd


class UmbraError(ValueError):
    """Base class for every error raised by this package."""


class OrderError(UmbraError):
    """A series has the wrong order for the requested operation."""


class NotInvertible(UmbraError):
    """Multiplicative inverse requested for a series with zero constant term."""


class ConstantTermError(UmbraError):
    """Constant term violates a precondition (exp/log/pow_rat)."""


class TruncationError(UmbraError):
    """An operator or series is not resolved deeply enough for the request."""


class DivisionOrderError(UmbraError):
    """Operator division U/V with ord(U) < ord(V)."""


class NotDelta(UmbraError):
    """Indicator order is not exactly 1."""


class NotAppell(UmbraError):
    """Operator is not invertible (indicator constant term is zero)."""


class SingularTriangle(UmbraError):
    """Triangle has a zero diagonal entry and cannot be inverted."""


class NotUnitary(UmbraError):
    """Series/operator/triangle is not unitary where unitarity is required."""


class UnknownFamily(UmbraError):
    """Catalog lookup for a family name that does not exist."""


class ParseError(UmbraError):
    """Syntax error in the expression front-end, with source location."""

    def __init__(self, message: str, pos: int, expected: tuple[str, ...] = ()):
        self.pos = pos
        self.expected = expected
        detail = f"{message} at offset {pos}"
        if expected:
            detail += " (expected " + " | ".join(sorted(expected)) + ")"
        super().__init__(detail)


class RouteDisagreement(UmbraError):
    """Two routes of one construction differ at ``index``: [] for a scalar, [i] for a
    Series or Poly coefficient, [row, col] for a Triangle entry."""

    def __init__(self, construction: str, routes: tuple[str, str], index: list[int], values: tuple):
        self.construction, self.routes = construction, routes
        self.index, self.values = index, values
        super().__init__(
            f"{construction} routes disagree at {index}: "
            f"{routes[0]} gives {shown(values[0])}, {routes[1]} gives {shown(values[1])}"
        )


def shown(value) -> str:
    """str(value); past the int-to-str digit limit, a rational's sign and the bit
    lengths of its numerator and denominator: "-<80001-bit numerator>/<1-bit denominator>"."""
    try:
        return str(value)
    except ValueError:
        q = Fraction(value)
        bits = q.numerator.bit_length(), q.denominator.bit_length()
        return "-" * (q < 0) + "<%d-bit numerator>/<%d-bit denominator>" % bits


def _columns(form) -> list:
    """An integer form as its (nums, den) columns; a vector is one column."""
    nums, den = form
    return [form] if isinstance(den, int) else list(zip(nums, den))


def _entry(cols, k: int, i: int) -> Fraction:
    """Entry i of column k of an integer form as a reduced Fraction; 0 past the end."""
    if k < len(cols) and i < len(cols[k][0]):
        return Fraction(cols[k][0][i], cols[k][1])
    return Fraction(0)


def _same_column(a, b) -> bool:
    """Whether columns (x, dx) and (y, dy) have one length and x[i] / dx == y[i] / dy, on
    integers: x and y are cross-multiplied by the cofactors of gcd(dx, dy)."""
    (x, dx), (y, dy) = a, b
    if len(x) != len(y):
        return False
    if dx == dy:
        return x == y
    g = gcd(dx, dy)
    fx, fy = dy // g, dx // g
    return all(u * fx == v * fy for u, v in zip(x, y))


def _equal(a, b) -> bool:
    """a == b, for integer forms as for Series and Triangles: the same shape and values."""
    if not isinstance(a, tuple):
        return a == b
    ca, cb = _columns(a), _columns(b)
    return len(ca) == len(cb) and all(map(_same_column, ca, cb))


def _first_difference(a, b) -> tuple[list[int], tuple]:
    """(index, (a entry, b entry)) where a and b first differ; ([], (a, b)) if no entry does."""
    if isinstance(a, tuple):
        ca, cb = _columns(a), _columns(b)
        if isinstance(a[1], int):
            cells = [([i], 0, i) for i in range(max(len(a[0]), len(b[0])))]
        else:
            cells = [([m, k], k, m - k) for m in range(max(len(ca), len(cb))) for k in range(m + 1)]
        entries = ((i, (_entry(ca, k, j), _entry(cb, k, j))) for i, k, j in cells)
    elif hasattr(a, "rows"):
        cells = [[m, k] for m in range(max(a.n, b.n) + 1) for k in range(m + 1)]
        entries = ((i, (a.entry(*i), b.entry(*i))) for i in cells)
    elif hasattr(a, "coeffs"):
        entries = (([i], (a[i], b[i])) for i in range(max(len(a.coeffs), len(b.coeffs))))
    else:
        entries = ()
    return next((e for e in entries if e[1][0] != e[1][1]), ([], (a, b)))


def agree(construction: str, **routes):
    """The first route's value; raises RouteDisagreement unless all routes are equal.

    A value is a rational, a Poly, a Series or a Triangle, or an integer form that
    is compared with no Fraction: (nums, den) for the vector nums[i] / den, and
    (cols, dens) for the triangle whose column k lists entries (k, k), ..., (n, k)
    as cols[k][i] / dens[k].  Neither form need be reduced, and nums are lists.  Two
    forms are equal when they have one shape and, column by column, the numerators
    cross-multiplied by the cofactors of the two denominators agree.  Only the two
    entries where they first differ, in the order of a Series ([i]) or of a Triangle's
    rows ([m, k]) and with 0 past the end, become Fractions, so the disagreement reads
    as it would between Series or Triangles."""
    (first_name, first), *rest = routes.items()
    for name, value in rest:
        if not _equal(first, value):
            index, values = _first_difference(first, value)
            raise RouteDisagreement(construction, (first_name, name), index, values)
    return first

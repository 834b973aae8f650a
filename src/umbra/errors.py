"""Exception hierarchy shared by all umbra modules."""

from fractions import Fraction


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


def _first_difference(a, b) -> tuple[list[int], tuple]:
    """(index, (a entry, b entry)) where a and b first differ; ([], (a, b)) if no entry does."""
    if hasattr(a, "rows"):
        cells = [[m, k] for m in range(max(a.n, b.n) + 1) for k in range(m + 1)]
        entries = ((i, (a.entry(*i), b.entry(*i))) for i in cells)
    elif hasattr(a, "coeffs"):
        entries = (([i], (a[i], b[i])) for i in range(max(len(a.coeffs), len(b.coeffs))))
    else:
        entries = ()
    return next((e for e in entries if e[1][0] != e[1][1]), ([], (a, b)))


def agree(construction: str, **routes):
    """The first route's value; raises RouteDisagreement unless all routes are equal."""
    (first_name, first), *rest = routes.items()
    for name, value in rest:
        if value != first:
            index, values = _first_difference(first, value)
            raise RouteDisagreement(construction, (first_name, name), index, values)
    return first

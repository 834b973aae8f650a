"""Exception hierarchy shared by all umbra modules, the route cross-check ``agree``, and
``Record``, the base of every record class: errors is the lowest module that the
records' modules all import."""

from fractions import Fraction
from math import gcd
from operator import attrgetter


class Record:
    """Base of umbra's records: immutable values compared by their fields.

    A record class lists its fields in ``__slots__``, after those of its bases, and
    writes its own ``__init__``, which sets each field with ``object.__setattr__`` and
    calls ``__post_init__`` where the record checks its fields.  Assigning or deleting
    a field raises AttributeError.  Two records are equal when they are of one class
    and their fields are equal; the hash is that of the fields, and the repr is
    ``Series(trunc=2, coeffs=(...))``.  Records are not dataclasses, because importing
    ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
    decorated class ``exec``s generated methods, which was more than half of the cost
    of ``import umbra.cli``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ()))
        cls._values = attrgetter(*cls._fields)  # not a method: called as self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


def _lines(form) -> list:
    """An integer form as its (nums, den) lines: a vector is one line, a triangle its rows."""
    nums, den = form
    return [form] if isinstance(den, int) else list(zip(nums, den))


def _cell(form, m: int, k: int) -> Fraction:
    """Entry (m, k) of a triangle form as a reduced Fraction; 0 past the end."""
    rows, dens = form
    if m < min(len(rows), len(dens)) and k < len(rows[m]):
        return Fraction(rows[m][k], dens[m])
    return Fraction(0)


def _same_line(a, b) -> bool:
    """Whether lines (x, dx) and (y, dy) have one length and x[i] / dx == y[i] / dy, on
    integers: x and y are cross-multiplied by the cofactors of gcd(dx, dy)."""
    (x, dx), (y, dy) = a, b
    if len(x) != len(y):
        return False
    if dx == dy:
        return x == y
    g = gcd(dx, dy)
    fx, fy = dy // g, dx // g
    return all(u * fx == v * fy for u, v in zip(x, y))


def equal(a, b) -> bool:
    """a == b, for integer forms as for Series and Triangles: the same shape and values."""
    if not isinstance(a, tuple):
        return a == b
    la, lb = _lines(a), _lines(b)
    return len(la) == len(lb) and all(map(_same_line, la, lb))


def _first_difference(a, b) -> tuple[list[int], tuple]:
    """(index, (a entry, b entry)) where a and b first differ; ([], (a, b)) if no entry does."""
    if isinstance(a, tuple):
        ca, cb = a, b
        if isinstance(a[1], int):  # a vector, read as the one row of a triangle form
            ca, cb = ([a[0]], [a[1]]), ([b[0]], [b[1]])
            cells = [([i], (0, i)) for i in range(max(len(a[0]), len(b[0])))]
        else:
            cells = [([m, k], (m, k)) for m in range(max(len(a[0]), len(b[0]))) for k in range(m + 1)]
        entries = ((i, (_cell(ca, *c), _cell(cb, *c))) for i, c in cells)
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
    (rows, dens) for the triangle whose row m lists entries (m, 0), ..., (m, m) as
    rows[m][k] / dens[m].  No form need be reduced, and nums and rows are lists.  Two
    forms are equal when they have one shape and, line by line, the numerators
    cross-multiplied by the cofactors of the two denominators agree.  Only the two
    entries where they first differ, in the order of a Series ([i]) or of a Triangle's
    rows ([m, k]) and with 0 past the end, become Fractions, so the disagreement reads
    as it would between Series or Triangles."""
    (first_name, first), *rest = routes.items()
    for name, value in rest:
        if not equal(first, value):
            index, values = _first_difference(first, value)
            raise RouteDisagreement(construction, (first_name, name), index, values)
    return first

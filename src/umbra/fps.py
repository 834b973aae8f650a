"""Truncated formal power series and exact polynomials over the rationals.

A :class:`Series` carries an explicit truncation degree ``trunc`` and exactly
``trunc + 1`` coefficients; every binary operation returns the minimum of the
operand truncations, so no coefficient is ever fabricated.  A :class:`Poly`
is an exact finite polynomial — the space the operator modules act on.

The order of the zero series is the explicit sentinel ``INF`` (and the degree
of the zero polynomial is ``-INF``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf
from operator import mul
from typing import Iterable, Sequence

from ._kernel import (
    apply_derivatives, cauchy, composition, convolve, derivative, evaluate,
    reciprocal_powers, recurrence, reduced, scaled,
)
from .errors import ConstantTermError, DivisionOrderError, NotInvertible, OrderError, Record, TruncationError, agree
from .rational import RatLike, rat, rat_str

INF = inf


def _coerce(values: Iterable[RatLike]) -> tuple[Fraction, ...]:
    # tuple() of a list allocates the exact size.  Of a generator it allocates 10 slots and
    # resizes, and the freed tuple then waits on the free list of its final size until a
    # full garbage collection, which the kernel's integer loops seldom trigger: per-request
    # tuples are built from lists here and in bell and flow for that reason.
    return tuple([rat(v) for v in values])


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


class Series(Record):
    """Formal power series truncated at exponent ``trunc`` (inclusive)."""

    __slots__ = ("trunc", "coeffs")
    trunc: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, trunc: int, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if self.trunc < 0:
            raise ValueError("trunc must be >= 0")
        if len(self.coeffs) != self.trunc + 1:
            raise ValueError("coeffs must have exactly trunc+1 entries")

    # -- basic queries ------------------------------------------------------

    def order(self) -> int | float:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INF

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n <= self.trunc:
            return self.coeffs[n]
        return Fraction(0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unitary(self) -> bool:
        """Order 1 with coefficient of x equal to 1."""
        return self.order() == 1 and self.coeffs[1] == 1

    # -- reshaping ----------------------------------------------------------

    def truncate(self, n: int) -> "Series":
        """Restrict (or zero-extend is forbidden: n must be <= trunc)."""
        if n > self.trunc:
            raise TruncationError(f"cannot extend trunc {self.trunc} to {n}")
        return Series(n, self.coeffs[: n + 1])

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by x^k; trunc grows by k (all new coefficients exact)."""
        return Series(self.trunc + k, (Fraction(0),) * k + self.coeffs)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by x^k; requires order >= k.  Trunc shrinks by k."""
        if any(self.coeffs[i] for i in range(min(k, self.trunc + 1))):
            raise OrderError(f"series has order < {k}, cannot shift down")
        if self.trunc < k:
            raise TruncationError("trunc too small to shift down")
        return Series(self.trunc - k, self.coeffs[k:])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Series | RatLike") -> "Series":
        if not isinstance(other, Series):
            return Series(self.trunc, (self.coeffs[0] + rat(other),) + self.coeffs[1:])
        n = min(self.trunc, other.trunc)
        return Series(n, tuple([self[i] + other[i] for i in range(n + 1)]))

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(self.trunc, tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "Series | RatLike") -> "Series":
        return self + (-other if isinstance(other, Series) else -rat(other))

    def __rsub__(self, other: RatLike) -> "Series":
        return (-self) + rat(other)

    def scale(self, c: RatLike) -> "Series":
        c = rat(c)
        return Series(self.trunc, tuple([c * a for a in self.coeffs]))

    def __truediv__(self, other: RatLike) -> "Series":
        """Division by a nonzero rational scalar only."""
        return self.scale(1 / rat(other))

    def __mul__(self, other: "Series | RatLike") -> "Series":
        if not isinstance(other, Series):
            return self.scale(other)
        n = min(self.trunc, other.trunc)
        return Series(n, tuple(convolve(self.coeffs[: n + 1], other.coeffs[: n + 1], n)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            return mul_inv(self) ** (-k)
        return _binary_power(self, k, const(1, self.trunc))

    def __str__(self) -> str:
        return format_series(self)


def _binary_power(base, k: int, one, times=mul):
    """base^k for k >= 0 by squaring, with no product by ``one`` and none past k's top bit."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else times(result, base)
        k >>= 1
        if k:
            base = times(base, base)
    return one if result is None else result


def series(values: Sequence[RatLike], trunc: int | None = None) -> Series:
    """Build a Series from a coefficient list, zero-padded to ``trunc``."""
    cs = list(_coerce(values))
    if trunc is None:
        trunc = len(cs) - 1 if cs else 0
    if len(cs) < trunc + 1:
        cs += [Fraction(0)] * (trunc + 1 - len(cs))
    return Series(trunc, tuple(cs[: trunc + 1]))


def const(c: RatLike, trunc: int) -> Series:
    return series([rat(c)], trunc)


def x_series(trunc: int) -> Series:
    """The identity series x."""
    return series([0, 1], trunc)


# ---------------------------------------------------------------------------
# calculus and composition
# ---------------------------------------------------------------------------


def derive(f: Series) -> Series:
    """Coefficient-wise derivative; trunc drops by one."""
    if f.trunc == 0:
        return series([0], 0)
    return Series(f.trunc - 1, tuple([(k + 1) * f.coeffs[k + 1] for k in range(f.trunc)]))


def compose(f: Series, g: Series) -> Series:
    """f(g(x)) for ord(g) >= 1, exact to min(trunc f, trunc g): the sum of f_k g^k
    over the integer power table of g, through f's last nonzero coefficient."""
    if g[0] != 0:
        raise OrderError("composition requires the inner series to have order >= 1")
    n = min(f.trunc, g.trunc)
    nums, den = composition(f.coeffs[: n + 1], g.coeffs[: n + 1])
    return Series(n, tuple([Fraction(v, den) for v in nums]))


def mul_inv(f: Series) -> Series:
    """Multiplicative inverse, f_0 g_m = -sum_{k=1..m} f_k g_{m-k} on the kernel's
    solved-prefix loop; requires nonzero constant term."""
    if f.coeffs[0] == 0:
        raise NotInvertible("constant term is zero")
    return Series(f.trunc, tuple(recurrence(f.coeffs, 1 / f.coeffs[0], 0, 1)))


def quotient(f: Series, g: Series) -> Series:
    """Operator division f/g: with k = ord g, cancel the shared factor x^k and
    multiply by the inverse of g/x^k; requires ord f >= k, so a non-invertible
    divisor is never expanded as a divergent geometric series."""
    k = g.order()
    if k == INF:
        raise NotInvertible("division by the zero series")
    if f.order() < k:
        raise DivisionOrderError(f"dividend order {f.order()} < divisor order {k}")
    return f.shift_down(k) * mul_inv(g.shift_down(k))


def comp_inv(f: Series) -> Series:
    """Compositional inverse of an order-1 series (triangular solve).

    Solves sum_k b_k f(t)^k = t one power at a time: with the residual
    r = t - sum_{j<k} b_j f^j, b_k = r_k / [t^k] f^k, then r loses b_k f^k.
    Below t^k both r and f^k vanish, so each is kept only from t^k on, as
    integers over one denominator: the window of f^k is (f/t)^k through
    t^(N-k), and the next power comes from (f/t)^(k+1) = (f/t) (f/t)^k, one
    ``cauchy`` on a window that shrinks by one each step and one ``reduced``.
    O(N^3) integer operations: a half (sparse f) to a third (dense f) of those over
    full-length powers.
    """
    if f.order() != 1:
        raise OrderError("compositional inverse requires order exactly 1")
    n = f.trunc
    h, dh = scaled(f.coeffs[1:])  # f/t through t^(N-1)
    b = [Fraction(0)] * (n + 1)
    r, dr = [1] + [0] * (n - 1), 1  # the residual t, from t^1 on
    p, dp = h, dh  # (f/t)^k = f^k from t^k on, through t^N
    for k in range(1, n + 1):
        b[k] = Fraction(r[0] * dp, dr * p[0])
        r, dr = reduced([u * p[0] - r[0] * v for u, v in zip(r[1:], p[1:])], dr * p[0])
        if k < n:
            p, dp = reduced(cauchy(h, p, n - k - 1), dp * dh)
    return Series(n, tuple(b))


def iterate_int(f: Series, m: int) -> Series:
    """m-fold compositional iterate; the inverse is used for m < 0."""
    if f.order() != 1:
        raise OrderError("iteration requires order exactly 1")
    step = f if m >= 0 else comp_inv(f)
    out = x_series(f.trunc)
    for _ in range(abs(m)):
        out = compose(step, out)
    return out


def pow_rat(f: Series, r: RatLike) -> Series:
    """f^r for rational r = p/q, O(N^2); requires f(0) = 1.  By J. C. P. Miller's recurrence
    (Knuth, TAOCP 2, 4.7): q m g_m = sum_{k=1..m} ((p+q) k - q m) f_k g_{m-k}, with g_0 = 1.

    Checked on every call against f g' = r f' g through x^(N-1), on integers: with
    f = F / d_f and g = G / d_g, q F G' and p F' G are both over q d_f d_g,
    and ``agree`` compares the two vectors with no Fraction.  With g(0) = 1 that
    equation has f^r as its only solution."""
    if f.coeffs[0] != 1:
        raise ConstantTermError("rational power requires constant term exactly 1")
    r = rat(r)
    p, q = r.numerator, r.denominator
    g = Series(f.trunc, tuple(recurrence(f.coeffs, Fraction(1), p + q, q, q)))
    agree("pow_rat", recurrence=g[0], constant_term=Fraction(1))
    (x, dx), (y, dy) = scaled(f.coeffs), scaled(g.coeffs)
    n, den = f.trunc - 1, q * dx * dy
    agree(
        "pow_rat",
        recurrence=([q * v for v in cauchy(x, derivative(y), n)], den),
        equation=([p * v for v in cauchy(derivative(x), y, n)], den),
    )
    return g


def exp_series(f: Series) -> Series:
    """exp(f) for f with zero constant term, m g_m = sum_{k=1..m} k f_k g_{m-k} (Miller's
    first sum alone) on the kernel's solved-prefix loop."""
    if f.coeffs[0] != 0:
        raise ConstantTermError("exp requires zero constant term")
    return Series(f.trunc, tuple(recurrence(f.coeffs, Fraction(1), 1, 0)))


def log_series(f: Series) -> Series:
    """log(f) for f with constant term 1, m g_m = m f_m - sum_{k<m} k g_k f_{m-k}, which
    is m f_m + sum_{k=1..m} (k - m) f_k g_{m-k} as g_0 = 0, on the kernel's solved-prefix loop."""
    if f.coeffs[0] != 1:
        raise ConstantTermError("log requires constant term exactly 1")
    return Series(f.trunc, tuple(recurrence(f.coeffs, Fraction(0), 1, 1, log=True)))


def lagrange_power(f: Series, k: int, n_max: int) -> Series:
    """Coefficients of the k-th power of the compositional inverse of f.

    Lagrange-Buermann: [t^n] f^{-1}(t)^k = (k/n) [x^{n-k}] (x/f(x))^n for
    n >= k >= 1.  Independent of comp_inv by construction.
    """
    if f.order() != 1:
        raise OrderError("Lagrange inversion requires order exactly 1")
    if k < 1:
        raise OrderError("power index k must be >= 1")
    if f.trunc < n_max:
        raise TruncationError(f"need trunc >= {n_max}, have {f.trunc}")
    out = [Fraction(0)] * (n_max + 1)
    # (x/f)^n = (f/x)^-n through x^(n_max-1), entry i over b^i
    b, table = reciprocal_powers(f.coeffs[1 : max(n_max, 1) + 1], n_max)
    for n, (p, dp) in enumerate(table):
        if n >= k:
            out[n] = Fraction(k * p[n - k], n * dp * b ** (n - k))
    return Series(n_max, tuple(out))


def exp_x(trunc: int) -> Series:
    """e^x - handy building block: sum x^n/n!."""
    return Series(trunc, tuple(Fraction(1, factorial(n)) for n in range(trunc + 1)))


def expm1(trunc: int) -> Series:
    """e^x - 1."""
    return exp_x(trunc) - 1


def log1p(trunc: int) -> Series:
    """log(1+x)."""
    return Series(
        trunc,
        tuple(Fraction(0) if n == 0 else Fraction((-1) ** (n - 1), n) for n in range(trunc + 1)),
    )


def format_series(f: Series) -> str:
    """Human-readable rendering in x, ending with the O() marker."""
    parts = []
    for n, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if n == 0:
            term = rat_str(c)
        else:
            mon = "x" if n == 1 else f"x^{n}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{rat_str(c)}*{mon}"
        parts.append(term)
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    return f"{body} + O(x^{f.trunc + 1})"


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


class Poly(Record):
    """Exact polynomial; coefficients are stored trimmed (no trailing zeros)."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("Poly coefficients must be trimmed")

    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else -INF

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, a: RatLike) -> Fraction:
        return evaluate(self.coeffs, rat(a))

    def __add__(self, other: "Poly | RatLike") -> "Poly":
        if not isinstance(other, Poly):
            other = poly([rat(other)])
        n = max(len(self.coeffs), len(other.coeffs))
        return poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly | RatLike") -> "Poly":
        return self + (-other if isinstance(other, Poly) else -rat(other))

    def __rsub__(self, other: RatLike) -> "Poly":
        return (-self) + rat(other)

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        if not isinstance(other, Poly):
            c = rat(other)
            return poly([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return poly([])
        return Poly(tuple(convolve(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __truediv__(self, other: RatLike) -> "Poly":
        return self * (1 / rat(other))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial powers are undefined")
        return _binary_power(self, k, poly([1]))

    def derivative(self) -> "Poly":
        return poly([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def antiderivative(self, c0: RatLike = 0) -> "Poly":
        return poly([rat(c0)] + [self.coeffs[k] / (k + 1) for k in range(len(self.coeffs))])

    def shifted(self, a: RatLike) -> "Poly":
        """p(x + a) = sum_k a^k/k! p^(k)(x), the exact Taylor shift."""
        a = rat(a)
        weights = [a**k / factorial(k) for k in range(len(self.coeffs))]
        return poly(apply_derivatives(weights, [self.coeffs])[0])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return format_series(Series(len(self.coeffs) - 1, self.coeffs)).rsplit(" + O", 1)[0]


def poly(values: Sequence[RatLike]) -> Poly:
    cs = list(_coerce(values))
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(tuple(cs))


def monomial(n: int, c: RatLike = 1) -> Poly:
    return poly([0] * n + [rat(c)])

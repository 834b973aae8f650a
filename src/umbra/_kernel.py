"""Exact integer kernel under Series, Poly, operators and triangles.

A vector of rationals enters as integer numerators over one common
denominator (the lcm of its denominators), the loop runs on Python ints, and
each output entry becomes a reduced ``Fraction`` once, at the end.  This is
the fraction-free idea of Bareiss (Math. Comp. 22, 1968): no gcd inside the
loop, and no floats anywhere.

A division by a short polynomial g (``divider``) carries its vectors graded
instead: entry m is an integer over d b^m, for one denominator d per vector
and one grade base b per divisor.  Each quotient then comes from the last
vector with no lift, no gcd and no division; a caller lifts entry j by b^j
once, when it builds the row it returns.

The kernel is stateless and caches nothing, so routes that are meant to
cross-check each other never share an intermediate value through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import add, mul
from typing import Sequence


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with values[i] == nums[i] / den, den the lcm of the denominators."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def evaluate(c: Sequence[Fraction], a: Fraction) -> Fraction:
    """sum_i c_i a^i, by Horner on integers: with a = u/v the loop builds
    sum_i C_i u^i v^(d-i) = v^d den sum_i c_i a^i."""
    x, den = scaled(c)
    u, v = a.numerator, a.denominator
    acc, vp = 0, 1
    for ci in reversed(x):
        acc, vp = acc * u + ci * vp, vp * v
    return Fraction(acc * v, den * vp)


def cauchy(x: Sequence[int], y: Sequence[int], n: int) -> list[int]:
    """Integer Cauchy product through x^n: each nonzero of the factor with fewer nonzeros
    through x^n adds a copy of the other."""
    x, y = x[: n + 1], y[: n + 1]
    if len(x) - x.count(0) > len(y) - y.count(0):
        x, y = y, x
    acc = [0] * (n + 1)
    for i, xi in enumerate(x):
        if xi:
            seg = y[: n + 1 - i]
            acc[i : i + len(seg)] = map(add, acc[i : i + len(seg)], map(mul, repeat(xi), seg))
    return acc


def convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int | None = None) -> list[Fraction]:
    """Cauchy product c_k = sum_{i+j=k} a_i b_j for k = 0..n (default: all of it)."""
    (x, dx), (y, dy) = scaled(a), scaled(b)
    return [Fraction(v, dx * dy) for v in cauchy(x, y, len(x) + len(y) - 2 if n is None else n)]


def reduced(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """nums/den over gcd(den, *nums), signed so that the result's den is positive: the lcm
    form that ``scaled`` gives."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return [v // g for v in nums], den // g


def powers(f: Sequence[Fraction], count: int):
    """Yield f^k through x^(len(f)-1) for k = 0..count as (nums, den): f is scaled once,
    each step is one integer product and one ``reduced``, and no Fraction is built;
    a caller that reads one power at a time never holds the whole table."""
    x, dx = scaled(f)
    p, dp = [1] + [0] * (len(x) - 1), 1
    yield p, dp
    for _ in range(count):
        p, dp = reduced(cauchy(x, p, len(x) - 1), dp * dx)
        yield p, dp


def degree(x: Sequence) -> int:
    """The degree of the polynomial with coefficients x: its last nonzero index, 0 for a constant or none."""
    d = len(x) - 1
    while d > 0 and not x[d]:
        d -= 1
    return max(d, 0)


def is_short(x: Sequence) -> bool:
    """True when x, of degree d, has 4(d + 1) <= len(x): the rule under which dividing by x
    (``divider``) beats the dense products, whose operands stay smaller than the graded
    numbers of a division by a dense x, and under which stepping a power table by x
    (``umbral._relation_powers``) beats one product per power, as its d-term sums cost
    more than a product once d nears len(x) / 4."""
    return 4 * (degree(x) + 1) <= len(x)


def divider(g: Sequence[Fraction]):
    """(b, divide) for g with g_0 != 0.  divide takes a vector graded by b, (h, dh) with
    entry m equal to h[m] / (dh b^m) and dh > 0, to h/g through x^(len(h) - 1) in the same
    graded form.

    A short g (``is_short``) is divided by on integers, graded short division (Knuth, TAOCP
    2, 4.7).  With g_0 = u/v, g/g_0 is scaled once to y / b, so y_0 = b.  For entries
    P_m / b^m, the entries of the quotient by y / b are P'_m / b^m over the same
    denominator, where
        P'_m = P_m - sum_{i=1..d} y_i b^(i-1) P'_(m-i),
    O(len(h) d) integer products for g of degree d, with no lift and no gcd.  The scalar
    1/g_0 = v/u goes to the numerators (v) and to dh (u), with u made positive.  A dense g
    has b = 1: 1/g is scaled once and cut after its last nonzero entry, and each quotient
    is one product by it, summed as a correlation of reversed(h), and one ``reduced``."""
    if not is_short(g):
        c, dc = scaled(recurrence(g, 1 / g[0], 0, 1))
        del c[degree(c) + 1 :]

        def correlate(h: Sequence[int], dh: int) -> tuple[list[int], int]:
            r = h[::-1]  # entry m of the product is sum_k c_k r_(len(h)-1-m+k)
            return reduced([sum(map(mul, c, r[j:])) for j in range(len(r) - 1, -1, -1)], dh * dc)

        return 1, correlate
    u, v = g[0].numerator, g[0].denominator
    if u < 0:
        u, v = -u, -v
    y, b = scaled([c / g[0] for c in g])
    d = degree(y)
    w = [y[i] * b ** (i - 1) for i in range(d, 0, -1)]  # against P'_(m-d)..P'_(m-1)

    def divide(h: Sequence[int], dh: int) -> tuple[list[int], int]:
        p = [0] * d
        for m, value in enumerate(h):
            p.append(value - sum(map(mul, w, p[m:])))
        return (p[d:] if v == 1 else [v * value for value in p[d:]]), dh * u

    return b, divide


def reciprocal_powers(g: Sequence[Fraction], count: int):
    """(b, table) for g with g_0 != 0: table yields (1/g)^k through x^N (N = len(g) - 1)
    for k = 0..count, graded by b: entry m of (p, dp) is p[m] / (dp b^m).  For a short g
    each power is the last divided by g (``divider``), b is the lcm of the denominators of
    g/g_0 and dp = |u|^k for g_0 = u/v; a dense g has b = 1 and the table is ``powers``
    of 1/g."""
    if not is_short(g):
        return 1, powers(recurrence(g, 1 / g[0], 0, 1), count)
    b, divide = divider(g)
    return b, accumulate(repeat(None, count), lambda p, _: divide(*p), initial=([1] + [0] * (len(g) - 1), 1))


def apply_derivatives(c: Sequence[Fraction], polys: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Coefficients of sum_k c_k p^(k) for each p in polys: entry j is sum_k c_k (j+k)! p_{j+k} / j!.
    c is scaled once and the factorials are built once, for the longest p."""
    width = max(map(len, polys), default=0)
    x, dx = scaled(c[:width])
    fact = [factorial(m) for m in range(width)]
    out = []
    for p in polys:
        y, dy = scaled(p)
        q = list(map(mul, fact, y))
        out.append([Fraction(sum(map(mul, x, q[j:])), dx * dy * fact[j]) for j in range(len(q))])
    return out


def derivative(x: Sequence[int]) -> list[int]:
    """Numerators of f' for the numerators x of f, over the same denominator."""
    return [k * v for k, v in enumerate(x[1:], 1)]


def tri_product(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    """Rows of the lower-triangular product: out[m][k] = sum_j a[m][j] b[j][k]."""
    n = min(len(a), len(b))
    rows = [scaled(row) for row in a[:n]]
    cols = [scaled([b[j][k] for j in range(k, n)]) for k in range(n)]
    return [
        tuple(Fraction(sum(map(mul, x[k:], y)), dx * dy) for k, (y, dy) in enumerate(cols[: m + 1]))
        for m, (x, dx) in enumerate(rows)
    ]


def tri_inverse(rows: Sequence[Sequence[Fraction]]):
    """Rows of the inverse of a lower-triangular matrix with a nonzero diagonal.

    Forward substitution, one column at a time; the solved part of the column
    is kept as integers over one denominator, which grows only when a new
    entry needs it."""
    mats = [scaled(row) for row in rows]
    inv = [[Fraction(0)] * (m + 1) for m in range(len(rows))]
    for k in range(len(rows)):
        col, den = [], 1
        for m, (x, dx) in enumerate(mats[k:], k):
            v = Fraction((dx * den if m == k else 0) - sum(map(mul, x[k:m], col)), den * x[m])
            inv[m][k] = v
            den = _append(col, den, v)
    return [tuple(row) for row in inv]


def _append(col: list[int], den: int, v: Fraction) -> int:
    """Append v to the integer numerators col over den; returns the new denominator,
    which grows (and rescales col) only when v's denominator does not divide it."""
    if den % v.denominator:
        f = v.denominator // gcd(den, v.denominator)
        den, col[:] = den * f, [c * f for c in col]
    col.append(v.numerator * (den // v.denominator))
    return den


def recurrence(f: Sequence[Fraction], g0: Fraction, wa: int, wb: int, q: int = 1, log: bool = False):
    """The one solved-prefix loop: g_0..g_N (N = len(f) - 1) from
        e m g_m = wa sum_k k f_k g_{m-k} - wb m sum_k f_k g_{m-k} (+ m f_m if log), k = 1..m,
    with e = q f_0, or 1 when f_0 = 0.  Miller's recurrence for f^(p/q) is (p + q, q, q),
    1/f is (0, 1), exp f is (1, 0) and log f is (1, 1, log).  f is scaled once to integers
    and only up to its last nonzero entry takes part, so a polynomial of degree d costs
    O(N d): the sums read only g_(m-d)..g_(m-1), and only that window is kept, as integers
    over a denominator that grows only when a new entry needs it (``_append``)."""
    x, dx = scaled(f)
    del x[degree(x) + 1 :]
    a, b = [wa * k * v for k, v in enumerate(x[1:], 1)], [wb * v for v in x[1:]]
    out, col, lead = [g0], [], q * (x[0] or dx)
    den = _append(col, 1, g0)
    for m in range(1, len(f)):
        s = sum(map(mul, a, reversed(col))) - m * sum(map(mul, b, reversed(col)))
        out.append(Fraction(s + m * x[m] * den if log and m < len(x) else s, lead * m * den))
        den = _append(col, den, out[-1])
        del col[: max(len(col) - len(a), 0)]
    return out


def scaled_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(nums, den) with rows[m][j] == nums[m][j] / den, den the lcm of every denominator;
    each row is padded with zeros to the length of the longest."""
    den, width = lcm(*[v.denominator for row in rows for v in row]), max(map(len, rows), default=0)
    nums = [[v.numerator * (den // v.denominator) for v in row] + [0] * (width - len(row)) for row in rows]
    return nums, den


def krylov(a: Sequence[Sequence[int]], da: int, vec: tuple[Sequence[int], int], count: int):
    """Yield A^p v for p = 0..count as (nums, den), the form ``powers`` gives, for A = a / da
    given by integer (possibly ragged, zero-padded) rows over one denominator and v = (nums, den):
    each step is one integer matrix-vector product and one ``reduced``; no Fraction is built."""
    p, dp = vec
    yield p, dp
    for _ in range(count):
        p, dp = reduced([sum(map(mul, x, p)) for x in a], dp * da)
        yield p, dp


def weighted_sum(terms, size: int) -> tuple[list[int], int]:
    """sum_p w_p v_p through entry size - 1 for (w_p, (nums_p, den_p)) terms, w_p rational, as
    (nums, den), den the running lcm of the w_p.denominator * den_p; the sum is rescaled only
    when a term's denominator does not divide it, so the columns of ``krylov`` or ``powers``
    can be streamed and weighted at the end.  nums/den is not reduced."""
    acc, den = [0] * size, 1
    for w, (nums, d) in terms:
        if w:
            d *= w.denominator
            if den % d:
                f = d // gcd(den, d)
                den, acc = den * f, [v * f for v in acc]
            acc[: len(nums)] = map(add, acc, map(mul, repeat(w.numerator * (den // d)), nums))
    return acc, den


def composition(f: Sequence[Fraction], g: Sequence[Fraction]) -> tuple[list[int], int]:
    """f(g) through x^(len(g)-1) as the unreduced (nums, den) of ``weighted_sum``, for g_0 = 0:
    the sum of f_k g^k over the integer power table of g, through f's last nonzero
    coefficient; no Fraction is built."""
    n = len(g) - 1
    fs = f[: n + 1]
    last = max((k for k, c in enumerate(fs) if c), default=0)
    return weighted_sum(zip(fs, powers(g, last)), n + 1)

"""Exact integer kernel under Series, Poly, operators and triangles.

A vector of rationals enters as integer numerators over one common
denominator (the lcm of its denominators), the loop runs on Python ints, and
each output entry becomes a reduced ``Fraction`` once, at the end.  This is
the fraction-free idea of Bareiss (Math. Comp. 22, 1968): no gcd inside the
loop, and no floats anywhere.

The kernel is stateless and caches nothing, so routes that are meant to
cross-check each other never share an intermediate value through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
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


def half_grid(polys: Sequence[Sequence[Fraction]], n: int) -> list[tuple[list[int], int]]:
    """Each coefficient list at t = 0, 1/2, ..., (2n+2)/2 as (values, den), values[i]/den = p(i/2).

    A list c of degree e is scaled once: with c_j = C_j / d, 2^e d p(u/2) is the
    integer sum_j C_j 2^(e-j) u^j, one dot product with the powers of u, which are
    shared by every list."""
    width = max(map(len, polys), default=0)
    grid = [[u**j for j in range(width)] for u in range(2 * n + 3)]
    out = []
    for c in polys:
        x, den = scaled(c)
        e = max(len(x) - 1, 0)
        b = [v << (e - j) for j, v in enumerate(x)]
        out.append(([sum(map(mul, b, us)) for us in grid], den << e))
    return out


def cauchy(x: Sequence[int], y: Sequence[int], n: int) -> list[int]:
    """Integer Cauchy product through x^n: each nonzero of the sparser factor adds a copy of the other."""
    if x.count(0) < y.count(0):
        x, y = y, x
    acc = [0] * (n + 1)
    for i, xi in enumerate(x[: n + 1]):
        if xi:
            seg = y[: n + 1 - i]
            acc[i : i + len(seg)] = map(add, acc[i : i + len(seg)], map(mul, repeat(xi), seg))
    return acc


def convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int | None = None) -> list[Fraction]:
    """Cauchy product c_k = sum_{i+j=k} a_i b_j for k = 0..n (default: all of it)."""
    (x, dx), (y, dy) = scaled(a), scaled(b)
    return [Fraction(v, dx * dy) for v in cauchy(x, y, len(x) + len(y) - 2 if n is None else n)]


def reduced(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """nums/den over gcd(den, *nums): for den > 0 the lcm form that ``scaled`` gives."""
    g = gcd(den, *nums)
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


def reciprocal_powers(g: Sequence[Fraction], count: int):
    """Yield (1/g)^k through x^N (N = len(g) - 1) for k = 0..count, exactly as
    ``powers(1/g, count)`` yields them; g_0 must be nonzero.

    A short g, of degree d with 4(d + 1) <= N + 1, divides each power by g
    (Knuth, TAOCP 2, 4.7): with g = G/dg and a = h/G, B_m = a_m G_0^(m+1) solves
    B_m = h_m G_0^m - sum_{i=1..d} G_i G_0^(i-1) B_{m-i}, O(N d) integer products
    per power and one ``reduced``.  On a dense g those graded numbers outgrow the
    dense products, so a dense g goes through ``powers`` of 1/g."""
    x, dx = scaled(g)
    n = d = len(x) - 1
    while d and not x[d]:
        d -= 1
    if 4 * (d + 1) > n + 1:
        yield from powers(recurrence(g, 1 / g[0], 0, 1), count)
        return
    pw = [1]
    for _ in range(n + 1):
        pw.append(pw[-1] * x[0])
    w = [x[i] * pw[i - 1] for i in range(d, 0, -1)]  # against B_{m-d}..B_{m-1}
    sign = -1 if pw[n + 1] < 0 else 1
    lift = [sign * dx * pw[n - m] for m in range(n + 1)]  # B_m over G_0^(m+1) to one denominator
    p, dp = [1] + [0] * n, 1
    yield p, dp
    for _ in range(count):
        b = [0] * d
        for m in range(n + 1):
            b.append(p[m] * pw[m] - sum(map(mul, w, b[-d:])))
        p, dp = reduced(list(map(mul, b[d:], lift)), sign * dp * pw[n + 1])
        yield p, dp


def apply_derivatives(c: Sequence[Fraction], p: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients of sum_k c_k p^(k): entry j is sum_k c_k (j+k)! p_{j+k} / j!."""
    (x, dx), (y, dy) = scaled(c[: len(p)]), scaled(p)
    q = [factorial(m) * v for m, v in enumerate(y)]
    return [Fraction(sum(map(mul, x, q[j:])), dx * dy * factorial(j)) for j in range(len(q))]


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
    O(N d); g_0..g_{m-1} is kept as integers over a denominator that grows only when a new
    entry needs it (``_append``)."""
    x, dx = scaled(f)
    while len(x) > 1 and not x[-1]:
        x.pop()
    a, b = [wa * k * v for k, v in enumerate(x[1:], 1)], [wb * v for v in x[1:]]
    out, col, lead = [g0], [], q * (x[0] or dx)
    den = _append(col, 1, g0)
    for m in range(1, len(f)):
        s = sum(map(mul, a, reversed(col))) - m * sum(map(mul, b, reversed(col)))
        out.append(Fraction(s + m * x[m] * den if log and m < len(x) else s, lead * m * den))
        den = _append(col, den, out[-1])
    return out


def power(f: Sequence[Fraction], p: int, q: int) -> list[Fraction]:
    """g = f^(p/q) for f_0 = 1, by J. C. P. Miller's recurrence (Knuth, TAOCP 2,
    4.7): q m g_m = sum_{k=1..m} ((p+q) k - q m) f_k g_{m-k}, with g_0 = 1."""
    return recurrence(f, Fraction(1), p + q, q, q)


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

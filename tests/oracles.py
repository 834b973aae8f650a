"""Independent test oracles.

Everything here recomputes expected values by a different algorithm than the
code under test: Newton doubling for compositional inverses, partition
enumeration for Bell polynomials, Lagrange interpolation for the iterative
logarithm, plain finite sums/integrals for the summation calculus, and the
classical recurrences for Stirling/Lah numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from umbra.fps import Series, compose, derive, exp_series, mul_inv, series, x_series
from umbra.flow import iterate_int


# -- number triangles via their classical recurrences -------------------------


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return (n - 1) * stirling1_unsigned(n - 1, k) + stirling1_unsigned(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def lah(n: int, k: int) -> int:
    if n == k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


# -- Newton-doubling compositional inverse ------------------------------------


def newton_comp_inv(f: Series) -> Series:
    """g with f(g) = x by Newton iteration g <- g - (f(g) - x)/f'(g)."""
    n = f.trunc
    g = series([0, 1 / f[1]], 1)
    prec = 1
    fp = derive(f)
    while prec < n:
        old = prec
        prec = min(2 * prec, n)
        ft = f.truncate(prec)
        fpt = fp.truncate(prec) if fp.trunc > prec else fp
        g = series(list(g.coeffs), prec)
        err = compose(ft, g) - x_series(prec)
        inv_fp = mul_inv(compose(fpt, g))
        if inv_fp.trunc < prec:
            # err has order > old, so indices <= prec of the product never
            # touch the missing top coefficients; zero-extension is exact
            assert err.order() > old
            inv_fp = series(list(inv_fp.coeffs), prec)
        g = g - err * inv_fp
    return g


# -- partition-sum Bell oracle -------------------------------------------------


def partitions_with_parts(n: int, k: int):
    """Multiplicity vectors (l_1, ..., l_n) with sum i*l_i = n, sum l_i = k."""

    def rec(remaining: int, parts_left: int, max_part: int, acc):
        if remaining == 0 and parts_left == 0:
            yield dict(acc)
            return
        if remaining <= 0 or parts_left <= 0 or max_part == 0:
            return
        for count in range(min(parts_left, remaining // max_part), -1, -1):
            if count:
                acc[max_part] = count
            yield from rec(remaining - count * max_part, parts_left - count, max_part - 1, acc)
            acc.pop(max_part, None)

    yield from rec(n, k, n, {})


def partition_bell(n: int, k: int, a) -> Fraction:
    """B_{n,k} by explicit partition enumeration (exponential; n <= 12)."""
    if n == 0 and k == 0:
        return Fraction(1)
    total = Fraction(0)
    for mult in partitions_with_parts(n, k):
        term = Fraction(factorial(n))
        for part, count in mult.items():
            term *= Fraction(a[part - 1]) ** count
            term /= Fraction(factorial(part)) ** count * factorial(count)
        total += term
    return total


def egf_from_arguments(a, trunc: int) -> Series:
    """The series f = sum a_k x^k / k! built from 1-indexed arguments."""
    fact = Fraction(1)
    coeffs = [Fraction(0)]
    for k in range(1, trunc + 1):
        fact *= k
        coeffs.append(Fraction(a[k - 1]) / fact if k - 1 < len(a) else Fraction(0))
    return series(coeffs, trunc)


def complete_bell_via_exp(n: int, a) -> Fraction:
    """Complete Bell polynomial as n! [x^n] e^{f(x)}."""
    return exp_series(egf_from_arguments(a, n))[n] * factorial(n)


# -- operator-power oracles ----------------------------------------------------


def power_coeffs_direct(Q, n: int) -> list[Fraction]:
    """Expand (D/Q)^n directly and read its EGF coefficients a_{n-1}, ..., a_0."""
    ratio = mul_inv(Q.indicator.shift_down(1))
    p = series([1], ratio.trunc)
    for _ in range(n):
        p = p * ratio
    return [p[n - k] * factorial(n - k) for k in range(1, n + 1)]


def chain_power_coeff(tri, p: int, n: int, k: int, strict: bool = True) -> Fraction:
    """coeff(n,k) of (phi-1)^p as a sum over chains k = j_0 < ... < j_p = n
    (<= instead of < gives phi^p)."""

    def rec(prev: int, depth: int) -> Fraction:
        if depth == p:
            return Fraction(1) if prev == n else Fraction(0)
        total = Fraction(0)
        start = prev + 1 if strict else prev
        for j in range(start, n + 1):
            c = tri.entry(j, prev)
            if c:
                total += c * rec(j, depth + 1)
        return total

    if p == 0:
        return Fraction(1 if n == k else 0)
    return rec(k, 0)


def integer_power_chain_coeff(tri, s: int, n: int, k: int) -> Fraction:
    """coeff(n,k) of phi^s as the weakly-increasing chain sum."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return chain_power_coeff(tri, s, n, k, strict=False)


def matmul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """Exact dense matrix product (row-times-column)."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][j] * b[j][k] for j in range(n)), Fraction(0)) for k in range(n))
        for i in range(n)
    )


# -- iterative-logarithm interpolation oracle ----------------------------------


def interpolated_itlog(f: Series, n_max: int) -> Series:
    """[x^n] f^s is a polynomial in s of degree <= n-1; fit it from the
    integer iterates s = 0..n-1 and differentiate at s = 0."""
    f = f.truncate(n_max) if f.trunc > n_max else f
    iterates = [iterate_int(f, m) for m in range(max(n_max, 1))]
    out = [Fraction(0)] * (n_max + 1)
    for n in range(2, n_max + 1):
        pts = [(Fraction(s), iterates[s][n]) for s in range(n)]
        dsum = Fraction(0)
        for i, (si, yi) in enumerate(pts):
            others = [sj for j, (sj, _) in enumerate(pts) if j != i]
            denom = Fraction(1)
            for sj in others:
                denom *= si - sj
            num = Fraction(0)
            for m in range(len(others)):
                prod = Fraction(1)
                for j, sj in enumerate(others):
                    if j != m:
                        prod *= -sj
                num += prod
            dsum += yi * num / denom
        out[n] = dsum
    return series(out, n_max)


# -- summation/integration oracles ----------------------------------------------


def direct_sum(p, a: int, b: int) -> Fraction:
    """sum_{k=a}^{b-1} p(k) for integers a <= b."""
    return sum((p(k) for k in range(a, b)), Fraction(0))


def integral(p, a, b) -> Fraction:
    anti = p.antiderivative(0)
    return anti(b) - anti(a)

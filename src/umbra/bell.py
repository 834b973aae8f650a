"""Partial and complete Bell polynomials over exact rationals.

The arguments a_1, a_2, ... are the EGF coefficients of f = sum a_k x^k / k!,
and B_{n,k}(a_1, ..., a_{n-k+1}) = n! [x^n] f(x)^k / k!.

The implementation is the convolution recurrence (Comtet, Advanced
Combinatorics, 1974, section 3.3)

    B_{n,k} = (1/k) * sum_j C(n, j) a_j B_{n-j,k-1},

run column by column: column k is built from column k-1 alone.  One entry
B_{n,k} costs O(n^2 k) exact operations and the whole triangle up to row n
(partial_bell_table) O(n^3), instead of enumerating partitions.  It only uses
addition, multiplication and division by integers, so the arguments may be
rationals or any commuting ring elements (e.g. indicator series of
shift-invariant operators); the partition-sum definition is kept in the test
suite as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence


def _argument(a: Sequence, j: int):
    """a is 1-indexed: a[0] holds a_1."""
    if j - 1 >= len(a):
        raise IndexError(f"need argument a_{j}, got only {len(a)} arguments")
    return a[j - 1]


def _bell_columns(a: Sequence, n: int, k: int, depth: int) -> list[list]:
    """Columns j = 0..k of B_{m,j}, each a list over rows m = 0..n.

    Column j is filled only for m <= j + depth (the rest stay zero), so the
    arguments read are a_1..a_{depth+1}.
    """
    cols = [[Fraction(1)] + [Fraction(0)] * n]
    for j in range(1, k + 1):
        prev = cols[-1]
        cur = [Fraction(0)] * (n + 1)
        for m in range(j, min(n, j + depth) + 1):
            acc = None
            for i in range(1, m - j + 2):
                term = comb(m, i) * (_argument(a, i) * prev[m - i])
                acc = term if acc is None else acc + term
            cur[m] = acc / j
        cols.append(cur)
    return cols


def partial_bell(n: int, k: int, a: Sequence) -> Fraction:
    """B_{n,k}(a_1, ..., a_{n-k+1}); raises IndexError when k > n or k < 0."""
    if k < 0 or k > n:
        raise IndexError(f"partial Bell needs 0 <= k <= n, got n={n}, k={k}")
    # column j is only needed up to row n-(k-j), which keeps argument access
    # within a_1..a_{n-k+1}
    return _bell_columns(a, n, k, n - k)[k][n]


def partial_bell_table(n: int, a: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Rows [B_{m,0}, ..., B_{m,m}] for m = 0..n, in one O(n^3) pass over a_1..a_n."""
    cols = _bell_columns(a, n, n, n)
    return tuple(tuple(cols[k][m] for k in range(m + 1)) for m in range(n + 1))


def complete_bell(n: int, a: Sequence) -> Fraction:
    """B_n(a_1, ..., a_n) = sum_k B_{n,k}."""
    if n == 0:
        return Fraction(1)
    cols = _bell_columns(a, n, n, n)
    total = None
    for k in range(1, n + 1):
        term = cols[k][n]
        total = term if total is None else total + term
    return total

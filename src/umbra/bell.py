"""Partial Bell polynomials over exact rationals.

The arguments a_1, a_2, ... are the EGF coefficients of f = sum a_k x^k / k!,
and B_{n,k}(a_1, ..., a_{n-k+1}) = n! [x^n] f(x)^k / k!.

The implementation is the convolution recurrence (Comtet, Advanced
Combinatorics, 1974, section 3.3)

    B_{n,k} = (1/k) * sum_j C(n, j) a_j B_{n-j,k-1},

run column by column on plain integers: with the arguments written once as
a_j = A_j / D over one common denominator, E_{n,k} = k! D^k B_{n,k} obeys

    E_{n,k} = sum_j C(n, j) A_j E_{n-j,k-1},

which has no division, and each entry becomes one reduced Fraction
E_{n,k} / (k! D^k) at the end.  One entry B_{n,k} costs O(n^2 k) integer
operations and the whole triangle up to row n O(n^3), instead of enumerating
partitions; the partition-sum definition and the whole Fraction table
(``partial_bell_table``) are kept in tests/oracles.py as oracles.  The flow
layer reads the integer columns (``_bell_columns``) directly and puts them over
one denominator, so no Fraction is built between them and its Krylov columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Sequence

from ._kernel import scaled


def _bell_columns(a: Sequence, n: int, k: int, depth: int) -> tuple[list[list[int]], int]:
    """(E, D): columns j = 0..k of E_{m,j} = j! D^j B_{m,j} over rows m = 0..n.

    Column j is filled only for m <= j + depth (the rest stay zero), so the
    arguments read are a_1..a_{depth+1}, and none when k = 0.
    """
    need = min(depth + 1, n) if k else 0
    if len(a) < need:
        raise IndexError(f"need argument a_{len(a) + 1}, got only {len(a)} arguments")
    A, D = scaled(a[:need])
    # weighted[m][i-1] = C(m, i) A_i, shared by every column
    weighted = [[comb(m, i) * A[i - 1] for i in range(1, min(m, need) + 1)] for m in range(n + 1)]
    cols = [[1] + [0] * n]
    for j in range(1, k + 1):
        prev = cols[-1]
        cur = [0] * (n + 1)
        for m in range(j, min(n, j + depth) + 1):
            cur[m] = sum(map(mul, weighted[m], reversed(prev[j - 1 : m])))
        cols.append(cur)
    return cols, D


def partial_bell(n: int, k: int, a: Sequence) -> Fraction:
    """B_{n,k}(a_1, ..., a_{n-k+1}); raises IndexError when k > n or k < 0."""
    if k < 0 or k > n:
        raise IndexError(f"partial Bell needs 0 <= k <= n, got n={n}, k={k}")
    # column j is only needed up to row n-(k-j), which keeps argument access
    # within a_1..a_{n-k+1}
    cols, den = _bell_columns(a, n, k, n - k)
    return Fraction(cols[k][n], factorial(k) * den**k)


"""Independent test oracles.

Everything here recomputes expected values by a different algorithm than the
code under test: Newton doubling for compositional inverses, partition
enumeration for Bell polynomials, Lagrange interpolation for the iterative
logarithm, plain finite sums/integrals and the corollary series for the
summation calculus, the coefficient identity and the half-grid evaluation
for binomial convolutions, the classical recurrences for Stirling/Lah
numbers, the plain ``Fraction`` loops that the integer kernel replaced
(among them the ``Fraction`` triangle product and inverse that the row-form
``_kernel.form_product`` and ``form_inverse`` replaced),
the dense expression evaluator that polynomial nodes' short values
replaced, the full-length ``comp_inv`` loop that its windows replaced, the
recurrence and generating-function routes as they were before they divided
by a short Q' and stepped by Q(g) = t, the column forms of the power-table
and Bell triangles that their row forms replaced, the binomial closed form
of the degenerate Laguerre triangle, and the per-``Fraction`` triangle output
that the row-form printer replaced.  Helpers that only tests call (such as
``identity_op``, ``pincherle``, ``connection_constants``, ``partial_bell_table``,
``triangle``, ``tri_identity``,
``integrate``, ``render``, ``reflected``, ``times_x`` and ``bernoulli_polynomial``)
live here too, not in the package.
"""

from __future__ import annotations

from decimal import Context
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Sequence

from umbra._kernel import _append, lifted, powers, reduced, scaled
from umbra.bell import _bell_columns
from umbra.errors import DivisionOrderError, NotInvertible, NotUnitary, OrderError, TruncationError, UmbraError
from umbra.expr import (
    MAX_EXPONENT, MAX_POWER_BITS, MAX_STR_DIGITS, MAX_VALUE_BITS, BinOp, Call, Neg, Node, Num, Pow, Var, _at, _bits
)
from umbra.fps import (
    INF, Poly, Series, comp_inv, compose, const, derive, exp_series, iterate_int, log_series, monomial,
    mul_inv, poly, pow_rat, series, x_series,
)
from umbra.flow import _column_powers
from umbra.operators import DeltaOp, ShiftOp, apply_op, validate_delta
from umbra.rational import binom_row, rat, rat_str
from umbra.serialize import dumps, series_to_json
from umbra.sigma import bernoulli_numbers
from umbra.umbral import Triangle, _power_rows, basic_set, tri_compose, tri_invert, tri_to_form


def triangle(rows: Sequence[Sequence]) -> Triangle:
    """The Triangle of rows of rationals (ints, Fractions or "num/den" strings)."""
    return Triangle(tuple([tuple([rat(v) for v in row]) for row in rows]))


def tri_identity(n: int) -> Triangle:
    return Triangle(tuple([tuple([Fraction(int(k == m)) for k in range(m + 1)]) for m in range(n + 1)]))


def tri_from_polys(polys: Sequence[Poly]) -> Triangle:
    """The Triangle whose row n is the coefficients of polys[n], of degree at most n."""
    rows = []
    for n, p in enumerate(polys):
        if not p.is_zero() and p.degree() > n:
            raise ValueError(f"row {n} polynomial has degree {p.degree()} > {n}")
        rows.append(tuple(p[k] for k in range(n + 1)))
    return Triangle(tuple(rows))


# -- helpers that only tests call -----------------------------------------------


def identity_op(trunc: int) -> ShiftOp:
    return ShiftOp(const(1, trunc))


def pincherle(T: ShiftOp) -> ShiftOp:
    """Pincherle derivative T' = Tx - xT; equals indicator differentiation."""
    return ShiftOp(derive(T.indicator))


def connection_constants(phi: Triangle, psi: Triangle) -> Triangle:
    """Triangle c with phi_n = sum_k c[n][k] psi_k."""
    return tri_compose(tri_invert(psi), phi)


def integrate(f: Series, c0=0) -> Series:
    """Antiderivative with constant term c0.

    The result reuses the input trunc, so the topmost input coefficient is
    dropped rather than inventing a deeper one.
    """
    out = [rat(c0)] + [f.coeffs[k - 1] / k for k in range(1, f.trunc + 1)]
    return Series(f.trunc, tuple(out))


def partial_bell_table(n: int, a: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Rows [B_{m,0}, ..., B_{m,m}] for m = 0..n, in one O(n^3) pass over a_1..a_n."""
    cols, den = _bell_columns(a, n, n, n)
    scale = [factorial(k) * den**k for k in range(n + 1)]
    return tuple([tuple([Fraction(cols[k][m], scale[k]) for k in range(m + 1)]) for m in range(n + 1)])


def complete_bell(n: int, a: Sequence) -> Fraction:
    """B_n(a_1, ..., a_n) = sum_k B_{n,k}, as one Fraction over n! D^n."""
    cols, den = _bell_columns(a, n, n, n)
    total = sum(cols[k][n] * (factorial(n) // factorial(k)) * den ** (n - k) for k in range(n + 1))
    return Fraction(total, factorial(n) * den**n)


def power_coeffs(Q: DeltaOp, n: int) -> list[Fraction]:
    """EGF coefficients a^{(n)}_{n-k} of (D/Q)^n for k = 1..n.

    Returned as [a_{n-1}, a_{n-2}, ..., a_0] indexed by k-1; each equals
    coeff[n][k]_phi / C(n-1, k-1).
    """
    phi = basic_set(Q, n, "transfer")
    return [phi.entry(n, k) / comb(n - 1, k - 1) for k in range(1, n + 1)]


def binom(r, k: int) -> Fraction:
    """Generalized binomial coefficient r(r-1)...(r-k+1)/k!, exact in Q.

    ``r`` may be any rational; ``k`` must be a nonnegative integer
    (negative ``k`` yields 0, matching the empty convention).
    """
    return binom_row(r, k)[k] if k >= 0 else Fraction(0)


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


def degenerate_laguerre(p: int, n: int, k: int) -> Fraction:
    """Entry (n, k) of the degenerate Laguerre triangle as binom(n/p - 1, j) n!/k! (-p)^j,
    with j = (n - k)/p; 0 where p does not divide n - k or k is outside 0..n."""
    if (n - k) % p != 0 or k < 0 or k > n:
        return Fraction(0)
    j = (n - k) // p
    return binom(Fraction(n, p) - 1, j) * Fraction(factorial(n), factorial(k)) * (-p) ** j


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def closed_form_entry(name: str, params: dict, n: int, k: int) -> Fraction:
    """Entry (n, k) of a catalog family's closed form, one entry at a time (Roman, *The Umbral
    Calculus*, 1984): Stirling numbers for falling, rising, Touchard and divided differences,
    Lah numbers for Laguerre, binomials for Abel and Catalan; 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return Fraction(0)
    if name == "degenerate_laguerre":
        return degenerate_laguerre(params["p"], n, k)
    if name in ("abel", "catalan") and (n == 0 or k == 0):
        return Fraction(n == k)
    forms = {
        "derivative": lambda: Fraction(n == k),
        "stretch": lambda: params["lam"] ** n if n == k else Fraction(0),
        "falling": lambda: Fraction((-1) ** (n - k) * stirling1_unsigned(n, k)),
        "rising": lambda: Fraction(stirling1_unsigned(n, k)),
        "divided_difference": lambda: stirling1_unsigned(n, k) * (-params["h"]) ** (n - k),
        "touchard": lambda: Fraction(stirling2(n, k)),
        "abel": lambda: comb(n - 1, k - 1) * (-params["a"] * n) ** (n - k),
        "catalan": lambda: Fraction(comb(2 * n - k - 1, n - 1) * factorial(n - 1) // factorial(k - 1)),
        "laguerre": lambda: Fraction((-1) ** (n - k) * lah(n, k)),
    }
    return Fraction(forms[name]())


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


def minus_one_power_coeff(tri: Triangle, p: int, n: int, k: int) -> Fraction:
    """coeff(n,k) of (phi-1)^p for a unitary triangle, read off the last Krylov column
    of ``flow._column_powers``; 0 whenever p > n-k."""
    if any(d != 1 for d in tri.diagonal()):
        raise NotUnitary("triangle must have unit diagonal")
    if p > n - k or not 0 <= k <= n <= tri.n:
        return Fraction(0)
    *_, (nums, den) = _column_powers(lifted(tri_to_form(tri)), k, p)
    return Fraction(nums[n - k], den)


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


def itlog_iterate_sum(f: Series) -> Series:
    """The flow-operator route: sum_p (-1)^{p-1}/p (C_f - 1)^p x over the integer
    iterates f^l(x), regrouped as sum_l w_l f^l(x) with
    w_l = (-1)^{l-1} sum_{p=max(l,1)}^{n-1} C(p,l)/p.  O(N^4): N - 1 compositions."""
    n = f.trunc
    iterates = [x_series(n)]
    for _ in range(max(n - 1, 0)):
        iterates.append(compose(f, iterates[-1]))
    out = series([0], n)
    for ell, it in enumerate(iterates):
        w = sum((Fraction(comb(p, ell), p) for p in range(max(ell, 1), n)), Fraction(0))
        out = out + it.scale(w if ell % 2 else -w)
    return out


# -- summation/integration oracles ----------------------------------------------


def bernoulli_polynomial(n: int) -> Poly:
    """B_n(x) = sum_k C(n,k) B_k x^{n-k}."""
    bs = bernoulli_numbers(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = comb(n, k) * bs[k]
    return poly(out)


def direct_sum(p, a: int, b: int) -> Fraction:
    """sum_{k=a}^{b-1} p(k) for integers a <= b."""
    return sum((p(k) for k in range(a, b)), Fraction(0))


def integral(p, a, b) -> Fraction:
    anti = p.antiderivative(0)
    return anti(b) - anti(a)


def sigma_corollary(Q: DeltaOp, a, p: Poly) -> Poly:
    """The anchored sigma by the corollary series -sum_{n=1}^{deg p + 1} phi_n(a - x)/n! Q^{n-1} p,
    with the basic set phi from ``km_ref`` and the powers of Q from ``apply_op_ref``."""
    d = 0 if p.is_zero() else int(p.degree())
    phi = km_ref(Q, d + 1)
    out = poly([])
    qpow = p  # Q^{n-1} p starting at n = 1
    for n in range(1, d + 2):
        out = out + reflected(phi.row_poly(n).shifted(a)) * qpow / factorial(n)  # phi_n(a - x)
        qpow = apply_op_ref(Q, qpow)
    return -out


# -- the binomial-convolution grid and the binomial-type coefficient identity ------------------


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


def binomial_grid(p_sum, p_x, p_y, n: int) -> tuple[int, Fraction, Fraction] | None:
    """First (m, x, y) with p_sum[m](x+y) != sum_k C(m,k) p_x[k](x) p_y[m-k](y), or None, for
    lists of coefficient lists; the value-table form of ``umbral.binomial_convolution``.

    Degrees m = 0..n are tried in turn, then x, then y, each over the grid
    {0, 1/2, ..., (m+1)/2}; each distinct list is tabulated once by ``half_grid``.  The
    test runs on integers: with L the lcm of the products of denominators d_x[k] d_y[m-k],
    both sides are multiplied by L and by the denominator of p_sum[m], so the weights
    C(m,k) L / (d_x[k] d_y[m-k]) are found once per m."""
    tables = {}
    for ps in (p_sum, p_x, p_y):
        if id(ps) not in tables:
            tables[id(ps)] = half_grid(ps[: n + 1], n)
    v_sum, v_x, v_y = tables[id(p_sum)], tables[id(p_x)], tables[id(p_y)]
    for m in range(n + 1):
        lhs, den = v_sum[m]
        dens = [v_x[k][1] * v_y[m - k][1] for k in range(m + 1)]
        big = lcm(*dens)
        w = [comb(m, k) * (big // d) for k, d in enumerate(dens)]
        cols = [[v_y[m - k][0][j] for k in range(m + 1)] for j in range(m + 2)]
        for i in range(m + 2):
            x = [wk * v_x[k][0][i] for k, wk in enumerate(w)]
            for j, y in enumerate(cols):
                if lhs[i + j] * big != den * sum(map(mul, x, y)):
                    return m, Fraction(i, 2), Fraction(j, 2)
    return None


def binomial_grid_ref(tri: Triangle) -> bool:
    """Binomial type as ``umbral.is_binomial_type`` tested it before its column-EGF form:
    after the shape guard (coeff[0][0] = 1, nonzero diagonal), the O(N^4) grid of
    ``binomial_grid``, p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) for all n <= N."""
    if tri.entry(0, 0) != 1 or any(tri.entry(m, m) == 0 for m in range(tri.n + 1)):
        return False
    return binomial_grid(tri.rows, tri.rows, tri.rows, tri.n) is None


def binomial_identity_ref(tri: Triangle) -> bool:
    """C(i+j, i) coeff[n][i+j] = sum_k C(n,k) coeff[k][i] coeff[n-k][j] for all n <= N and
    i + j <= n, in plain Fraction loops."""
    e = tri.entry
    return all(
        comb(i + j, i) * e(n, i + j) == sum(comb(n, k) * e(k, i) * e(n - k, j) for k in range(n + 1))
        for n in range(tri.n + 1)
        for i in range(n + 1)
        for j in range(n - i + 1)
    )


# -- rendering: parse . render . parse is a fixpoint ----------------------------------


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def render(node: Node) -> str:
    text, _ = _render(node)
    return text


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, Num):
        s = rat_str(node.value)
        return (s, _PREC["atom"] if node.value >= 0 and node.value.denominator == 1 else _PREC["/"])
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Call):
        inner, _ = _render(node.arg)
        return f"{node.func}({inner})", _PREC["atom"]
    if isinstance(node, Neg):
        inner, prec = _render(node.child)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(node, Pow):
        inner, prec = _render(node.base)
        if prec < _PREC["atom"]:
            inner = f"({inner})"
        e = node.exponent
        etext = str(e.numerator) if e.denominator == 1 and e >= 0 else f"({rat_str(e)})"
        return f"{inner}^{etext}", _PREC["^"]
    if isinstance(node, BinOp):
        lt, lp = _render(node.left)
        rt, rp = _render(node.right)
        prec = _PREC[node.op]
        if lp < prec:
            lt = f"({lt})"
        # left-associative: parenthesize right operand at equal precedence
        if rp < prec or (rp == prec and node.op in ("-", "/", "+", "*")):
            rt = f"({rt})"
        return f"{lt}{node.op}{rt}", prec
    raise TypeError(f"unknown node {node!r}")


# -- the dense expression evaluator -------------------------------------------------


def eval_dense_ref(node, order: int) -> Series:
    """``expr.eval_ast`` as it stood before polynomial nodes got short values:
    every node is a Series at the working order, with the same value bounds,
    error offsets and retry loop."""
    def divide(f, g):
        k = g.order()
        if k == INF:
            raise NotInvertible("division by the zero series")
        k = int(k)
        if k == 0:
            return f * mul_inv(g)
        if f.order() < k:
            raise DivisionOrderError(f"dividend order {f.order()} < divisor order {k}")
        return f.shift_down(k) * mul_inv(g.shift_down(k))

    def ev(node, trunc):
        value = ev_node(node, trunc)
        if _bits(value) > MAX_VALUE_BITS:
            with _at(node.pos):
                raise UmbraError(f"a coefficient would exceed {MAX_STR_DIGITS} digits")
        return value

    def ev_node(node, trunc):
        if isinstance(node, Num):
            return const(node.value, trunc)
        if isinstance(node, Var):
            return x_series(trunc)
        if isinstance(node, Neg):
            return -ev(node.child, trunc)
        if isinstance(node, Call):
            arg = ev(node.arg, trunc)
            with _at(node.pos):
                if node.func == "exp":
                    return exp_series(arg)
                if node.func == "log":
                    return log_series(arg)
                return pow_rat(arg, Fraction(1, 2))
        if isinstance(node, Pow):
            base = ev(node.base, trunc)
            e = node.exponent
            with _at(node.pos):
                if e.denominator == 1:
                    k = int(e)
                    if abs(k) * _bits(base) > MAX_POWER_BITS:
                        raise UmbraError(f"power ^{k} would grow a coefficient past {MAX_POWER_BITS} bits")
                    if abs(k) > MAX_EXPONENT:
                        raise UmbraError(f"power ^{k} has an exponent above {MAX_EXPONENT}")
                    if k >= 0:
                        return base**k
                    if base[0] == 0:
                        raise NotInvertible("negative power of a series with zero constant term")
                    return mul_inv(base) ** (-k)
                return pow_rat(base, e)
        left = ev(node.left, trunc)
        right = ev(node.right, trunc)
        with _at(node.pos):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return divide(left, right)

    if order < 0:
        raise TruncationError("order must be >= 0")
    working = order
    last_exc = None
    for _ in range(8):
        try:
            result = ev(node, working)
        except NotInvertible as exc:
            last_exc = exc
            working += order + 1
            continue
        if result.trunc >= order:
            return result.truncate(order)
        working += order - result.trunc
    if last_exc is not None:
        raise last_exc
    raise TruncationError("expression loses too much truncation depth to evaluate")


# -- the plain Fraction loops that the integer kernel replaced ------------------
# Each is the loop as it stood before umbra._kernel, one gcd per operation; they
# touch neither the kernel nor any function that calls it.


def series_mul_ref(f: Series, g: Series) -> Series:
    n = min(f.trunc, g.trunc)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        a = f.coeffs[i]
        if not a:
            continue
        for j in range(n - i + 1):
            b = g.coeffs[j]
            if b:
                out[i + j] += a * b
    return Series(n, tuple(out))


def compose_ref(f: Series, g: Series) -> Series:
    """f(g(x)) by Horner over Series products, through min(trunc f, trunc g)."""
    n = min(f.trunc, g.trunc)
    g = g.truncate(n) if g.trunc > n else g
    result = const(0, n)
    for k in range(n, -1, -1):
        result = result * g + f.coeffs[k]
    return result


def pow_rat_ref(f: Series, r) -> Series:
    """f^r = sum_k binom(r, k) (f - 1)^k, the binomial series, O(N^3)."""
    u = f - 1
    result = series([0], f.trunc)
    term = series([1], f.trunc)
    for k in range(f.trunc + 1):
        result = result + term.scale(binom(r, k))
        term = series_mul_ref(term, u)
    return result


def poly_mul_ref(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return poly([])
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return poly(out)


def poly_eval_ref(p: Poly, a) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc


def shifted_ref(p: Poly, a) -> Poly:
    """p(x + a) by Horner in x + a."""
    acc = poly([])
    for c in reversed(p.coeffs):
        acc = times_x(acc) + poly([a * v for v in acc.coeffs]) + poly([c])
    return acc


def compose_linear_ref(p: Poly, s, o) -> Poly:
    """p(s x + o) by Horner in s x + o."""
    acc = poly([])
    for c in reversed(p.coeffs):
        acc = poly_mul_ref(poly([o, s]), acc) + poly([c])
    return acc


def apply_op_ref(T, p: Poly) -> Poly:
    """sum_k c_k p^(k), one Poly per derivative and per partial sum."""
    out = poly([])
    dk = p
    for k in range(len(p.coeffs)):
        c = T.indicator[k]
        if c:
            out = out + poly([c * v for v in dk.coeffs])
        dk = dk.derivative()
    return out


def mul_inv_ref(f: Series) -> Series:
    a0 = f.coeffs[0]
    out = [1 / a0]
    for m in range(1, f.trunc + 1):
        s = sum((f.coeffs[k] * out[m - k] for k in range(1, m + 1)), Fraction(0))
        out.append(-s / a0)
    return Series(f.trunc, tuple(out))


def exp_series_ref(f: Series) -> Series:
    out = [Fraction(1)]
    for m in range(1, f.trunc + 1):
        out.append(sum((k * f.coeffs[k] * out[m - k] for k in range(1, m + 1)), Fraction(0)) / m)
    return Series(f.trunc, tuple(out))


def log_series_ref(f: Series) -> Series:
    out = [Fraction(0)]
    for m in range(1, f.trunc + 1):
        s = m * f.coeffs[m] - sum((k * out[k] * f.coeffs[m - k] for k in range(1, m)), Fraction(0))
        out.append(s / m)
    return Series(f.trunc, tuple(out))


def comp_inv_fraction_ref(f: Series) -> Series:
    """Triangular solve of sum_k b_k f^k = x, with the powers from series_mul_ref."""
    n = f.trunc
    powers = [series([1], n), f]
    for _ in range(2, n + 1):
        powers.append(series_mul_ref(powers[-1], f))
    b = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        s = Fraction(1 if m == 1 else 0)
        for k in range(1, m):
            s -= b[k] * powers[k][m]
        b[m] = s / powers[m][m]
    return Series(n, tuple(b))


def comp_inv_ref(f: Series) -> Series:
    """``fps.comp_inv`` as it was before its windows: the same triangular solve over the
    full-length integer powers of ``_kernel.powers``, with the residual
    r = t - sum_{j<k} b_j f^j kept whole; b_k = r_k / [t^k] f^k, then r loses b_k f^k."""
    if f.order() != 1:
        raise OrderError("compositional inverse requires order exactly 1")
    n = f.trunc
    b = [Fraction(0)] * (n + 1)
    r, dr = [0, 1] + [0] * (n - 1), 1
    for k, (p, dp) in enumerate(powers(f.coeffs, n)):  # k = 0 gives b_0 = 0 and keeps r
        b[k] = Fraction(r[k] * dp, dr * p[k])
        r, dr = reduced([u * p[k] - r[k] * v for u, v in zip(r, p)], dr * p[k])
    return Series(n, tuple(b))


def basic_recurrence_ref(Q: DeltaOp, n: int) -> tuple[list[list[int]], list[int]]:
    """``umbral.basic_recurrence(Q, n)`` as it was before it divided by a short
    Q': on r_j = j! p_j the step r'_{j+1} = (j+1) sum_k c_k r_{j+k}, with c = 1/Q' scaled
    once and cut after its last nonzero entry, for every Q'."""
    c, dc = scaled(mul_inv(derive(Q.indicator)).coeffs[: n + 1])
    while len(c) > 1 and not c[-1]:
        c.pop()
    fact = [factorial(j) for j in range(n + 1)]
    r, dr = [1], 1
    rows, dens = [[1]], [1]
    for m in range(1, n + 1):
        r, dr = reduced([0] + [(j + 1) * sum(map(mul, c, r[j:])) for j in range(m)], dr * dc)
        rows.append([v * (fact[m] // fact[j]) for j, v in enumerate(r)])
        dens.append(dr * fact[m])
    return rows, dens


def genfunc_powers_ref(Q: DeltaOp, n: int) -> tuple[list[list[int]], list[int]]:
    """``umbral.basic_genfunc(Q, n)`` as it was before it stepped its power table
    by Q(g) = t: ``_power_rows`` over the ``powers`` of g = comp_inv(Q), for every Q."""
    return _power_rows(powers(comp_inv(Q.indicator.truncate(max(n, 1))).coeffs, n), n)


def power_columns_ref(table, n: int) -> tuple[list[list[int]], list[int]]:
    """``umbral._power_rows`` as it was when ``agree`` also read triangles by columns:
    column k is [t^k..t^n] g^k of the integer power table of g (g^0..g^n as (nums, den)
    through t^n), times m!/k!, over the denominator of g^k."""
    fact = [factorial(m) for m in range(n + 1)]
    cols, dens = [], []
    for k, (p, dp) in enumerate(table):
        cols.append([p[m] * (fact[m] // fact[k]) for m in range(k, n + 1)])
        dens.append(dp)
    return cols, dens


def bell_columns_ref(f: Series, n: int) -> tuple[list[list[int]], list[int]]:
    """``umbral._bell_form`` as it was when ``agree`` also read triangles by columns: column
    k is E_(k,k), ..., E_(n,k) of ``bell._bell_columns`` over k! D^k, for a_j = j! [x^j] f."""
    cols, d = _bell_columns([factorial(j) * f[j] for j in range(1, n + 1)], n, n, n)
    return [col[k:] for k, col in enumerate(cols)], [factorial(k) * d**k for k in range(n + 1)]


def tri_from_columns(form) -> Triangle:
    """The Triangle of a triangle by columns (cols, dens): entry (m, k) is cols[k][m - k] / dens[k]."""
    cols, dens = form
    return Triangle(
        tuple([tuple([Fraction(cols[k][m - k], dens[k]) for k in range(m + 1)]) for m in range(len(cols))])
    )


def reflected(p: Poly) -> Poly:
    """p(-x)."""
    return poly([(-1) ** k * c for k, c in enumerate(p.coeffs)])


def times_x(p: Poly, k: int = 1) -> Poly:
    """x^k p."""
    if p.is_zero():
        return p
    return Poly((Fraction(0),) * k + p.coeffs)


def km_ref(Q: DeltaOp, n: int) -> Triangle:
    """Kurbanov-Maksimov rows p_m = sum_j x^j/j! W^j x^m, W = invQ(D) - D, with one
    apply_op and one Poly sum per term."""
    nn = max(n, 1)
    g = comp_inv(Q.indicator.truncate(nn) if Q.indicator.trunc > nn else Q.indicator)
    w = ShiftOp(g - x_series(g.trunc))
    rows: list[Poly] = []
    for m in range(n + 1):
        acc = poly([])
        u = monomial(m)
        j = 0
        fact = 1
        while not u.is_zero():
            acc = acc + times_x(u, j) / fact
            u = apply_op(w, u)
            j += 1
            fact *= j
        rows.append(acc)
    return tri_from_polys(rows)


def tri_compose_ref(phi, psi):
    """Triangle of phi o psi: entry (m, k) is sum_j phi[j][k] psi[m][j]."""
    n = min(phi.n, psi.n)
    return Triangle(
        tuple(
            tuple(
                sum((phi.entry(j, k) * psi.entry(m, j) for j in range(k, m + 1)), Fraction(0))
                for k in range(m + 1)
            )
            for m in range(n + 1)
        )
    )


def tri_product(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    """Rows of the lower-triangular product of Fraction rows, out[m][k] = sum_j a[m][j] b[j][k],
    as the kernel computed it before it read row forms: each row of a and column of b scaled
    once to integers."""
    n = min(len(a), len(b))
    rows = [scaled(row) for row in a[:n]]
    cols = [scaled([b[j][k] for j in range(k, n)]) for k in range(n)]
    return [
        tuple(Fraction(sum(map(mul, x[k:], y)), dx * dy) for k, (y, dy) in enumerate(cols[: m + 1]))
        for m, (x, dx) in enumerate(rows)
    ]


def tri_inverse(rows: Sequence[Sequence[Fraction]]):
    """Rows of the inverse of a lower-triangular matrix of Fractions with a nonzero diagonal,
    as the kernel computed it before it read row forms: forward substitution one column at a
    time, the solved part of the column kept as integers over one denominator."""
    mats = [scaled(row) for row in rows]
    inv = [[Fraction(0)] * (m + 1) for m in range(len(rows))]
    for k in range(len(rows)):
        col, den = [], 1
        for m, (x, dx) in enumerate(mats[k:], k):
            v = Fraction((dx * den if m == k else 0) - sum(map(mul, x[k:m], col)), den * x[m])
            inv[m][k] = v
            den = _append(col, den, v)
    return [tuple(row) for row in inv]


def tri_invert_ref(phi):
    """Forward substitution, row by row."""
    inv = [[Fraction(0)] * (m + 1) for m in range(phi.n + 1)]
    for n in range(phi.n + 1):
        inv[n][n] = 1 / phi.rows[n][n]
        for k in range(n - 1, -1, -1):
            s = sum((inv[j][k] * phi.rows[n][j] for j in range(k, n)), Fraction(0))
            inv[n][k] = -s / phi.rows[n][n]
    return Triangle(tuple(tuple(row) for row in inv))


def apply_poly_ref(tri, p: Poly) -> Poly:
    """sum_m p_m phi_m, one Poly per row."""
    out = poly([])
    for m, c in enumerate(p.coeffs):
        out = out + poly([c * v for v in tri.rows[m]])
    return out


def transform_seq_ref(phi, a, mode: str = "row", start: int = 0) -> list[Fraction]:
    m = len(a)
    if mode == "row":
        return [
            sum((phi.entry(start + i, start + j) * a[j] for j in range(i + 1)), Fraction(0))
            for i in range(m)
        ]
    return [
        sum((phi.entry(start + j, start + i) * a[j] for j in range(i, m)), Fraction(0))
        for i in range(m)
    ]


def column_powers_ref(tri, k: int, pmax: int) -> list[list[Fraction]]:
    """Column k of (phi-1)^p, one triangle-vector product per step."""
    n = tri.n
    col = [Fraction(1 if m == k else 0) for m in range(n + 1)]
    out = [col]
    for _ in range(pmax):
        nxt = [Fraction(0)] * (n + 1)
        for m in range(k, n + 1):
            nxt[m] = sum((tri.rows[m][j] * col[j] for j in range(k, m)), Fraction(0))
        col = nxt
        out.append(col)
    return out


def flow_route_dense(lam: Series, exponents, n: int) -> list[Triangle]:
    """Route A of phi_pow, for each s in exponents, as it ran before it followed the
    support of H^j e_m: for each row m, the dense (m+1)x(m+1) matrix H[i][l] =
    i lam_(l-i+1) (l > i) applied to e_m step by step in Fractions, the columns
    weighted by (-s)^j/j!, and entry k scaled by m!/k!.  The columns do not depend
    on s, so they are built once for all exponents."""
    h = [[i * lam[l - i + 1] if l > i else Fraction(0) for l in range(n + 1)] for i in range(n + 1)]
    rows = {s: [] for s in exponents}
    for m in range(n + 1):
        cols = [[Fraction(int(i == m)) for i in range(m + 1)]]
        for _ in range(m):
            cols.append([sum((h[i][l] * cols[-1][l] for l in range(m + 1)), Fraction(0)) for i in range(m + 1)])
        for s, out in rows.items():
            weights = [(-Fraction(s)) ** j / factorial(j) for j in range(m + 1)]
            acc = [sum((w * col[k] for w, col in zip(weights, cols)), Fraction(0)) for k in range(m + 1)]
            out.append(tuple(Fraction(factorial(m), factorial(k)) * acc[k] for k in range(m + 1)))
    return [Triangle(tuple(out)) for out in rows.values()]


# -- operator commutation through Bell polynomials of series ---------------------


def series_bell(n: int, k: int, args) -> Series | int:
    """B_{n,k}(a_1, ..., a_{n-k+1}) for series arguments, by Comtet's recurrence
    B_{n,k} = (1/k) sum_i C(n,i) a_i B_{n-i,k-1}; the plain int 1 or 0 when k = 0."""
    if k == 0:
        return int(n == 0)
    terms = [comb(n, i) * (args[i - 1] * series_bell(n - i, k - 1, args)) for i in range(1, n - k + 2)]
    return sum(terms[1:], terms[0]) / k


def commutation_expansion_check(phi: Triangle, Q: DeltaOp, n: int) -> bool:
    """Verify phi X^n = sum_k X^k B_{n,k}(g'(Q), g''(Q), ...) phi with g = invQ, for the
    basic triangle phi of Q.

    The Bell arguments are shift-invariant operators (indicator series), so
    the recurrence runs directly on them.
    """
    N = phi.n
    q = Q.indicator
    # j-th derivative of invQ, composed with Q: indicator of (invQ)^(j)(Q)
    args = []
    dj = comp_inv(q)
    for _ in range(n):
        dj = derive(dj)
        args.append(compose(dj, q.truncate(dj.trunc) if q.trunc > dj.trunc else q))
    for m in range(N - n + 1):
        pm = phi.row_poly(m)
        rhs = poly([])
        for k in range(0 if n == 0 else 1, n + 1):  # B_{n,0} = 0 for n > 0
            b = series_bell(n, k, args)
            term = apply_op(ShiftOp(b), pm) if isinstance(b, Series) else b * pm
            rhs = rhs + times_x(term, k)
        if phi.row_poly(n + m) != rhs:
            return False
    return True


# -- JSON readers and writers that only the tests use ------------------------------


def series_from_json(obj: dict) -> Series:
    if obj.get("kind") != "series":
        raise ValueError("not a series object")
    return series([rat(c) for c in obj["coeffs"]], int(obj["trunc"]))


def poly_from_json(obj: dict) -> Poly:
    if obj.get("kind") != "poly":
        raise ValueError("not a poly object")
    return poly([rat(c) for c in obj["coeffs"]])


def shiftop_to_json(T: ShiftOp) -> dict:
    out = {"kind": "shiftop", "indicator": series_to_json(T.indicator)}
    if isinstance(T, DeltaOp):
        out["unit"] = rat_str(T.unit)
    return out


def shiftop_from_json(obj: dict) -> ShiftOp:
    if obj.get("kind") != "shiftop":
        raise ValueError("not a shiftop object")
    ind = series_from_json(obj["indicator"])
    if "unit" in obj:
        op = validate_delta(ShiftOp(ind))
        if op.unit != rat(obj["unit"]):
            raise ValueError("stored unit does not match the indicator")
        return op
    return ShiftOp(ind)


def triangle_to_json(t: Triangle) -> dict:
    return {"kind": "triangle", "n": t.n, "rows": [[rat_str(v) for v in row] for row in t.rows]}


def triangle_to_tsv(t: Triangle) -> str:
    return "\n".join("\t".join(rat_str(v) for v in row) for row in t.rows) + "\n"


def triangle_text(t: Triangle, fmt: str, decimal: bool = False) -> str:
    """A Triangle as the CLI printed it entry by entry from its Fractions, in json, tsv or
    pretty text (lossy decimals with decimal=True, pretty only): the reference for the
    printer of integer row forms (``serialize.form_cells``)."""
    if fmt == "json":
        return dumps(triangle_to_json(t)) + "\n"
    if fmt == "tsv":
        return triangle_to_tsv(t)
    num = (lambda q: str(Context(prec=12).divide(q.numerator, q.denominator))) if decimal else rat_str
    return "\n".join("  ".join(map(num, row)) for row in t.rows) + "\n"


def triangle_from_json(obj: dict) -> Triangle:
    if obj.get("kind") != "triangle":
        raise ValueError("not a triangle object")
    t = triangle(obj["rows"])
    if t.n != int(obj["n"]):
        raise ValueError("row count does not match n")
    return t


def matrix_to_json(m: tuple[tuple[Fraction, ...], ...]) -> dict:
    return {"kind": "matrix", "n": len(m), "rows": [[rat_str(v) for v in row] for row in m]}

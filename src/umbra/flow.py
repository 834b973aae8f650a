"""Iteration theory for unitary order-1 power series.

The iterative logarithm (infinitesimal generator of the composition flow),
exact fractional iterates, fractional powers of umbral operators, and the
Jabotinsky rescaling; integer iterates are ``fps.iterate_int``.
Everything stays in Q; non-unitary input is rejected rather than normalized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd

from . import umbral
from ._kernel import cauchy, composition, derivative, krylov, scaled, weighted_sum
from .bell import _bell_columns
from .errors import NotUnitary, OrderError, TruncationError, agree
from .fps import Series, compose, expm1, series, x_series
from .operators import DeltaOp, ShiftOp, validate_delta
from .rational import RatLike, binom_row, rat
from .umbral import Triangle, tri_compose, tri_identity


def _require_unitary(f: Series):
    if not f.is_unitary():
        raise NotUnitary("series must be unitary (f = x + higher order)")


def shifted_powers(tri: Triangle, pmax: int) -> list[Triangle]:
    """[(phi-1)^p for p = 0..pmax] by repeated composition (nilpotent).

    No construction calls it: it stays as the full-power reference that the
    Krylov columns of _column_powers are tested against, at O(pmax N^3).
    """
    shifted = Triangle(tuple(row[:n] + (Fraction(0),) for n, row in enumerate(tri.rows)))
    out = [tri_identity(tri.n)]
    for _ in range(pmax):
        out.append(tri_compose(out[-1], shifted))
    return out


def _column_powers(phi: tuple[list[list[int]], int], k: int, pmax: int):
    """Yield column k of (phi-1)^p for p = 0..pmax.

    phi is a triangle as integer rows over one denominator (``_flow_triangle``,
    or ``_kernel.scaled_rows`` of a Fraction triangle); its rows k..N from
    column k on, without the diagonal, go to ``_kernel.krylov`` as they are, so
    no entry is rescaled.  Each column is the integer (nums, den), with entry i
    equal to den * coeff(k + i, k) of the p-th power.  Each step is one
    triangular matrix-vector product, so the columns cost O(pmax N^2) where the
    full powers of shifted_powers cost O(pmax N^3).
    """
    rows, den = phi
    a = [row[k:m] for m, row in enumerate(rows[k:], k)]
    return krylov(a, den, ([int(m == k) for m in range(k, len(rows))], 1), pmax)


def _flow_triangle(f: Series, n: int) -> tuple[list[list[int]], int]:
    """The basic triangle with column-1 EGF f (the paper's phi for f) through row n, as
    integer rows over one denominator: exactly ``_kernel.scaled`` of the Bell table
    ``partial_bell_table`` of tests/oracles.py.

    Entry (m, k) is B_(m,k)(a) = E_(m,k) / (k! D^k) for a_j = j! f_j, with E and D from
    ``bell._bell_columns``; every entry is put over n! D^n and the table is reduced once
    by the gcd of that denominator and all numerators, which leaves the lcm of the
    entries' denominators (``_kernel.reduced``).  No Fraction sits between the Bell
    columns and the Krylov columns of ``_column_powers``.
    """
    cols, d = _bell_columns([factorial(j) * f[j] for j in range(1, n + 1)], n, n, n)
    den = factorial(n) * d**n
    lift = [factorial(n) // factorial(k) * d ** (n - k) for k in range(n + 1)]
    rows = [[cols[k][m] * lift[k] for k in range(m + 1)] for m in range(n + 1)]
    g = gcd(den, *chain.from_iterable(rows))
    return [[v // g for v in row] for row in rows], den // g


def itlog(f: Series) -> Series:
    """Iterative logarithm f_* = d/ds f^s at s = 0; order >= 2 for unitary f.

    Built by the coefficient route: n! lam_n = sum_p (-1)^(p-1)/p coeff(n,1) of
    (phi - 1)^p, one weighted sum over the integer Krylov columns, O(N^3); the
    weights do not depend on n as (phi - 1) is nilpotent.  Every result is
    checked against Julia's equation lam(f(x)) = f'(x) lam(x) and
    lam_k = f_k at the first k >= 2 with f_k != 0 (lam = 0 when f = x), which
    together fix lam (Jabotinsky, Trans. AMS 108, 1963).  The coefficient of
    x^{m+k-1} is the first to fix lam_m, so f and lam are padded with k zeros
    and both sides compared through x^{N+k-1}; f_{N+1}, ... never enter.  The
    equation is checked on integers: lam o f is one weighted sum over the power
    table of f, f' lam one integer product.
    """
    _require_unitary(f)
    n = f.trunc
    phi = _flow_triangle(f, n)
    weights = [Fraction(0)] + [Fraction((-1) ** (p - 1), p) for p in range(1, n)]
    nums, den = weighted_sum(zip(weights, _column_powers(phi, 1, n - 1)), n)
    coeffs = [Fraction(0)] + [Fraction(v, den * factorial(m)) for m, v in enumerate(nums, 1)]
    lam = series(coeffs, n)
    k = next((j for j in range(2, n + 1) if f[j]), n)
    agree("itlog", coefficient=lam.truncate(k), leading_term=(f - x_series(n)).truncate(k))
    zeros = (0,) * max(k - 1, 0)
    (x, dx), (y, dy) = scaled(f.coeffs), scaled(lam.coeffs)
    agree(
        "itlog",
        coefficient=composition(lam.coeffs + zeros, f.coeffs + zeros),
        equation=(cauchy(derivative(x), y, n + len(zeros)), dx * dy),
    )
    return lam


def koszul_numbers(n_max: int) -> list[Fraction]:
    """K_n = n! [x^n] itlog(e^x - 1) for n = 0..n_max; e^x - 1 is read through x^1 at least,
    as through x^0 it is not unitary."""
    f_star = itlog(expm1(max(n_max, 1)))
    return [f_star[n] * factorial(n) for n in range(n_max + 1)]


def _frac_coefficients(f: Series, s: Fraction, n: int) -> Series:
    """f^s through x^n, unchecked: n! [x^n] f^s = sum_{p<n} C(s,p) coeff(n,1) of (phi - 1)^p,
    one weighted sum over the integer Krylov columns of f's flow triangle, as (phi - 1)
    is nilpotent."""
    pmax = max(n - 1, 0)
    nums, den = weighted_sum(zip(binom_row(s, pmax), _column_powers(_flow_triangle(f, n), 1, pmax)), n)
    return series([0] + [Fraction(v, den * factorial(m)) for m, v in enumerate(nums, 1)], n)


def frac_iterate(f: Series, s: RatLike, k: int = 1, n_max: int | None = None) -> Series:
    """f^s(x)^k / k! to order n_max, exact for rational s.

    f^s is built by the coefficient route of ``_frac_coefficients`` and checked,
    as itlog is, by its leading term and its defining equation, neither of which
    reads the flow triangle: g = f^s must be x + s f_j x^j through x^j, for the
    first j >= 2 with f_j != 0 (j = N when f = x), and must commute with f.  A
    unitary g with g o f = f o g is fixed by g_j (Jabotinsky, Trans. AMS 108,
    1963): the coefficient of x^{m+j-1} is the first to fix g_m, so f and g are
    padded with zeros and both sides compared through x^max(N+j-1, N);
    f_{N+1}, ... never enter.  For k > 1 the result is (f^s)^k / k! of the
    checked f^s, and the zero series when k > N.
    """
    _require_unitary(f)
    if k < 1:
        raise OrderError("power index k must be >= 1")
    s = rat(s)
    n = f.trunc if n_max is None else n_max
    if f.trunc < n:
        raise TruncationError(f"need trunc >= {n}, have {f.trunc}")
    if k > n:
        return series([0], n)
    f = f.truncate(n)
    g = _frac_coefficients(f, s, n)
    j = next((i for i in range(2, n + 1) if f[i]), n)
    x = x_series(j)
    agree("fractional iterate", coefficient=g.truncate(j), leading_term=x + (f.truncate(j) - x).scale(s))
    zeros = (0,) * max(j - 1, 0)
    g_pad, f_pad = g.coeffs + zeros, f.coeffs + zeros
    agree("fractional iterate", coefficient=composition(g_pad, f_pad), equation=composition(f_pad, g_pad))
    return g if k == 1 else (g**k).scale(Fraction(1, factorial(k)))


def group_law_check(f: Series, r: RatLike, s: RatLike, n_max: int) -> bool:
    """f^r o f^s = f^{r+s} and (f^r)^s = f^{rs}, to order n_max; read through x^1 at
    least, as f^r through x^0 is 0, which is not unitary."""
    r, s, n = rat(r), rat(s), max(n_max, 1)
    fr = frac_iterate(f, r, 1, n)
    fs = frac_iterate(f, s, 1, n)
    if compose(fr, fs) != frac_iterate(f, r + s, 1, n):
        return False
    if frac_iterate(fr, s, 1, n) != frac_iterate(f, r * s, 1, n):
        return False
    return True


def phi_pow(Q: DeltaOp, s: RatLike, n: int) -> umbral.RowForm:
    """Triangle form (rows, dens) of phi^s, rows 0..n, for the basic operator phi of a
    unitary delta Q; ``tri_from_form`` reads it as a Triangle.

    phi^s is the umbral operator whose column-1 EGF is the fractional iterate
    g = (q~^-1)^s = q~^(-s) of Q's indicator q (Jabotinsky, Trans. AMS 108, 1963),
    the inverse of ``delta_power(Q, s)``'s indicator.  g comes from ``frac_iterate``,
    which checks it against q itself by its leading term and by g o q = q o g, and
    these two fix g.  The triangle of g is built by two routes that share no
    intermediate result and must agree: the Bell recurrence on integers
    (``umbral._bell_form``), which is shape-checked (``umbral._check_basic``), and the
    power table m!/k! [x^m] g^k (``umbral._power_rows``).  Both stay integer rows over
    their own denominators, and the returned form is that of the power table, whose
    denominators are the smaller; no Fraction triangle is built.  q is read through
    x^max(n, 1), so n = 0 gives the one-entry identity.
    """
    if not Q.is_unitary():
        raise NotUnitary("fractional operator powers need a unitary delta")
    s = rat(s)
    if Q.indicator.trunc < n:
        raise TruncationError(f"need indicator trunc >= {n}")
    q = Q.indicator.truncate(max(n, 1))  # a delta's indicator reaches x^1
    g = frac_iterate(q, -s, 1, q.trunc)
    bell_form = umbral._bell_form(g, n)
    umbral._check_basic(bell_form, Fraction(1))
    power_form = umbral._power_rows(umbral.powers(g.coeffs, n), n)
    agree("phi_pow", bell=bell_form, powers=power_form)
    return power_form


def jabotinsky(tri: Triangle) -> tuple[tuple[Fraction, ...], ...]:
    """Dense square matrix with entries k!/n! coeff[n][k] (zeros above diagonal)."""
    n = tri.n
    return tuple(
        tuple(
            tri.entry(i, j) * Fraction(factorial(j), factorial(i)) if j <= i else Fraction(0)
            for j in range(n + 1)
        )
        for i in range(n + 1)
    )


def delta_power(Q: DeltaOp, s: RatLike, n: int) -> DeltaOp:
    """Q^[s]: the delta operator of phi^s, via the fractional iterate of Q~.

    phi_pow(Q, s, n) is the Bell triangle of the inverse of this operator's
    indicator, (q~^s)^-1 = q~^(-s).  Library-only: its indicator is what
    ``umbra iterate --series <Q~> --s <s>`` prints, so a subcommand of its own
    would duplicate ``iterate``.
    """
    if not Q.is_unitary():
        raise NotUnitary("fractional bracket powers need a unitary delta")
    return validate_delta(ShiftOp(frac_iterate(Q.indicator, rat(s), 1, n)))

"""Coefficient triangles and umbral/Sheffer operators.

A degree-preserving linear operator U is stored as its lower-triangular
coefficient matrix: U x^n = sum_k coeff[n][k] x^k.  Basic sets are built from
delta operators by five independent routes (transfer, Steffensen, recurrence,
generating function, Kurbanov-Maksimov closed form); all five must agree
triangle-exactly, which is the flagship cross-validation of the package.

Every route requires the delta indicator resolved to trunc >= N+1 (the
transfer route loses one order through its internal shift); a shallower
indicator raises TruncationError rather than producing an incomplete row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, Sequence

from . import bell
from ._kernel import (
    apply_derivatives, cauchy, half_grid, krylov, powers, reciprocal_powers, reduced, scaled,
    scaled_rows, tri_inverse, tri_product,
)
from .errors import (
    NotAppell, NotDelta, NotUnitary, OrderError, Record, SingularTriangle, TruncationError, agree
)
from .fps import (
    Poly,
    Series,
    comp_inv,
    derive,
    exp_series,
    mul_inv,
    poly,
    pow_rat,
    series,
    x_series,
)
from .operators import DeltaOp, ShiftOp, is_appell, validate_delta
from .rational import RatLike, rat


# ---------------------------------------------------------------------------
# Triangle
# ---------------------------------------------------------------------------


class Triangle(Record):
    """Ragged lower-triangular matrix of exact rationals; row n has n+1 entries."""

    __slots__ = ("rows",)
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Fraction:
        if 0 <= k <= n <= self.n:
            return self.rows[n][k]
        return Fraction(0)

    def row_poly(self, n: int) -> Poly:
        return poly(list(self.rows[n]))

    def apply_poly(self, p: Poly) -> Poly:
        """U p for the represented operator; needs depth >= deg p."""
        return poly(transform_seq(self, p.coeffs, "column"))

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.rows[n][n] for n in range(self.n + 1))


def triangle(rows: Sequence[Sequence[RatLike]]) -> Triangle:
    return Triangle(tuple(tuple(rat(v) for v in row) for row in rows))


def tri_identity(n: int) -> Triangle:
    return Triangle(
        tuple(tuple(Fraction(1 if k == m else 0) for k in range(m + 1)) for m in range(n + 1))
    )


def tri_from_columns(cols: Sequence[Sequence[int]], dens: Sequence[int]) -> Triangle:
    """The Triangle of ``agree``'s triangle form: entry (m, k) is cols[k][m - k] / dens[k]."""
    return Triangle(
        tuple([tuple([Fraction(cols[k][m - k], dens[k]) for k in range(m + 1)]) for m in range(len(cols))])
    )


def tri_compose(phi: Triangle, psi: Triangle) -> Triangle:
    """Triangle of the operator product phi o psi (psi applied first)."""
    n = min(phi.n, psi.n)
    return Triangle(tuple(tri_product(psi.rows[: n + 1], phi.rows[: n + 1])))


def tri_invert(phi: Triangle) -> Triangle:
    """Inverse triangle by forward substitution; needs a nonzero diagonal."""
    for n, d in enumerate(phi.diagonal()):
        if d == 0:
            raise SingularTriangle(f"zero diagonal entry at row {n}")
    return Triangle(tuple(tri_inverse(phi.rows)))


def transform_seq(
    phi: Triangle, a: Sequence[RatLike], mode: str = "row", start: int = 0
) -> list[Fraction]:
    """The two dual sequence transforms attached to a triangle.

    row mode:    b_n = sum_{k=start}^n  coeff[n][k] a_k   (a indexed from start)
    column mode: b_k = sum_{n=k}^jmax   coeff[n][k] a_n
    Applying the same mode with the inverse triangle recovers the input.  Entries past the
    triangle's depth are unknown, so a sequence reaching past it raises TruncationError.
    """
    vals = [rat(v) for v in a]
    m = len(vals)
    if start + m - 1 > phi.n:
        raise TruncationError(f"triangle depth {phi.n} < last index {start + m - 1}")
    if mode == "row":
        rows = [[phi.entry(start + i, start + j) for j in range(i + 1)] for i in range(m)]
    elif mode == "column":
        rows = [[phi.entry(start + j, start + i) for j in range(m)] for i in range(m)]
    else:
        raise ValueError("mode must be 'row' or 'column'")
    a, da = scaled_rows(rows)
    *_, (nums, den) = krylov(a, da, scaled(vals), 1)
    return [Fraction(v, den) for v in nums]


# ---------------------------------------------------------------------------
# umbral / Sheffer operators
# ---------------------------------------------------------------------------


class UmbralOp(Record):
    """Basic-set operator: triangle plus (optionally cached) delta operator."""

    __slots__ = ("tri", "delta")
    tri: Triangle
    delta: DeltaOp | None

    def __init__(self, tri: Triangle, delta: DeltaOp | None = None):
        object.__setattr__(self, "tri", tri)
        object.__setattr__(self, "delta", delta)
        self.__post_init__()

    def __post_init__(self):
        t = self.tri
        if t.entry(0, 0) != 1:
            raise ValueError("umbral triangle must have coeff[0][0] = 1")
        for n in range(1, t.n + 1):
            if t.entry(n, 0) != 0:
                raise ValueError("umbral triangle must have coeff[n][0] = 0 for n >= 1")
            if t.entry(n, n) == 0:
                raise ValueError("umbral triangle must have nonzero diagonal")
        if self.delta is not None:
            c = self.delta.unit
            for n in range(t.n + 1):
                if t.entry(n, n) != c ** (-n):
                    raise ValueError("diagonal must equal unit^(-n)")


def _require_depth(Q: DeltaOp, n: int):
    if Q.indicator.trunc < n + 1:
        raise TruncationError(
            f"delta indicator trunc {Q.indicator.trunc} < {n + 1}; rebuild the operator deeper"
        )


def _on_monomial(c: Sequence[int], den: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients of (sum_i c_i D^i / den) x^m: entry j is c_{m-j} m!/j! / den."""
    return tuple(Fraction(c[m - j] * (factorial(m) // factorial(j)), den) for j in range(m + 1))


def basic_transfer(Q: DeltaOp, n: int) -> UmbralOp:
    """Rows p_m = Q'(D/Q)^{m+1} x^m: with c = Q'(D/Q)^{m+1} through x^m, entry j
    of row m is c_{m-j} m!/j!, one integer product per power of D/Q."""
    _require_depth(Q, n)
    q, dq = scaled(derive(Q.indicator).coeffs[: n + 1])
    table = islice(reciprocal_powers(Q.indicator.coeffs[1 : n + 2], n + 1), 1, None)  # from (D/Q)^1
    rows = [_on_monomial(cauchy(q, p, m), dq * dp, m) for m, (p, dp) in enumerate(table)]
    return UmbralOp(Triangle(tuple(rows)), Q)


def basic_steffensen(Q: DeltaOp, n: int) -> UmbralOp:
    """Rows p_m = x (D/Q)^m x^{m-1} (row 0 is [1]), one power of D/Q per row."""
    _require_depth(Q, n)
    table = islice(reciprocal_powers(Q.indicator.coeffs[1 : n + 2], n), 1, None)  # from (D/Q)^1
    rows = [(Fraction(0),) + _on_monomial(p, dp, m) for m, (p, dp) in enumerate(table)]
    return UmbralOp(Triangle(((Fraction(1),), *rows)), Q)


def basic_recurrence(Q: DeltaOp, n: int) -> UmbralOp:
    """Rows p_{m+1} = x (Q')^{-1} p_m; inherently sequential.  On r_j = j! p_j, with
    c = 1/Q', the step is r'_{j+1} = (j+1) sum_k c_k r_{j+k}: c is scaled once, and each
    row is kept as integers over one denominator, one ``reduced`` per row."""
    _require_depth(Q, n)
    c, dc = scaled(mul_inv(derive(Q.indicator)).coeffs[: n + 1])
    fact = [factorial(j) for j in range(n + 1)]
    r, dr = [1], 1
    rows = [(Fraction(1),)]
    for m in range(1, n + 1):
        r, dr = reduced([0] + [(j + 1) * sum(map(mul, c, r[j:])) for j in range(m)], dr * dc)
        rows.append(tuple([Fraction(v, dr * fact[j]) for j, v in enumerate(r)]))
    return UmbralOp(Triangle(tuple(rows)), Q)


def _power_columns(g: Series, n: int) -> tuple[list[list[int]], list[int]]:
    """Rows 0..n of coeff[m][k] = m!/k! [t^m] g^k as the triangle form of ``agree``: column k
    is [t^k..t^n] g^k of the integer power table of g (g.trunc >= n), times m!/k!, over the
    denominator of g^k.  It is the basic triangle whose column-1 EGF is g."""
    fact = [factorial(m) for m in range(n + 1)]
    cols, dens = [], []
    for k, (p, dp) in enumerate(powers(g.coeffs, n)):
        cols.append([p[m] * (fact[m] // fact[k]) for m in range(k, n + 1)])
        dens.append(dp)
    return cols, dens


def _bell_form(f: Series, n: int) -> tuple[list[list[int]], list[int]]:
    """Rows 0..n of coeff[m][k] = B_(m,k)(a), a_j = j! [x^j] f, as the triangle form of
    ``agree``: column k is E_(k,k), ..., E_(n,k) of ``bell._bell_columns`` over k! D^k."""
    cols, d = bell._bell_columns([factorial(j) * f[j] for j in range(1, n + 1)], n, n, n)
    return [col[k:] for k, col in enumerate(cols)], [factorial(k) * d**k for k in range(n + 1)]


def basic_genfunc(Q: DeltaOp, n: int) -> UmbralOp:
    """Columns from the generating function: coeff[m][k] = m! [t^m] invQ(t)^k / k!,
    column k read off the integer power table of invQ."""
    _require_depth(Q, n)
    g = comp_inv(Q.indicator.truncate(max(n, 1)))
    return UmbralOp(tri_from_columns(*_power_columns(g, n)), Q)


def basic_km(Q: DeltaOp, n: int) -> UmbralOp:
    """Closed-form rows p_m = sum_j x^j/j! W^j x^m, W = invQ(D) - D, read off the
    integer power table of w = invQ - t: entry k of row m is
    sum_{j<=k} [t^{m-k+j}] w^j m!/(j! (k-j)!), summed as integers over the lcm of
    j! den(w^j).  Every j <= k is summed: w^j has order >= j, and >= 2j only when
    Q is unitary."""
    _require_depth(Q, n)
    g = comp_inv(Q.indicator.truncate(max(n, 1)))
    table = list(powers((g - x_series(g.trunc)).coeffs, n))
    fact = [factorial(j) for j in range(n + 1)]
    den = lcm(*[fact[j] * dp for j, (_, dp) in enumerate(table)])
    scale = [den // (fact[j] * dp) for j, (_, dp) in enumerate(table)]
    # diag[d][j] = [t^(d+j)] w^j over den / j!; fall[m][r] = m!/r!
    diag = [[table[j][0][d + j] * scale[j] for j in range(n + 1 - d)] for d in range(n + 1)]
    fall = [[fact[m] // fact[r] for r in range(m + 1)] for m in range(n + 1)]
    rows = [
        tuple(Fraction(sum(map(mul, diag[m - k], fall[m][k::-1])), den) for k in range(m + 1))
        for m in range(n + 1)
    ]
    return UmbralOp(Triangle(tuple(rows)), Q)


BASIC_ROUTES: dict[str, Callable[[DeltaOp, int], UmbralOp]] = {
    "transfer": basic_transfer,
    "steffensen": basic_steffensen,
    "recurrence": basic_recurrence,
    "genfunc": basic_genfunc,
    "km": basic_km,
}


def basic_all_routes(Q: DeltaOp, n: int) -> UmbralOp:
    """The basic set of Q built by every route in BASIC_ROUTES; all must agree."""
    tris = {name: route(Q, n).tri for name, route in BASIC_ROUTES.items()}
    return UmbralOp(agree("basic", **tris), Q)


def basic_from_inverse_series(f: Series, n: int) -> UmbralOp:
    """Basic triangle whose column-1 EGF is f (= indicator of Q^[-1]).

    coeff[m][k] = B_{m,k}(a_1, ..., a_{m-k+1}) with a_j = j! [x^j] f; this is
    the Bell-polynomial route, independent of the five operator routes.
    """
    if f.order() != 1:
        raise NotUnitary("inverse indicator must have order 1")
    if f.trunc < n:
        raise TruncationError(f"need trunc >= {n}, have {f.trunc}")
    a = [factorial(j) * f[j] for j in range(1, n + 1)]
    return UmbralOp(Triangle(bell.partial_bell_table(n, a)))


def delta_of(phi: UmbralOp | Triangle) -> DeltaOp:
    """Recover Q from the triangle: column 1 is the EGF of Q^[-1]'s indicator."""
    tri = phi.tri if isinstance(phi, UmbralOp) else phi
    if tri.n < 1:
        raise NotDelta("triangle too shallow to determine a delta operator")
    inv_ind = series(
        [Fraction(0)] + [tri.entry(m, 1) / factorial(m) for m in range(1, tri.n + 1)], tri.n
    )
    try:
        return validate_delta(ShiftOp(comp_inv(inv_ind)))
    except OrderError as exc:
        raise NotDelta(f"column 1 does not start with a nonzero entry: {exc}") from exc


def binomial_grid(
    p_sum: Sequence[Poly], p_x: Sequence[Poly], p_y: Sequence[Poly], n: int
) -> tuple[int, Fraction, Fraction] | None:
    """First (m, x, y) with p_sum[m](x+y) != sum_k C(m,k) p_x[k](x) p_y[m-k](y), or None.

    Each distinct polynomial set is tabulated once by ``half_grid``; the scan is
    ``binomial_scan``."""
    tables = {}
    for ps in (p_sum, p_x, p_y):
        if id(ps) not in tables:
            tables[id(ps)] = half_grid([p.coeffs for p in ps[: n + 1]], n)
    return binomial_scan(tables[id(p_sum)], tables[id(p_x)], tables[id(p_y)], n)


def binomial_scan(v_sum, v_x, v_y, n: int) -> tuple[int, Fraction, Fraction] | None:
    """``binomial_grid`` on value tables from ``half_grid``.

    Degrees m = 0..n are tried in turn, then x, then y, each over the grid
    {0, 1/2, ..., (m+1)/2}.  The test runs on integers: with L the lcm of the
    products of denominators d_x[k] d_y[m-k], both sides are multiplied by L and
    by the denominator of p_sum[m], so the weights C(m,k) L / (d_x[k] d_y[m-k])
    are found once per m.
    """
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


def is_binomial_type(tri: Triangle) -> bool:
    """Detect binomial type == basicness.

    After the shape guard (coeff[0][0] = 1, nonzero diagonal) one check is complete:
        p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y)
    for all n <= N on the grid of ``binomial_grid``.
    """
    if tri.entry(0, 0) != 1:
        return False
    for m in range(1, tri.n + 1):
        if tri.entry(m, m) == 0:
            return False
    rows = [tri.row_poly(k) for k in range(tri.n + 1)]
    return binomial_grid(rows, rows, rows, tri.n) is None


def sheffer(A: ShiftOp, phi: UmbralOp) -> Triangle:
    """Triangle of the Sheffer operator A o phi; rows are A applied to the basic polynomials,
    all from one scaling of A and one factorial table (``_kernel.apply_derivatives``)."""
    if not is_appell(A):
        raise NotAppell("Sheffer construction requires an invertible (Appell) operator")
    t = A.indicator.trunc
    if t < phi.tri.n:
        raise TruncationError(f"indicator trunc {t} < deg p = {t + 1}; operator not resolved deeply enough")
    rows = apply_derivatives(A.indicator.coeffs, [phi.tri.row_poly(m).coeffs for m in range(phi.tri.n + 1)])
    return Triangle(tuple([tuple(row) for row in rows]))


def cross(C: ShiftOp, u: RatLike, phi: UmbralOp) -> Triangle:
    """Triangle of the cross operator C^u o phi for rational u; requires C~(0) = 1 exactly."""
    appell = ShiftOp(pow_rat(C.indicator, rat(u)))
    return sheffer(appell, phi)


def connection_constants(phi: UmbralOp, psi: UmbralOp) -> Triangle:
    """Triangle c with phi_n = sum_k c[n][k] psi_k."""
    return tri_compose(tri_invert(psi.tri), phi.tri)


def niederhausen(phi: UmbralOp) -> UmbralOp:
    """Coefficient transform coeff[n][k] = C(n,k) phi_{n-k}(k).

    The result is again basic; its delta R satisfies R^[-1] indicator
    = t e^{invQ(t)}, which must agree with column 1 of the transform.
    """
    if phi.delta is None:
        raise ValueError("niederhausen needs the source delta cached")
    n = phi.tri.n
    rows = [[Fraction(0)] * (m + 1) for m in range(n + 1)]
    for m in range(n + 1):
        for k in range(m + 1):
            rows[m][k] = comb(m, k) * phi.tri.row_poly(m - k)(k)
    tri = Triangle(tuple(tuple(r) for r in rows))
    if n < 1:
        return UmbralOp(tri, None)
    ind = phi.delta.indicator
    g = comp_inv(ind.truncate(n) if ind.trunc > n else ind)
    expected = exp_series(g) * series([0, 1], g.trunc)
    column = series([tri.entry(m, 1) / factorial(m) for m in range(n + 1)], n)
    agree("niederhausen", generating_function=expected, column=column)
    return UmbralOp(tri, validate_delta(ShiftOp(comp_inv(expected))))


def special_class_check(phi: UmbralOp, U: ShiftOp, V: ShiftOp, n: int) -> bool:
    """Verify phi X^n = sum_k coeff[n][k] X^k U^k V^n phi as operators.

    Both sides are applied to x^m for all m <= N - n, on integers: the rows of
    phi are scaled once to e / D, and the products U^k V^n are built once, their
    terms weighted by coeff[n][k] as w[k][i] / W.  Then
        W e[n+m] = sum_k x^k sum_i w[k][i] D^i e[m].
    """
    N = phi.tri.n
    if n > N:
        raise TruncationError("n exceeds triangle depth")
    vn = V**n
    ops = [(k, (U**k * vn).indicator) for k in range(n + 1) if phi.tri.entry(n, k)]
    width = N - n + 1
    w, dw = scaled([phi.tri.entry(n, k) * ind[i] for k, ind in ops for i in range(width)])
    e, _ = scaled_rows(phi.tri.rows)
    fact = [factorial(j) for j in range(width)]
    for m in range(width):
        if any(ind.trunc < m for _, ind in ops):
            raise TruncationError(f"indicator trunc < deg p = {m}; operator not resolved deeply enough")
        q = [f * v for f, v in zip(fact, e[m][: m + 1])]
        rhs = [0] * (N + 1)
        for r, (k, _) in enumerate(ops):
            wk = w[r * width : (r + 1) * width]
            for j in range(m + 1):
                rhs[k + j] += sum(map(mul, wk, q[j:])) // fact[j]
        if [dw * v for v in e[n + m]] != rhs:
            return False
    return True

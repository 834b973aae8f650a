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
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable, Sequence

from . import bell
from ._kernel import (
    cauchy, degree, divider, is_short, krylov, powers, reciprocal_powers, reduced, scaled, scaled_rows,
    tri_inverse, tri_product, weighted_sum,
)
from .errors import (
    NotAppell, NotDelta, NotUnitary, OrderError, Record, SingularTriangle, TruncationError, UmbraError, agree
)
from .fps import (
    Poly,
    Series,
    comp_inv,
    derive,
    exp_series,
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
        return tuple([self.rows[n][n] for n in range(self.n + 1)])


def triangle(rows: Sequence[Sequence[RatLike]]) -> Triangle:
    return Triangle(tuple([tuple([rat(v) for v in row]) for row in rows]))


def tri_identity(n: int) -> Triangle:
    return Triangle(
        tuple([tuple([Fraction(1 if k == m else 0) for k in range(m + 1)]) for m in range(n + 1)])
    )


RowForm = tuple[list[list[int]], list[int]]  # agree's triangle form (rows, dens)


def tri_from_form(form: RowForm) -> Triangle:
    """The Triangle of ``agree``'s triangle form (rows, dens): entry (m, k) is rows[m][k] / dens[m]."""
    rows, dens = form
    return Triangle(tuple([tuple([Fraction(v, d) for v in row]) for row, d in zip(rows, dens)]))


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
# basic sets and Sheffer operators
# ---------------------------------------------------------------------------


def _check_basic(form: RowForm, unit: Fraction):
    """Refuse a triangle form that cannot be a basic set's: a basic triangle has
    coeff[0][0] = 1, coeff[m][0] = 0 for m >= 1 and coeff[m][m] = unit^(-m) != 0,
    where unit is the coefficient of D in its delta; read on integers."""
    rows, dens = form
    if rows[0][0] != dens[0]:
        raise ValueError("umbral triangle must have coeff[0][0] = 1")
    for m, row in enumerate(rows[1:], 1):
        if row[0]:
            raise ValueError("umbral triangle must have coeff[n][0] = 0 for n >= 1")
        if not row[m]:
            raise ValueError("umbral triangle must have nonzero diagonal")
    u, v = unit.numerator, unit.denominator
    for m, (row, d) in enumerate(zip(rows, dens)):
        if row[m] * u**m != d * v**m:  # coeff[m][m] = row[m] / d must be (v / u)^m
            raise ValueError("diagonal must equal unit^(-n)")


def _require_depth(Q: DeltaOp, n: int):
    if Q.indicator.trunc < n + 1:
        raise TruncationError(
            f"delta indicator trunc {Q.indicator.trunc} < {n + 1}; rebuild the operator deeper"
        )


def _lifts(n: int, b: int):
    """Yield lift_m = [(m!/j!) b^j for j = 0..m] for m = 0..n, each from the last: the
    lifts that put row m of a route graded by b (entry j over b^(m-j)) over b^m."""
    lift, bm = [1], 1
    yield lift
    for m in range(1, n + 1):
        bm *= b
        lift = [m * v for v in lift] + [bm]
        yield lift


def _on_monomial(c: Sequence[int], lift: Sequence[int]) -> list[int]:
    """Row m = len(lift) - 1 of (sum_i c_i D^i) x^m, for c graded by b (c_i over b^i), over
    b^m: entry j is c_(m-j) (m!/j!) b^j (``_lifts``)."""
    return list(map(mul, c[len(lift) - 1 :: -1], lift))


def basic_transfer(Q: DeltaOp, n: int) -> RowForm:
    """Rows p_m = Q'(D/Q)^{m+1} x^m: with c = Q'(D/Q)^{m+1} through x^m, entry j of row m
    is c_{m-j} m!/j!.  The powers of D/Q come graded by b (``reciprocal_powers``), Q' is
    graded once to match, and each power is one integer product; row m of the triangle
    form is over the denominators of Q' and (D/Q)^{m+1} and b^m."""
    _require_depth(Q, n)
    b, table = reciprocal_powers(Q.indicator.coeffs[1 : n + 2], n + 1)
    q, dq = scaled(derive(Q.indicator).coeffs[: n + 1])
    q = [v * b**i for i, v in enumerate(q)]
    rows, dens = [], []
    for (p, dp), lift in zip(islice(table, 1, None), _lifts(n, b)):  # from (D/Q)^1
        rows.append(_on_monomial(cauchy(q, p, len(lift) - 1), lift))
        dens.append(dq * dp * lift[-1])
    return rows, dens


def basic_steffensen(Q: DeltaOp, n: int) -> RowForm:
    """Rows p_m = x (D/Q)^m x^{m-1} (row 0 is [1]), one power of D/Q per row, graded by b
    (``reciprocal_powers``).  Row m of the triangle form is over the denominator of
    (D/Q)^m and b^(m-1)."""
    _require_depth(Q, n)
    b, table = reciprocal_powers(Q.indicator.coeffs[1 : n + 2], n)
    rows, dens = [[1]], [1]
    for (p, dp), lift in zip(islice(table, 1, None), _lifts(n - 1, b)):  # from (D/Q)^1
        rows.append([0] + _on_monomial(p, lift))
        dens.append(dp * lift[-1])
    return rows, dens


def basic_recurrence(Q: DeltaOp, n: int) -> RowForm:
    """Rows p_{m+1} = x (Q')^{-1} p_m; inherently sequential.  On r_j = j! p_j the step is
    r'_{j+1} = (j+1) U_j, where U_j = sum_k c_k r_{j+k} with c = 1/Q' is a correlation:
    read backwards it is the series quotient, U = reversed(reversed(r) / Q').  So the loop
    carries row m as h = reversed(r) in ``_kernel.divider``'s graded form, h_i = r_(m-i) as
    H_i over d_h b^i, and row m + 1 is H'_i = (m + 1 - i) B_i for the quotient B of H by
    Q', with a 0 appended: no rescaling.  A short Q' (``_kernel.is_short``; Catalan's
    1 - 2D) is divided by on integers, O(N d) per row with no gcd, and 1/Q' is never
    built; a dense Q' (b = 1) is one product by 1/Q' cut after its last nonzero entry, so a
    polynomial 1/Q' of degree d (Touchard's 1 + D, Laguerre's (1 - D)^2) costs O(N d) per
    row too.  Row m of the triangle form is r_j m!/j! lifted by b^j, over d_h m! b^m."""
    _require_depth(Q, n)
    b, divide = divider(derive(Q.indicator).coeffs[: n + 1])
    h, dh = [1], 1
    rows, dens = [[1]], [1]
    for m, lift in islice(enumerate(_lifts(n, b)), 1, None):
        u, dh = divide(h, dh)
        h = [(m - i) * v for i, v in enumerate(u)] + [0]
        rows.append(_on_monomial(h, lift))
        dens.append(dh * lift[0] * lift[-1])  # d_h m! b^m
    return rows, dens


def _power_rows(table, n: int) -> RowForm:
    """Rows 0..n of coeff[m][k] = m!/k! [t^m] g^k as ``agree``'s triangle form, from the
    integer power table of g (g^0..g^n as (nums, den) through t^n): row m is over L_m, the
    lcm of the denominators of g^0..g^m, and entry k is [t^m] g^k times m!/k! L_m/den(g^k).
    Each lift L_m/den(g^k) is kept from row to row: when L grows by a factor f, the earlier
    lifts are multiplied by f.  It is the basic triangle whose column-1 EGF is g."""
    fact = [factorial(m) for m in range(n + 1)]
    nums, lifts, L, rows, dens = [], [], 1, [], []
    for m, (p, dp) in enumerate(table):
        f = dp // gcd(L, dp)
        if f > 1:
            L *= f
            lifts = [v * f for v in lifts]
        lifts.append(L // dp)
        nums.append(p)
        rows.append([nums[k][m] * lifts[k] * (fact[m] // fact[k]) for k in range(m + 1)])
        dens.append(L)
    return rows, dens


def _relation_powers(g: Series, q: Sequence[Fraction], n: int):
    """Yield g^k through t^n for k = 0..n as (nums, den), for g = Q~^(-1) and the polynomial
    Q~ = sum_{i=1..d} q_i t^i through t^n.  Q~(g) = t times g^k gives
        g^(k+d) = (t g^k - sum_{i=1..d-1} q_i g^(k+i)) / q_d,
    exact through t^n since Q~(g) - t has order > n: g^0..g^(d-1) come from ``powers``, and
    each later power is d scaled integer vectors summed (``weighted_sum``) and one
    ``reduced``, with no series product."""
    d = degree(q)
    weights = [1 / q[d]] + [-q[i] / q[d] for i in range(1, d)]
    window = list(powers(g.coeffs, d - 1))
    yield from window
    for _ in range(n + 1 - d):
        p, dp = window.pop(0)
        window.append(reduced(*weighted_sum(zip(weights, [([0] + p[:n], dp)] + window), n + 1)))
        yield window[-1]


def _bell_form(f: Series, n: int) -> RowForm:
    """Rows 0..n of coeff[m][k] = B_(m,k)(a), a_j = j! [x^j] f, as ``agree``'s triangle form:
    E_(m,k) of ``bell._bell_columns`` is over k! D^k, so row m is over m! D^m and entry k
    is E_(m,k) times the lift (m!/k!) D^(m-k), row m - 1's lift times m D."""
    cols, d = bell._bell_columns([factorial(j) * f[j] for j in range(1, n + 1)], n, n, n)
    lifts, rows, dens = [], [], []
    for m in range(n + 1):
        lifts = [v * m * d for v in lifts] + [1]
        rows.append([cols[k][m] * lifts[k] for k in range(m + 1)])
        dens.append(lifts[0])  # m! D^m
    return rows, dens


def basic_genfunc(Q: DeltaOp, n: int) -> RowForm:
    """The generating function's triangle: coeff[m][k] = m! [t^m] invQ(t)^k / k!, read off
    the integer power table of invQ.  A short Q~ through t^n (``_kernel.is_short``) steps
    that table by Q~(invQ) = t (``_relation_powers``), O(n d) integer products per power;
    a dense Q~ takes one product per power (``powers``), which costs less than the
    relation's d-term sums once d nears n/4.  The triangle form is that of ``_power_rows``,
    row m over the lcm of the denominators of invQ^0..invQ^m."""
    _require_depth(Q, n)
    q = Q.indicator.truncate(max(n, 1))
    g = comp_inv(q)
    table = _relation_powers(g, q.coeffs, n) if is_short(q.coeffs) else powers(g.coeffs, n)
    return _power_rows(table, n)


def basic_km(Q: DeltaOp, n: int) -> RowForm:
    """Closed-form rows p_m = sum_j x^j/j! W^j x^m, W = invQ(D) - D, read off the
    integer power table of w = invQ - t: entry k of row m is
    sum_{j<=k} [t^{m-k+j}] w^j m!/(j! (k-j)!), summed as integers over the lcm of
    j! den(w^j).  Every j <= k is summed: w^j has order >= j, and >= 2j only when
    Q is unitary.  Every row of the triangle form is over that lcm."""
    _require_depth(Q, n)
    g = comp_inv(Q.indicator.truncate(max(n, 1)))
    table = list(powers((g - x_series(g.trunc)).coeffs, n))
    fact = [factorial(j) for j in range(n + 1)]
    den = lcm(*[fact[j] * dp for j, (_, dp) in enumerate(table)])
    scale = [den // (fact[j] * dp) for j, (_, dp) in enumerate(table)]
    # diag[d][j] = [t^(d+j)] w^j over den / j!; fall[m][r] = m!/r!
    diag = [[table[j][0][d + j] * scale[j] for j in range(n + 1 - d)] for d in range(n + 1)]
    fall = [[fact[m] // fact[r] for r in range(m + 1)] for m in range(n + 1)]
    rows = [[sum(map(mul, diag[m - k], fall[m][k::-1])) for k in range(m + 1)] for m in range(n + 1)]
    return rows, [den] * (n + 1)


BASIC_ROUTES: dict[str, Callable[[DeltaOp, int], RowForm]] = {
    "transfer": basic_transfer,
    "steffensen": basic_steffensen,
    "recurrence": basic_recurrence,
    "genfunc": basic_genfunc,
    "km": basic_km,
}


def basic_form(Q: DeltaOp, n: int, route: str = "all") -> RowForm:
    """The triangle form of Q's basic set through row n, by the named route of BASIC_ROUTES,
    or with "all" by every route, which must agree.  The routes are looked up when called
    and hand ``agree`` their integer forms, so they are compared with no Fraction; only the
    first form, the one returned, is shape-checked (row m of m + 1 entries, then
    ``_check_basic``), and a malformed entry of another route is a route disagreement."""
    if route == "all":
        form = agree("basic", **{name: build(Q, n) for name, build in BASIC_ROUTES.items()})
    elif route in BASIC_ROUTES:
        form = BASIC_ROUTES[route](Q, n)
    else:
        raise UmbraError(f"unknown basic route {route!r}; known: {', '.join(BASIC_ROUTES)}, all")
    for m, row in enumerate(form[0]):
        if len(row) != m + 1:
            raise ValueError(f"row {m} must have {m + 1} entries")
    _check_basic(form, Q.unit)
    return form


def basic_set(Q: DeltaOp, n: int, route: str = "all") -> Triangle:
    """The basic triangle of Q through row n (``basic_form``)."""
    return tri_from_form(basic_form(Q, n, route))


def basic_from_inverse_series(f: Series, n: int) -> Triangle:
    """Basic triangle whose column-1 EGF is f (= indicator of Q^[-1]).

    coeff[m][k] = B_{m,k}(a_1, ..., a_{m-k+1}) with a_j = j! [x^j] f, the rows of
    ``_bell_form``; this is the Bell-polynomial route, independent of the five
    operator routes.
    """
    if f.order() != 1:
        raise NotUnitary("inverse indicator must have order 1")
    if f.trunc < n:
        raise TruncationError(f"need trunc >= {n}, have {f.trunc}")
    form = _bell_form(f, n)
    _check_basic(form, 1 / f[1])
    return tri_from_form(form)


def delta_of(tri: Triangle) -> DeltaOp:
    """Recover Q from the triangle: column 1 is the EGF of Q^[-1]'s indicator."""
    if tri.n < 1:
        raise NotDelta("triangle too shallow to determine a delta operator")
    inv_ind = series(
        [Fraction(0)] + [tri.entry(m, 1) / factorial(m) for m in range(1, tri.n + 1)], tri.n
    )
    try:
        return validate_delta(ShiftOp(comp_inv(inv_ind)))
    except OrderError as exc:
        raise NotDelta(f"column 1 does not start with a nonzero entry: {exc}") from exc


def _egf_columns(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The column EGFs c_k(t) = sum_m rows[m][k] t^m/m! through t^N (N = len(rows) - 1), on
    integers: the rows are scaled once to e / D and row m is lifted by N!/m!, so column k
    holds N! D c_k for k = 0..N; returns (columns, N! D)."""
    N = len(rows) - 1
    e, d = scaled_rows(rows)
    lift = [factorial(N) // factorial(m) for m in range(N + 1)]
    return [[r[k] * f if k < len(r) else 0 for r, f in zip(e, lift)] for k in range(N + 1)], d * lift[0]


def binomial_convolution(
    s: Sequence[Sequence[Fraction]], a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> int | None:
    """First m <= N with s_m(x+y) != sum_k C(m,k) a_k(x) b_{m-k}(y), or None, for three lists
    of coefficient rows m = 0..N (N = len(s) - 1), row m of degree at most m.

    Proof.  With the column EGFs s_k(t) = sum_m s[m][k] t^m/m! (and a_k, b_k alike), each
    of order >= k, sum_m p_m(x) t^m/m! = sum_k x^k p_k(t), and the t^m coefficient of
        sum_k (x+y)^k s_k = (sum_i x^i a_i)(sum_j y^j b_j)
    is the degree-m identity divided by m!.  Comparing x^i y^j, that is
        C(i+j, i) s_{i+j} = a_i b_j    for i + j <= N, through t^N
    (for i + j > N both sides vanish through t^N).  So degree m holds iff every equation
    holds at t^m, and the answer is the least t at which one fails.  The grid that this
    replaced found the same m: at degree m both sides have degree <= m in x and in y, and
    it tried m + 2 points of each.

    On integers: each distinct list is scaled once (``_egf_columns``), column k holding
    N! D c_k; the equation reads C(i+j, i) D_a D_b N!^2 S_{i+j} = D_s N! A_i B_j, one
    ``cauchy`` per pair (i, j)."""
    cols = {}
    for rows in (s, a, b):
        if id(rows) not in cols:
            cols[id(rows)] = _egf_columns(rows)
    (cs, one_s), (ca, one_a), (cb, one_b) = cols[id(s)], cols[id(a)], cols[id(b)]
    N, first, scale = len(s) - 1, None, one_a * one_b
    for i in range(N + 1):
        for j in range(i if a is b else 0, N + 1 - i):  # (j, i) is (i, j) when a is b
            lhs = [comb(i + j, i) * scale * v for v in cs[i + j]]
            rhs = [one_s * v for v in cauchy(ca[i], cb[j], N)]
            if lhs != rhs:
                t = next(t for t, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                first = t if first is None else min(first, t)
    return first


def is_binomial_type(tri: Triangle) -> bool:
    """Detect binomial type == basicness: p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) for
    all n <= N, in O(N^3) through the column EGFs c_k(t) = sum_m coeff[m][k] t^m/m!
    (Mullin & Rota, On the foundations of combinatorial theory III, 1970).

    After the shape guard (coeff[0][0] = 1, nonzero diagonal) the test is
        c_0 = 1 and (i+1) c_{i+1} = c_i c_1 through t^N, for 1 <= i < N.
    Proof.  The identity for n <= N says sum_k (x+y)^k c_k = (sum_i x^i c_i)(sum_j y^j c_j)
    through t^N, that is C(i+j, i) c_{i+j} = c_i c_j for all i, j (*).  Each c_k has
    order >= k, and c_k = 0 for k > N.  (*) implies the test: i = j = 0 gives
    c_0 = c_0^2 with c_0(0) = 1, so c_0 = 1, and j = 1 is the second condition.
    Conversely, induction on i gives c_i = c_1^i / i! for i <= N; for k > N both c_k and
    c_1^k / k! vanish through t^N, so C(i+j, i) c_{i+j} = c_1^(i+j) / (i! j!) = c_i c_j
    for all i, j.

    On integers (``_egf_columns``): column k holds N! D c_k; then c_0 = 1 reads column 0 =
    [N! D, 0, ..., 0], and the second condition reads (i+1) N! D col_{i+1} = col_i col_1,
    one ``cauchy`` per i."""
    if tri.entry(0, 0) != 1 or 0 in tri.diagonal():
        return False
    N = tri.n
    cols, one = _egf_columns(tri.rows)
    if cols[0] != [one] + [0] * N:
        return False
    return all([(i + 1) * one * v for v in cols[i + 1]] == cauchy(cols[i], cols[1], N) for i in range(1, N))


def sheffer(A: ShiftOp, form: RowForm) -> RowForm:
    """Triangle form of the Sheffer operator A o phi, for the triangle form of the basic set
    phi: row m is A applied to the basic polynomial p_m, sum_k A_k p_m^(k), all on integers.
    A is scaled once to x / dx; with p_m = y / d_m, entry j is S_j / (dx d_m j!) for
    S_j = sum_k x_k (j+k)! y_{j+k}, so row m is [S_j m!/j!] over dx d_m m!."""
    if not is_appell(A):
        raise NotAppell("Sheffer construction requires an invertible (Appell) operator")
    rows, dens = form
    n, t = len(rows) - 1, A.indicator.trunc
    if t < n:
        raise TruncationError(f"indicator trunc {t} < deg p = {n}; operator not resolved deeply enough")
    x, dx = scaled(A.indicator.coeffs[: n + 1])
    fact = [factorial(j) for j in range(n + 1)]
    out, out_dens = [], []
    for m, (y, d) in enumerate(zip(rows, dens)):
        q = list(map(mul, fact, y))
        out.append([sum(map(mul, x, q[j:])) * (fact[m] // fact[j]) for j in range(m + 1)])
        out_dens.append(dx * d * fact[m])
    return out, out_dens


def cross(C: ShiftOp, u: RatLike, form: RowForm) -> RowForm:
    """Triangle form of the cross operator C^u o phi for rational u and the triangle form of
    the basic set phi (``sheffer``); requires C~(0) = 1 exactly."""
    appell = ShiftOp(pow_rat(C.indicator, rat(u)))
    return sheffer(appell, form)


def niederhausen(phi: Triangle, Q: DeltaOp) -> Triangle:
    """Coefficient transform coeff[n][k] = C(n,k) phi_{n-k}(k) of the basic triangle phi
    of Q, on the rows of phi scaled once.

    The result is again basic: its entries (0, 0), (m, 0) and (m, m) are phi_0(0) = 1,
    phi_m(0) = 0 and phi_0(m) = 1.  Its delta R (``delta_of``) satisfies R^[-1] indicator
    = t e^{invQ(t)}, which must agree with column 1 of the transform; that reads Q
    through t^n, and a shallower Q raises TruncationError.
    """
    n = phi.n
    e, d = scaled_rows(phi.rows)
    _check_basic((e, [d] * (n + 1)), Q.unit)
    _require_depth(Q, n - 1)
    pw = [[k**j for j in range(n + 1)] for k in range(n + 1)]
    rows = [[Fraction(comb(m, k) * sum(map(mul, e[m - k], pw[k])), d) for k in range(m + 1)] for m in range(n + 1)]
    tri = Triangle(tuple([tuple(row) for row in rows]))
    if n < 1:
        return tri
    g = comp_inv(Q.indicator.truncate(n))
    expected = exp_series(g) * series([0, 1], g.trunc)
    column = series([tri.entry(m, 1) / factorial(m) for m in range(n + 1)], n)
    agree("niederhausen", generating_function=expected, column=column)
    return tri


def special_class_check(phi: Triangle, U: ShiftOp, V: ShiftOp, n: int) -> bool:
    """Verify phi X^n = sum_k coeff[n][k] X^k U^k V^n phi as operators.

    Both sides are applied to x^m for all m <= N - n, on integers: the rows of
    phi are scaled once to e / D, and the products U^k V^n are built once, their
    terms weighted by coeff[n][k] as w[k][i] / W.  Then
        W e[n+m] = sum_k x^k sum_i w[k][i] D^i e[m].
    """
    N = phi.n
    if n > N:
        raise TruncationError("n exceeds triangle depth")
    vn = V**n
    ops = [(k, (U**k * vn).indicator) for k in range(n + 1) if phi.entry(n, k)]
    width = N - n + 1
    w, dw = scaled([phi.entry(n, k) * ind[i] for k, ind in ops for i in range(width)])
    e, _ = scaled_rows(phi.rows)
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

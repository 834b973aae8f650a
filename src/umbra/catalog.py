"""Named basic-set families and their family-specific identity checks.

Each family knows how to build its delta operator at any truncation and,
where the literature provides one, the closed form of its coefficient
triangle.  ``identity_check`` runs the family's special identities as exact
assertions and returns a machine-readable report; ``check_all`` is the
regression entry point used by the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul
from typing import Callable

from ._kernel import half_grid, scaled, scaled_rows
from .errors import Record, RouteDisagreement, UnknownFamily
from .fps import (
    Poly,
    Series,
    comp_inv,
    exp_series,
    mul_inv,
    poly,
    pow_rat,
    series,
    x_series,
)
from .operators import DeltaOp, ShiftOp, shift_by, validate_delta
from .rational import RatLike, rat
from .umbral import (
    Triangle,
    UmbralOp,
    basic_all_routes,
    basic_transfer,
    binomial_grid,
    binomial_scan,
    cross,
    is_binomial_type,
    niederhausen,
    sheffer,
    special_class_check,
    tri_compose,
    tri_identity,
    tri_invert,
    triangle,
)

# ---------------------------------------------------------------------------
# Stirling/Lah helpers (recurrence-based closed forms)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return (n - 1) * stirling1_unsigned(n - 1, k) + stirling1_unsigned(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def lah(n: int, k: int) -> int:
    """Unsigned Lah numbers C(n-1, k-1) n!/k! (Lah(0,0) = 1)."""
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------


class FamilySpec(Record):
    __slots__ = ("name", "params", "delta", "closed_form")
    name: str
    params: dict
    delta: Callable[[int], DeltaOp]
    closed_form: Callable[[int, int], Fraction]

    def __init__(
        self, name: str, params: dict, delta: Callable[[int], DeltaOp], closed_form: Callable[[int, int], Fraction]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "closed_form", closed_form)

    def basic(self, n: int) -> UmbralOp:
        return basic_transfer(self.delta(n + 2), n)


# what a family's factory knows: its delta builder and the closed form of its triangle
_Spec = tuple[Callable[[int], DeltaOp], Callable[[int, int], Fraction]]


def _spec_derivative() -> _Spec:
    return (
        lambda t: validate_delta(ShiftOp(x_series(t))),
        lambda n, k: Fraction(1 if n == k else 0),
    )


def _spec_stretch(lam: Fraction) -> _Spec:
    if lam == 0:
        raise UnknownFamily("stretch parameter must be nonzero")
    return (
        lambda t: validate_delta(ShiftOp(x_series(t).scale(1 / lam))),
        lambda n, k: lam**n if n == k else Fraction(0),
    )


def _spec_falling() -> _Spec:
    return (
        lambda t: validate_delta(shift_by(1, t) - 1),
        lambda n, k: Fraction((-1) ** (n - k) * stirling1_unsigned(n, k)),
    )


def _spec_rising() -> _Spec:
    return (
        lambda t: validate_delta(1 - shift_by(-1, t)),
        lambda n, k: Fraction(stirling1_unsigned(n, k)),
    )


def _spec_divided_difference(h: Fraction) -> _Spec:
    if h == 0:
        return _spec_derivative()
    return (
        lambda t: validate_delta((shift_by(h, t) - 1) * (1 / h)),
        lambda n, k: (-1) ** (n - k) * stirling1_unsigned(n, k) * h ** (n - k),
    )


def _spec_touchard() -> _Spec:
    from .fps import log1p

    return (
        lambda t: validate_delta(ShiftOp(log1p(t))),
        lambda n, k: Fraction(stirling2(n, k)),
    )


def _spec_abel(a: Fraction) -> _Spec:
    def form(n: int, k: int) -> Fraction:
        if n == 0:
            return Fraction(1 if k == 0 else 0)
        if k < 1 or k > n:
            return Fraction(0)
        return comb(n - 1, k - 1) * (-a * n) ** (n - k)

    return (
        lambda t: validate_delta(ShiftOp(x_series(t) * exp_series(x_series(t).scale(a)))),
        form,
    )


def _spec_catalan() -> _Spec:
    def form(n: int, k: int) -> Fraction:
        if n == 0:
            return Fraction(1 if k == 0 else 0)
        if k < 1 or k > n:
            return Fraction(0)
        return Fraction(comb(2 * n - k - 1, n - 1) * factorial(n - 1), factorial(k - 1))

    return (
        lambda t: validate_delta(ShiftOp(series([0, 1, -1], t))),
        form,
    )


def _spec_laguerre() -> _Spec:
    return (
        lambda t: validate_delta(ShiftOp(mul_inv(series([1, -1], t)).shift_up(1).truncate(t))),
        lambda n, k: Fraction((-1) ** (n - k) * lah(n, k)),
    )


def _degenerate_base(p: int, t: int) -> Series:
    """1 - p x^p through x^t; no zero past x^t is built, so the cost is that of t, not of p."""
    return series([1] + [0] * (p - 1) + [-p] if p <= t else [1], t)


def _spec_degenerate_laguerre(p: int) -> _Spec:
    if p < 1:
        raise UnknownFamily("degenerate Laguerre needs integer p >= 1")

    def build(t: int) -> DeltaOp:
        base = _degenerate_base(p, t)
        return validate_delta(ShiftOp((x_series(t) * pow_rat(base, Fraction(-1, p))).truncate(t)))

    def form(n: int, k: int) -> Fraction:
        """binom(n/p - 1, j) n!/k! (-p)^j with j = (n - k)/p, on integers:
        (-1)^j n!/(k! j!) (n - p)(n - 2p)...(n - jp), where n - jp = k."""
        if (n - k) % p != 0 or k < 0 or k > n:
            return Fraction(0)
        j = (n - k) // p
        top = factorial(n) // (factorial(k) * factorial(j))  # an integer: k + j <= n
        return Fraction((-1) ** j * top * prod(range(n - p, k - 1, -p)))

    return build, form


_SPEC_FACTORIES: dict[str, Callable[..., _Spec]] = {
    "derivative": _spec_derivative,
    "stretch": _spec_stretch,
    "falling": _spec_falling,
    "rising": _spec_rising,
    "divided_difference": _spec_divided_difference,
    "touchard": _spec_touchard,
    "abel": _spec_abel,
    "catalan": _spec_catalan,
    "laguerre": _spec_laguerre,
    "degenerate_laguerre": _spec_degenerate_laguerre,
}

FAMILY_NAMES = tuple(_SPEC_FACTORIES)


def family(name: str, **params: RatLike) -> FamilySpec:
    """Look up a family by name; parameters are exact rationals."""
    if name not in _SPEC_FACTORIES:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    make_spec = _SPEC_FACTORIES[name]
    code = make_spec.__code__
    accepted = code.co_varnames[: code.co_argcount]
    missing = [key for key in accepted if key not in params]
    unknown = [key for key in params if key not in accepted]
    if missing or unknown:
        kind, key = ("missing", missing[0]) if missing else ("unknown", unknown[0])
        accepts = ", ".join(accepted) or "none"
        raise UnknownFamily(
            f"bad parameters for family {name!r}: {kind} parameter {key!r} (accepted: {accepts})"
        )
    coerced = {}
    for key, value in params.items():
        try:
            coerced[key] = int(value) if key == "p" else rat(value)
        except (ValueError, ZeroDivisionError):
            msg = f"bad value {value!r} for parameter {key!r} of family {name!r}"
            raise UnknownFamily(msg) from None
    return FamilySpec(name, coerced, *make_spec(**coerced))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


class IdentityResult(Record):
    __slots__ = ("family", "identity", "params", "counterexample")
    family: str
    identity: str
    params: dict
    counterexample: dict | None

    def __init__(self, family: str, identity: str, params: dict, counterexample: dict | None = None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


class Report(Record):
    __slots__ = ("results",)
    results: list[IdentityResult]

    def __init__(self, results: list[IdentityResult] | None = None):
        object.__setattr__(self, "results", [] if results is None else results)

    def record(self, family_name: str, identity: str, params: dict, counterexample):
        self.results.append(IdentityResult(family_name, identity, params, counterexample))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _combination_point(lhs: tuple[list[int], int], table, weights, m: int) -> Fraction | None:
    """First x in {0, 1/2, ..., (m+1)/2} with lhs(x) != sum_k weights[k] table[k](x), or None;
    lhs and the table rows are ``half_grid`` values, compared on integers."""
    (v, dv), (w, dw) = lhs, scaled([Fraction(c, d) for c, (_, d) in zip(weights, table)])
    for i in range(m + 2):
        if v[i] * dw != dv * sum(wk * table[k][0][i] for k, wk in enumerate(w)):
            return Fraction(i, 2)
    return None


def _closed_triangle(spec: FamilySpec, n: int) -> Triangle:
    return triangle([[spec.closed_form(m, k) for k in range(m + 1)] for m in range(n + 1)])


def _check_routes(spec: FamilySpec, n: int):
    """All five construction routes and the closed form must agree."""
    try:
        base = basic_all_routes(spec.delta(n + 2), n).tri
    except RouteDisagreement as exc:
        return {"route": exc.routes[1], "against": exc.routes[0]}
    if base != _closed_triangle(spec, n):
        return {"route": "closed_form"}
    return None


def _check_binomial(spec: FamilySpec, n: int):
    return None if is_binomial_type(spec.basic(n).tri) else {"n": n}


def _grid_point(hit: tuple[int, Fraction, Fraction] | None) -> dict | None:
    """The counterexample of a failed ``binomial_grid``."""
    return None if hit is None else {"n": hit[0], "x": str(hit[1]), "y": str(hit[2])}


def _check_chu_vandermonde(spec: FamilySpec, n: int):
    phi = spec.basic(n)
    rows = [phi.tri.row_poly(m) for m in range(n + 1)]
    return _grid_point(binomial_grid(rows, rows, rows, n))


def _check_stirling_recurrences(spec: FamilySpec, n: int):
    for m in range(n + 1):
        for k in range(m + 2):
            if stirling1_unsigned(m + 1, k) != m * stirling1_unsigned(m, k) + stirling1_unsigned(m, k - 1):
                return {"kind": 1, "n": m, "k": k}
            if stirling2(m + 1, k) != k * stirling2(m, k) + stirling2(m, k - 1):
                return {"kind": 2, "n": m, "k": k}
    # operator forms phi X = X phi (1+D)^{-1} and phi^{-1} X = X (1+D) phi^{-1}, on the scaled rows
    # f of phi (falling) and g of phi^{-1} (Touchard); (1+D)^{-1} x^m = sum_j (-1)^(m-j) m!/j! x^j
    f, _ = scaled_rows(family("falling").basic(n + 1).tri.rows)
    g, _ = scaled_rows(family("touchard").basic(n + 1).tri.rows)
    for m in range(n + 1):
        w = [(-1) ** (m - j) * perm(m, m - j) for j in range(m + 1)]
        if f[m + 1] != [0] + [sum(wj * f[j][i] for j, wj in enumerate(w)) for i in range(n + 1)]:
            return {"kind": "operator-phi", "m": m}
        if g[m + 1] != [0] + [g[m][i] + (i + 1) * g[m][i + 1] for i in range(n + 1)]:
            return {"kind": "operator-phi-inverse", "m": m}
    return None


def _check_gen_bernoulli(spec: FamilySpec, n: int):
    egf = mul_inv(series([Fraction(1, factorial(j + 1)) for j in range(n + 1)], n))  # t/(e^t-1)
    for m in range(1, n + 1):
        direct = egf**m
        for k in range(m):
            expected = Fraction((-1) ** k * stirling1_unsigned(m, m - k), comb(m - 1, k))
            if direct[k] * factorial(k) != expected:
                return {"n": m, "k": k}
    return None


def _check_special_class(spec: FamilySpec, n: int):
    T = n + 3
    name = spec.name
    if name == "falling":
        U, V = ShiftOp(series([1], T)), shift_by(-1, T)
    elif name == "divided_difference":
        h = spec.params["h"]
        U, V = ShiftOp(series([1], T)), shift_by(-h, T)
    elif name == "laguerre":
        U = V = ShiftOp(series([1, -1], T))
    elif name == "touchard":
        U, V = ShiftOp(series([1, 1], T)), ShiftOp(series([1], T))
    elif name == "catalan":
        U, V = ShiftOp(series([1, -2], T)), ShiftOp(mul_inv(series([1, -2], T)) ** 2)
    else:
        return None
    phi = spec.basic(n)
    for m in range(1, min(n, 4) + 1):
        if not special_class_check(phi, U, V, m):
            return {"n": m}
    return None


def _check_catalan_inverse_class(spec: FamilySpec, n: int):
    T = n + 3
    Q = spec.delta(T)
    from .operators import bracket_iterate

    cinv = basic_transfer(bracket_iterate(Q, -1), n)
    U = ShiftOp(series([1, -4], T))
    V = ShiftOp(pow_rat(series([1, -4], T), Fraction(-1, 2)))
    for m in range(1, min(n, 4) + 1):
        if not special_class_check(cinv, U, V, m):
            return {"n": m}
    return None


def _check_catalan_bell(spec: FamilySpec, n: int):
    from .bell import partial_bell

    catalans = [comb(2 * j, j) // (j + 1) for j in range(n + 1)]
    args = [factorial(j) * catalans[j - 1] for j in range(1, n + 1)]
    tri = spec.basic(n).tri
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            expected = Fraction(factorial(m - 1), factorial(k - 1)) * comb(2 * m - k - 1, m - 1)
            b = partial_bell(m, k, args)
            if b != expected or tri.entry(m, k) != expected:
                return {"n": m, "k": k}
    return None


def _check_catalan_numbers(spec: FamilySpec, n: int):
    Q = spec.delta(n + 2)
    inv = comp_inv(Q.indicator)
    root = (1 - pow_rat(series([1, -4], n + 2), Fraction(1, 2))) / 2
    catalans = [comb(2 * j, j) // (j + 1) for j in range(n + 2)]
    for m in range(1, n + 1):
        if inv[m] != catalans[m - 1] or root[m] != catalans[m - 1]:
            return {"n": m}
    return None


def _check_spivey(spec: FamilySpec, n: int):
    """phi x^(n+m) = sum_k S(n,k) x^k phi (x+k)^m, on the rows e of the triangle
    scaled once: phi (x+k)^m = sum_j C(m,j) k^(m-j) e[j] is an integer combination."""
    e, _ = scaled_rows(spec.basic(n).tri.rows)

    def shifted(m: int, k: int) -> list[int]:
        """phi (x+k)^m through x^m."""
        terms = [comb(m, j) * k ** (m - j) for j in range(m + 1)]
        return [sum(t * e[j][i] for j, t in enumerate(terms[i:], i)) for i in range(m + 1)]

    table = [[shifted(m, k) for k in range(n + 1 - m)] for m in range(n + 1)]
    for nn in range(n + 1):
        for m in range(n + 1 - nn):
            rhs = [0] * (nn + m + 1)
            for k in range(nn + 1):
                s = stirling2(nn, k)
                if s:
                    seg = rhs[k : k + m + 1]
                    rhs[k : k + m + 1] = map(add, seg, map(mul, repeat(s), table[m][k]))
            if e[nn + m][: nn + m + 1] != rhs:
                return {"form": "operator", "n": nn, "m": m}
            # Bell-number corollary at x = 1
            bell_lhs = bell_number(nn + m)
            bell_rhs = sum(
                stirling2(nn, k)
                * sum(comb(m, j) * k ** (m - j) * bell_number(j) for j in range(m + 1))
                for k in range(nn + 1)
            )
            if bell_lhs != bell_rhs:
                return {"form": "bell", "n": nn, "m": m}
    return None


def _check_dobinski(spec: FamilySpec, n: int):
    for nn in range(n + 1):
        for m in range(nn + 1):
            lhs = sum(
                Fraction((-1) ** (m - j) * comb(m, j) * j**nn, factorial(m)) for j in range(m + 1)
            )
            if lhs != stirling2(nn, m):
                return {"n": nn, "m": m}
    return None


def _check_touchard_recurrence(spec: FamilySpec, n: int):
    """T_{m+1} = x sum_k C(m,k) T_k, on the scaled rows."""
    e, _ = scaled_rows(spec.basic(n + 1).tri.rows)
    for m in range(n + 1):
        if e[m + 1] != [0] + [sum(comb(m, k) * e[k][i] for k in range(m + 1)) for i in range(n + 1)]:
            return {"n": m}
    return None


def _check_erdelyi(spec: FamilySpec, n: int):
    lag = spec.basic(n)
    rows = [lag.tri.row_poly(k).coeffs for k in range(n + 1)]
    at = half_grid(rows, n)
    inv = tri_invert(lag.tri)
    for lam in (Fraction(2), Fraction(1, 2), Fraction(-1)):
        stretch_tri = _closed_triangle(family("stretch", lam=lam), n)
        conn = tri_compose(inv, tri_compose(stretch_tri, lag.tri))  # the connection constants
        # L_m(lam x), tabulated as the polynomial with coefficients c_j lam^j
        stretched = half_grid([[c * lam**j for j, c in enumerate(p)] for p in rows], n)
        for m in range(n + 1):
            coef = [lah(m, k) * lam**k * (lam - 1) ** (m - k) for k in range(m + 1)]
            for k in range(m + 1):
                if conn.entry(m, k) != coef[k]:
                    return {"lam": str(lam), "n": m, "k": k}
            # grid form: L_m(lam x) = sum_k Lah(m,k) lam^k (lam-1)^{m-k} L_k(x)
            x = _combination_point(stretched[m], at, coef, m)
            if x is not None:
                return {"lam": str(lam), "n": m, "x": str(x)}
    return None


def _check_laguerre_involution(spec: FamilySpec, n: int):
    lag = spec.basic(n)
    ln = triangle(
        [[(-1) ** m * lag.tri.entry(m, k) for k in range(m + 1)] for m in range(n + 1)]
    )
    if tri_compose(ln, ln) != tri_identity(n):
        return {"n": n}
    return None


def _check_lah_connection(spec: FamilySpec, n: int):
    lag = spec.basic(n)
    rising = family("rising").basic(n)
    falling = family("falling").basic(n)
    if tri_compose(rising.tri, lag.tri) != falling.tri:
        return {"n": n}
    # Lah's original identity on a grid
    at_falling = half_grid([falling.tri.row_poly(m).coeffs for m in range(n + 1)], n)
    at_rising = half_grid([rising.tri.row_poly(k).coeffs for k in range(n + 1)], n)
    for m in range(n + 1):
        coef = [lah(m, k) * (-1) ** (m - k) for k in range(m + 1)]
        x = _combination_point(at_falling[m], at_rising, coef, m)
        if x is not None:
            return {"n": m, "x": str(x)}
    return None


def _check_laguerre_powers(spec: FamilySpec, n: int):
    lag = spec.basic(n)
    tri_r = tri_identity(n)
    for r in (1, 2, 3):
        tri_r = tri_compose(tri_r, lag.tri)
        for m in range(n + 1):
            for k in range(m + 1):
                if tri_r.entry(m, k) != lah(m, k) * Fraction(-r) ** (m - k):
                    return {"r": r, "n": m, "k": k}
    return None


def _abel_polys(a: Fraction, n: int) -> list[Poly]:
    """The Abel polynomials x (x - ak)^(k-1) for k = 0..n."""
    return [poly([1])] + [poly([0, 1]) * poly([-a * k, 1]) ** (k - 1) for k in range(1, n + 1)]


def _check_abel_identity(spec: FamilySpec, n: int):
    abel = _abel_polys(spec.params["a"], n)
    return _grid_point(binomial_grid(abel, abel, abel, n))


def _check_smooth_abel(spec: FamilySpec, n: int):
    a = spec.params["a"]
    # Sheffer route: smooth Abel operator is (1+aD)^{-1} applied to the basic set
    rows = sheffer(ShiftOp(mul_inv(series([1, a], n + 3))), spec.basic(n)).rows
    smooth = [poly([-a * m, 1]) ** m for m in range(n + 1)]  # (x - am)^m
    hit = binomial_grid(smooth, _abel_polys(a, n), smooth, n)
    # at each degree the Sheffer form is reported before the grid form
    for m in range(n + 1 if hit is None else hit[0] + 1):
        if rows[m] != smooth[m].coeffs:
            return {"form": "sheffer", "n": m}
    return None if hit is None else {"form": "grid", **_grid_point(hit)}


def _check_abel_inverse(spec: FamilySpec, n: int):
    a = spec.params["a"]
    if a == 0:
        return None
    stretch = family("stretch", lam=a)
    stretch_basic = UmbralOp(_closed_triangle(stretch, n), stretch.delta(n + 2))
    nie = niederhausen(stretch_basic)
    if nie.tri != tri_invert(spec.basic(n).tri):
        return {"n": n}
    if n == 0:  # the delta has no coefficient to compare
        return None
    expected = x_series(n) * exp_series(x_series(n).scale(a))
    inv_ind = comp_inv(nie.delta.indicator)
    for m in range(min(n, inv_ind.trunc) + 1):
        if inv_ind[m] != expected[m]:
            return {"form": "delta", "n": m}
    return None


def _check_conjugation(spec: FamilySpec, n: int):
    h = spec.params["h"]
    phi_h = spec.basic(n).tri
    falling = family("falling").basic(n).tri
    for m in range(n + 1):
        for k in range(m + 1):
            if phi_h.entry(m, k) != falling.entry(m, k) * h ** (m - k):
                return {"n": m, "k": k}
    return None


def _check_degenerate_ode(spec: FamilySpec, n: int):
    """p x f^(p+1) + alpha p^2 f^(p) - x f' + m f = 0 for row m of each cross sequence: on a
    scaled row f, the coefficient of x^j is (p j + alpha p^2) (j+p)!/j! f_{j+p} + (m - j) f_j,
    times alpha's denominator b; f_{j+p} = 0 past the row."""
    p = spec.params["p"]
    phi, base = spec.basic(n), ShiftOp(_degenerate_base(p, n + 3))
    for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)):
        a, b = alpha.numerator, alpha.denominator
        rows, _ = scaled_rows(cross(base, alpha, phi).rows)
        for m, f in enumerate(rows):
            lhs = [b * (m - j) * f[j] for j in range(m + 1)]
            for j in range(m + 1 - p):
                lhs[j] += (p * j * b + a * p * p) * perm(j + p, p) * f[j + p]
            if any(lhs):
                return {"p": p, "alpha": str(alpha), "n": m}
    return None


def _check_degenerate_cross(spec: FamilySpec, n: int):
    p = spec.params["p"]
    phi, base = spec.basic(n), ShiftOp(_degenerate_base(p, n + 3))
    exps = (Fraction(0), Fraction(1), Fraction(-1, 2))
    tables = {}
    for w in {u + v for u in exps for v in exps}:
        sh = cross(base, w, phi)
        tables[w] = half_grid([sh.row_poly(m).coeffs for m in range(n + 1)], n)
    for u in exps:
        for v in exps:
            hit = binomial_scan(tables[u + v], tables[u], tables[v], n)
            if hit is not None:
                return {"u": str(u), "v": str(v), "n": hit[0]}
    return None


def _check_degenerate_closed_form(spec: FamilySpec, n: int):
    tri = spec.basic(n).tri
    if tri != _closed_triangle(spec, n):
        return {"n": n}
    return None


_FAMILY_IDENTITIES: dict[str, list[tuple[str, Callable[[FamilySpec, int], dict | None], int]]] = {
    "derivative": [],
    "stretch": [],
    "falling": [
        ("chu_vandermonde", _check_chu_vandermonde, 8),
        ("stirling_recurrences", _check_stirling_recurrences, 10),
        ("gen_bernoulli", _check_gen_bernoulli, 8),
        ("special_class", _check_special_class, 8),
    ],
    "rising": [],
    "divided_difference": [
        ("conjugation", _check_conjugation, 10),
        ("special_class", _check_special_class, 8),
    ],
    "touchard": [
        ("spivey", _check_spivey, 10),
        ("dobinski", _check_dobinski, 10),
        ("touchard_recurrence", _check_touchard_recurrence, 10),
        ("special_class", _check_special_class, 8),
    ],
    "abel": [
        ("abel_identity", _check_abel_identity, 8),
        ("smooth_abel", _check_smooth_abel, 8),
        ("abel_inverse_niederhausen", _check_abel_inverse, 8),
    ],
    "catalan": [
        ("catalan_bell", _check_catalan_bell, 8),
        ("catalan_numbers", _check_catalan_numbers, 10),
        ("special_class", _check_special_class, 8),
        ("special_class_inverse", _check_catalan_inverse_class, 8),
    ],
    "laguerre": [
        ("erdelyi", _check_erdelyi, 8),
        ("laguerre_commutation", _check_special_class, 8),
        ("laguerre_involution", _check_laguerre_involution, 8),
        ("lah_connection", _check_lah_connection, 8),
        ("laguerre_powers", _check_laguerre_powers, 8),
    ],
    "degenerate_laguerre": [
        ("degenerate_closed_form", _check_degenerate_closed_form, 8),
        ("degenerate_laguerre_ode", _check_degenerate_ode, 8),
        ("degenerate_cross", _check_degenerate_cross, 6),
    ],
}


def _check_transform_roundtrip(spec: FamilySpec, n: int, rng) -> dict | None:
    """Both dual inversion transforms on random rational sequences.

    The row transform of a triangle is its matrix, the column transform its
    transpose; with both triangles scaled once to a / D_a and b / D_b, the round
    trip b (a s) = s is the integer test b (a S) = D_a D_b S."""
    tri = spec.basic(n).tri
    (a, da), (b, db) = scaled_rows(tri.rows), scaled_rows(tri_invert(tri).rows)
    mats = {"row": (a, b), "column": ([*zip(*a)], [*zip(*b)])}
    for trial in range(5):
        seq = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n + 1)]
        s, _ = scaled(seq)
        target = [da * db * v for v in s]
        for mode, (fwd, back) in mats.items():
            if _apply(back, _apply(fwd, s)) != target:
                return {"mode": mode, "trial": trial}
            if _apply(fwd, _apply(back, s)) != target:
                return {"mode": mode, "trial": trial, "orientation": "inverse-first"}
    return None


def _apply(rows, v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in rows]


def identity_check(
    name: str, n: int = 10, report: Report | None = None, seed: int = 0, **params
) -> Report:
    """Run every identity of a family at depth min(n, its row's cap), the three rows
    here and then the family's rows of ``_FAMILY_IDENTITIES``; exact pass/fail each."""
    import random

    spec = family(name, **params)
    report = report if report is not None else Report()
    rows = [
        ("five_routes", _check_routes, 10),
        ("binomial_type", _check_binomial, 8),
        ("transform_roundtrip", partial(_check_transform_roundtrip, rng=random.Random(seed)), 10),
    ]
    for identity, check, depth in rows + _FAMILY_IDENTITIES[spec.name]:
        report.record(spec.name, identity, spec.params, check(spec, min(n, depth)))
    return report


DEFAULT_CHECK_SET: tuple[tuple[str, dict], ...] = (
    ("derivative", {}),
    ("stretch", {"lam": Fraction(2)}),
    ("stretch", {"lam": Fraction(3)}),
    ("falling", {}),
    ("rising", {}),
    ("divided_difference", {"h": Fraction(1, 2)}),
    ("touchard", {}),
    ("abel", {"a": Fraction(1)}),
    ("catalan", {}),
    ("laguerre", {}),
    ("degenerate_laguerre", {"p": 1}),
    ("degenerate_laguerre", {"p": 2}),
    ("degenerate_laguerre", {"p": 3}),
)


def check_all(n: int = 10, seed: int = 0) -> Report:
    """The CI entry point: every family in the default set, deterministic order."""
    report = Report()
    for name, params in DEFAULT_CHECK_SET:
        identity_check(name, n=n, report=report, seed=seed, **params)
    return report

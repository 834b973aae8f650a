"""Named basic-set families and their family-specific identity checks.

Each family knows how to build its delta operator at any truncation and,
where the literature provides one, the closed form of its coefficient
triangle.  ``identity_check`` runs the family's special identities as exact
assertions and returns a machine-readable report; ``check_all`` is the
regression entry point used by the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul
from typing import Callable

from ._kernel import scaled, scaled_rows
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
    RowForm,
    Triangle,
    basic_from_inverse_series,
    basic_set,
    binomial_convolution,
    cross,
    delta_of,
    is_binomial_type,
    niederhausen,
    sheffer,
    special_class_check,
    tri_compose,
    tri_from_form,
    tri_identity,
    tri_invert,
    triangle,
)

# ---------------------------------------------------------------------------
# Stirling/Lah numbers
# ---------------------------------------------------------------------------


def stirling_rows(n: int, first_kind: bool) -> list[list[int]]:
    """Rows 0..n of the unsigned Stirling numbers of the first kind, c(m, k) = (m-1) c(m-1, k) +
    c(m-1, k-1), or of the second kind, S(m, k) = k S(m-1, k) + S(m-1, k-1), built per call."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([(m - 1 if first_kind else k) * prev[k] + (prev[k - 1] if k else 0) for k in range(m + 1)])
    return rows


def lah(n: int, k: int) -> int:
    """Unsigned Lah numbers C(n-1, k-1) n!/k! (Lah(0,0) = 1)."""
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------


class FamilySpec(Record):
    __slots__ = ("name", "params", "delta", "closed_form")
    name: str
    params: dict
    delta: Callable[[int], DeltaOp]
    closed_form: Callable[[int], RowForm]

    def __init__(
        self, name: str, params: dict, delta: Callable[[int], DeltaOp], closed_form: Callable[[int], RowForm]
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "closed_form", closed_form)

    def basic(self, n: int) -> Triangle:
        """The set that ``check``'s identities test, by the transfer route: Touchard's
        operator form g_{m+1} = x (1 + D) g_m is the recurrence route's own step."""
        return basic_set(self.delta(n + 2), n, "transfer")


# what a family's factory knows: its delta builder and the closed form of its triangle, rows
# 0..n as integers over one denominator per row (1 but for stretch, divided_difference, abel)
_Spec = tuple[Callable[[int], DeltaOp], Callable[[int], RowForm]]


def _integer(rows: list[list[int]]) -> RowForm:
    return rows, [1] * len(rows)


def _signed(rows: list[list[int]]) -> list[list[int]]:
    """Entry (m, k) times (-1)^(m-k)."""
    return [[-c if (m - k) % 2 else c for k, c in enumerate(row)] for m, row in enumerate(rows)]


def _times_powers(rows: list[list[int]], u: int, v: int) -> RowForm:
    """Entry (m, k) times (u/v)^(m-k), as u^(m-k) v^k over v^m."""
    us, vs = [u**j for j in range(len(rows))], [v**j for j in range(len(rows))]
    return [[c * us[m - k] * vs[k] for k, c in enumerate(row)] for m, row in enumerate(rows)], vs


def _spec_derivative() -> _Spec:
    return (
        lambda t: validate_delta(ShiftOp(x_series(t))),
        lambda n: _integer([[0] * m + [1] for m in range(n + 1)]),
    )


def _spec_stretch(lam: Fraction) -> _Spec:
    if lam == 0:
        raise UnknownFamily("stretch parameter must be nonzero")
    u, v = lam.numerator, lam.denominator
    return (
        lambda t: validate_delta(ShiftOp(x_series(t).scale(1 / lam))),
        lambda n: ([[0] * m + [u**m] for m in range(n + 1)], [v**m for m in range(n + 1)]),
    )


def _spec_falling() -> _Spec:
    return (
        lambda t: validate_delta(shift_by(1, t) - 1),
        lambda n: _integer(_signed(stirling_rows(n, True))),
    )


def _spec_rising() -> _Spec:
    return (
        lambda t: validate_delta(1 - shift_by(-1, t)),
        lambda n: _integer(stirling_rows(n, True)),
    )


def _spec_divided_difference(h: Fraction) -> _Spec:
    if h == 0:
        return _spec_derivative()
    return (
        lambda t: validate_delta((shift_by(h, t) - 1) * (1 / h)),
        lambda n: _times_powers(stirling_rows(n, True), -h.numerator, h.denominator),  # times (-h)^(m-k)
    )


def _spec_touchard() -> _Spec:
    from .fps import log1p

    return (
        lambda t: validate_delta(ShiftOp(log1p(t))),
        lambda n: _integer(stirling_rows(n, False)),
    )


def _spec_abel(a: Fraction) -> _Spec:
    def form(n: int) -> RowForm:
        """C(m-1, k-1) (-a m)^(m-k), as C(m-1, k-1) m^(m-k) times (-a)^(m-k); row 0 is 1."""
        rows = [[0] + [comb(m - 1, k - 1) * m ** (m - k) for k in range(1, m + 1)] for m in range(1, n + 1)]
        return _times_powers([[1]] + rows, -a.numerator, a.denominator)

    return (
        lambda t: validate_delta(ShiftOp(x_series(t) * exp_series(x_series(t).scale(a)))),
        form,
    )


def _spec_catalan() -> _Spec:
    def form(n: int) -> RowForm:
        """C(2m-k-1, m-1) (m-1)!/(k-1)!, where (m-1)!/(k-1)! = perm(m-1, m-k); row 0 is 1."""
        rows = [[1]]
        for m in range(1, n + 1):
            rows.append([0] + [comb(2 * m - k - 1, m - 1) * perm(m - 1, m - k) for k in range(1, m + 1)])
        return _integer(rows)

    return (
        lambda t: validate_delta(ShiftOp(series([0, 1, -1], t))),
        form,
    )


def _spec_laguerre() -> _Spec:
    return (
        lambda t: validate_delta(ShiftOp(mul_inv(series([1, -1], t)).shift_up(1).truncate(t))),
        lambda n: _integer(_signed([[lah(m, k) for k in range(m + 1)] for m in range(n + 1)])),
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

    def entry(m: int, k: int) -> int:
        """binom(m/p - 1, j) m!/k! (-p)^j with j = (m - k)/p, on integers:
        (-1)^j m!/(k! j!) (m - p)(m - 2p)...(m - jp), where m - jp = k."""
        if (m - k) % p:
            return 0
        j = (m - k) // p
        top = factorial(m) // (factorial(k) * factorial(j))  # an integer: k + j <= m
        return (-1) ** j * top * prod(range(m - p, k - 1, -p))

    return build, lambda n: _integer([[entry(m, k) for k in range(m + 1)] for m in range(n + 1)])


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


def family(name: str, /, **params: RatLike) -> FamilySpec:
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
            if key != "p":
                coerced[key] = rat(value)
            elif isinstance(value, str) or rat(value).denominator == 1:  # int() refuses "5/2", "2.0"
                coerced[key] = int(value)
            else:
                raise ValueError
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


def _basic(sets: dict, spec: FamilySpec, n: int) -> Triangle:
    """spec's basic set through row n from ``sets``, the basic sets of one check request,
    built there by ``FamilySpec.basic`` on a miss; the key holds the coerced params, so
    lam=2 and lam=Fraction(2) find one set."""
    key = (spec.name, tuple(sorted(spec.params.items())), n)
    phi = sets.get(key)
    if phi is None:
        phi = sets[key] = spec.basic(n)
    return phi


def _form(tri: Triangle) -> RowForm:
    """The triangle form of tri that ``sheffer`` and ``cross`` read: each row over the lcm of
    its denominators."""
    pairs = [scaled(row) for row in tri.rows]
    return [nums for nums, _ in pairs], [den for _, den in pairs]


def _check_routes(spec: FamilySpec, n: int, sets: dict):
    """All five construction routes and the closed form must agree.  The routes never read
    ``sets``: they stay independent of the basic set that the other identities share."""
    try:
        base = basic_set(spec.delta(n + 2), n)
    except RouteDisagreement as exc:
        return {"route": exc.routes[1], "against": exc.routes[0]}
    if base != tri_from_form(spec.closed_form(n)):
        return {"route": "closed_form"}
    return None


def _check_binomial(spec: FamilySpec, n: int, sets: dict):
    return None if is_binomial_type(_basic(sets, spec, n)) else {"n": n}


def _check_chu_vandermonde(spec: FamilySpec, n: int, sets: dict):
    """p_m(x+y) = sum_k C(m,k) p_k(x) p_{m-k}(y) at every (i, j) of the column EGFs, where
    ``_check_binomial`` tests j = 1 and reaches the rest by induction."""
    rows = _basic(sets, spec, n).rows
    m = binomial_convolution(rows, rows, rows)
    return None if m is None else {"n": m}


def _check_stirling_recurrences(spec: FamilySpec, n: int, sets: dict):
    # operator forms phi X = X phi (1+D)^{-1} and phi^{-1} X = X (1+D) phi^{-1}, on the scaled rows
    # f of phi (falling) and g of phi^{-1} (Touchard); (1+D)^{-1} x^m = sum_j (-1)^(m-j) m!/j! x^j.
    # The Stirling rows' own recurrences are how stirling_rows builds them, so five_routes and
    # triangle's closed-form check test those rows.
    f, _ = scaled_rows(_basic(sets, family("falling"), n + 1).rows)
    g, _ = scaled_rows(_basic(sets, family("touchard"), n + 1).rows)
    for m in range(n + 1):
        w = [(-1) ** (m - j) * perm(m, m - j) for j in range(m + 1)]
        if f[m + 1] != [0] + [sum(wj * f[j][i] for j, wj in enumerate(w)) for i in range(n + 1)]:
            return {"kind": "operator-phi", "m": m}
        if g[m + 1] != [0] + [g[m][i] + (i + 1) * g[m][i + 1] for i in range(n + 1)]:
            return {"kind": "operator-phi-inverse", "m": m}
    return None


def _check_gen_bernoulli(spec: FamilySpec, n: int, sets: dict):
    egf = mul_inv(series([Fraction(1, factorial(j + 1)) for j in range(n + 1)], n))  # t/(e^t-1)
    s1 = stirling_rows(n, True)
    for m in range(1, n + 1):
        direct = egf**m
        for k in range(m):
            expected = Fraction((-1) ** k * s1[m][m - k], comb(m - 1, k))
            if direct[k] * factorial(k) != expected:
                return {"n": m, "k": k}
    return None


def _check_special_class(spec: FamilySpec, n: int, sets: dict):
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
    phi = _basic(sets, spec, n)
    for m in range(1, min(n, 4) + 1):
        if not special_class_check(phi, U, V, m):
            return {"n": m}
    return None


def _check_catalan_inverse_class(spec: FamilySpec, n: int, sets: dict):
    T = n + 3
    Q = spec.delta(T)
    from .operators import bracket_iterate

    cinv = basic_set(bracket_iterate(Q, -1), n, "transfer")
    U = ShiftOp(series([1, -4], T))
    V = ShiftOp(pow_rat(series([1, -4], T), Fraction(-1, 2)))
    for m in range(1, min(n, 4) + 1):
        if not special_class_check(cinv, U, V, m):
            return {"n": m}
    return None


def _check_catalan_bell(spec: FamilySpec, n: int, sets: dict):
    """Entry (m, k) of the basic set and the partial Bell polynomial B_(m,k)(a) with
    a_j = j! C_(j-1), read from the Bell triangle whose column-1 EGF is sum_j C_(j-1) x^j,
    are both (m-1)!/(k-1)! C(2m-k-1, m-1); that series is read through x^1 at least."""
    t = max(n, 1)
    catalans = [comb(2 * j, j) // (j + 1) for j in range(t)]
    tri, table = _basic(sets, spec, n), basic_from_inverse_series(series([0] + catalans, t), n)
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            expected = Fraction(factorial(m - 1), factorial(k - 1)) * comb(2 * m - k - 1, m - 1)
            if table.entry(m, k) != expected or tri.entry(m, k) != expected:
                return {"n": m, "k": k}
    return None


def _check_catalan_numbers(spec: FamilySpec, n: int, sets: dict):
    Q = spec.delta(n + 2)
    inv = comp_inv(Q.indicator)
    root = (1 - pow_rat(series([1, -4], n + 2), Fraction(1, 2))) / 2
    catalans = [comb(2 * j, j) // (j + 1) for j in range(n + 2)]
    for m in range(1, n + 1):
        if inv[m] != catalans[m - 1] or root[m] != catalans[m - 1]:
            return {"n": m}
    return None


def _check_spivey(spec: FamilySpec, n: int, sets: dict):
    """phi x^(n+m) = sum_k S(n,k) x^k phi (x+k)^m, on the rows e of the triangle
    scaled once: phi (x+k)^m = sum_j C(m,j) k^(m-j) e[j] is an integer combination."""
    e, _ = scaled_rows(_basic(sets, spec, n).rows)

    def shifted(m: int, k: int) -> list[int]:
        """phi (x+k)^m through x^m."""
        terms = [comb(m, j) * k ** (m - j) for j in range(m + 1)]
        return [sum(t * e[j][i] for j, t in enumerate(terms[i:], i)) for i in range(m + 1)]

    table = [[shifted(m, k) for k in range(n + 1 - m)] for m in range(n + 1)]
    s2 = stirling_rows(n, False)
    bell = [sum(row) for row in s2]
    for nn in range(n + 1):
        for m in range(n + 1 - nn):
            rhs = [0] * (nn + m + 1)
            for k, s in enumerate(s2[nn]):
                if s:
                    seg = rhs[k : k + m + 1]
                    rhs[k : k + m + 1] = map(add, seg, map(mul, repeat(s), table[m][k]))
            if e[nn + m][: nn + m + 1] != rhs:
                return {"form": "operator", "n": nn, "m": m}
            # Bell-number corollary at x = 1
            bell_rhs = sum(
                s * sum(comb(m, j) * k ** (m - j) * bell[j] for j in range(m + 1))
                for k, s in enumerate(s2[nn])
            )
            if bell[nn + m] != bell_rhs:
                return {"form": "bell", "n": nn, "m": m}
    return None


def _check_dobinski(spec: FamilySpec, n: int, sets: dict):
    s2 = stirling_rows(n, False)
    for nn in range(n + 1):
        for m in range(nn + 1):
            lhs = sum(
                Fraction((-1) ** (m - j) * comb(m, j) * j**nn, factorial(m)) for j in range(m + 1)
            )
            if lhs != s2[nn][m]:
                return {"n": nn, "m": m}
    return None


def _check_touchard_recurrence(spec: FamilySpec, n: int, sets: dict):
    """T_{m+1} = x sum_k C(m,k) T_k, on the scaled rows."""
    e, _ = scaled_rows(_basic(sets, spec, n + 1).rows)
    for m in range(n + 1):
        if e[m + 1] != [0] + [sum(comb(m, k) * e[k][i] for k in range(m + 1)) for i in range(n + 1)]:
            return {"n": m}
    return None


def _check_erdelyi(spec: FamilySpec, n: int, sets: dict):
    lag = _basic(sets, spec, n)
    inv = tri_invert(lag)
    for lam in (Fraction(2), Fraction(1, 2), Fraction(-1)):
        stretch_tri = tri_from_form(family("stretch", lam=lam).closed_form(n))
        conn = tri_compose(inv, tri_compose(stretch_tri, lag))  # the connection constants
        for m in range(n + 1):
            coef = [lah(m, k) * lam**k * (lam - 1) ** (m - k) for k in range(m + 1)]
            for k in range(m + 1):
                if conn.entry(m, k) != coef[k]:
                    return {"lam": str(lam), "n": m, "k": k}
    return None


def _check_laguerre_involution(spec: FamilySpec, n: int, sets: dict):
    lag = _basic(sets, spec, n)
    ln = triangle(
        [[(-1) ** m * lag.entry(m, k) for k in range(m + 1)] for m in range(n + 1)]
    )
    if tri_compose(ln, ln) != tri_identity(n):
        return {"n": n}
    return None


def _check_lah_connection(spec: FamilySpec, n: int, sets: dict):
    lag = _basic(sets, spec, n)
    rising = _basic(sets, family("rising"), n)
    falling = _basic(sets, family("falling"), n)
    if tri_compose(rising, lag) != falling:
        return {"n": n}
    # Lah's original identity, (x)_m = sum_k (-1)^(m-k) Lah(m,k) x^(k), from the closed form
    twin = tri_compose(rising, tri_from_form(spec.closed_form(n)))
    return next(({"n": m} for m in range(n + 1) if twin.rows[m] != falling.rows[m]), None)


def _check_laguerre_powers(spec: FamilySpec, n: int, sets: dict):
    lag = _basic(sets, spec, n)
    tri_r = tri_identity(n)
    for r in (1, 2, 3):
        tri_r = tri_compose(tri_r, lag)
        for m in range(n + 1):
            for k in range(m + 1):
                if tri_r.entry(m, k) != lah(m, k) * Fraction(-r) ** (m - k):
                    return {"r": r, "n": m, "k": k}
    return None


def _abel_polys(a: Fraction, n: int) -> list[Poly]:
    """The Abel polynomials x (x - ak)^(k-1) for k = 0..n."""
    return [poly([1])] + [poly([0, 1]) * poly([-a * k, 1]) ** (k - 1) for k in range(1, n + 1)]


def _check_abel_identity(spec: FamilySpec, n: int, sets: dict):
    abel = [p.coeffs for p in _abel_polys(spec.params["a"], n)]
    m = binomial_convolution(abel, abel, abel)
    return None if m is None else {"n": m}


def _check_smooth_abel(spec: FamilySpec, n: int, sets: dict):
    a = spec.params["a"]
    # Sheffer route: smooth Abel operator is (1+aD)^{-1} applied to the basic set
    phi = _form(_basic(sets, spec, n))
    rows = tri_from_form(sheffer(ShiftOp(mul_inv(series([1, a], n + 3))), phi)).rows
    smooth = [(poly([-a * m, 1]) ** m).coeffs for m in range(n + 1)]  # (x - am)^m
    hit = binomial_convolution(smooth, [p.coeffs for p in _abel_polys(a, n)], smooth)
    # at each degree the Sheffer form is reported before the convolution form
    for m in range(n + 1 if hit is None else hit + 1):
        if rows[m] != smooth[m]:
            return {"form": "sheffer", "n": m}
    return None if hit is None else {"form": "convolution", "n": hit}


def _check_abel_inverse(spec: FamilySpec, n: int, sets: dict):
    a = spec.params["a"]
    if a == 0:
        return None
    stretch = family("stretch", lam=a)
    nie = niederhausen(tri_from_form(stretch.closed_form(n)), stretch.delta(n + 2))
    if nie != tri_invert(_basic(sets, spec, n)):
        return {"n": n}
    if n == 0:  # the delta has no coefficient to compare
        return None
    expected = x_series(n) * exp_series(x_series(n).scale(a))
    inv_ind = comp_inv(delta_of(nie).indicator)
    for m in range(min(n, inv_ind.trunc) + 1):
        if inv_ind[m] != expected[m]:
            return {"form": "delta", "n": m}
    return None


def _check_conjugation(spec: FamilySpec, n: int, sets: dict):
    h = spec.params["h"]
    phi_h = _basic(sets, spec, n)
    falling = _basic(sets, family("falling"), n)
    for m in range(n + 1):
        for k in range(m + 1):
            if phi_h.entry(m, k) != falling.entry(m, k) * h ** (m - k):
                return {"n": m, "k": k}
    return None


def _check_degenerate_ode(spec: FamilySpec, n: int, sets: dict):
    """p x f^(p+1) + alpha p^2 f^(p) - x f' + m f = 0 for row m of each cross sequence: on
    the integer row f of its triangle form (the equation is homogeneous, so f's denominator
    drops out), the coefficient of x^j is (p j + alpha p^2) (j+p)!/j! f_{j+p} + (m - j) f_j,
    times alpha's denominator b; f_{j+p} = 0 past the row."""
    p = spec.params["p"]
    phi, base = _form(_basic(sets, spec, n)), ShiftOp(_degenerate_base(p, n + 3))
    for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)):
        a, b = alpha.numerator, alpha.denominator
        rows, _ = cross(base, alpha, phi)
        for m, f in enumerate(rows):
            lhs = [b * (m - j) * f[j] for j in range(m + 1)]
            for j in range(m + 1 - p):
                lhs[j] += (p * j * b + a * p * p) * perm(j + p, p) * f[j + p]
            if any(lhs):
                return {"p": p, "alpha": str(alpha), "n": m}
    return None


def _check_degenerate_cross(spec: FamilySpec, n: int, sets: dict):
    p = spec.params["p"]
    phi, base = _form(_basic(sets, spec, n)), ShiftOp(_degenerate_base(p, n + 3))
    exps = (Fraction(0), Fraction(1), Fraction(-1, 2))
    rows = {w: tri_from_form(cross(base, w, phi)).rows for w in {u + v for u in exps for v in exps}}
    for u in exps:
        for v in exps:
            m = binomial_convolution(rows[u + v], rows[u], rows[v])
            if m is not None:
                return {"u": str(u), "v": str(v), "n": m}
    return None


def _check_degenerate_closed_form(spec: FamilySpec, n: int, sets: dict):
    tri = _basic(sets, spec, n)
    if tri != tri_from_form(spec.closed_form(n)):
        return {"n": n}
    return None


_FAMILY_IDENTITIES: dict[str, list[tuple[str, Callable[[FamilySpec, int, dict], dict | None], int]]] = {
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


def _check_transform_roundtrip(spec: FamilySpec, n: int, sets: dict, rng) -> dict | None:
    """Both dual inversion transforms on random rational sequences.

    The row transform of a triangle is its matrix, the column transform its
    transpose; with both triangles scaled once to a / D_a and b / D_b, the round
    trip b (a s) = s is the integer test b (a S) = D_a D_b S."""
    tri = _basic(sets, spec, n)
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


def identity_check(name: str, n: int = 10, seed: int = 0, **params) -> Report:
    """Run every identity of a family at depth min(n, its row's cap), the three rows
    here and then the family's rows of ``_FAMILY_IDENTITIES``; exact pass/fail each.
    The identities share one basic set per (family, params, depth), built in this call."""
    report = Report()
    _run_identities(family(name, **params), n, report, seed, {})
    return report


def _run_identities(spec: FamilySpec, n: int, report: Report, seed: int, sets: dict):
    """``identity_check`` of spec, with basic sets taken from and added to ``sets``."""
    import random

    rows = [
        ("five_routes", _check_routes, 10),
        ("binomial_type", _check_binomial, 8),
        ("transform_roundtrip", partial(_check_transform_roundtrip, rng=random.Random(seed)), 10),
    ]
    for identity, check, depth in rows + _FAMILY_IDENTITIES[spec.name]:
        report.record(spec.name, identity, spec.params, check(spec, min(n, depth), sets))


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
    """The CI entry point: every family in the default set, deterministic order; the
    families share one set of basic sets, built in this call."""
    report, sets = Report(), {}
    for name, params in DEFAULT_CHECK_SET:
        _run_identities(family(name, **params), n, report, seed, sets)
    return report

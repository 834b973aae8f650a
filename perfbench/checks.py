"""Exact output checks, one per request kind.

Each check verifies an identity that the answer must satisfy, in plain
``Fraction`` arithmetic written here; none of them calls umbra, so none can
share a mistake with the route under test.  A check returns ``None`` when the
output is right and a short reason when it is not.

Series are lists ``s`` of Fractions with ``s[j]`` the coefficient of x^j,
truncated at the request's order N (length N + 1).  Triangles are lists of
rows, row m holding the coefficients of x^0..x^m of the m-th polynomial.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

# -- truncated series arithmetic ----------------------------------------------


def pad(a, n: int) -> list[Fraction]:
    a = [Fraction(c) for c in a[: n + 1]]
    return a + [Fraction(0)] * (n + 1 - len(a))


def mul(a, b, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def deriv(a) -> list[Fraction]:
    return [j * a[j] for j in range(1, len(a))] or [Fraction(0)]


def recip(a, n: int) -> list[Fraction]:
    """1/a for a[0] != 0."""
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / Fraction(a[0])
    for k in range(1, n + 1):
        s = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)), Fraction(0))
        out[k] = -s * out[0]
    return out


def compose(f, g, n: int) -> list[Fraction]:
    """f(g(x)) to order n, for g[0] == 0 (Horner)."""
    if g[0] != 0:
        raise ValueError("inner series must have zero constant term")
    f = pad(f, n)
    out = [Fraction(0)] * (n + 1)
    for c in reversed(f):
        out = mul(out, g, n)
        out[0] += c
    return out


def power(a, k: int, n: int) -> list[Fraction]:
    out = pad([1], n)
    for _ in range(k):
        out = mul(out, a, n)
    return out


def egf(column) -> list[Fraction]:
    """sum_m column[m] x^m / m!."""
    return [Fraction(c) / factorial(m) for m, c in enumerate(column)]


def x_series(n: int) -> list[Fraction]:
    return pad([0, 1], n)


# -- output parsing -----------------------------------------------------------


def parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _json(stdout: str, kind: str) -> dict:
    obj = json.loads(stdout)
    if obj.get("kind") != kind:
        raise ValueError(f"expected a {kind} document")
    return obj


def series_out(stdout: str, order: int) -> list[Fraction]:
    obj = _json(stdout, "series")
    coeffs = [parse_rat(c) for c in obj["coeffs"]]
    if obj["trunc"] != order or len(coeffs) != order + 1:
        raise ValueError("series has the wrong truncation")
    return coeffs


def triangle_out(stdout: str, order: int) -> list[list[Fraction]]:
    obj = _json(stdout, "triangle")
    rows = [[parse_rat(c) for c in row] for row in obj["rows"]]
    if obj["n"] != order or len(rows) != order + 1:
        raise ValueError("triangle has the wrong depth")
    if any(len(row) != m + 1 for m, row in enumerate(rows)):
        raise ValueError("triangle row has the wrong length")
    return rows


def poly_out(stdout: str) -> list[Fraction]:
    return [parse_rat(c) for c in _json(stdout, "poly")["coeffs"]]


# -- triangle identities ------------------------------------------------------


def _sheffer_identity(rows, delta, appell, n: int) -> str | None:
    """Rows s_m of a Sheffer triangle with delta indicator Q and Appell
    indicator A satisfy sum_m s_m(x) t^m/m! = A(g(t)) e^{x g(t)}, g = Q^{-1}:

    - column 0 has EGF c0 = A(g) and column 1 has EGF c1 = A(g) g, so
      g = c1 / c0 must satisfy Q(g) = t (and A(g) = c0 when A is given);
    - the row sums R(t) = c0 e^{g} satisfy c0 R' = (c0' + c0 g') R.

    A basic triangle is the case A = 1, where c0 must be exactly 1.
    """
    c0 = egf([row[0] for row in rows])
    c1 = egf([Fraction(0)] + [rows[m][1] for m in range(1, n + 1)])
    if appell is None and c0 != pad([1], n):
        return "column 0 of a basic triangle is not 1, 0, 0, ..."
    if c0[0] == 0:
        return "column 0 has zero constant term"
    g = mul(c1, recip(c0, n), n)
    if g[0] != 0:
        return "column 1 has a nonzero constant term"
    if compose(delta, g, n) != x_series(n):
        return "column 1 is not the EGF of the inverse of the delta"
    if appell is not None and compose(appell, g, n) != c0:
        return "column 0 is not A(Q^{-1})"
    sums = egf([sum(row, Fraction(0)) for row in rows])
    lhs = mul(c0, deriv(sums), n - 1)
    rhs = mul([a + b for a, b in zip(deriv(c0), mul(c0, deriv(g), n - 1))], sums, n - 1)
    if lhs != rhs:
        return "row sums do not satisfy the EGF differential equation"
    return None


def _stirling_table(n: int, first_kind: bool) -> list[list[int]]:
    t = [[0] * (n + 1) for _ in range(n + 1)]
    t[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            t[m][k] = ((m - 1) if first_kind else k) * t[m - 1][k] + t[m - 1][k - 1]
    return t


def _binom(r: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (r - i) / (i + 1)
    return out


def family_delta(name: str, params: dict, n: int) -> list[Fraction]:
    """Delta indicator Q(x) of a catalog family, to order n."""
    q = [Fraction(0)] * (n + 1)
    if name == "touchard":  # log(1 + x)
        for j in range(1, n + 1):
            q[j] = Fraction((-1) ** (j + 1), j)
    elif name in ("falling", "rising"):  # e^x - 1 and 1 - e^{-x}
        sign = 1 if name == "falling" else -1
        for j in range(1, n + 1):
            q[j] = Fraction(sign ** (j + 1), factorial(j))
    elif name == "laguerre":  # x / (1 - x)
        q[1:] = [Fraction(1)] * n
    elif name == "catalan":  # x - x^2
        q[1], q[2] = Fraction(1), Fraction(-1)
    elif name == "abel":  # x e^{a x}
        a = Fraction(params["a"])
        for j in range(1, n + 1):
            q[j] = a ** (j - 1) / factorial(j - 1)
    elif name == "degenerate_laguerre":  # x (1 - p x^p)^{-1/p}
        p = int(params["p"])
        for j in range((n - 1) // p + 1):
            q[1 + p * j] = _binom(Fraction(-1, p), j) * Fraction(-p) ** j
    elif name == "divided_difference":  # (e^{h x} - 1) / h
        h = Fraction(params["h"])
        for j in range(1, n + 1):
            q[j] = h ** (j - 1) / factorial(j)
    elif name == "stretch":  # x / lam
        q[1] = 1 / Fraction(params["lam"])
    elif name == "derivative":
        q[1] = Fraction(1)
    else:
        raise ValueError(f"no delta for family {name!r}")
    return q


def family_closed_form(name: str, params: dict, n: int) -> list[list[Fraction]]:
    """Closed-form basic triangle of a catalog family (the literature's
    Stirling, Lah, Abel and Catalan numbers)."""
    if name in ("touchard", "falling", "rising", "divided_difference"):
        s = _stirling_table(n, first_kind=name != "touchard")
    h = Fraction(params.get("h", 1))
    rows = []
    for m in range(n + 1):
        row = []
        for k in range(m + 1):
            if name == "touchard":
                v = Fraction(s[m][k])
            elif name in ("falling", "divided_difference"):
                v = (-1) ** (m - k) * s[m][k] * h ** (m - k)
            elif name == "rising":
                v = Fraction(s[m][k])
            elif name == "laguerre":
                lah = 1 if m == k == 0 else (0 if k == 0 else comb(m - 1, k - 1) * factorial(m) // factorial(k))
                v = Fraction((-1) ** (m - k) * lah)
            elif name == "catalan":
                v = Fraction(m == k == 0)
                if k >= 1:
                    v = Fraction(comb(2 * m - k - 1, m - 1) * factorial(m - 1), factorial(k - 1))
            elif name == "abel":
                a = Fraction(params["a"])
                v = Fraction(m == k == 0)
                if k >= 1:
                    v = comb(m - 1, k - 1) * (-a * m) ** (m - k)
            elif name == "degenerate_laguerre":
                p = int(params["p"])
                v = Fraction(0)
                if (m - k) % p == 0:
                    j = (m - k) // p
                    v = _binom(Fraction(m, p) - 1, j) * Fraction(factorial(m), factorial(k)) * (-p) ** j
            elif name == "stretch":
                v = Fraction(params["lam"]) ** m if m == k else Fraction(0)
            elif name == "derivative":
                v = Fraction(m == k)
            else:
                raise ValueError(f"no closed form for family {name!r}")
            row.append(Fraction(v))
        rows.append(row)
    return rows


# -- the checks ---------------------------------------------------------------


def check_series(data: dict, stdout: str) -> str | None:
    n, u, outer = data["order"], pad(data["u"], data["order"]), data["outer"]
    g = series_out(stdout, n)
    if outer == "sqrt":
        ok = mul(g, g, n) == u and g[0] == 1
    elif outer == "exp":  # g' = u' g, g(0) = 1
        ok = g[0] == 1 and deriv(g) == mul(deriv(u), g, n - 1)
    elif outer == "log":  # u g' = u', g(0) = 0
        ok = g[0] == 0 and mul(u, deriv(g), n - 1) == deriv(u)
    elif outer == "recip":
        ok = mul(g, u, n) == pad([1], n)
    elif outer == "pow":  # g^q = u^p, g(0) = 1
        e = data["e"]
        p, q = e.numerator, e.denominator
        gq = power(g, q, n)
        ok = g[0] == 1 and (gq == power(u, p, n) if p >= 0 else mul(gq, power(u, -p, n), n) == pad([1], n))
    else:
        raise ValueError(f"unknown outer function {outer!r}")
    return None if ok else f"{outer} output fails its defining identity"


def check_inverse(data: dict, stdout: str) -> str | None:
    n = data["order"]
    g = series_out(stdout, n)
    return None if compose(data["f"], g, n) == x_series(n) else "f(g(x)) != x"


def check_basic(data: dict, stdout: str) -> str | None:
    n = data["order"]
    return _sheffer_identity(triangle_out(stdout, n), pad(data["delta"], n), None, n)


def check_triangle(data: dict, stdout: str) -> str | None:
    n, name, params = data["order"], data["family"], data["params"]
    rows = triangle_out(stdout, n)
    reason = _sheffer_identity(rows, family_delta(name, params, n), None, n)
    if reason is None and rows != family_closed_form(name, params, n):
        reason = "triangle differs from the family's closed form"
    return reason


def check_sheffer(data: dict, stdout: str) -> str | None:
    n = data["order"]
    return _sheffer_identity(
        triangle_out(stdout, n), pad(data["delta"], n), pad(data["appell"], n), n
    )


def check_iterate(data: dict, stdout: str) -> str | None:
    """g = f^{p/q}: q-fold g composed with f^{-p} is x (p < 0), or equals f^p."""
    n, s = data["order"], data["s"]
    f, g = pad(data["f"], n), series_out(stdout, n)
    p, q = s.numerator, s.denominator
    gq = x_series(n)
    for _ in range(q):
        gq = compose(g, gq, n)
    fp = x_series(n)
    for _ in range(abs(p)):
        fp = compose(f, fp, n)
    ok = gq == fp if p >= 0 else compose(gq, fp, n) == x_series(n)
    return None if ok else f"{q}-fold iterate of the output is not f^{p}"


def check_itlog(data: dict, stdout: str) -> str | None:
    """Julia equation F(f(x)) = f'(x) F(x), with F = f_2 x^2 + ...

    The equation fixes F only up to a scalar, hence the x^2 coefficient, and
    at x^m it determines F_{m-1}: F_m has coefficient 1 on both sides and
    cancels.  So it is compared to order N + 1, with F_{N+1} = 0.
    """
    n = data["order"]
    f, big_f = pad(data["f"], n + 1), series_out(stdout, n)
    if big_f[0] != 0 or big_f[1] != 0 or big_f[2] != f[2]:
        return "iterative logarithm must start f_2 x^2"
    big_f = pad(big_f, n + 1)
    ok = compose(big_f, f, n + 1) == mul(deriv(f), big_f, n + 1)
    return None if ok else "output fails the Julia equation"


def check_phipow(data: dict, stdout: str) -> str | None:
    """For s = 1/2 the square of the output is the basic triangle of Q."""
    n = data["order"]
    t = triangle_out(stdout, n)
    square = [
        [sum((t[m][j] * t[j][k] for j in range(k, m + 1)), Fraction(0)) for k in range(m + 1)]
        for m in range(n + 1)
    ]
    reason = _sheffer_identity(square, pad(data["delta"], n), None, n)
    return None if reason is None else "square of the output: " + reason


def _difference_ok(big_f, p) -> bool:
    """F(x + 1) - F(x) == p(x) as polynomials."""
    d = len(big_f)
    shifted = [
        sum((big_f[i] * comb(i, j) for i in range(j, d)), Fraction(0)) for j in range(d)
    ]
    diff = [a - b for a, b in zip(shifted, big_f)]
    p = list(p) + [Fraction(0)] * (d - len(p))
    return len(p) == d and diff == p


def _eval(p, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def check_faulhaber(data: dict, stdout: str) -> str | None:
    n = data["n"]
    big_f = poly_out(stdout)
    ok = _difference_ok(big_f, [0] * n + [1]) and _eval(big_f, Fraction(0)) == 0
    return None if ok else "F(x+1) - F(x) != x^n or F(0) != 0"


def check_sum(data: dict, stdout: str) -> str | None:
    big_f = poly_out(stdout)
    ok = _difference_ok(big_f, data["p"]) and _eval(big_f, data["lower"]) == 0
    return None if ok else "F(x+1) - F(x) != p(x) or F(a) != 0"


def check_sum_at(data: dict, stdout: str) -> str | None:
    """At x = a + j the anchored sum is p(a) + ... + p(a + j - 1)."""
    a = data["lower"]
    want = sum((_eval(data["p"], a + i) for i in range(data["steps"])), Fraction(0))
    return None if parse_rat(stdout.strip()) == want else "sum value differs from the direct sum"


def check_check(data: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    ok = bool(lines) and all(line.startswith("PASS\t") for line in lines)
    return None if ok else "an identity check did not pass"


CHECKS = {
    "series": check_series,
    "inverse": check_inverse,
    "basic": check_basic,
    "triangle": check_triangle,
    "sheffer": check_sheffer,
    "iterate": check_iterate,
    "itlog": check_itlog,
    "phipow": check_phipow,
    "faulhaber": check_faulhaber,
    "sum": check_sum,
    "sum_at": check_sum_at,
    "check": check_check,
}


def verify(request, returncode: int, stdout: str) -> str | None:
    """Reason the request's result is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKS[request.kind](request.data, stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"

"""The integer kernel against the plain Fraction loops it replaced.

Each kernel primitive, and each public function whose loop now runs on
integer numerators over a common denominator, is compared value for value
with the Fraction loop it replaced (kept in ``oracles``); every output entry
must also be a normalised Fraction (positive denominator, gcd 1).
"""

import sys
from fractions import Fraction as F
from math import factorial, gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from umbra import _kernel, catalog, fps, operators, umbral
from umbra.errors import OrderError, TruncationError, agree
from umbra.flow import _column_powers, _flow_triangle, shifted_powers
from umbra.fps import (
    Poly, Series, comp_inv, compose, const, exp_series, exp_x, log1p, log_series, mul_inv, poly, pow_rat,
    series, x_series,
)
from umbra.operators import ShiftOp, apply_op, validate_delta
from umbra.umbral import (
    Triangle, basic_form, basic_from_inverse_series, basic_genfunc, basic_km, basic_recurrence, basic_set,
    basic_steffensen, basic_transfer, sheffer, transform_seq, tri_compose, tri_from_form, tri_identity, tri_invert,
)

import oracles

# Large pairwise-coprime denominators (distinct primes), so a common
# denominator is a product of several of them.
PRIMES = (2, 3, 7, 10007, 65537, 1000003, 2**61 - 1, 2**89 - 1)

rationals = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-(10**30), 10**30), st.sampled_from(PRIMES)),
)
# The same values as `rationals` without 0, drawn as a sign and a magnitude:
# filtering 0 out rejected so many draws that Hypothesis's health check
# failed on some fresh runs.
nonzero = st.builds(
    lambda v, negative: -v if negative else v,
    st.one_of(
        st.fractions(min_value=F(1, 12), max_value=9, max_denominator=12),
        st.builds(F, st.integers(1, 10**30), st.sampled_from(PRIMES)),
    ),
    st.booleans(),
)


def vectors(min_size=0, max_size=9):
    return st.lists(rationals, min_size=min_size, max_size=max_size)


@st.composite
def series_values(draw, min_trunc=0, max_trunc=8, unit_constant=None):
    trunc = draw(st.integers(min_trunc, max_trunc))
    cs = draw(st.lists(rationals, min_size=trunc + 1, max_size=trunc + 1))
    if unit_constant is not None:
        cs[0] = F(unit_constant)
    return Series(trunc, tuple(cs))


@st.composite
def triangles(draw, max_n=6, nonzero_diagonal=False):
    n = draw(st.integers(0, max_n))
    rows = []
    for m in range(n + 1):
        row = draw(st.lists(rationals, min_size=m + 1, max_size=m + 1))
        if nonzero_diagonal:
            row[m] = draw(nonzero)
        rows.append(tuple(row))
    return Triangle(tuple(rows))


def normalised(values):
    return all(
        type(v) is F and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1 for v in values
    )


def entries(t: Triangle):
    return [v for row in t.rows for v in row]


# -- the kernel primitives ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(vectors(), vectors())
def test_convolve_matches_plain_sums(a, b):
    full = _kernel.convolve(a, b)
    expected = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expected[i + j] += x * y
    assert full == expected and normalised(full)


@settings(max_examples=60, deadline=None)
@given(vectors(), rationals)
def test_evaluate_matches_horner(c, a):
    value = _kernel.evaluate(c, a)
    expected = F(0)
    for v in reversed(c):
        expected = expected * a + v
    assert value == expected and normalised([value])


@settings(max_examples=60, deadline=None)
@given(st.lists(vectors(max_size=7), max_size=5), st.integers(0, 5))
@example([[], [F(0)], [F(7, 2**61 - 1)], [F(0), F(-3, 65537), F(1, 2**89 - 1)]], 3)
def test_half_grid_oracle_matches_poly_call(polys, n):
    # the value tables of the binomial-convolution grid oracle
    table = oracles.half_grid(polys, n)
    assert len(table) == len(polys)
    for c, (values, den) in zip(polys, table):
        assert len(values) == 2 * n + 3 and den > 0
        assert [F(v, den) for v in values] == [poly(c)(F(i, 2)) for i in range(2 * n + 3)]


def test_empty_and_zero_vectors():
    assert _kernel.convolve([], []) == []
    assert _kernel.evaluate([], F(3, 7)) == 0
    assert oracles.half_grid([], 2) == []
    assert oracles.half_grid([[], [F(0)] * 3, [F(5, 3)]], 0) == [([0] * 3, 1), ([0] * 3, 4), ([5] * 3, 3)]
    assert _kernel.apply_derivatives([], []) == []
    assert _kernel.apply_derivatives([F(2)], [[], [F(0)]]) == [[], [0]]
    zeros = _kernel.convolve([F(0)] * 4, [F(5, 3), F(-1, 65537)], 3)
    assert zeros == [0, 0, 0, 0] and normalised(zeros)


@settings(max_examples=60, deadline=None)
@given(series_values(), st.integers(0, 6))
@example(series([F(2, 65537), 0, 0, F(-5, 3), 0, 0, 0, F(1, 7), 0], 8), 6)  # sparse, interior zeros
@example(series([F(-3, 2), F(1, 10007), 0, 1], 3), 5)  # non-unit lead
@example(series([0, F(7, 3), 0, F(-1, 2**61 - 1)], 3), 4)  # order 1, as comp_inv and genfunc use it
@example(series([F(-2, 3)], 0), 0)  # length 1, count 0
def test_powers_match_repeated_series_products(f, count):
    expected, table = const(1, f.trunc), list(_kernel.powers(f.coeffs, count))
    assert len(table) == count + 1
    for p, dp in table:
        assert (p, dp) == _kernel.scaled(expected.coeffs)  # the lcm form, reduced
        expected = expected * f


@st.composite
def reciprocal_inputs(draw):
    """(g, count): g of degree d padded with zeros to length N + 1, where N + 1 is
    near 4(d + 1), the least length at which reciprocal_powers divides by g."""
    d = draw(st.integers(0, 4))
    n = max(d, 4 * (d + 1) - 1 + draw(st.integers(-3, 3)))
    g0 = draw(st.one_of(st.sampled_from((F(1), F(2), F(-3, 2))), nonzero))
    body = draw(st.lists(rationals, min_size=d, max_size=d))
    if d:
        body[-1] = draw(nonzero)
    return [g0, *body] + [F(0)] * (n - d), draw(st.integers(0, 8))


@settings(max_examples=80, deadline=None)
@given(reciprocal_inputs())
@example(([F(1), F(-1, 5), F(3, 7), F(1, 2)] + [F(0)] * 12, 17))  # d = 3 at the boundary N = 15
@example(([F(1), F(-1, 5), F(3, 7), F(1, 2)] + [F(0)] * 11, 16))  # and one below it
@example(([F(2), 0, F(1, 2**61 - 1), 0, F(-7, 65537)] + [F(0)] * 40, 6))  # interior zeros
@example(([F(-3, 2), F(1, 10007)] + [F(0)] * 30, 31))
@example(([F(2), F(-5, 3), F(1, 7)] + [F(0)] * 9, 9))  # lead 2 at the boundary N = 11
@example(([F(-3, 2)] + [F(0)] * 3, 5))  # d = 0, the least short length
@example(([F(1), 0, 0, F(-3)] + [F(0)] * 60, 12))  # Catalan-like: unit lead, integral
@example(([F(2, 3)], 3))  # length 1
@example((list(exp_x(24).coeffs), 8))  # dense: exp
@example((list(log1p(25).shift_down(1).coeffs), 8))  # log(1+x)/x
@example((list(series([1] * 25, 24).coeffs), 8))  # 1/(1-x)
def test_reciprocal_powers_match_powers_of_the_inverse(case):
    # entry m of each yielded (p, dp) is p[m] / (dp b^m), integers over positive dp and b: for
    # a short g, b is the lcm of the denominators of g/g_0 and dp = |u|^k for g_0 = u/v; a
    # dense g yields b = 1 and exactly the reduced form of powers(1/g)
    g, count = case
    expected = list(_kernel.powers(mul_inv(series(g)).coeffs, count))
    b, table = _kernel.reciprocal_powers(g, count)
    table = list(table)
    assert len(table) == count + 1
    for (p, dp), (e, de) in zip(table, expected):
        assert all(type(v) is int for v in p) and type(dp) is int
        assert [F(v, dp * b**m) for m, v in enumerate(p)] == [F(v, de) for v in e]
    if _kernel.is_short(g):
        assert b == _kernel.scaled([c / g[0] for c in g])[1]
        assert [dp for _, dp in table] == [abs(g[0].numerator) ** k for k in range(count + 1)]
    else:
        assert b == 1 and table == expected


@pytest.mark.parametrize("n, short", [(14, False), (15, True), (64, True)])
def test_reciprocal_powers_divide_only_by_a_short_g(monkeypatch, n, short):
    calls = []
    monkeypatch.setattr(_kernel, "powers", lambda *args, real=_kernel.powers: calls.append(1) or real(*args))
    g = [F(-3, 2), F(1, 5), 0, F(2, 7)] + [F(0)] * (n - 3)  # degree 3: short from N = 15
    list(_kernel.reciprocal_powers(g, 4)[1])
    assert calls == ([] if short else [1])


def test_power_loops_build_no_series_per_power(monkeypatch):
    products = []
    for cls in (Series, Poly):
        monkeypatch.setattr(cls, "__mul__", lambda a, b, real=cls.__mul__: products.append(a) or real(a, b))
    Q = validate_delta(ShiftOp(series([0, F(3, 2), F(-1, 7), F(2, 5)], 17)))
    comp_inv(Q.indicator)
    for route in (basic_transfer, basic_steffensen, basic_genfunc):
        route(Q, 16)
    assert products == []
    # x^4 is two squarings: no product by 1 and no squaring past the top bit
    assert series([0, 1], 64) ** 4 == series([0, 0, 0, 0, 1], 64)
    assert poly([0, 1]) ** 4 == poly([0, 0, 0, 0, 1]) and len(products) == 4
    assert series([2], 3) ** 0 == series([1], 3) and len(products) == 4


def test_short_division_takes_no_gcd_per_power_or_row(monkeypatch):
    # the graded loop has no lift and no reduced: the short paths of transfer, Steffensen
    # and recurrence call gcd a fixed number of times (none), not once per power or row
    calls = []
    for module in (_kernel, umbral):
        monkeypatch.setattr(module, "gcd", lambda *args, real=gcd: calls.append(1) or real(*args))
    for lead in (F(1), F(-3, 2)):
        Q = validate_delta(ShiftOp(series([0, lead, F(3, 7), F(-1, 5), F(1, 2)], 41)))
        for route in (basic_transfer, basic_steffensen, basic_recurrence):
            route(Q, 40)
    assert calls == []
    # the dense path keeps one reduced per power: the spy sees gcd where it is called
    list(_kernel.reciprocal_powers(list(exp_x(12).coeffs), 3)[1])
    assert calls


def test_recurrences_and_km_take_no_apply_op_or_poly_sum(monkeypatch):
    # the recurrence route and sheffer scale their operator once per triangle, not per row
    f = series([F(-3, 2), F(1, 7), 0, F(2, 5)], 24)
    Q = validate_delta(ShiftOp(series([0, F(3, 2), F(-1, 7), F(2, 5)], 17)))
    A = ShiftOp(series([2, F(-1, 3), 0, F(5, 7)], 16))
    calls = []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "umbra" and getattr(module, "apply_op", None) is operators.apply_op:
            monkeypatch.setattr(module, "apply_op", spy("apply_op", operators.apply_op))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Poly, name, spy(name, getattr(Poly, name)))
    mul_inv(f), exp_series(f - f[0]), log_series(f / f[0])
    basic_km(Q, 16)
    phi = basic_form(Q, 16, "recurrence")
    sheffer(A, phi)
    assert calls == []
    assert tri_from_form(phi) == basic_set(Q, 16, "transfer")


# -- the recurrence and generating-function routes on polynomial deltas ---------


@st.composite
def polynomial_deltas(draw):
    """(Q, N): Q = sum_{i=1..d} q_i D^i through D^(N+1), d = 1..6, lead q_1 in {1, 2, -3/2, -1}
    and q_d of either sign; N anywhere in 0..24, or next to a boundary at which a route turns
    short: the recurrence route's 4d = N + 1 (Q' has degree d - 1) or genfunc's 4(d + 1) = N + 1."""
    d = draw(st.integers(1, 6))
    lead = draw(st.sampled_from((F(1), F(2), F(-3, 2), F(-1))))
    coeffs = [F(0), lead, *draw(st.lists(rationals, min_size=d - 1, max_size=d - 1))]
    if d > 1:
        coeffs[d] = draw(nonzero)
    edge = draw(st.sampled_from((4 * d, 4 * (d + 1)))) - 1 + draw(st.integers(-2, 2))
    n = draw(st.one_of(st.integers(0, 24), st.just(min(max(edge, 0), 24))))
    return validate_delta(ShiftOp(series(coeffs, n + 1))), n


def _same_routes(Q, n):
    """The recurrence and generating-function routes equal the loops they replaced, as
    ``agree`` compares their forms and as whole triangles."""
    for route, ref in ((basic_recurrence, oracles.basic_recurrence_ref), (basic_genfunc, oracles.genfunc_powers_ref)):
        got, want = route(Q, n), ref(Q, n)
        agree("basic", route=got, reference=want)
        assert tri_from_form(got) == tri_from_form(want)


@settings(max_examples=80, deadline=None)
@given(polynomial_deltas())
@example((validate_delta(ShiftOp(series([0, F(-3, 2), F(3, 7), F(-1, 5), F(1, 2)], 20))), 19))  # genfunc's boundary
@example((validate_delta(ShiftOp(series([0, F(-3, 2), F(3, 7), F(-1, 5), F(1, 2)], 19))), 18))  # and one below it
@example((validate_delta(ShiftOp(series([0, 2, F(-1, 3), F(3, 5)], 12))), 11))  # recurrence's boundary
@example((validate_delta(ShiftOp(series([0, 2, F(-1, 3), F(3, 5)], 11))), 10))  # and one below it
def test_polynomial_delta_routes_match_the_loops_they_replaced(case):
    _same_routes(*case)


@pytest.mark.parametrize(
    "Q, n",
    [
        (validate_delta(ShiftOp(series([0, 1] + [0] * 68 + [1], 65))), 64),  # D + D^70 reads as D
        (validate_delta(ShiftOp(series([0, 2], 41))), 40),
        (validate_delta(ShiftOp(series([0, 1, -1], 41))), 40),
        *[(catalog.family(name).delta(n + 1), n) for name in ("catalan", "laguerre", "touchard") for n in (0, 7, 40)],
    ],
)
def test_pinned_deltas_routes_match_the_loops_they_replaced(Q, n):
    _same_routes(Q, n)


def _spies(monkeypatch):
    """Record the kernel divider's builds of 1/g (its ``recurrence``, as "mul_inv"), umbral's
    calls of ``powers`` (with the count asked for) and every Series product."""
    calls = []
    real_inv, real_powers = _kernel.recurrence, umbral.powers
    monkeypatch.setattr(_kernel, "recurrence", lambda *args: calls.append("mul_inv") or real_inv(*args))
    monkeypatch.setattr(umbral, "powers", lambda f, count: calls.append(("powers", count)) or real_powers(f, count))
    for name in ("__mul__", "__rmul__"):
        real = getattr(Series, name)
        monkeypatch.setattr(Series, name, lambda a, b, real=real: calls.append("product") or real(a, b))
    return calls


def test_polynomial_delta_routes_take_their_short_paths(monkeypatch):
    # a cost guard: at N = 40 on a degree-4 delta the dense paths cost O(N^3), the short O(N^2 d)
    Q = validate_delta(ShiftOp(series([0, F(-3, 2), F(3, 7), F(-1, 5), F(1, 2)], 41)))
    calls = _spies(monkeypatch)
    basic_recurrence(Q, 40)
    assert calls == []  # Q' is divided by; 1/Q' is never built
    basic_genfunc(Q, 40)
    assert calls == [("powers", 3)]  # g^0..g^3; the rest from Q(g) = t


def test_dense_delta_routes_keep_their_dense_paths(monkeypatch):
    Q = validate_delta(ShiftOp(exp_x(41) - 1))
    calls = _spies(monkeypatch)
    basic_recurrence(Q, 40)
    assert calls == ["mul_inv"]
    basic_genfunc(Q, 40)
    assert calls == ["mul_inv", ("powers", 40)]


# -- Series and Poly ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(series_values(), series_values())
def test_series_multiply_matches_oracle_with_mismatched_truncations(f, g):
    product = f * g
    assert product == oracles.series_mul_ref(f, g)
    assert product.trunc == min(f.trunc, g.trunc) and normalised(product.coeffs)


def test_series_product_that_vanishes_below_the_truncation():
    f = series([0, 0, 0, F(2, 65537), F(-5, 3)], 5)
    g = series([0, 0, 0, F(7, 10007)], 4)
    product = f * g
    assert product == oracles.series_mul_ref(f, g) == series([0], 4)
    assert normalised(product.coeffs)


@settings(max_examples=80, deadline=None)
@given(vectors(max_size=8), vectors(max_size=8))
def test_poly_multiply_matches_oracle(a, b):
    p, q = poly(a), poly(b)
    product = p * q
    assert product == oracles.poly_mul_ref(p, q) and normalised(product.coeffs)


@settings(max_examples=60, deadline=None)
@given(vectors(max_size=8), rationals)
def test_poly_evaluation_matches_oracle(a, x):
    p = poly(a)
    assert p(x) == oracles.poly_eval_ref(p, x)


@settings(max_examples=60, deadline=None)
@given(vectors(max_size=8), rationals)
def test_taylor_shift_and_linear_substitution_match_oracle(a, o):
    # sigma's phi_n(a - x) is the Taylor shift by a, then the reflection x -> -x
    p = poly(a)
    shifted, linear = p.shifted(o), oracles.reflected(p.shifted(o))
    assert shifted == oracles.shifted_ref(p, o) and normalised(shifted.coeffs)
    assert linear == oracles.compose_linear_ref(p, -1, o) and normalised(linear.coeffs)


# A polynomial with an interior zero and a zero tail: the recurrences read f
# only up to its last nonzero entry.
SPARSE = series([0, F(2, 65537), 0, F(-5, 3), 0, 0, 0], 6)


@settings(max_examples=60, deadline=None)
@given(series_values(min_trunc=1, max_trunc=8), nonzero)
@example(series([0], 0), F(7, 3))  # trunc 0
@example(series([0, F(1, 10007), F(-2, 3)], 2), F(-3, 2))
@example(SPARSE, F(-3, 2))
@example(exp_x(32), F(1))  # dense
def test_mul_inv_matches_oracle(f, a0):
    f = Series(f.trunc, (a0,) + f.coeffs[1:])
    inv = mul_inv(f)
    assert inv == oracles.mul_inv_ref(f) and normalised(inv.coeffs)


@settings(max_examples=40, deadline=None)
@given(series_values(max_trunc=7, unit_constant=0))
@example(series([0], 0))  # trunc 0
@example(series([0, F(-3, 2), F(1, 7)], 5))
@example(SPARSE)
@example(x_series(32))  # exp gives the dense exp_x(32), which log reads back
@example(exp_x(32) - 1)  # dense
def test_exp_and_log_match_oracle(f):
    e = exp_series(f)
    assert e == oracles.exp_series_ref(f)
    assert log_series(e) == oracles.log_series_ref(e) == f
    assert log_series(1 + f) == oracles.log_series_ref(1 + f)  # as sparse as f
    assert normalised(e.coeffs)


@settings(max_examples=40, deadline=None)
@given(series_values(min_trunc=1, max_trunc=7, unit_constant=0), st.data())
def test_comp_inv_matches_oracle(f, data):
    f = Series(f.trunc, (F(0), data.draw(nonzero)) + f.coeffs[2:])
    g = comp_inv(f)
    assert g == oracles.comp_inv_fraction_ref(f) and normalised(g.coeffs)


@st.composite
def order_one_series(draw, max_trunc=20):
    """lead x + c_2 x^2 + ... + c_N x^N for N in 1..max_trunc and lead 1, 2 or -3/2: sparse (at
    most three nonzero c_j, as in a polynomial delta) or dense (every c_j nonzero)."""
    trunc = draw(st.integers(1, max_trunc))
    lead = draw(st.sampled_from([F(1), F(2), F(-3, 2)]))
    tail = [F(0)] * (trunc - 1)
    if draw(st.booleans()):
        tail = [draw(nonzero) for _ in tail]
    elif trunc > 1:
        for j in draw(st.lists(st.integers(0, trunc - 2), max_size=3)):
            tail[j] = draw(nonzero)
    return Series(trunc, (F(0), lead, *tail))


@settings(max_examples=80, deadline=None)
@given(order_one_series())
@example(series([0, 1], 1))
@example(series([0, F(-3, 2)], 20))
@example(exp_x(20) - 1)
def test_windowed_comp_inv_matches_the_full_length_loop(f):
    g = comp_inv(f)
    assert g == oracles.comp_inv_ref(f) and normalised(g.coeffs)


def test_comp_inv_takes_no_series_product_and_no_full_length_power(monkeypatch):
    # a cost guard: every power of f is a window (f/x)^k through x^(N-k), one shorter per step
    products, powers, lengths = [], [], []
    monkeypatch.setattr(Series, "__mul__", lambda a, b, real=Series.__mul__: products.append(a) or real(a, b))
    for mod_name, module in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "umbra" and getattr(module, "powers", None) is _kernel.powers:
            monkeypatch.setattr(module, "powers", lambda *args, real=_kernel.powers: powers.append(1) or real(*args))
    monkeypatch.setattr(fps, "cauchy", lambda x, y, n, real=_kernel.cauchy: lengths.append(n) or real(x, y, n))
    N = 24
    f = series([0, F(-3, 2), F(1, 5), 0, F(2, 7)], N)
    assert comp_inv(f) == oracles.comp_inv_ref(f)
    assert products == [] and powers == []
    assert lengths == list(range(N - 2, -1, -1))


# Exponents of every kind: negative, zero, positive integer, and p/q with a
# large prime q (so p/q is in lowest terms and far from an integer).
exponents = st.one_of(
    st.fractions(min_value=-9, max_value=F(-1, 12), max_denominator=12),
    st.just(F(0)),
    st.integers(1, 9).map(F),
    st.builds(F, st.integers(-(10**9), 10**9), st.sampled_from(PRIMES[3:])),
)


@settings(max_examples=60, deadline=None)
@given(series_values(max_trunc=16, unit_constant=1), exponents)
def test_pow_rat_matches_binomial_series(f, r):
    g = pow_rat(f, r)
    assert g == oracles.pow_rat_ref(f, r) and normalised(g.coeffs)


def test_pow_rat_of_a_polynomial_with_zero_tail():
    f = series([1, F(1, 3), F(-2, 7), F(1, 11)], 12)
    for r in (F(1, 2), F(-22, 7), F(-3), F(0)):
        p, q = r.numerator, r.denominator
        g = _kernel.recurrence(f.coeffs, F(1), p + q, q, q)  # Miller's recurrence for f^(p/q)
        assert Series(12, tuple(g)) == oracles.pow_rat_ref(f, r) and normalised(g)


# -- the Kurbanov-Maksimov route against its apply_op loop ---------------------


@st.composite
def polynomial_deltas(draw):
    lead = draw(st.sampled_from((F(1), F(2), F(-3, 2))))
    tail = draw(st.lists(rationals, max_size=4))
    return validate_delta(ShiftOp(series([0, lead, *tail], 15)))


@settings(max_examples=30, deadline=None)
@given(polynomial_deltas(), st.integers(0, 14))
@example(validate_delta(ShiftOp(log1p(15))), 14)  # Touchard, dense
@example(validate_delta(ShiftOp(x_series(15) * exp_x(15))), 14)  # Abel with a = 1, dense
@example(validate_delta(ShiftOp(series([0, F(-3, 2), F(1, 5)], 15))), 0)
@example(validate_delta(ShiftOp(series([0, 2, 0, F(-1, 7)], 15))), 1)
def test_km_matches_apply_op_oracle(Q, n):
    phi = basic_set(Q, n, "km")
    assert phi == oracles.km_ref(Q, n) and normalised(entries(phi))


# -- apply_op: one correlation instead of a Poly per derivative -----------------


@settings(max_examples=80, deadline=None)
@given(vectors(max_size=9), st.data())
def test_apply_op_matches_oracle(a, data):
    p = poly(a)
    ind = data.draw(series_values(min_trunc=max(len(p.coeffs) - 1, 0), max_trunc=10))
    T = ShiftOp(ind)
    out = apply_op(T, p)
    assert out == oracles.apply_op_ref(T, p) and normalised(out.coeffs)


def test_apply_op_on_the_empty_poly_and_to_zero():
    T = ShiftOp(series([F(1, 2**61 - 1), F(-3), F(5, 7)], 4))
    assert apply_op(T, poly([])) == Poly(())
    D3 = ShiftOp(series([0, 0, 0, 1], 4))
    p = poly([F(1, 3), F(-2, 10007), F(9, 65537)])
    assert apply_op(D3, p) == oracles.apply_op_ref(D3, p) == Poly(())


# -- triangular products --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(triangles(), triangles())
def test_tri_compose_matches_oracle(phi, psi):
    out = tri_compose(phi, psi)
    assert out == oracles.tri_compose_ref(phi, psi) and normalised(entries(out))


def test_tri_compose_of_nilpotent_triangles_is_zero():
    strict = Triangle(((F(0),), (F(3, 10007), F(0)), (F(-1, 2), F(5, 65537), F(0))))
    square = tri_compose(strict, strict)
    cube = tri_compose(square, strict)
    assert square == oracles.tri_compose_ref(strict, strict)
    assert cube == oracles.tri_compose_ref(square, strict)
    assert all(v == 0 for v in entries(cube)) and normalised(entries(cube))


@settings(max_examples=60, deadline=None)
@given(triangles(), st.data())
def test_triangle_apply_poly_matches_oracle(tri, data):
    p = poly(data.draw(vectors(max_size=tri.n + 1)))
    out = tri.apply_poly(p)
    assert out == oracles.apply_poly_ref(tri, p) and normalised(out.coeffs)


@settings(max_examples=60, deadline=None)
@given(triangles(nonzero_diagonal=True))
def test_tri_invert_matches_oracle(phi):
    inv = tri_invert(phi)
    assert inv == oracles.tri_invert_ref(phi) and normalised(entries(inv))


@settings(max_examples=60, deadline=None)
@given(triangles(), st.sampled_from(("row", "column")), st.integers(0, 3), st.data())
def test_transform_seq_matches_oracle(phi, mode, start, data):
    a = data.draw(vectors(max_size=phi.n + 3))
    if start + len(a) - 1 > phi.n:  # entries past the depth are unknown, not zero
        with pytest.raises(TruncationError):
            transform_seq(phi, a, mode, start)
        return
    out = transform_seq(phi, a, mode, start)
    assert out == oracles.transform_seq_ref(phi, a, mode, start) and normalised(out)


def reduced_form(nums, den):
    return den > 0 and gcd(den, *nums) == 1


@settings(max_examples=60, deadline=None)
@given(triangles(), st.integers(0, 7), st.integers(0, 6))
def test_column_powers_match_oracle(tri, k, pmax):
    cols = list(_column_powers(_kernel.scaled_rows(tri.rows), k, pmax))
    ref = oracles.column_powers_ref(tri, k, pmax)
    assert len(cols) == len(ref) == pmax + 1
    for (nums, den), expected in zip(cols, ref):
        assert len(nums) == max(tri.n + 1 - k, 0)
        assert [F(v, den) for v in nums] == expected[k:] and reduced_form(nums, den)


@settings(max_examples=60, deadline=None)
@given(vectors(max_size=10), st.integers(0, 9))
def test_flow_triangle_is_the_scaled_bell_table(cs, n):
    # numerators and denominator exactly as `scaled` gives them for the Bell table
    f = series([0, *cs], max(len(cs), n))
    rows, den = _flow_triangle(f, n)
    table = oracles.partial_bell_table(n, [factorial(j) * f[j] for j in range(1, n + 1)])
    nums, d = _kernel.scaled([v for row in table for v in row])
    assert [len(row) for row in rows] == list(range(1, n + 2))
    assert (den, [v for row in rows for v in row]) == (d, nums)


@st.composite
def series_and_order(draw):
    """(g, n): an order-one series through x^1..x^24 and a triangle depth n in 0..its trunc."""
    g = draw(order_one_series(max_trunc=24))
    return g, draw(st.integers(0, g.trunc))


@settings(max_examples=60, deadline=None)
@given(series_and_order())
@example((series([0, F(-3, 2)], 1), 0))
@example((exp_x(24) - 1, 24))  # dense
@example((series([0, 2, 0, 0, F(1, 65537)], 24), 24))  # sparse
def test_row_forms_match_the_column_forms_they_replaced(case):
    # both basic triangles whose column-1 EGF is g, by rows over one denominator a row
    g, n = case
    power_cols = oracles.power_columns_ref(_kernel.powers(g.coeffs, n), n)
    power_rows = umbral._power_rows(_kernel.powers(g.coeffs, n), n)
    assert tri_from_form(power_rows) == oracles.tri_from_columns(power_cols)
    assert tri_from_form(umbral._bell_form(g, n)) == oracles.tri_from_columns(oracles.bell_columns_ref(g, n))


# -- integer Krylov columns and their weighted sum --------------------------------


def _full_powers(tri, pmax, shifted):
    """The p-th powers for p = 0..pmax: shifted_powers' (phi-1)^p, or repeated tri_compose."""
    if shifted:
        return shifted_powers(tri, pmax)
    out = [tri_identity(tri.n)]
    for _ in range(pmax):
        out.append(tri_compose(out[-1], tri))
    return out


def _krylov_columns(tri, k, pmax, shifted):
    rows, den = _kernel.scaled_rows([row[k : m + 1 - shifted] for m, row in enumerate(tri.rows[k:], k)])
    return _kernel.krylov(rows, den, ([int(m == k) for m in range(k, tri.n + 1)], 1), pmax)


def _weighted_column(full, weights, k, n):
    """sum_p w_p coeff(m, k) of the p-th power, for m = k..n."""
    return [sum((w * full[p].entry(m, k) for p, w in enumerate(weights)), F(0)) for m in range(k, n + 1)]


KRYLOV_TRIANGLES = {
    "n=0": Triangle(((F(-3, 7),),)),
    "unitary": basic_from_inverse_series(series([0, 1, F(1, 2), F(-2, 3), F(1, 5)], 6), 6),
    "non-unitary diagonal": Triangle(
        tuple(
            tuple(F((-1) ** (m + j) * (m + 2 * j + 1), PRIMES[(m + j) % 8]) for j in range(m + 1))
            for m in range(6)
        )
    ),
}


@pytest.mark.parametrize("shifted", [True, False], ids=["phi-1", "phi"])
@pytest.mark.parametrize("name", sorted(KRYLOV_TRIANGLES))
def test_krylov_columns_and_weighted_sum_match_full_powers(name, shifted):
    tri = KRYLOV_TRIANGLES[name]
    n = tri.n
    full = _full_powers(tri, n + 1, shifted)
    weights = [F(0)] + [F((-1) ** p * (p + 2), 2 * p + 3) for p in range(1, n + 2)]
    for k in range(n + 1):
        for pmax in range(n + 2):  # pmax = 0 yields the unit vector alone
            cols = list(_krylov_columns(tri, k, pmax, shifted))
            assert len(cols) == pmax + 1
            for p, (nums, den) in enumerate(cols):
                assert [F(v, den) for v in nums] == [full[p].entry(m, k) for m in range(k, n + 1)]
                assert reduced_form(nums, den)
            total, den = _kernel.weighted_sum(zip(weights, cols), n + 1 - k)
            expected = _weighted_column(full, weights[: pmax + 1], k, n)
            assert den > 0 and [F(v, den) for v in total] == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(triangles(max_n=5), st.data())
def test_weighted_krylov_sum_matches_full_powers_drawn(tri, data):
    k = data.draw(st.integers(0, tri.n))
    pmax = data.draw(st.integers(0, tri.n + 1))
    shifted = data.draw(st.booleans())
    weights = data.draw(vectors(min_size=pmax + 1, max_size=pmax + 1))
    cols = _krylov_columns(tri, k, pmax, shifted)
    total, den = _kernel.weighted_sum(zip(weights, cols), tri.n + 1 - k)
    expected = _weighted_column(_full_powers(tri, pmax, shifted), weights, k, tri.n)
    assert den > 0 and [F(v, den) for v in total] == expected


def test_weighted_sum_of_nothing_and_of_short_columns():
    assert _kernel.weighted_sum([], 3) == ([0, 0, 0], 1)
    assert _kernel.weighted_sum([(F(0), ([5, 7], 3))], 2) == ([0, 0], 1)  # a zero weight adds nothing
    total, den = _kernel.weighted_sum([(F(1, 2), ([1], 3)), (F(2, 5), ([1, 1, 1], 7))], 3)
    assert [F(v, den) for v in total] == [F(1, 6) + F(2, 35), F(2, 35), F(2, 35)]


# -- compose on the power table of its inner series -------------------------------


@pytest.mark.parametrize(
    "f, g",
    [
        (series([1, F(2, 3), F(-1, 2), 5, F(1, 7)], 4), series([0, 1, F(1, 3), 0, F(-2, 65537), 1], 5)),
        (series([F(1, 2), 1, 0, F(-3, 10007), 2, 0, 1], 6), series([0, F(-2, 3), 1], 2)),
        (
            series([F(5, 3), -1, F(1, 2**61 - 1), 0, 4, F(2, 9), 1], 6),
            series([0, 0, F(3, 5), 1, F(-1, 7), 0, 2], 6),
        ),
        (series([0] * 5, 4), series([0, F(7, 3), 1, F(1, 2), 0], 4)),
        (series([F(5, 3)], 0), series([0], 0)),
        (series([F(5, 3), 1, 2], 2), series([0], 0)),
    ],
    ids=["f-shorter", "g-shorter", "inner-order-2", "f-zero", "trunc-0", "g-trunc-0"],
)
def test_compose_matches_horner(f, g):
    out = compose(f, g)
    assert out == oracles.compose_ref(f, g) and normalised(out.coeffs)


def test_compose_refuses_a_constant_inner_term():
    with pytest.raises(OrderError, match="inner series to have order >= 1"):
        compose(series([0, 1, 1], 3), series([F(1, 2), 1], 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_values(), series_values(), st.integers(1, 3))
def test_compose_matches_horner_drawn(f, g, order):
    g = Series(g.trunc, (F(0),) * min(order, g.trunc + 1) + g.coeffs[order:])
    out = compose(f, g)
    assert out == oracles.compose_ref(f, g) and normalised(out.coeffs)

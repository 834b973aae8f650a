"""Extra independent routes to the same objects.

Each test here rebuilds a triangle or operator action by a formula that none
of the library routes use, so agreement is a genuine cross-check: the
generalized-exponentiation closed form, the evaluation-form inverse, the
Sheffer generating-function columns, and the coefficient shift laws.
"""

from fractions import Fraction as F
from math import comb, factorial

from umbra.fps import monomial, mul_inv, poly, series, x_series, log1p, compose, comp_inv
from umbra.operators import ShiftOp, apply_op, derivative_op, divide, shift_by, validate_delta
from umbra.sigma import SigmaOp
from umbra.umbral import basic_form, basic_set, sheffer, tri_from_form, tri_invert

from oracles import times_x, tri_from_polys

T = 14
N = 8


def deltas():
    return {
        "Delta": validate_delta(shift_by(1, T) - 1),
        "log1p": validate_delta(ShiftOp(log1p(T))),
        "Catalan": validate_delta(ShiftOp(series([0, 1, -1], T))),
        "Laguerre": validate_delta(ShiftOp(mul_inv(series([1, -1], T)).shift_up(1).truncate(T))),
        "D/2": validate_delta(ShiftOp(x_series(T) / 2)),
    }


def test_generalized_exponentiation_route():
    # phi x^n = Q' sum_k C(n+1, k) (D/Q - 1)^k x^n: the operator closed form
    # expanded through the generalized binomial; finite because C(n+1, k)
    # vanishes for k > n+1, whatever the unit of Q
    from umbra.fps import derive

    for name, Q in deltas().items():
        qprime_op = ShiftOp(derive(Q.indicator))
        ratio = mul_inv(Q.indicator.shift_down(1))
        shifted = ratio - 1  # (D/Q - 1), any order
        rows = []
        for n in range(N + 1):
            acc = poly([])
            power = series([1], shifted.trunc)
            for k in range(n + 2):
                acc = acc + comb(n + 1, k) * apply_op(ShiftOp(power), monomial(n))
                power = power * shifted
            rows.append(apply_op(qprime_op, acc))
        assert tri_from_polys(rows) == basic_set(Q, N, "transfer"), name


def test_evaluation_form_inverse_route():
    # phi^{-1} p = sum_k x^k / k! (Q^k p)(0): rebuild the inverse triangle
    for name, Q in deltas().items():
        rows = []
        for n in range(N + 1):
            acc = poly([])
            qp = monomial(n)
            for k in range(n + 1):
                value = qp(0)
                if value:
                    acc = acc + value * monomial(k) / factorial(k)
                qp = apply_op(Q, qp)
            rows.append(acc)
        assert tri_from_polys(rows) == tri_invert(basic_set(Q, N, "transfer")), name


def test_sheffer_generating_function_columns():
    # column k of a Sheffer triangle: m! [t^m] A(invQ(t)) invQ(t)^k / k!
    Delta = deltas()["Delta"]
    A = divide(derivative_op(T), Delta)  # Bernoulli operator
    sh = tri_from_form(sheffer(A, basic_form(Delta, N, "transfer")))
    g = comp_inv(Delta.indicator.truncate(N))
    a_of_g = compose(A.indicator.truncate(N), g)
    power = series([1], N)
    for k in range(N + 1):
        if k:
            power = power * g
        col = a_of_g * power
        for m in range(k, N + 1):
            assert sh.entry(m, k) == col[m] * F(factorial(m), factorial(k))


def test_coefficient_shift_laws():
    # coeff of UX, XU, UD, DU in terms of coeff of U
    tri = basic_set(deltas()["Catalan"], N, "transfer")
    ux_rows = [tri.apply_poly(monomial(n + 1)) for n in range(N)]  # U X x^n
    xu_rows = [times_x(tri.apply_poly(monomial(n))) for n in range(N)]  # X U x^n
    ud_rows = [tri.apply_poly(monomial(n).derivative()) for n in range(1, N + 1)]
    du_rows = [tri.apply_poly(monomial(n)).derivative() for n in range(N)]
    for n in range(N):
        for k in range(n + 2):
            assert ux_rows[n][k] == tri.entry(n + 1, k)
            assert xu_rows[n][k] == tri.entry(n, k - 1)
        for k in range(n + 1):
            assert du_rows[n][k] == (k + 1) * tri.entry(n, k + 1)
    for n in range(1, N + 1):
        for k in range(n):
            assert ud_rows[n - 1][k] == n * tri.entry(n - 1, k)


def test_euler_operator_stirling_expansion():
    # (x d/dx)^n x^m = m^n x^m = sum_k S(n,k) (m)_k x^m
    from oracles import stirling2

    for n in range(9):
        for m in range(9):
            falling = 1
            total = 0
            for k in range(n + 1):
                falling_k = 1
                for i in range(k):
                    falling_k *= m - i
                total += stirling2(n, k) * falling_k
            assert total == m**n


def test_sigma_iterated_builds_basic_set():
    # phi_n = n! (Q^{-1}_{(0)})^n 1  and  (n+1)...(n+p) Q^{-p} phi_n = phi_{n+p}
    for name, Q in deltas().items():
        s = SigmaOp(Q, 0, depth=N + 1)
        phi = basic_set(Q, N + 1, "transfer")
        acc = poly([1])
        for n in range(1, N + 1):
            acc = s.apply(acc)
            assert factorial(n) * acc == phi.row_poly(n), name
        for n in range(1, 5):
            for p in range(1, 4):
                out = phi.row_poly(n)
                scale = 1
                for i in range(1, p + 1):
                    out = s.apply(out)
                    scale *= n + i
                assert scale * out == phi.row_poly(n + p), name

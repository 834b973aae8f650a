"""Fractional iteration, iterative logarithm, Jabotinsky matrices."""

import random
import sys
from fractions import Fraction as F
from math import factorial

import pytest

import umbra
from umbra import bell, flow, fps, umbral
from umbra.cli import main
from umbra.errors import NotUnitary, OrderError, RouteDisagreement
from umbra.flow import (
    delta_power,
    frac_iterate,
    group_law_check,
    iterate_int,
    itlog,
    jabotinsky,
    koszul_numbers,
    phi_pow,
    shifted_powers,
)
from umbra.fps import (
    comp_inv,
    compose,
    expm1,
    log1p,
    mul_inv,
    series,
    x_series,
)
from umbra.operators import ShiftOp, shift_by, validate_delta
from umbra.umbral import (
    UmbralOp,
    basic_from_inverse_series,
    basic_transfer,
    delta_of,
    tri_compose,
    tri_identity,
    tri_invert,
    tri_power,
)

from oracles import (
    chain_power_coeff,
    flow_route_dense,
    integer_power_chain_coeff,
    interpolated_itlog,
    itlog_iterate_sum,
    matmul,
    minus_one_power_coeff,
    stirling2,
)


# -- integer iteration -------------------------------------------------------------


def test_iterate_once_is_identity_map():
    f = series([0, 1, 2, -1], 8)
    assert iterate_int(f, 1) == f
    assert iterate_int(f, 0) == x_series(8)


def test_iterate_negative_is_inverse():
    f = expm1(9)
    assert iterate_int(f, -1) == log1p(9)


def test_iterate_moebius():
    f = mul_inv(series([1, -1], 9)).shift_up(1).truncate(9)  # x/(1-x)
    expected = mul_inv(series([1, -2], 9)).shift_up(1).truncate(9)  # x/(1-2x)
    assert iterate_int(f, 2) == expected


def test_iterate_requires_order_one():
    with pytest.raises(OrderError):
        iterate_int(series([1, 1], 4), 2)


# -- iterative logarithm -------------------------------------------------------------


def test_itlog_identity_is_zero():
    assert itlog(x_series(8)).is_zero()


def test_itlog_forward_difference():
    f_star = itlog(expm1(10))
    assert f_star[2] == F(1, 2) and f_star[3] == F(-1, 12)
    assert f_star.order() == 2


def test_itlog_matches_interpolation_oracle():
    for f in (expm1(10), series([0, 1, 1], 10), series([0, 1, 0, F(2, 3), -1], 10)):
        assert itlog(f) == interpolated_itlog(f, 10)


def test_itlog_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        itlog(series([0, 2, 1], 6))


def test_itlog_linear_in_generator():
    f = series([0, 1, F(1, 2), F(-1, 3)], 10)
    base = itlog(f)
    for m in (2, 3):
        fm = iterate_int(f, m)
        assert itlog(fm) == base.scale(m)


def test_itlog_matches_iterate_sum():
    # the O(N^4) flow-operator route over integer iterates, which itlog no longer runs
    for f in (expm1(12), series([0, 1, 1], 12), series([0, 1, 0, F(3, 5), 0, 1], 12)):
        for n in range(1, 13):
            assert itlog(f.truncate(n)) == itlog_iterate_sum(f.truncate(n)), (f, n)


def _bump(j):
    def edit(cols, k):
        nums, den = cols[1]
        nums[j - k] += den  # coeff(j, k) of phi - 1 gains 1; for itlog, lam_j moves by 1/j! alone

    return edit


def _double(cols, k):
    for nums, _ in cols:
        nums[:] = [2 * v for v in nums]  # 2 lam also solves Julia's equation


def _corrupt_shifted_columns(monkeypatch, edit=_bump(2)):
    # the integer Krylov columns (nums, den) of (phi - 1)^p, entry i at row k + i
    real = flow._column_powers

    def corrupted(phi, k, pmax):
        cols = [(list(nums), den) for nums, den in real(phi, k, pmax)]
        edit(cols, k)
        return cols

    monkeypatch.setattr(flow, "_column_powers", corrupted)


_BUMPS = [_bump(j) for j in range(2, 13)]


@pytest.mark.parametrize(
    "f, edits",
    [
        (expm1(12), _BUMPS + [_double]),
        (series([0, 1, 0, F(3, 5), 0, 1], 12), _BUMPS + [_double]),
        (x_series(12), _BUMPS),
    ],
    ids=["expm1", "odd", "identity"],
)
def test_itlog_check_catches_each_wrong_coefficient_and_scaling(monkeypatch, f, edits):
    for edit in edits:
        with monkeypatch.context() as mp:
            _corrupt_shifted_columns(mp, edit)
            with pytest.raises(RouteDisagreement, match="itlog routes disagree"):
                itlog(f)


def test_itlog_composes_once(monkeypatch):
    # the iterate sum made N - 1 compositions, O(N^4); the Julia check makes one
    real, calls = fps.compose, []

    def counting(f, g):
        calls.append(f.trunc)
        return real(f, g)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "umbra" and getattr(module, "compose", None) is real:
            monkeypatch.setattr(module, "compose", counting)
    itlog(expm1(20))
    assert len(calls) == 1


def test_koszul_numbers():
    K = koszul_numbers(8)
    assert K[2] == 1 and K[3] == F(-1, 2)
    # Stirling-chain formula for the Koszul numbers
    def chain_sum(n, p):
        def rec(prev, depth):
            if depth == p:
                return F(1) if prev == n else F(0)
            return sum(
                (stirling2(j, prev) * rec(j, depth + 1) for j in range(prev + 1, n + 1)),
                F(0),
            )

        return rec(1, 0)

    for n in range(2, 9):
        expected = sum((F((-1) ** (p - 1), p) * chain_sum(n, p) for p in range(1, n)), F(0))
        assert K[n] == expected


# -- fractional iteration ---------------------------------------------------------------


def test_frac_iterate_at_one_is_f():
    f = expm1(8)
    assert frac_iterate(f, 1, 1, 8) == f.truncate(8)


def test_half_iterate_of_expm1():
    h = frac_iterate(expm1(12), F(1, 2), 1, 12)
    assert h[1] == 1 and h[2] == F(1, 4) and h[3] == F(1, 48)
    assert compose(h, h) == expm1(12)


def test_frac_iterate_minus_one_is_comp_inv():
    f = series([0, 1, -1, F(2, 5)], 10)
    assert frac_iterate(f, -1, 1, 10) == comp_inv(f)


def test_frac_iterate_integer_matches_iteration():
    f = series([0, 1, 1], 10)
    for s in range(4):
        assert frac_iterate(f, s, 1, 10) == iterate_int(f, s)


def test_frac_iterate_powers_k():
    f = expm1(9)
    g = frac_iterate(f, F(1, 2), 1, 9)
    for k in (2, 3):
        expected = (g**k).scale(F(1, factorial(k)))
        assert frac_iterate(f, F(1, 2), k, 9) == expected


def test_flow_additivity():
    f = series([0, 1, 1], 12)
    for s1, s2 in ((F(1, 2), F(-1, 2)), (F(1, 3), F(2, 3)), (F(5, 4), F(1, 2))):
        lhs = compose(frac_iterate(f, s1, 1, 12), frac_iterate(f, s2, 1, 12))
        assert lhs == frac_iterate(f, s1 + s2, 1, 12)


def test_group_law():
    assert group_law_check(expm1(10), 1, 1, 8)  # trivial: composition is f^2
    assert group_law_check(expm1(10), F(1, 2), F(1, 2), 10)
    assert group_law_check(series([0, 1, 1], 10), F(2, 3), F(3, 2), 10)


def test_frac_iterate_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        frac_iterate(series([0, 2], 6), F(1, 2), 1, 6)


# -- (phi - 1)^p coefficients ---------------------------------------------------------------


def touchard_triangle(n):
    return basic_transfer(validate_delta(ShiftOp(log1p(n + 4))), n).tri


def test_minus_one_power_p0():
    tri = touchard_triangle(6)
    for n in range(7):
        for k in range(n + 1):
            assert minus_one_power_coeff(tri, 0, n, k) == (1 if n == k else 0)


def test_minus_one_power_vanishing():
    tri = touchard_triangle(10)
    for n in range(11):
        for k in range(n + 1):
            for p in range(n - k + 1, n - k + 4):
                assert minus_one_power_coeff(tri, p, n, k) == 0


def test_minus_one_power_touchard_chain_value():
    tri = touchard_triangle(6)
    assert minus_one_power_coeff(tri, 2, 4, 1) == 13  # S(4,2)S(2,1) + S(4,3)S(3,1)
    assert chain_power_coeff(tri, 2, 4, 1) == 13


def test_minus_one_power_equals_alternating_sum():
    tri = touchard_triangle(8)
    powers = [tri_identity(8)]
    for _ in range(8):
        powers.append(tri_compose(powers[-1], tri))
    from math import comb

    for p in range(4):
        for n in range(9):
            for k in range(n + 1):
                alt = sum(
                    (
                        F(comb(p, ell) * (-1) ** (p - ell)) * powers[ell].entry(n, k)
                        for ell in range(p + 1)
                    ),
                    F(0),
                )
                assert minus_one_power_coeff(tri, p, n, k) == alt


def test_minus_one_power_chain_oracle():
    tri = touchard_triangle(8)
    for p in range(4):
        for n in range(8):
            for k in range(n + 1):
                assert minus_one_power_coeff(tri, p, n, k) == chain_power_coeff(tri, p, n, k)


def test_integer_chain_matches_composition():
    tri = touchard_triangle(6)
    rng = random.Random(4)
    t3 = tri_compose(tri_compose(tri, tri), tri)
    for n in range(7):
        for k in range(n + 1):
            assert integer_power_chain_coeff(tri, 1, n, k) == tri.entry(n, k)
    for _ in range(6):
        n = rng.randint(0, 6)
        k = rng.randint(0, n)
        assert integer_power_chain_coeff(tri, 3, n, k) == t3.entry(n, k)
    # Bell-number identity: coeff(n,1) of phi^{-2} where phi is the falling triangle
    falling = basic_transfer(validate_delta(shift_by(1, 10) - 1), 8).tri
    inv2 = tri_compose(tri_invert(falling), tri_invert(falling))
    from oracles import bell_number

    for n in range(1, 9):
        assert inv2.entry(n, 1) == bell_number(n)


def test_schroeder_consistency():
    # natural s: the binomial-chain display equals the direct iterate
    f = expm1(10)
    for s in (1, 2, 3):
        assert frac_iterate(f, s, 1, 8) == iterate_int(f.truncate(8), s)


def test_column_powers_match_full_powers_and_chain_oracles():
    f = series([0, 1, F(1, 2), F(-2, 3), F(1, 5)], 8)
    tri, rows = basic_from_inverse_series(f, 8).tri, flow._flow_triangle(f, 8)
    powers = shifted_powers(tri, 8)
    for k in range(9):
        # column k as coeff(m, k) for m = 0..8; the Krylov columns start at row k
        cols = [[F(0)] * k + [F(v, den) for v in nums] for nums, den in flow._column_powers(rows, k, 8)]
        for p in range(9):
            for m in range(9):
                assert cols[p][m] == powers[p].entry(m, k) == chain_power_coeff(tri, p, m, k)
    assert minus_one_power_coeff(tri, 1, 9, 1) == 0  # row beyond the triangle


def test_frac_iterate_power_index_beyond_order_is_zero():
    out = frac_iterate(expm1(6), F(1, 2), 8, 6)
    assert out == series([0], 6)


def test_itlog_cross_check_bites(monkeypatch):
    _corrupt_shifted_columns(monkeypatch)
    with pytest.raises(RouteDisagreement, match="itlog routes disagree"):
        itlog(expm1(8))


def test_frac_iterate_cross_check_bites(monkeypatch):
    _corrupt_shifted_columns(monkeypatch)
    with pytest.raises(RouteDisagreement, match="fractional iterate routes disagree"):
        frac_iterate(expm1(8), F(1, 2), 1, 8)


# -- phi_pow ------------------------------------------------------------------------------------


def delta_forward(trunc):
    return validate_delta(shift_by(1, trunc) - 1)


def test_phi_pow_zero_is_identity():
    assert phi_pow(delta_forward(10), 0, 6) == tri_identity(6)


def test_phi_pow_minus_one_is_touchard():
    got = phi_pow(delta_forward(10), -1, 6)
    assert got == tri_invert(basic_transfer(delta_forward(10), 6).tri)
    assert got.entry(4, 2) == 7  # S(4,2)


def test_phi_pow_half_self_composes():
    half = phi_pow(delta_forward(10), F(1, 2), 6)
    assert tri_compose(half, half) == basic_transfer(delta_forward(10), 6).tri


def test_phi_pow_unit_diagonal():
    for s in (F(1, 2), F(-2, 3), F(5)):
        assert all(d == 1 for d in phi_pow(delta_forward(12), s, 8).diagonal())


def test_phi_pow_integer_matches_triangle_power():
    base = basic_transfer(delta_forward(12), 7).tri
    for s in (-2, 2, 3):
        assert phi_pow(delta_forward(12), s, 7) == tri_power(base, s)


def test_phi_pow_delta_consistency():
    # the delta of phi^s is the fractional bracket power Q^[s]
    Q = delta_forward(12)
    for s in (F(1, 2), F(-1, 3)):
        tri = phi_pow(Q, s, 8)
        got = delta_of(UmbralOp(tri))
        expected = delta_power(Q, s, 8)
        assert all(got.indicator[i] == expected.indicator[i] for i in range(9))


def test_delta_power_is_exported_from_the_package():
    assert umbra.delta_power is flow.delta_power
    Q = delta_forward(12)
    # Q^[1/2] has the half iterate of Q~ as its indicator, and Q^[1/2]^[2] is Q
    half = umbra.delta_power(Q, F(1, 2), 8)
    assert umbra.delta_power(half, 2, 8).indicator == Q.indicator.truncate(8)
    assert half.indicator == frac_iterate(Q.indicator, F(1, 2), 1, 8)


def test_phi_pow_rejects_non_unitary():
    Q = validate_delta(ShiftOp(x_series(8) / 2))
    with pytest.raises(NotUnitary):
        phi_pow(Q, F(1, 2), 6)


def _wrong_bell_columns(m, k):
    """A stand-in for bell._bell_columns whose integer entry E_(m,k) gains 1."""
    real = bell._bell_columns

    def corrupted(a, n, kk, depth):
        cols, d = real(a, n, kk, depth)
        if k <= kk and m <= n:
            cols[k][m] += 1
        return cols, d

    return corrupted


def _wrong_powers(k, m):
    """A stand-in for umbral's power table whose [x^m] g^k gains 1."""
    real = umbral.powers

    def corrupted(f, count):
        for j, (p, dp) in enumerate(real(f, count)):
            if j == k:
                p = p[:m] + [p[m] + dp] + p[m + 1 :]
            yield p, dp

    return corrupted


def test_phi_pow_cross_check_bites(monkeypatch):
    # g = q^(-s) is checked by frac_iterate against q (x^2 by its leading term, x^N by
    # g o q = q o g), and the Bell and power triangles of g by each other
    real = flow._frac_coefficients
    for j, route in ((2, "leading_term"), (6, "equation")):
        with monkeypatch.context() as mp:
            mp.setattr(flow, "_frac_coefficients", lambda f, s, n, j=j: real(f, s, n) + series([0] * j + [1], n))
            with pytest.raises(RouteDisagreement, match="fractional iterate routes disagree") as info:
                phi_pow(delta_forward(10), F(1, 2), 6)
        assert info.value.routes == ("coefficient", route)
    for module, name, corrupted in (
        (bell, "_bell_columns", _wrong_bell_columns(4, 2)),
        (umbral, "powers", _wrong_powers(2, 4)),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(module, name, corrupted)
            with pytest.raises(RouteDisagreement, match="phi_pow routes disagree") as info:
                phi_pow(delta_forward(10), F(1, 2), 6)
        assert (info.value.routes, info.value.index) == (("bell", "powers"), [4, 2])


FLOW_EXPONENTS = (0, -1, F(1, 2), F(-2, 3), 3)


@pytest.mark.parametrize("n", [*range(13), 20, 33])
def test_flow_route_matches_dense_oracle(n):
    # phi_pow, the Bell triangle of q^(-s), equals the paper's flow construction e^(-sG),
    # G = X Q_*, run by dense per-row products in the oracle, and the Bell triangle of
    # (q^-1)^s, whose comp_inv and frac_iterate share nothing with phi_pow's g
    inputs = [expm1(max(n, 1))]
    if n <= 12:
        inputs.append(series([0, 1, F(1, 2), F(-2, 3)], max(n, 1)))
    for q in inputs:
        got = [phi_pow(validate_delta(ShiftOp(q)), s, n) for s in FLOW_EXPONENTS]
        assert got == flow_route_dense(itlog(q), FLOW_EXPONENTS, n), (q, n)
        through_inverse = [basic_from_inverse_series(frac_iterate(comp_inv(q), s), n).tri for s in FLOW_EXPONENTS]
        assert got == through_inverse, (q, n)


def test_only_phi_pow_route_b_builds_a_bell_triangle(monkeypatch, capsys):
    # phi_pow's bell route is the one Bell triangle of Fractions; the flow triangles of
    # itlog and frac_iterate come from the Bell columns as integers
    real, calls = umbral.basic_from_inverse_series, []

    def counting(f, n, delta=None):
        calls.append(n)
        return real(f, n, delta)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "umbra" and getattr(module, "basic_from_inverse_series", None) is real:
            monkeypatch.setattr(module, "basic_from_inverse_series", counting)
    for argv, count in (
        (["phipow", "--delta=exp(D)-1", "--s=1/2", "--order=12"], 1),
        (["phipow", "--delta=D+D^2", "--s=-2/3", "--order=7"], 1),
        (["itlog", "--series=exp(x)-1", "--order=12"], 0),
        (["iterate", "--series=x+x^2", "--s=1/3", "--order=12"], 0),
        (["iterate", "--series=exp(x)-1", "--s=-3", "--k=2", "--order=9"], 0),
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == count, argv
    capsys.readouterr()


def test_phipow_takes_one_frac_iterate_and_no_itlog_or_comp_inv(monkeypatch, capsys):
    # g = q^(-s) is read off q itself: no inverse series and no generator
    calls = []
    for name in ("itlog", "comp_inv", "frac_iterate"):
        real = getattr(fps if name == "comp_inv" else flow, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "umbra" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    for argv in (
        ["phipow", "--delta=exp(D)-1", "--s=1/2", "--order=12"],
        ["phipow", "--delta=D+D^2", "--s=-2/3", "--order=7"],
        ["phipow", "--delta=D-D^2/2+3*D^3/7+D^4/5", "--s=3", "--order=0"],
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls == ["frac_iterate"], argv
    capsys.readouterr()


@pytest.mark.parametrize(("delta", "s"), [("exp(D)-1", "1/2"), ("D+D^2", "-2/3")])
def test_phipow_exits_nonzero_or_prints_the_clean_triangle_on_each_wrong_entry(monkeypatch, capsys, delta, s):
    # at N = 8 every single entry of the flow triangle of frac_iterate, of the Bell columns
    # and of the power table gains 1 in turn; no corruption may print a wrong triangle
    argv = ["phipow", f"--delta={delta}", f"--s={s}", "--order=8"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    real_flow = flow._flow_triangle

    def wrong_flow(m, k):
        def corrupted(f, n):
            rows, den = real_flow(f, n)
            rows[m][k] += den
            return rows, den

        return corrupted

    cells = [(m, k) for m in range(9) for k in range(m + 1)]
    cases = [(flow, "_flow_triangle", wrong_flow(m, k), (m, k), "fractional iterate" if 1 <= k < m else None)
             for m, k in cells]
    # column 0 of the Bell columns breaks UmbralOp's check (exit 2); any other entry reaches bell
    cases += [(bell, "_bell_columns", _wrong_bell_columns(m, k), (m, k), "phi_pow" if k else 2) for m, k in cells]
    # [x^m] g^k with m < k is never read
    cases += [(umbral, "powers", _wrong_powers(k, m), (m, k), "phi_pow") for m, k in cells]
    cases += [(umbral, "powers", _wrong_powers(k, m), (m, k), None) for k in range(9) for m in range(k)]
    for module, name, corrupted, cell, expected in cases:
        with monkeypatch.context() as mp:
            mp.setattr(module, name, corrupted)
            code = main(argv)
        out = capsys.readouterr().out
        if expected is None:
            assert (code, out) == (0, clean), (name, cell)
        elif expected == 2:
            assert (code, out) == (2, ""), (name, cell)
        else:
            assert code == 1 and f'"construction":"{expected}"' in out, (name, cell)


def test_iterate_builds_one_flow_triangle_and_one_column_pass(monkeypatch, capsys):
    # the checks of f^s read no flow triangle, and k > 1 powers the checked f^s
    calls = []
    for name in ("_flow_triangle", "_column_powers"):
        real = getattr(flow, name)
        monkeypatch.setattr(flow, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for argv in (
        ["iterate", "--series=exp(x)-1", "--s=1/2", "--order=12"],
        ["iterate", "--series=x+x^2", "--s=-3", "--k=2", "--order=9"],
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls == ["_flow_triangle", "_column_powers"], argv
    capsys.readouterr()


@pytest.mark.parametrize("s", ["1/2", "-2/3"])
def test_iterate_exits_1_or_prints_the_clean_series_on_each_wrong_flow_entry(monkeypatch, capsys, s):
    # every single entry of the flow triangle at N = 8 gains 1 in turn; column 0 and the
    # diagonal are never read, and with no C(s, p) zero every other entry reaches f^s,
    # so its check must fail
    argv = ["iterate", "--series=exp(x)-1", f"--s={s}", "--order=8"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    real = flow._flow_triangle
    for m in range(9):
        for k in range(m + 1):

            def corrupted(f, n, m=m, k=k):
                rows, den = real(f, n)
                rows[m][k] += den
                return rows, den

            with monkeypatch.context() as mp:
                mp.setattr(flow, "_flow_triangle", corrupted)
                code = main(argv)
            out = capsys.readouterr().out
            if 1 <= k < m:
                assert code == 1 and '"construction":"fractional iterate"' in out, (m, k)
            else:
                assert (code, out) == (0, clean), (m, k)


# -- Jabotinsky export -------------------------------------------------------------------------------


def test_jabotinsky_identity():
    jab = jabotinsky(tri_identity(5))
    for i in range(6):
        for j in range(6):
            assert jab[i][j] == (1 if i == j else 0)


def test_jabotinsky_rescaling():
    tri = touchard_triangle(5)
    jab = jabotinsky(tri)
    for n in range(6):
        for k in range(n + 1):
            assert jab[n][k] == tri.entry(n, k) * F(factorial(k), factorial(n))


def test_jabotinsky_product_corresponds_to_composition():
    rng = random.Random(13)

    def random_unitary(n):
        rows = []
        for m in range(n + 1):
            row = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] + [F(1)]
            if m >= 1:
                row[0] = F(0)
            rows.append(row)
        rows[0] = [F(1)]
        from umbra.umbral import triangle

        return triangle(rows)

    a = random_unitary(6)
    b = random_unitary(6)
    composed = tri_compose(a, b)
    assert jabotinsky(composed) == matmul(jabotinsky(b), jabotinsky(a))

"""Acceptance criteria.

Every criterion is exact (tolerance zero) in Q.  Each test prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import functools
import random
import time
from fractions import Fraction as F
from math import comb, factorial

from umbra.cli import main as cli_main
from umbra.catalog import family
from umbra.flow import frac_iterate, itlog, koszul_numbers
from umbra.fps import comp_inv, compose, expm1, lagrange_power, poly, series
from umbra.operators import apply_op
from umbra.sigma import SigmaOp, euler_maclaurin_residual, faulhaber, frac_sum_eval
from umbra.umbral import (
    BASIC_ROUTES,
    Triangle,
    basic_form,
    basic_set,
    delta_of,
    is_binomial_type,
    niederhausen,
    sheffer,
    transform_seq,
    tri_from_form,
    tri_invert,
)

import oracles


def _report(num: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS  {description}")

        return wrapped

    return decorator


def _acceptance_deltas(trunc: int):
    return [
        ("D", family("derivative").delta(trunc)),
        ("D/2", family("stretch", lam=2).delta(trunc)),
        ("D/3", family("stretch", lam=3).delta(trunc)),
        ("Delta", family("falling").delta(trunc)),
        ("Nabla", family("rising").delta(trunc)),
        ("Delta_1/2", family("divided_difference", h=F(1, 2)).delta(trunc)),
        ("log(1+D)", family("touchard").delta(trunc)),
        ("D/(1-D)", family("laguerre").delta(trunc)),
        ("D(1-D)", family("catalan").delta(trunc)),
        ("DE^1", family("abel", a=1).delta(trunc)),
        ("Psi_2", family("degenerate_laguerre", p=2).delta(trunc)),
        ("Psi_3", family("degenerate_laguerre", p=3).delta(trunc)),
    ]


@_report(1, "five-route basic-sequence agreement at N=12 in under 10 s")
def test_criterion_1_five_routes():
    start = time.perf_counter()
    for name, Q in _acceptance_deltas(14):
        tris = {route: basic_set(Q, 12, route) for route in BASIC_ROUTES}
        reference = tris.pop("transfer")
        for route, tri in tris.items():
            assert tri == reference, (name, route)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"five-route agreement took {elapsed:.2f}s"


@_report(2, "known triangles match closed forms for n <= 10")
def test_criterion_2_known_triangles():
    n = 10
    stirling1_signed = basic_set(family("falling").delta(n + 2), n, "transfer")
    stirling2_tri = basic_set(family("touchard").delta(n + 2), n, "transfer")
    laguerre = basic_set(family("laguerre").delta(n + 2), n, "transfer")
    lah_unsigned = tri_invert(laguerre)
    catalan_tri = basic_set(family("catalan").delta(n + 2), n, "transfer")
    abel_tri = basic_set(family("abel", a=1).delta(n + 2), n, "transfer")
    D = family("derivative").delta(n + 2)
    idempotent = niederhausen(basic_set(D, n, "transfer"), D)
    for m in range(n + 1):
        for k in range(m + 1):
            assert stirling1_signed.entry(m, k) == (-1) ** (m - k) * oracles.stirling1_unsigned(m, k)
            assert stirling2_tri.entry(m, k) == oracles.stirling2(m, k)
            assert laguerre.entry(m, k) == (-1) ** (m - k) * oracles.lah(m, k)
            assert lah_unsigned.entry(m, k) == oracles.lah(m, k)
            if m and k:
                assert catalan_tri.entry(m, k) == F(
                    comb(2 * m - k - 1, m - 1) * factorial(m - 1), factorial(k - 1)
                )
                assert abel_tri.entry(m, k) == comb(m - 1, k - 1) * F(-m) ** (m - k)
            expected_idem = comb(m, k) * F(k) ** (m - k) if (m, k) != (0, 0) else F(1)
            assert idempotent.entry(m, k) == expected_idem


@_report(3, "Lagrange-Buermann equals comp_inv powers on 8 random series (N=20)")
def test_criterion_3_lagrange():
    rng = random.Random(12345)
    for _ in range(8):
        coeffs = [F(0), F(rng.choice([c for c in range(-5, 6) if c]), rng.randint(1, 5))]
        coeffs += [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(19)]
        f = series(coeffs, 20)
        g = comp_inv(f)
        for k in range(1, 6):
            direct = g**k
            via_lagrange = lagrange_power(f, k, 20)
            assert all(via_lagrange[n] == direct[n] for n in range(21))


@_report(4, "fractional iterates compose back exactly to order 12")
def test_criterion_4_fractional_iteration():
    for f in (expm1(12), series([0, 1, 1], 12)):
        half = frac_iterate(f, F(1, 2), 1, 12)
        assert compose(half, half) == f
        third = frac_iterate(f, F(1, 3), 1, 12)
        assert compose(third, compose(third, third)) == f
        two_thirds = frac_iterate(f, F(2, 3), 1, 12)
        assert frac_iterate(two_thirds, F(3, 2), 1, 12) == f
    h = frac_iterate(expm1(12), F(1, 2), 1, 12)
    assert h[1] == 1 and h[2] == F(1, 4) and h[3] == F(1, 48)


@_report(5, "iterative logarithm: dual routes, Koszul values, vanishing lemma")
def test_criterion_5_itlog():
    for f in (expm1(10), series([0, 1, 1], 10)):
        assert itlog(f) == oracles.interpolated_itlog(f, 10)  # route (ii) vs oracle
    K = koszul_numbers(10)
    assert K[2] == 1 and K[3] == F(-1, 2)
    for name, Q in _acceptance_deltas(13)[3:]:  # the unitary ones incl. Delta
        if not Q.is_unitary():
            continue
        tri = basic_set(Q, 10, "transfer")
        for n in range(11):
            for k in range(n + 1):
                for p in range(n - k + 1, n - k + 3):
                    assert oracles.minus_one_power_coeff(tri, p, n, k) == 0, name


@_report(6, "dual inversion transforms invert on 20 random sequences per triangle")
def test_criterion_6_inversion():
    rng = random.Random(777)
    n = 12
    for name, Q in _acceptance_deltas(n + 2):
        tri = basic_set(Q, n, "transfer")
        inv = tri_invert(tri)
        for _ in range(20):
            seq = [F(rng.randint(-50, 50), rng.randint(1, 13)) for _ in range(n + 1)]
            for mode in ("row", "column"):
                assert transform_seq(inv, transform_seq(tri, seq, mode), mode) == seq, name
                assert transform_seq(tri, transform_seq(inv, seq, mode), mode) == seq, name


@_report(7, "sigma calculus: defining relations, Faulhaber, fractional sum, Euler-Maclaurin")
def test_criterion_7_sigma():
    for name, Q in _acceptance_deltas(16):
        for a in (F(0), F(1), F(-1, 2)):
            s = SigmaOp(Q, a, depth=12)
            for m in range(13):
                p = poly([0] * m + [1])
                assert apply_op(Q, s.apply(p)) == p, (name, a)
                assert s.apply(apply_op(Q, p)) == p - p(a), (name, a)
    for n in range(11):
        faulhaber(n)  # closed form and sigma asserted equal internally
    assert frac_sum_eval(poly([0, 0, 1]), 0, 5) == 30
    rng = random.Random(4242)
    for _ in range(10):
        p = poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 9))])
        euler_maclaurin_residual(p, F(rng.randint(-2, 2)))  # dual route asserted internally


@_report(8, "family identity suite (check --all) exits 0 in under 60 s")
def test_criterion_8_family_identities(capsys):
    start = time.perf_counter()
    code = cli_main(["check", "--all", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 60.0, f"check --all took {elapsed:.2f}s"
    import json

    report = json.loads(out)
    identities = {item["identity"] for item in report}
    required = {
        "spivey",
        "dobinski",
        "erdelyi",
        "abel_identity",
        "smooth_abel",
        "laguerre_commutation",
        "laguerre_involution",
        "degenerate_laguerre_ode",
        "degenerate_cross",
    }
    assert required <= identities
    assert all(item["status"] == "pass" for item in report)


@_report(9, "Niederhausen transform: idempotent triangle and Lambert-type delta")
def test_criterion_9_niederhausen():
    D = family("derivative").delta(12)
    nie = niederhausen(basic_set(D, 10, "transfer"), D)
    for m in range(11):
        for k in range(m + 1):
            expected = comb(m, k) * F(k) ** (m - k) if (m, k) != (0, 0) else F(1)
            assert nie.entry(m, k) == expected
    ind = delta_of(nie).indicator
    for m in range(1, 11):
        assert ind[m] == F((-m) ** (m - 1), factorial(m))
    assert [ind[i] for i in range(1, 5)] == [1, -1, F(3, 2), F(-8, 3)]


@_report(10, "binomial-type detector: zero false classifications")
def test_criterion_10_detector():
    n = 8
    for name, Q in _acceptance_deltas(n + 2):
        assert is_binomial_type(basic_set(Q, n, "transfer")), name
    D = family("derivative").delta(n + 2)
    Delta = family("falling").delta(n + 2)
    from umbra.operators import divide

    bernoulli = tri_from_form(sheffer(divide(D, Delta), basic_form(D, n, "transfer")))
    second_kind = tri_from_form(sheffer(divide(Delta, D), basic_form(Delta, n, "transfer")))
    assert not is_binomial_type(bernoulli)
    assert not is_binomial_type(second_kind)
    rng = random.Random(31337)
    base = basic_set(family("touchard").delta(n + 2), n, "transfer")
    for _ in range(5):
        m = rng.randint(2, n)
        k = rng.randint(2, m)
        rows = [list(r) for r in base.rows]
        rows[m][k] += F(rng.randint(1, 7), rng.randint(1, 4))
        assert not is_binomial_type(Triangle(tuple(tuple(r) for r in rows)))

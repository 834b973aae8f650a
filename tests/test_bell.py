"""Partial/complete Bell polynomials against the partition-sum oracle."""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.bell import partial_bell
from umbra.fps import series
from umbra.operators import ShiftOp, validate_delta, shift_by
from umbra.umbral import basic_set

from oracles import (
    catalan,
    complete_bell,
    complete_bell_via_exp,
    egf_from_arguments,
    partial_bell_table,
    partition_bell,
    stirling2,
)


def test_diagonal_is_first_argument_power():
    for n in range(1, 7):
        assert partial_bell(n, n, [F(3, 2)]) == F(3, 2) ** n


def test_all_ones_gives_stirling2():
    for n in range(9):
        for k in range(n + 1):
            assert partial_bell(n, k, [1] * max(n, 1)) == stirling2(n, k)


def test_catalan_argument_evaluation():
    # arguments are the EGF-normalized Catalan numbers j! * C_{j-1}
    args = [factorial(j) * catalan(j - 1) for j in range(1, 10)]
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = F(factorial(n - 1), factorial(k - 1)) * comb(2 * n - k - 1, n - 1)
            assert partial_bell(n, k, args) == expected
    assert partial_bell(3, 2, args[:2]) == 6


def test_complete_bell_numbers():
    assert complete_bell(3, [1, 1, 1]) == 5
    assert complete_bell(0, []) == 1
    for n in range(9):
        assert complete_bell(n, [1] * max(n, 1)) == sum(stirling2(n, k) for k in range(n + 1))


def test_complete_equals_sum_of_partials_and_exp_route():
    rng = random.Random(7)
    a = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(10)]
    for n in range(1, 10):
        total = sum(partial_bell(n, k, a) for k in range(n + 1))
        assert complete_bell(n, a) == total == complete_bell_via_exp(n, a)


def test_falling_factorial_values_from_complete_bell():
    # phi_n(x) = B_n(a_1 x, ..., a_n x) with a_j from log(1+t)
    a = [(-1) ** (j - 1) * factorial(j - 1) for j in range(1, 8)]
    x = F(2)
    scaled = [v * x for v in a]
    assert complete_bell(2, scaled) == 2  # (2)_2
    assert complete_bell(3, scaled) == 0  # (2)_3 = 2*1*0


def test_index_error_on_bad_k():
    with pytest.raises(IndexError):
        partial_bell(2, 3, [1, 1, 1])
    with pytest.raises(IndexError, match="need argument a_2, got only 1 arguments"):
        partial_bell(3, 2, [1])  # needs a_1, a_2
    with pytest.raises(IndexError, match="need argument a_3, got only 2 arguments"):
        complete_bell(3, [1, 1])
    assert partial_bell(3, 0, []) == 0 and partial_bell(0, 0, []) == 1  # k = 0 reads no argument


def test_partition_oracle_agreement():
    rng = random.Random(3)
    a = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(12)]
    for n in range(13):
        for k in range(n + 1):
            assert partial_bell(n, k, a) == partition_bell(n, k, a)


def test_series_route_agreement_to_12():
    # recurrence route equals n! [x^n] f^k / k! for random rational arguments
    rng = random.Random(11)
    a = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(12)]
    f = egf_from_arguments(a, 12)
    power = series([1], 12)
    fact_k = 1
    for k in range(13):
        if k:
            power = power * f
            fact_k *= k
        for n in range(k, 13):
            expected = power[n] * F(factorial(n), fact_k)
            assert partial_bell(n, k, a) == expected


def test_homogeneity_scaling_law():
    # B_{n,k}(a_1, h a_2, h^2 a_3, ...) = h^{n-k} B_{n,k}(a), the stretch
    # conjugation pattern of the coefficient triangles
    rng = random.Random(5)
    a = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)]
    h = F(3, 2)
    scaled = [a[j] * h**j for j in range(9)]
    for n in range(9):
        for k in range(n + 1):
            assert partial_bell(n, k, scaled) == h ** (n - k) * partial_bell(n, k, a)


def test_triangle_coefficients_are_bell_values():
    # coeff[n][k] = B_{n,k}(a) with a_j = j! [t^j] invQ, for catalog families
    from umbra.fps import comp_inv, log1p, mul_inv

    T = 13
    deltas = [
        validate_delta(shift_by(1, T) - 1),
        validate_delta(ShiftOp(log1p(T))),
        validate_delta(ShiftOp(series([0, 1, -1], T))),
        validate_delta(ShiftOp(mul_inv(series([1, -1], T)).shift_up(1).truncate(T))),
    ]
    for Q in deltas:
        tri = basic_set(Q, 10, "transfer")
        inv = comp_inv(Q.indicator)
        a = [factorial(j) * inv[j] for j in range(1, 11)]
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert tri.entry(n, k) == partial_bell(n, k, a)


def test_table_matches_entries_and_partition_oracle():
    rng = random.Random(17)
    rational = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(10)]
    non_unit_a1 = [F(-3, 2)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9)]
    for a in (rational, non_unit_a1):
        table = partial_bell_table(10, a)
        assert [len(row) for row in table] == list(range(1, 12))
        for m in range(11):
            for k in range(m + 1):
                assert table[m][k] == partial_bell(m, k, a) == partition_bell(m, k, a)
        for n in range(10):
            assert partial_bell_table(n, a) == table[: n + 1]


def test_table_edge_cases():
    assert partial_bell_table(0, []) == ((1,),)
    assert partial_bell_table(1, [F(2, 3)]) == ((1,), (0, F(2, 3)))
    with pytest.raises(IndexError):
        partial_bell_table(3, [1, 1])  # needs a_1, a_2, a_3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=8))
def test_table_property_random_rationals(a):
    n = len(a)
    table = partial_bell_table(n, a)
    for m in range(n + 1):
        for k in range(m + 1):
            assert table[m][k] == partition_bell(m, k, a)

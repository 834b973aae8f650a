"""Differential test against sympy, an independent computer algebra system.

sympy is used by this test only (skipped where it is not installed): series
expansions of exp, log, sqrt and rational powers of short polynomials, and
the Stirling and Bell numbers of the catalog and of its basic triangles.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import bell, stirling  # noqa: E402

from umbra import catalog  # noqa: E402
from umbra.expr import eval_expr  # noqa: E402

N = 12
X = sympy.Symbol("x")

EXPRESSIONS = (
    "exp(x/2-x^2/3+x^3)",
    "log(1+x/3-2*x^2/7+x^3/11)",
    "sqrt(1+x/3-2*x^2/7+x^3/11)",
    "(1-3*x/5+x^2/9+7*x^3)^(-22/7)",
    "(1+x/3-2*x^2/7+x^3/11)^(5/3)",
    "(1+2*x-x^2)^(-3)",
    "1/(1-x-x^2)",
)


def sympy_coefficients(text: str, n: int) -> list[Fraction]:
    expansion = sympy.sympify(text, locals={"x": X}).series(X, 0, n + 1).removeO()
    return [Fraction(str(expansion.coeff(X, k))) for k in range(n + 1)]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_series_matches_sympy(text):
    assert list(eval_expr(text, N).coeffs) == sympy_coefficients(text, N)


def test_stirling_and_bell_numbers_match_sympy():
    first, second = catalog.stirling_rows(N, True), catalog.stirling_rows(N, False)
    for n in range(N + 1):
        assert sum(second[n]) == bell(n)
        assert first[n] == [stirling(n, k, kind=1) for k in range(n + 1)]
        assert second[n] == [stirling(n, k, kind=2) for k in range(n + 1)]


def test_basic_triangles_match_sympy_stirling_numbers():
    touchard = catalog.family("touchard").basic(N)
    falling = catalog.family("falling").basic(N)
    for n in range(N + 1):
        assert sum(touchard.rows[n]) == bell(n)
        for k in range(n + 1):
            assert touchard.rows[n][k] == stirling(n, k, kind=2)
            assert falling.rows[n][k] == stirling(n, k, kind=1, signed=True)

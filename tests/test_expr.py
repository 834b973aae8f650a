"""Expression front-end: grammar, precedence, evaluation, rendering."""

import random
import sys
from fractions import Fraction as F
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from umbra.errors import ConstantTermError, DivisionOrderError, NotInvertible, ParseError, UmbraError
from umbra.expr import BinOp, Call, Neg, Num, Pow, Var, degree_bound, eval_ast, eval_expr, parse
from umbra.fps import Series, log1p, series

import oracles
from oracles import render


# -- parsing ---------------------------------------------------------------------


def test_parse_division_shape():
    ast = parse("D/(1-D)")
    assert isinstance(ast, BinOp) and ast.op == "/"
    assert isinstance(ast.left, Var) and ast.left.name == "D"
    assert isinstance(ast.right, BinOp) and ast.right.op == "-"


def test_parse_call_shape():
    ast = parse("exp(x)-1")
    assert isinstance(ast, BinOp) and ast.op == "-"
    assert isinstance(ast.left, Call) and ast.left.func == "exp"
    assert isinstance(ast.right, Num) and ast.right.value == 1


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse("exp(x")
    assert err.value.pos == 5
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert err.value.pos == 0
    with pytest.raises(ParseError):
        parse("x ^ 2 ^ 3")  # exponent is a literal; chaining is ungrammatical


def test_parse_edge_inputs():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")
    with pytest.raises(ParseError):
        parse("x @ 2")
    with pytest.raises(ParseError):
        parse("1/0")  # zero denominator in a rational literal
    # whitespace is insignificant
    assert parse(" x + 1 ") == parse("x+1") or render(parse(" x + 1 ")) == render(parse("x+1"))


def test_eval_order_zero():
    assert eval_expr("exp(x)", 0) == series([1], 0)
    assert eval_expr("D/(exp(D)-1)", 0) == series([1], 0)


# -- evaluation --------------------------------------------------------------------


def test_eval_log_expansion():
    got = eval_expr("log(1+D)", 4)
    assert got == log1p(4)
    assert [got[i] for i in range(5)] == [0, 1, F(-1, 2), F(1, 3), F(-1, 4)]


def test_eval_geometric_quotient():
    assert eval_expr("D/(1-D)", 3) == series([0, 1, 1, 1], 3)


def test_eval_catalan_egf():
    got = eval_expr("(1-sqrt(1-4*D))/2", 6)
    assert got[3] == 2 and got[4] == 5


def test_eval_division_by_pure_d_fails():
    with pytest.raises(DivisionOrderError) as err:
        eval_expr("1/D", 8)
    assert "offset 0" in str(err.value)


def test_eval_operator_division_keeps_order():
    got = eval_expr("D/(exp(D)-1)", 6)
    assert got.trunc == 6
    assert got[0] == 1 and got[1] == F(-1, 2) and got[2] == F(1, 12)


def test_eval_rational_literals_and_powers():
    assert eval_expr("1/2", 2) == series([F(1, 2)], 2)
    assert eval_expr("x^2", 4) == series([0, 0, 1], 4)
    assert eval_expr("(1+x)^(1/2)", 4) * eval_expr("(1+x)^(1/2)", 4) == series([1, 1], 4)
    assert eval_expr("(1+x)^-1", 3) == series([1, -1, 1, -1], 3)
    # rational literal binds before '^' (normative grammar): (3/2)^2
    assert eval_expr("3/2^2", 0) == series([F(9, 4)], 0)
    # but a non-literal dividend keeps '^' tighter than '/'
    assert eval_expr("x/2^2", 3) == series([0, F(1, 4)], 3)


def test_eval_negative_power_requires_unit():
    with pytest.raises(NotInvertible):
        eval_expr("x^-2", 4)


def test_eval_rational_power_requires_unit_constant():
    with pytest.raises(ConstantTermError):
        eval_expr("(2+x)^(1/2)", 4)


@pytest.mark.parametrize(
    "text, order",
    [
        ("2^65536", 0),  # 1 bit per unit of k
        ("(1/2)^-65536", 0),
        ("(2-x/3)^32768", 2),  # 2 bits: ceil(log2 3)
        ("(4^16384)^2", 0),
        ("x^1048576", 4),  # coefficients 1 add no bits; the exponent bound holds
        ("(1-x)^-1048576", 2),
        ("0^1048576", 2),
    ],
)
def test_eval_power_at_the_bound(text, order):
    eval_expr(text, order)


@pytest.mark.parametrize(
    "text, order",
    [
        ("2^65537", 0),
        ("(1/2)^-65537", 0),
        ("(2-x/3)^32769", 2),
        ("4^32769", 0),
        ("(4^16384+1)^2", 0),
        ("x^1048577", 4),
        ("(1-x)^-1048577", 2),
    ],
)
def test_eval_power_past_the_bound_is_refused(text, order):
    with pytest.raises(UmbraError, match=r"power \^-?\d+ (would grow|has an exponent)"):
        eval_expr(text, order)


def test_eval_value_past_the_print_bound_is_refused():
    # MAX_VALUE_BITS = 72547: 2^72547 prints in 21839 digits, within the 21845 allowed
    assert eval_expr("2^65536*2^7011", 0)[0] == 2**72547
    with pytest.raises(UmbraError, match=r"a coefficient would exceed 21845 digits \(at offset 0\)"):
        eval_expr("2^65536*2^7012", 0)
    with pytest.raises(UmbraError, match=r"\(at offset 2\)"):
        eval_expr("x+exp(2^60000*x)", 2)


# -- short values against the dense evaluator --------------------------------------

_POLY_TEXT = "1-1/5*x+3/7*x^2+1/2*x^3"


def _wrap(template):
    return lambda child: template.format(child)


def _expressions():
    """Expression text from the grammar: polynomial parts under exp, log and sqrt,
    rational and negative powers, and division by constants and by series of
    positive order, each child in brackets."""
    literal = st.builds(
        lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(0, 12), st.sampled_from((1, 2, 7, 10007))
    )
    leaves = st.one_of(st.sampled_from(("x", "D", _POLY_TEXT)), literal)

    def extend(child):
        return st.one_of(
            st.builds(lambda a, op, b: f"({a}){op}({b})", child, st.sampled_from("+-*/"), child),
            child.map(_wrap("-({})")),
            st.builds(lambda a, k: f"({a})^{k}", child, st.integers(-3, 5)),
            st.builds(lambda a, r: f"(1+x*({a}))^({r})", child, st.sampled_from(("1/2", "-1/3", "-5/2"))),
            child.map(_wrap("exp(x*({}))")),
            child.map(_wrap("log(1+x*({}))")),
            child.map(_wrap("sqrt(1+x*({}))")),
            st.builds(lambda f, a: f"{f}({a})", st.sampled_from(("exp", "log", "sqrt")), child),
            st.builds(lambda a, c: f"({a})/{c}", child, st.sampled_from(("2", "3/7", "2^2", "(1-1)"))),
            st.builds(lambda a, b: f"({a})/(x*({b}))", child, child),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _outcome(evaluate, node, order):
    try:
        return evaluate(node, order)
    except UmbraError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_expressions(), st.integers(0, 24))
@example("(1+x)^1000", 8)
@example("x^100", 5)
@example("x/2^2", 3)
@example("3/2^2", 3)
@example("1/(x-x)", 3)
@example("1+x*(2^65536*2^7012)", 4)  # refused inside a polynomial subtree, at its offset
@example("(1-x)^3+(2-x/3)^32769", 2)
@example(f"({_POLY_TEXT})^-2*x^0", 0)
@example("x/(1/(2^65536*2^7011))/(1/(2^65536*2^7011))", 0)  # x is cut at order 0 before it grows
def test_short_values_match_the_dense_evaluator(text, order):
    node = parse(text)
    assert _outcome(eval_ast, node, order) == _outcome(oracles.eval_dense_ref, node, order)


def test_short_values_at_hand_cases():
    assert eval_expr("(1+x)^1000", 8) == series([comb(1000, k) for k in range(9)], 8)
    assert eval_expr("x^100", 5) == series([0], 5)
    with pytest.raises(NotInvertible, match=r"division by the zero series \(at offset 0\)"):
        eval_expr("1/(x-x)", 3)
    with pytest.raises(UmbraError, match=r"a coefficient would exceed 21845 digits \(at offset 5\)"):
        eval_expr("1+x*(2^65536*2^7012)", 4)


def test_polynomial_nodes_build_no_series(monkeypatch):
    built = []
    real = Series.__post_init__
    monkeypatch.setattr(Series, "__post_init__", lambda f: built.append(f.trunc) or real(f))
    eval_expr(f"({_POLY_TEXT})^3*(2-x)/7-x^4", 64)
    assert built == [64, 64]  # the root, and its truncation to the order asked for


@pytest.mark.parametrize("limit", [640, 4300])
def test_integer_literal_length_is_bounded_whatever_the_int_string_limit(limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        # 21,845 digits, the bound; the leading zeros keep the value printable
        assert eval_expr("x+" + "0" * 21844 + "7", 2) == series([7, 1], 2)
        assert eval_expr("1" * 5000 + "/" + "3" * 700, 0)[0] == F((10**5000 - 1) // 9, (10**700 - 1) // 3)
        with pytest.raises(ParseError, match="integer literal longer than 21845 digits") as err:
            parse("x+" + "0" * 21845 + "7")
        assert err.value.pos == 2
    finally:
        sys.set_int_max_str_digits(previous)


def test_precedence():
    # '^' binds tighter than unary minus, which binds tighter than '*'
    assert eval_expr("-x^2", 4) == -series([0, 0, 1], 4)
    assert eval_expr("-x*x", 4) == -series([0, 0, 1], 4)
    assert eval_expr("2*x^2", 4) == series([0, 0, 2], 4)
    assert eval_expr("1-x^2", 4) == series([1, 0, -1], 4)
    assert eval_expr("2^3", 0) == series([8], 0)


def test_truncation_monotone():
    for text in ("exp(x)-1", "D/(exp(D)-1)", "log(1+D)*D", "(1-sqrt(1-4*D))/2"):
        deep = eval_expr(text, 12)
        for n in range(13):
            shallow = eval_expr(text, n)
            assert shallow.coeffs == deep.coeffs[: n + 1], (text, n)


# -- rendering fixpoint -----------------------------------------------------------------


HAND_CASES = [
    "D/(1-D)",
    "(1-sqrt(1-4*D))/2",
    "exp(x)-1",
    "log(1+D)",
    "-x^2",
    "1/2*x",
    "x^(1/2)",
    "x^-3",
    "2-x-x",
    "x/(2*(1-x))",
]


@pytest.mark.parametrize("text", HAND_CASES)
def test_render_parse_fixpoint_hand(text):
    ast = parse(text)
    assert parse(render(ast)) == ast


def random_ast(rng: random.Random, depth: int = 0):
    roll = rng.random()
    pos = 0
    if depth >= 4 or roll < 0.25:
        kind = rng.choice(["num", "var"])
        if kind == "num":
            return Num(pos, F(rng.randint(0, 9), rng.randint(1, 9)))
        return Var(pos, rng.choice(["x", "D"]))
    if roll < 0.4:
        return Neg(pos, random_ast(rng, depth + 1))
    if roll < 0.55:
        return Call(pos, rng.choice(["exp", "log", "sqrt"]), random_ast(rng, depth + 1))
    if roll < 0.7:
        exponent = F(rng.randint(-4, 4)) if rng.random() < 0.6 else F(rng.randint(1, 5), 2)
        return Pow(pos, random_ast(rng, depth + 1), exponent)
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(pos, op, random_ast(rng, depth + 1), random_ast(rng, depth + 1))


def _strip_positions(node):
    if isinstance(node, Num):
        return ("num", node.value)
    if isinstance(node, Var):
        return ("var", node.name)
    if isinstance(node, Neg):
        return ("neg", _strip_positions(node.child))
    if isinstance(node, Call):
        return ("call", node.func, _strip_positions(node.arg))
    if isinstance(node, Pow):
        return ("pow", _strip_positions(node.base), node.exponent)
    return ("bin", node.op, _strip_positions(node.left), _strip_positions(node.right))


def test_render_parse_fixpoint_random():
    # rendering is canonical: one parse(render(.)) pass reaches a fixpoint
    # (hand-built asts like BinOp('/', 3, 4) canonicalize to the rational
    # literal Num(3/4) on the first pass, then stay put)
    rng = random.Random(2024)
    for _ in range(200):
        ast = random_ast(rng)
        a1 = parse(render(ast))
        t1 = render(a1)
        a2 = parse(t1)
        assert _strip_positions(a2) == _strip_positions(a1), t1
        assert render(a2) == t1
        assert parse(render(a2)) == a2


# -- degree bound ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, bound",
    [
        ("3/4", 0),
        ("-D", 1),
        ("(x+1)*(x^2-2)", 3),
        ("(1+x^2)^3/5", 6),
        ("x/(2*3)-x^0", 1),
        ("(x+1)^2-x^2", 2),  # a bound, not the degree
        ("exp(x)", None),
        ("x^-1", None),
        ("(1+x)^(1/2)", None),
        ("x/(1+x)", None),
        ("x^2/x", None),
    ],
)
def test_degree_bound_by_hand(text, bound):
    assert degree_bound(parse(text)) == bound


def test_degree_bound_holds_on_random_trees():
    # no coefficient past the bound survives evaluation deeper than it
    rng, checked = random.Random(7), 0
    for _ in range(400):
        ast = random_ast(rng)
        bound = degree_bound(ast)
        if bound is None or bound > 40:
            continue
        try:
            f = eval_ast(ast, bound + 3)
        except (UmbraError, ZeroDivisionError):
            continue
        assert not any(f.coeffs[bound + 1 :]), render(ast)
        checked += 1
    assert checked > 50

"""Shift-invariant operators: expansion, Pincherle derivative, division."""

from fractions import Fraction as F

import pytest

from umbra.errors import DivisionOrderError, NotDelta, TruncationError, UmbraError
from umbra.expr import eval_expr
from umbra.fps import (
    const,
    log1p,
    monomial,
    mul_inv,
    poly,
    series,
    x_series,
)
from umbra.operators import (
    DeltaOp,
    ShiftOp,
    apply_op,
    bracket_iterate,
    derivative_op,
    diamond,
    divide,
    is_appell,
    shift_by,
    validate_delta,
)

from oracles import identity_op, pincherle, reflected, times_x

T = 14


def _delta():
    return validate_delta(shift_by(1, T) - 1)


def _catalog_ops():
    D = derivative_op(T)
    return {
        "identity": identity_op(T),
        "D": D,
        "E": shift_by(1, T),
        "E^-1/2": shift_by(F(-1, 2), T),
        "Delta": _delta(),
        "Bernoulli": divide(D, _delta()),
        "Lambda": ShiftOp(series([0, 1, -1], T)),
        "Psi": ShiftOp(mul_inv(series([1, -1], T)).shift_up(1).truncate(T)),
    }


# -- apply ------------------------------------------------------------------------


def test_shift_is_taylor():
    E = shift_by(1, T)
    assert apply_op(E, monomial(2)) == poly([1, 2, 1])


def test_forward_difference_on_x():
    assert apply_op(_delta(), monomial(1)) == poly([1])


def test_bernoulli_operator_b2():
    B = divide(derivative_op(T), _delta())
    assert apply_op(B, monomial(2)) == poly([F(1, 6), -1, 1])


def test_apply_needs_depth():
    shallow = ShiftOp(series([0, 1], 1))
    with pytest.raises(TruncationError):
        apply_op(shallow, monomial(3))


def test_delta_kills_constants_and_drops_degree():
    for name, op in _catalog_ops().items():
        try:
            Q = validate_delta(op)
        except NotDelta:
            continue
        assert apply_op(Q, poly([F(7, 3)])).is_zero()
        for d in range(1, 9):
            assert apply_op(Q, monomial(d)).degree() == d - 1


def test_shift_invariant_operators_commute():
    ops = list(_catalog_ops().values())
    p = poly([1, -2, F(1, 3), 0, 1, 0, 0, 0, 0, 0, 0, 0, 5])  # degree 12
    for a in ops:
        for b in ops:
            assert apply_op(a, apply_op(b, p)) == apply_op(b, apply_op(a, p))


# -- Pincherle ----------------------------------------------------------------------


def test_pincherle_of_derivative_is_one():
    assert pincherle(derivative_op(T)).indicator == const(1, T - 1)


def test_pincherle_of_delta_is_shift():
    # derivative of e^t - 1 is e^t
    assert pincherle(_delta()).indicator == shift_by(1, T).indicator.truncate(T - 1)


def test_pincherle_of_constant_is_zero():
    assert pincherle(ShiftOp(const(5, T))).indicator.is_zero()


def test_pincherle_product_rule():
    ops = _catalog_ops()
    pairs = [("Delta", "Bernoulli"), ("E", "Psi"), ("D", "Lambda")]
    for a_name, b_name in pairs:
        a, b = ops[a_name], ops[b_name]
        lhs = pincherle(a * b).indicator
        rhs = (pincherle(a) * b + a * pincherle(b)).indicator
        assert lhs == rhs


def test_pincherle_matches_definition_tx_minus_xt():
    for op in (_delta(), divide(derivative_op(T), _delta())):
        for d in range(6):
            p = monomial(d)
            lhs = apply_op(op, times_x(p)) - times_x(apply_op(op, p))
            assert lhs == apply_op(pincherle(op), p)


# -- division ------------------------------------------------------------------------


def test_divide_bernoulli_indicator():
    B = divide(derivative_op(T), _delta())
    assert B.indicator[0] == 1 and B.indicator[1] == F(-1, 2) and B.indicator[2] == F(1, 12)


def test_divide_round_trip():
    D = derivative_op(T)
    Delta = _delta()
    U = divide(D, Delta)
    back = U * Delta
    assert all(back.indicator[i] == D.indicator[i] for i in range(back.indicator.trunc + 1))
    Binv = divide(Delta, D)
    prod = U * Binv
    assert all(prod.indicator[i] == (1 if i == 0 else 0) for i in range(prod.indicator.trunc + 1))


def test_divide_q_by_q_is_identity():
    for Q in (_delta(), derivative_op(T), validate_delta(ShiftOp(series([0, 1, -1], T)))):
        one = divide(Q, Q)
        assert all(one.indicator[i] == (1 if i == 0 else 0) for i in range(one.indicator.trunc + 1))


def test_divide_order_error():
    with pytest.raises(DivisionOrderError):
        divide(identity_op(T), derivative_op(T))


@pytest.mark.parametrize(
    "U, V, text, message",
    [
        (derivative_op(T), ShiftOp(const(0, T)), "1/(x-x)", "division by the zero series"),
        (identity_op(T), derivative_op(T), "1/D", "dividend order 0 < divisor order 1"),
    ],
    ids=["zero_divisor", "order"],
)
def test_divide_raises_what_expression_division_raises(U, V, text, message):
    with pytest.raises(UmbraError) as from_expr:
        eval_expr(text, 3)
    with pytest.raises(type(from_expr.value)) as from_ops:
        divide(U, V)
    assert str(from_ops.value) == message
    assert str(from_expr.value) == f"{message} (at offset 0)"


# -- diamond / bracket ------------------------------------------------------------------


def test_diamond_delta_with_log_is_derivative():
    dd = diamond(_delta(), ShiftOp(log1p(T)))
    assert dd.indicator == x_series(T)


def test_bracket_inverse_of_delta_is_log():
    assert bracket_iterate(_delta(), -1).indicator == log1p(T)


def test_bracket_zero_is_derivative():
    assert bracket_iterate(_delta(), 0).indicator == x_series(T)


def test_bracket_composition_law():
    Q = validate_delta(ShiftOp(series([0, 1, -1], T)))
    for n in range(-3, 4):
        for m in range(-3, 4):
            lhs = bracket_iterate(bracket_iterate(Q, n), m)
            rhs = bracket_iterate(Q, n * m)
            assert lhs.indicator == rhs.indicator


def test_bracket_addition_via_diamond():
    Q = _delta()
    for n in range(-2, 3):
        for m in range(-2, 3):
            lhs = diamond(bracket_iterate(Q, n), bracket_iterate(Q, m))
            rhs = bracket_iterate(Q, n + m)
            assert lhs.indicator == rhs.indicator


# -- validation ---------------------------------------------------------------------------


def test_validate_delta_logistic():
    Q = validate_delta(ShiftOp(series([0, 1, -1], T)))
    assert Q.unit == 1 and Q.is_unitary()


def test_validate_delta_rejects_order_zero():
    with pytest.raises(NotDelta, match="order 0"):
        validate_delta(shift_by(1, T))


def test_validate_delta_rejects_order_two():
    with pytest.raises(NotDelta, match=">= 2"):
        validate_delta(ShiftOp(series([0, 0, 1], T)))


def test_validate_delta_rejects_zero():
    with pytest.raises(NotDelta, match="zero"):
        validate_delta(ShiftOp(const(0, T)))


def test_is_appell():
    assert is_appell(divide(derivative_op(T), _delta()))
    assert not is_appell(derivative_op(T))


def test_nonunitary_unit():
    Q = validate_delta(ShiftOp(x_series(T).scale(F(1, 3))))
    assert Q.unit == F(1, 3) and not Q.is_unitary()


def test_delta_unit_is_read_from_the_indicator():
    ind = series([0, F(-2, 5), 3], T)
    assert DeltaOp(ind).unit == ind[1] == F(-2, 5)
    with pytest.raises(TypeError):
        DeltaOp(ind, F(1))  # a second unit could disagree with the indicator


# -- elementary operators --------------------------------------------------------------------


def test_elementary_table():
    p = poly([0, 1, 1])  # x^2 + x
    assert reflected(p) == poly([0, -1, 1])
    assert monomial(2).shifted(1) == poly([1, 2, 1])
    assert poly([1, 0, 1])(2) == 5
    assert F(1, 2) * p == poly([0, F(1, 2), F(1, 2)])
    assert times_x(p) == poly([0, 0, 1, 1])
    assert p.derivative() == poly([1, 2])

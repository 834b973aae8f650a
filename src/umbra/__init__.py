"""Exact-arithmetic umbral calculus on truncated formal power series.

Everything is computed over the rationals with explicit truncation orders;
every construction has at least one independent cross-checking route.
"""

from .errors import (
    ConstantTermError,
    DivisionOrderError,
    NotAppell,
    NotDelta,
    NotInvertible,
    NotUnitary,
    OrderError,
    ParseError,
    RouteDisagreement,
    SingularTriangle,
    TruncationError,
    UmbraError,
    UnknownFamily,
)
from .fps import (
    INF,
    Poly,
    Series,
    comp_inv,
    compose,
    const,
    derive,
    exp_series,
    expm1,
    iterate_int,
    lagrange_power,
    log1p,
    log_series,
    monomial,
    mul_inv,
    poly,
    pow_rat,
    series,
    x_series,
)
from .operators import (
    DeltaOp,
    ShiftOp,
    apply_op,
    bracket_iterate,
    derivative_op,
    diamond,
    divide,
    is_appell,
    pincherle,
    shift_by,
    validate_delta,
)
from .bell import partial_bell
from .umbral import (
    BASIC_ROUTES,
    Triangle,
    UmbralOp,
    basic_genfunc,
    basic_km,
    basic_recurrence,
    basic_steffensen,
    basic_transfer,
    connection_constants,
    cross,
    delta_of,
    is_binomial_type,
    niederhausen,
    sheffer,
    special_class_check,
    transform_seq,
    tri_compose,
    tri_identity,
    tri_invert,
    triangle,
)
from .flow import (
    delta_power,
    frac_iterate,
    group_law_check,
    itlog,
    jabotinsky,
    koszul_numbers,
    phi_pow,
)
from .sigma import (
    SigmaOp,
    bernoulli2_poly,
    bernoulli_numbers,
    euler_maclaurin_residual,
    faulhaber,
    frac_sum_eval,
    sigma_apply,
    sigma_identities_check,
)
from .catalog import FamilySpec, Report, check_all, family, identity_check
from .expr import eval_expr, parse, render

__version__ = "0.1.0"

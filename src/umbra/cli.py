"""Command-line surface.

Each subcommand returns one value; ``main`` alone turns it into the exit code
and prints it as exact rational output (JSON, TSV or pretty text); --decimal
renders pretty output as fixed-precision decimals clearly marked as lossy.
Exit codes: 0 success / all checks pass, 1 identity failure or route
disagreement (JSON counterexample on stdout), 2 input or usage error.  The
environment variable UMBRA_ORDER overrides the default order (16).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import Context
from fractions import Fraction

from . import catalog, serialize, sigma
from .errors import RouteDisagreement, UmbraError, agree
from .expr import MAX_STR_DIGITS, degree_bound, eval_ast, eval_expr, parse
from .flow import frac_iterate, itlog, phi_pow
from .fps import Poly, comp_inv, poly
from .operators import ShiftOp, validate_delta
from .rational import rat, rat_str, ratio_str
from .umbral import BASIC_ROUTES, RowForm, basic_form, basic_recurrence, sheffer

MAX_ORDER = 64


def _default_order() -> int:
    text = os.environ.get("UMBRA_ORDER", "16")
    try:
        return int(text)
    except ValueError:
        raise UmbraError(f"bad value {text!r} for UMBRA_ORDER: expected an integer such as 16") from None


def _decimal_str(q: Fraction) -> str:
    """q to 12 significant digits.  An entry that the exact formats refuse (``ratio_str``)
    is refused first, with their message, before a division on its numbers: one of at most
    3 bits per allowed digit always fits, as 2^3 < 10."""
    limit = sys.get_int_max_str_digits()
    if limit and max(q.numerator.bit_length(), q.denominator.bit_length()) > 3 * limit:
        ratio_str(q.numerator, q.denominator)
    return str(Context(prec=12).divide(q.numerator, q.denominator))


def _add_common(p: argparse.ArgumentParser, order: bool = True):
    if order:
        p.add_argument("--order", type=int, default=None, help=f"truncation order (max {MAX_ORDER})")
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.add_argument(
        "--decimal",
        action="store_true",
        help="render pretty output as decimal approximations (lossy)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (it reads no environment)."""
    parser = argparse.ArgumentParser(prog="umbra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="evaluate a series expression")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("inverse", help="compositional inverse of an order-1 expression")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("basic", help="basic-set triangle of a delta operator")
    p.add_argument("--delta", required=True, help="indicator expression, e.g. 'exp(D)-1'")
    p.add_argument(
        "--route",
        choices=tuple(BASIC_ROUTES) + ("all",),
        default="all",
        help="construction route; 'all' cross-validates the five routes",
    )
    _add_common(p)

    p = sub.add_parser("triangle", help="coefficient triangle of a named family")
    p.add_argument("--family", required=True, choices=catalog.FAMILY_NAMES)
    p.add_argument("--params", default="", help="comma-separated, e.g. 'a=1' or 'h=1/2'")
    _add_common(p)

    p = sub.add_parser("sheffer", help="Sheffer triangle from an Appell and a delta")
    p.add_argument("--appell", required=True)
    p.add_argument("--delta", required=True)
    _add_common(p)

    p = sub.add_parser("iterate", help="fractional iterate f^s (times x^k/k!)")
    p.add_argument("--series", required=True, dest="series_expr")
    p.add_argument("--s", required=True, help="rational exponent, e.g. 1/2")
    p.add_argument("--k", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("itlog", help="iterative logarithm of a unitary series")
    p.add_argument("--series", required=True, dest="series_expr")
    _add_common(p)

    p = sub.add_parser("phipow", help="fractional power of the umbral operator of a delta")
    p.add_argument("--delta", required=True)
    p.add_argument("--s", required=True)
    _add_common(p)

    p = sub.add_parser("sum", help="anchored (fractional) summation of a polynomial")
    p.add_argument("--poly", required=True, dest="poly_expr")
    p.add_argument("--from", required=True, dest="lower", help="anchor a")
    p.add_argument("--at", default=None, help="evaluation point x (rational)")
    _add_common(p)

    p = sub.add_parser("faulhaber", help="power-sum polynomial sum_{k<x} k^n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, order=False)

    p = sub.add_parser("check", help="run family identity checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=catalog.FAMILY_NAMES)
    group.add_argument("--all", action="store_true")
    p.add_argument("--params", default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized property checks")
    _add_common(p)

    return parser


def _order(args) -> int:
    order = args.order if args.order is not None else _default_order()
    if not 0 <= order <= MAX_ORDER:
        raise UmbraError(f"order must be between 0 and {MAX_ORDER}")
    return order


def _parse_params(text: str | None) -> dict:
    out = {}
    for piece in text.split(",") if text else ():
        if "=" not in piece:
            raise UmbraError(f"bad parameter {piece!r}; expected name=value")
        key, value = (part.strip() for part in piece.split("=", 1))
        if key in out:
            raise UmbraError(f"parameter {key!r} given twice")
        out[key] = value
    return out


def _rat_option(option: str, text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise UmbraError(
            f"bad value {text!r} for {option}: expected a rational such as 3 or -2/3"
        ) from None


def _triangle_text(form: RowForm, args) -> str:
    """A triangle's integer row form as printed, rows 0..--order, with no Fraction but in
    --decimal's lossy pretty text (``serialize.form_cells``)."""
    n = _order(args)
    if args.format == "json":
        return serialize.dumps(serialize.form_to_json(form, n)) + "\n"
    decimal = args.decimal and args.format == "pretty"
    cells = serialize.form_cells(form, n, (lambda v, d: _decimal_str(Fraction(v, d))) if decimal else None)
    sep = "\t" if args.format == "tsv" else "  "
    return "\n".join([sep.join(row) for row in cells]) + "\n"


def _text(value, args) -> str:
    """One result as printed: JSON, TSV, or pretty text (lossy decimals with --decimal).
    A report prints a line per identity and then, if one failed, the JSON of the failures."""
    if isinstance(value, tuple):
        return _triangle_text(value, args)
    if args.format == "json":
        return serialize.dumps(serialize.to_json(value)) + "\n"
    if isinstance(value, catalog.Report):
        lines = []
        for r in value.results:
            params = ",".join(f"{k}={rat_str(v)}" for k, v in r.params.items())
            label = f"{r.family}({params})" if params else r.family
            lines.append(f"{'PASS' if r.passed else 'FAIL'}\t{label}\t{r.identity}")
        if not value.all_passed:
            failures = catalog.Report([r for r in value.results if not r.passed])
            lines.append(serialize.dumps(serialize.to_json(failures)))
        return "\n".join(lines) + "\n"
    num = _decimal_str if args.decimal and args.format == "pretty" else rat_str
    if isinstance(value, Fraction):
        text = num(value)
    elif args.format == "tsv":
        text = "\t".join(map(rat_str, value.coeffs)) or "0"  # the zero polynomial has no coefficients
    else:
        text = "(decimal, lossy) " + " ".join(map(num, value.coeffs)) if args.decimal else str(value)
    return text + "\n"


def _delta_from_expr(text: str, trunc: int):
    return validate_delta(ShiftOp(eval_expr(text, trunc)))


def _poly_option(text: str, order: int) -> Poly:
    """--poly as an exact polynomial, refused unless no term past x^order can be cut off."""
    tree = parse(text)
    bound = degree_bound(tree)
    if bound is None or bound > order:
        raise UmbraError(f"--poly {text!r} is not a polynomial of degree at most --order ({order})")
    return poly(eval_ast(tree, order).coeffs)


def run(args):
    """The value of one subcommand: a Series, Poly, triangle (its integer RowForm), Fraction
    (sum --at) or Report."""
    cmd = args.command
    if cmd == "faulhaber":  # the one subcommand without an order
        if not 0 <= args.n <= MAX_ORDER:
            raise UmbraError(f"n must be between 0 and {MAX_ORDER}")
        return sigma.faulhaber(args.n)

    order = _order(args)

    if cmd == "series":
        return eval_expr(args.expr, order)

    if cmd == "inverse":
        # an order-1 input is read through x^1 at least: order 0 needs its x coefficient too
        return comp_inv(eval_expr(args.expr, max(order, 1))).truncate(order)

    if cmd == "basic":
        Q = _delta_from_expr(args.delta, order + 1)
        return basic_form(Q, order, args.route)

    if cmd == "triangle":
        # the cheapest route, checked against the family's closed form, both as integer row
        # forms: a malformed entry or row is a disagreement (exit 1), before any shape check
        spec = catalog.family(args.family, **_parse_params(args.params))
        form = basic_recurrence(spec.delta(order + 1), order)
        return agree("triangle", recurrence=form, closed_form=spec.closed_form(order))

    if cmd == "sheffer":
        Q = _delta_from_expr(args.delta, order + 1)
        appell = ShiftOp(eval_expr(args.appell, order))
        return sheffer(appell, basic_form(Q, order, "transfer"))

    if cmd == "iterate":
        f = eval_expr(args.series_expr, max(order, 1))
        return frac_iterate(f, _rat_option("--s", args.s), args.k, order)

    if cmd == "itlog":
        return itlog(eval_expr(args.series_expr, max(order, 1))).truncate(order)

    if cmd == "phipow":
        Q = _delta_from_expr(args.delta, max(order, 1))
        return phi_pow(Q, _rat_option("--s", args.s), order)

    if cmd == "sum":
        summed = sigma.delta_sum(_poly_option(args.poly_expr, order), _rat_option("--from", args.lower))
        return summed if args.at is None else summed(_rat_option("--at", args.at))

    if cmd == "check":
        if args.all:
            if args.params is not None:
                raise UmbraError("--params needs --family: check --all runs its own parameter set")
            return catalog.check_all(n=order, seed=args.seed)
        params = _parse_params(args.params)
        catalog.family(args.family, **params)  # refuses n, seed or any name the family does not take
        return catalog.identity_check(args.family, n=order, seed=args.seed, **params)

    raise UmbraError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = sys.get_int_max_str_digits()
    if 0 < limit < MAX_STR_DIGITS:
        sys.set_int_max_str_digits(MAX_STR_DIGITS)
    code = 0
    try:
        try:
            value = run(args)
            if isinstance(value, catalog.Report) and not value.all_passed:
                code = 1  # set before printing, so a reader that has gone keeps it
            sys.stdout.write(_text(value, args))
        except RouteDisagreement as exc:
            code = 1
            print(serialize.dumps(serialize.disagreement_to_json(exc)))
        except (UmbraError, ValueError, ZeroDivisionError) as exc:
            code = 2
            print(f"error: {exc}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone (`umbra ... | head -1`): point stdout at the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())

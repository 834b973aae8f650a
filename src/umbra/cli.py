"""Command-line surface.

Every subcommand prints exact rational output (JSON, TSV or pretty text);
--decimal renders pretty output as fixed-precision decimals clearly marked
as lossy.  Exit codes: 0 success / all checks pass, 1 identity failure or
route disagreement (JSON counterexample on stdout), 2 input or usage error.
The environment variable UMBRA_ORDER overrides the default order (16).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import Context
from fractions import Fraction

from . import catalog, serialize, sigma
from .errors import RouteDisagreement, UmbraError
from .expr import MAX_STR_DIGITS, eval_expr
from .flow import frac_iterate, itlog, phi_pow
from .fps import Poly, Series, comp_inv, format_series, poly
from .operators import ShiftOp, validate_delta
from .rational import rat, rat_str
from .umbral import BASIC_ROUTES, Triangle, basic_all_routes, basic_transfer, sheffer

MAX_ORDER = 64


def _default_order() -> int:
    text = os.environ.get("UMBRA_ORDER", "16")
    try:
        return int(text)
    except ValueError:
        raise UmbraError(f"bad value {text!r} for UMBRA_ORDER: expected an integer such as 16") from None


def _decimal_str(q: Fraction) -> str:
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


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise UmbraError(f"bad parameter {piece!r}; expected name=value")
        key, value = piece.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _rat_option(option: str, text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise UmbraError(
            f"bad value {text!r} for {option}: expected a rational such as 3 or -2/3"
        ) from None


def _rat_pretty(q: Fraction, args) -> str:
    return _decimal_str(q) if args.decimal else rat_str(q)


def _silence_stdout():
    """Point stdout at the null device once its reader has gone (`umbra ... | head -1`)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit_series(f: Series, args):
    if args.format == "json":
        print(serialize.dumps(serialize.series_to_json(f)))
    elif args.format == "tsv":
        print("\t".join(rat_str(c) for c in f.coeffs))
    else:
        if args.decimal:
            print("(decimal, lossy) " + " ".join(_decimal_str(c) for c in f.coeffs))
        else:
            print(format_series(f))


def _emit_poly(p: Poly, args):
    if args.format == "json":
        print(serialize.dumps(serialize.poly_to_json(p)))
    elif args.format == "tsv":
        print("\t".join(rat_str(c) for c in p.coeffs) if not p.is_zero() else "0")
    else:
        if args.decimal:
            print("(decimal, lossy) " + " ".join(_decimal_str(c) for c in p.coeffs))
        else:
            print(str(p))


def _emit_triangle(t: Triangle, args):
    if args.format == "json":
        print(serialize.dumps(serialize.triangle_to_json(t)))
    elif args.format == "tsv":
        sys.stdout.write(serialize.triangle_to_tsv(t))
    else:
        print("\n".join("  ".join(_rat_pretty(v, args) for v in row) for row in t.rows))


def _emit_report(report, args) -> int:
    try:
        if args.format == "json":
            print(serialize.dumps(serialize.report_to_json(report)))
        else:
            for r in report.results:
                mark = "PASS" if r.passed else "FAIL"
                params = ",".join(f"{k}={rat_str(rat(v))}" for k, v in r.params.items())
                label = f"{r.family}({params})" if params else r.family
                print(f"{mark}\t{label}\t{r.identity}")
            if not report.all_passed:
                failures = [r for r in report.results if not r.passed]
                print(serialize.dumps(serialize.report_to_json(catalog.Report(failures))))
    except BrokenPipeError:
        _silence_stdout()
    return 0 if report.all_passed else 1


def _delta_from_expr(text: str, trunc: int):
    return validate_delta(ShiftOp(eval_expr(text, trunc)))


def run(args) -> int:
    cmd = args.command
    if cmd == "faulhaber":  # the one subcommand without an order
        if not 0 <= args.n <= MAX_ORDER:
            raise UmbraError(f"n must be between 0 and {MAX_ORDER}")
        _emit_poly(sigma.faulhaber(args.n), args)
        return 0

    order = _order(args)

    if cmd == "series":
        _emit_series(eval_expr(args.expr, order), args)
        return 0

    if cmd == "inverse":
        # an order-1 input is read through x^1 at least: order 0 needs its x coefficient too
        _emit_series(comp_inv(eval_expr(args.expr, max(order, 1))).truncate(order), args)
        return 0

    if cmd == "basic":
        Q = _delta_from_expr(args.delta, order + 1)
        build = basic_all_routes if args.route == "all" else BASIC_ROUTES[args.route]
        _emit_triangle(build(Q, order).tri, args)
        return 0

    if cmd == "triangle":
        spec = catalog.family(args.family, **_parse_params(args.params))
        _emit_triangle(spec.basic(order).tri, args)
        return 0

    if cmd == "sheffer":
        Q = _delta_from_expr(args.delta, order + 1)
        appell = ShiftOp(eval_expr(args.appell, order))
        _emit_triangle(sheffer(appell, basic_transfer(Q, order)), args)
        return 0

    if cmd == "iterate":
        f = eval_expr(args.series_expr, max(order, 1))
        _emit_series(frac_iterate(f, _rat_option("--s", args.s), args.k, order), args)
        return 0

    if cmd == "itlog":
        _emit_series(itlog(eval_expr(args.series_expr, max(order, 1))).truncate(order), args)
        return 0

    if cmd == "phipow":
        Q = _delta_from_expr(args.delta, max(order, 1))
        _emit_triangle(phi_pow(Q, _rat_option("--s", args.s), order), args)
        return 0

    if cmd == "sum":
        p = poly(eval_expr(args.poly_expr, order).coeffs)
        anchor = _rat_option("--from", args.lower)
        summed = sigma.delta_sum(p, anchor)
        if args.at is not None:
            value = summed(_rat_option("--at", args.at))
            if args.format == "json":
                print(serialize.dumps(rat_str(value)))
            else:
                print(_rat_pretty(value, args) if args.format == "pretty" else rat_str(value))
        else:
            _emit_poly(summed, args)
        return 0

    if cmd == "check":
        if args.all:
            if args.params is not None:
                raise UmbraError("--params needs --family: check --all runs its own parameter set")
            report = catalog.check_all(n=order, seed=args.seed)
        else:
            params = _parse_params(args.params)
            report = catalog.identity_check(args.family, n=order, seed=args.seed, **params)
        return _emit_report(report, args)

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
            code = run(args)
        except RouteDisagreement as exc:
            code = 1
            print(serialize.dumps(serialize.disagreement_to_json(exc)))
        except (UmbraError, ValueError, ZeroDivisionError) as exc:
            code = 2
            print(f"error: {exc}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())

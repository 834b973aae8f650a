"""Seeded request generator for the umbra benchmark.

A workload is a fixed list of ``Request``s built from one seed.  Each request
is the argv list handed to ``umbra.cli.main`` plus the exact inputs that its
output check needs.  The slots of each workload (subcommand, order N, family)
are fixed; the seed draws the rational coefficients, parameters and exponents,
so two seeds pose problems of the same shape and size.

Every option value is written as ``--opt=value``: argparse reads ``--s -2/3``
or ``--from -3`` as a missing argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("high_order", "iteration", "small_order")

# catalog.DEFAULT_CHECK_SET, written as CLI parameters.
CHECK_SET = (
    ("derivative", ""),
    ("stretch", "lam=2"),
    ("stretch", "lam=3"),
    ("falling", ""),
    ("rising", ""),
    ("divided_difference", "h=1/2"),
    ("touchard", ""),
    ("abel", "a=1"),
    ("catalan", ""),
    ("laguerre", ""),
    ("degenerate_laguerre", "p=1"),
    ("degenerate_laguerre", "p=2"),
    ("degenerate_laguerre", "p=3"),
)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str  # which output check applies, see checks.CHECKS
    data: dict = field(default_factory=dict, hash=False, compare=False)


# -- rendering -----------------------------------------------------------------


def rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def poly_text(coeffs) -> str:
    """Render sum c_j x^j in the expression grammar, lowest degree first."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = rat_text(mag)
        else:
            mono = "x" if j == 1 else f"x^{j}"
            body = mono if mag == 1 else f"{rat_text(mag)}*{mono}"
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms) if terms else "0"


# -- random inputs -------------------------------------------------------------

# Coefficients of one input take their numerators and denominators from these
# pools in a seeded order, with seeded signs.  Every pairing is in lowest
# terms, so each input has the same heights whatever the seed; the seed changes
# the problem but not how fast its coefficients grow, which keeps the cost of
# a workload nearly the same from seed to seed.
_NUMS = (1, 1, 3, 1)
_DENS = (2, 5, 7, 11)


def _coefs(rng: random.Random, k: int) -> list[Fraction]:
    if not 1 <= k <= len(_DENS):
        raise ValueError(f"between 1 and {len(_DENS)} coefficients, not {k}")
    nums = rng.sample(_NUMS[:k], k)
    dens = rng.sample(_DENS[:k], k)
    return [Fraction(rng.choice((1, -1)) * n, d) for n, d in zip(nums, dens)]


def _delta(rng: random.Random, degree: int, lead: Fraction = Fraction(1)) -> list[Fraction]:
    """lead x + c_2 x^2 + ... + c_degree x^degree."""
    return [Fraction(0), lead] + _coefs(rng, degree - 1)


def _one_plus(rng: random.Random, degree: int) -> list[Fraction]:
    """1 + c_1 x + ... + c_degree x^degree."""
    return [Fraction(1)] + _coefs(rng, degree)


# -- request builders ---------------------------------------------------------


POW_EXPONENTS = (Fraction(3, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(-5, 2))


def _series(rng: random.Random, kind: str, order: int, e: Fraction = POW_EXPONENTS[0]) -> Request:
    common = (f"--order={order}", "--format=json")
    if kind == "exp":
        u = [Fraction(0)] + _coefs(rng, 3)
        text = f"exp({poly_text(u)})"
        data = {"outer": "exp", "u": u, "order": order}
    elif kind == "pow":
        u = _one_plus(rng, 3)
        text = f"({poly_text(u)})^({rat_text(e)})"
        data = {"outer": "pow", "u": u, "e": e, "order": order}
    else:  # sqrt, log, recip
        u = _one_plus(rng, 3)
        body = poly_text(u)
        text = {"sqrt": f"sqrt({body})", "log": f"log({body})", "recip": f"1/({body})"}[kind]
        data = {"outer": kind, "u": u, "order": order}
    return Request(("series", text) + common, "series", data)


def _inverse(rng: random.Random, order: int, lead: Fraction) -> Request:
    f = _delta(rng, 4, lead)
    # a positional argument must not start with "-", or argparse takes it for an option
    return Request(
        ("inverse", f"({poly_text(f)})", f"--order={order}", "--format=json"),
        "inverse",
        {"f": f, "order": order},
    )


def _basic(rng: random.Random, route: str, order: int, lead: Fraction = Fraction(1)) -> Request:
    q = _delta(rng, 4, lead)
    return Request(
        ("basic", f"--delta={poly_text(q)}", f"--route={route}", f"--order={order}", "--format=json"),
        "basic",
        {"delta": q, "order": order},
    )


def _triangle(name: str, order: int, params: dict) -> Request:
    argv = ["triangle", f"--family={name}"]
    if params:
        argv.append("--params=" + ",".join(f"{k}={rat_text(Fraction(v))}" for k, v in params.items()))
    argv += [f"--order={order}", "--format=json"]
    return Request(tuple(argv), "triangle", {"family": name, "params": params, "order": order})


def _sheffer(rng: random.Random, order: int) -> Request:
    a = _one_plus(rng, 2)
    q = _delta(rng, 3)
    return Request(
        (
            "sheffer",
            f"--appell={poly_text(a)}",
            f"--delta={poly_text(q)}",
            f"--order={order}",
            "--format=json",
        ),
        "sheffer",
        {"appell": a, "delta": q, "order": order},
    )


def _iterate(rng: random.Random, s: Fraction, order: int) -> Request:
    f = _delta(rng, 3)
    return Request(
        (
            "iterate",
            f"--series={poly_text(f)}",
            f"--s={rat_text(s)}",
            f"--order={order}",
            "--format=json",
        ),
        "iterate",
        {"f": f, "s": s, "order": order},
    )


def _itlog(rng: random.Random, order: int) -> Request:
    f = _delta(rng, 3)
    return Request(
        ("itlog", f"--series={poly_text(f)}", f"--order={order}", "--format=json"),
        "itlog",
        {"f": f, "order": order},
    )


def _phipow(rng: random.Random, order: int) -> Request:
    q = _delta(rng, 3)
    return Request(
        ("phipow", f"--delta={poly_text(q)}", "--s=1/2", f"--order={order}", "--format=json"),
        "phipow",
        {"delta": q, "order": order},
    )


def _check(name: str, params: str, n: int, seed: int) -> Request:
    argv = ["check", f"--family={name}"]
    if params:
        argv.append(f"--params={params}")
    argv += [f"--order={n}", f"--seed={seed}"]
    return Request(tuple(argv), "check", {})


def _faulhaber(n: int) -> Request:
    return Request(("faulhaber", f"--n={n}", "--format=json"), "faulhaber", {"n": n})


def _sum(rng: random.Random, with_at: bool) -> Request:
    p = _coefs(rng, 4)
    lower = _coefs(rng, 1)[0] + rng.randint(-3, 3)
    argv = ["sum", f"--poly={poly_text(p)}", f"--from={rat_text(lower)}"]
    data = {"p": p, "lower": lower}
    if with_at:
        steps = rng.randint(0, 6)
        argv.append(f"--at={rat_text(lower + steps)}")
        data["steps"] = steps
        return Request(tuple(argv), "sum_at", data)
    argv.append("--format=json")
    return Request(tuple(argv), "sum", data)


# -- workloads ------------------------------------------------------------------


# linear coefficients of order-1 inputs, one per slot: a non-unit lead puts
# powers of it on the diagonal of every basic triangle
LEADS = (Fraction(1), Fraction(2), Fraction(-3, 2))


def high_order(rng: random.Random, seed: int) -> list[Request]:
    # Three blocks of alike requests: 12 quick series (exp, log, recip at
    # N = 64), 20 of middling cost (sqrt and rational powers through pow_rat,
    # and comp_inv, at N = 64) and 12 heavy ones.  The median then falls in
    # the middle block and the tail (11th largest) among the heavy ones.
    # km alone costs 2-3 s at N >= 56, as much as the rest of the pass, so km
    # runs here only inside the two "--route all" requests.
    reqs = [_series(rng, kind, 64) for kind in ("exp", "log", "recip") * 4]
    reqs += [_series(rng, "sqrt", 64) for _ in range(6)]
    reqs += [_series(rng, "pow", 64, POW_EXPONENTS[i % 4]) for i in range(6)]
    reqs += [_inverse(rng, 64, LEADS[i % 3]) for i in range(8)]
    reqs += [_basic(rng, "all", order) for order in (24, 28)]
    for route, order in (("transfer", 56), ("steffensen", 56), ("recurrence", 64), ("genfunc", 64)):
        reqs.append(_basic(rng, route, order))
    for name in ("touchard", "falling", "laguerre", "catalan"):
        reqs.append(_triangle(name, 40, {}))
    # a of one height, so every seed asks for equally large numbers
    reqs.append(_triangle("abel", 40, {"a": rng.choice((Fraction(1), Fraction(-1)))}))
    reqs.append(_sheffer(rng, 36))
    return reqs


def iteration(rng: random.Random, seed: int) -> list[Request]:
    reqs = []
    for order in (10, 14, 17, 20):
        for s in (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2)):
            reqs.append(_iterate(rng, s, order))
    reqs += [_itlog(rng, order) for order in (10, 12, 14, 15, 16, 18, 19, 20)]
    reqs += [_phipow(rng, order) for order in (10, 11, 12, 13, 14, 15, 16, 18)]
    return reqs


def small_order(rng: random.Random, seed: int) -> list[Request]:
    # 24 requests that run a family check, a power sum or a basic triangle,
    # and 48 quick ones (sum, series and inverse at N <= 16), whose cost is
    # mostly the fixed cost of a call: the median falls among the quick ones.
    reqs = [
        _check(name, params, (8, 10, 12)[i % 3], seed) for i, (name, params) in enumerate(CHECK_SET)
    ]
    # one exponent from each band of 2..24, so every seed spans the range
    for lo in (2, 6, 10, 14, 18, 22):
        reqs.append(_faulhaber(lo + rng.randint(0, 2)))
    for route, order in (("all", 12), ("all", 16), ("transfer", 16), ("km", 16), ("genfunc", 16)):
        reqs.append(_basic(rng, route, order))
    reqs += [_sum(rng, with_at=i % 2 == 1) for i in range(18)]
    for i in range(18):
        kind = ("sqrt", "exp", "log", "pow", "recip", "sqrt")[i % 6]
        reqs.append(_series(rng, kind, (8, 12, 16)[i % 3], POW_EXPONENTS[i % 4]))
    reqs += [_inverse(rng, (8, 12, 16)[i % 3], LEADS[i % 3]) for i in range(12)]
    return reqs


_BUILDERS = {"high_order": high_order, "iteration": iteration, "small_order": small_order}


def generate(workload: str, seed: int) -> list[Request]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)

"""CLI surface: subcommands, formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from umbra import _kernel, catalog, serialize, umbral
from umbra.catalog import Report
from umbra.cli import main
from umbra.rational import rat_str

from oracles import series_from_json, triangle_from_json, triangle_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_pretty(capsys):
    code, out, _ = run(capsys, "series", "exp(x)-1", "--order", "4")
    assert code == 0
    assert out.strip() == "x + 1/2*x^2 + 1/6*x^3 + 1/24*x^4 + O(x^5)"


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "series", "log(1+D)", "--order", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    f = series_from_json(obj)
    assert [str(f[i]) for i in range(5)] == ["0", "1", "-1/2", "1/3", "-1/4"]


def test_inverse(capsys):
    code, out, _ = run(capsys, "inverse", "x-x^2", "--order", "5", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t1\t1\t2\t5\t14"


def test_triangle_touchard_tsv(capsys):
    code, out, _ = run(capsys, "triangle", "--family", "touchard", "--order", "5", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[4] == "0\t1\t7\t6\t1"


def test_triangle_with_params(capsys):
    code, out, _ = run(
        capsys, "triangle", "--family", "abel", "--params", "a=1", "--order", "3", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines()[3] == "0\t9\t-6\t1"


# every family of check --all, and parameters of other signs and h = 0
TRIANGLE_FAMILIES = list(catalog.DEFAULT_CHECK_SET) + [
    ("abel", {"a": Fraction(-2, 3)}),
    ("stretch", {"lam": Fraction(-1, 3)}),
    ("divided_difference", {"h": Fraction(0)}),
]


def _params_text(params):
    return ",".join(f"{k}={rat_str(v)}" for k, v in params.items())


@pytest.mark.parametrize("order", [0, 1, 2, 12, 40, 64])
@pytest.mark.parametrize("name, params", TRIANGLE_FAMILIES, ids=lambda v: v if isinstance(v, str) else _params_text(v))
def test_triangle_prints_the_transfer_routes_triangle(capsys, name, params, order):
    # triangle builds by the recurrence route, checked against the closed form
    spec = catalog.family(name, **params)
    tri = umbral.basic_set(spec.delta(order + 2), order, "transfer")
    expected = triangle_text(tri, "json")
    argv = ["triangle", "--family", name, "--params", _params_text(params), "--order", str(order), "--format", "json"]
    assert run(capsys, *argv) == (0, expected, "")


def test_triangle_takes_neither_the_transfer_route_nor_reciprocal_powers(capsys, monkeypatch):
    # a cost guard: for Touchard at N = 40 the transfer route alone costs about four times
    # the recurrence route and its closed-form check
    calls = []
    transfer = umbral.basic_transfer
    spy = lambda *args: calls.append("basic_transfer") or transfer(*args)
    monkeypatch.setitem(umbral.BASIC_ROUTES, "transfer", spy)
    for real in (umbral.basic_transfer, _kernel.reciprocal_powers):
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "umbra" and getattr(module, real.__name__, None) is real:
                spy = lambda *args, real=real, **kwargs: calls.append(real.__name__) or real(*args, **kwargs)
                monkeypatch.setattr(module, real.__name__, spy)
    assert run(capsys, "triangle", "--family", "touchard", "--order", "40")[0] == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["basic", "--delta", "exp(D)-1", "--route", "all"],
        ["basic", "--delta", "D-D^2", "--route", "genfunc"],
        ["triangle", "--family", "touchard"],
        ["sheffer", "--appell", "1+D", "--delta", "exp(D)-1"],
        ["phipow", "--delta", "exp(D)-1", "--s", "1/2"],
        # check's identities, sigma and the flow layer read row forms too; when they read
        # Triangles these built 117, 27, 9, 7, 1 and 1
        ["check", "--all"],
        ["check", "--family", "laguerre"],
        ["check", "--family", "abel", "--params", "a=1"],
        ["check", "--family", "catalan"],
        ["sum", "--poly", "x^3+2*x", "--from", "0"],
        ["faulhaber", "--n", "6"],
    ],
    ids=lambda argv: argv[0] + (argv[-1] if argv[0] in ("basic", "check") else ""),
)
@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_triangle_requests_build_no_fraction_triangle(capsys, monkeypatch, argv, fmt):
    # a cost guard: each construction hands its integer row form to the printer
    calls = []
    init = umbral.Triangle.__init__
    monkeypatch.setattr(umbral.Triangle, "__init__", lambda self, rows: calls.append("Triangle") or init(self, rows))
    real = umbral.tri_from_form
    for mod_name, module in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "umbra" and getattr(module, "tri_from_form", None) is real:
            monkeypatch.setattr(module, "tri_from_form", lambda form: calls.append("tri_from_form") or real(form))
    order = [] if argv[0] == "faulhaber" else ["--order", "12"]
    code, out, err = run(capsys, *argv, *order, "--format", fmt)
    assert (code, err) == (0, "")
    if argv[0] in ("basic", "triangle", "sheffer", "phipow"):
        assert len(out.splitlines()) == (1 if fmt == "json" else 13)
    assert calls == []


def test_basic_all_routes_agree(capsys):
    code, out, _ = run(
        capsys, "basic", "--delta", "exp(D)-1", "--route", "all", "--order", "6", "--format", "json"
    )
    assert code == 0
    tri = triangle_from_json(json.loads(out))
    assert [str(v) for v in tri.rows[3]] == ["0", "2", "-3", "1"]


def test_basic_single_route(capsys):
    code, out, _ = run(
        capsys, "basic", "--delta", "D/(1-D)", "--route", "genfunc", "--order", "4", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines()[2] == "0\t-2\t1"


def test_sheffer_bernoulli(capsys):
    code, out, _ = run(
        capsys,
        "sheffer",
        "--appell",
        "D/(exp(D)-1)",
        "--delta",
        "D",
        "--order",
        "3",
        "--format",
        "tsv",
    )
    assert code == 0
    assert out.splitlines()[2] == "1/6\t-1\t1"


def test_iterate_half(capsys):
    code, out, _ = run(capsys, "iterate", "--series", "exp(x)-1", "--s", "1/2", "--order", "4", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t1\t1/4\t1/48\t0"


def test_iterate_power_index_past_the_order_is_zero_at_once(capsys):
    # (f^s)^k / k! is O(x^k): no k! and no power is built for k > N
    code, out, _ = run(capsys, "iterate", "--series", "exp(x)-1", "--s", "1/2", "--k", "1000000000", "--order", "5")
    assert (code, out) == (0, "0 + O(x^6)\n")


def test_itlog(capsys):
    code, out, _ = run(capsys, "itlog", "--series", "exp(x)-1", "--order", "4", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t0\t1/2\t-1/12\t1/48"


def test_phipow(capsys):
    code, out, _ = run(
        capsys, "phipow", "--delta", "exp(D)-1", "--s", "-1", "--order", "4", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines()[4] == "0\t1\t7\t6\t1"


def test_sum_value(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "x^2", "--from", "0", "--at", "5")
    assert code == 0
    assert out.strip() == "30"


def test_sum_value_json_is_a_json_string(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "x", "--from", "0", "--at", "1/2", "--format", "json")
    assert code == 0
    assert out == '"-1/8"\n'
    assert json.loads(out) == "-1/8"
    code, out, _ = run(capsys, "sum", "--poly", "x", "--from", "0", "--at", "1/2", "--format", "tsv")
    assert out == "-1/8\n"


def test_sum_polynomial_output(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "x^2", "--from", "0", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t1/6\t-1/2\t1/3"


def test_faulhaber(capsys):
    code, out, _ = run(capsys, "faulhaber", "--n", "1", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t-1/2\t1/2"


def test_check_family_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--family", "touchard", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(item["status"] == "pass" for item in report)
    assert any(item["identity"] == "spivey" for item in report)


def test_check_family_pretty(capsys):
    code, out, _ = run(capsys, "check", "--family", "catalan")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_check_all_output_is_the_same_past_every_cap(capsys, fmt):
    # every identity's depth is capped at 10 or less, so orders past 10 verify the same rows
    assert run(capsys, "check", "--all", "--order=64", f"--format={fmt}") == run(
        capsys, "check", "--all", "--order=10", f"--format={fmt}"
    )


def test_determinism_bytes(capsys):
    a = run(capsys, "check", "--family", "falling", "--seed", "3", "--format", "json")
    b = run(capsys, "check", "--family", "falling", "--seed", "3", "--format", "json")
    assert a == b


def test_env_var_order(capsys, monkeypatch):
    monkeypatch.setenv("UMBRA_ORDER", "3")
    code, out, _ = run(capsys, "series", "exp(x)-1", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t1\t1/2\t1/6"


@pytest.mark.parametrize("value", ["abc", "1/2", ""])
def test_env_var_order_bad_value_names_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("UMBRA_ORDER", value)
    code, out, err = run(capsys, "series", "x")
    assert code == 2 and out == ""
    assert err == f"error: bad value {value!r} for UMBRA_ORDER: expected an integer such as 16\n"


def test_env_var_order_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; the default order is not part of it
    for order, expected in (("2", "x + O(x^3)"), ("4", "x + O(x^5)")):
        monkeypatch.setenv("UMBRA_ORDER", order)
        assert run(capsys, "series", "x")[:2] == (0, expected + "\n")


def test_faulhaber_ignores_umbra_order(capsys, monkeypatch):
    # faulhaber has no order, so it neither reads nor validates UMBRA_ORDER
    expected = run(capsys, "faulhaber", "--n", "3")
    monkeypatch.setenv("UMBRA_ORDER", "abc")
    assert run(capsys, "faulhaber", "--n", "3") == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize("argv", [["series", "x", "--seed", "1"], ["faulhaber", "--n", "3", "--order", "100"]])
def test_subcommand_refuses_an_option_it_does_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("params", ["a=1", ""])
def test_check_all_refuses_params(capsys, params):
    # --all runs DEFAULT_CHECK_SET's own parameters; --params belongs to --family
    code, out, err = run(capsys, "check", "--all", "--params", params)
    assert code == 2 and out == ""
    assert "--params" in err


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_check_all_at_order_zero_reports_every_family(capsys, fmt):
    # abel's niederhausen delta is absent at n = 0; its check ends at the triangle comparison
    code, out, err = run(capsys, "check", "--all", "--order", "0", f"--format={fmt}")
    assert code == 0 and err == ""
    if fmt == "json":
        labels = {(r["family"], json.dumps(r["params"], sort_keys=True)) for r in json.loads(out)}
    else:
        labels = {line.split("\t")[1] for line in out.splitlines()}
    assert len(labels) == len(catalog.DEFAULT_CHECK_SET)


def test_order_cap(capsys):
    code, _, err = run(capsys, "series", "x", "--order", "65")
    assert code == 2
    assert "order" in err


def test_input_error_exit_2(capsys):
    code, _, err = run(capsys, "series", "1/D", "--order", "4")
    assert code == 2
    assert "offset" in err


def test_usage_error_exit_2(capsys):
    assert main(["basic"]) == 2  # missing required --delta


def test_unitary_required_for_iterate(capsys):
    code, _, err = run(capsys, "iterate", "--series", "2*x", "--s", "1/2")
    assert code == 2
    assert "unitary" in err


def test_bad_rational_argument_exit_2(capsys):
    code, _, err = run(capsys, "iterate", "--series", "x", "--s", "abc")
    assert code == 2 and err == "error: bad value 'abc' for --s: expected a rational such as 3 or -2/3\n"


def test_bad_family_params_exit_2(capsys):
    code, _, err = run(capsys, "triangle", "--family", "stretch", "--params", "lam=nope")
    assert code == 2 and "stretch" in err


def test_fractional_sum_bounds(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "x^3-x", "--from", "1/2", "--at", "3/2")
    assert code == 0
    assert out.strip() == "-3/8"  # one unit step: equals p(1/2)


def test_decimal_flag_is_marked(capsys):
    code, out, _ = run(capsys, "series", "exp(x)-1", "--order", "3", "--decimal")
    assert code == 0
    assert "lossy" in out and "0.5" in out


@pytest.mark.parametrize("prec", [28, 5])
def test_decimal_flag_leaves_caller_precision(capsys, prec):
    # --decimal renders 12 significant digits in its own context, whatever the caller's
    with localcontext() as ctx:
        ctx.prec = prec
        code, out, _ = run(capsys, "series", "exp(x)", "--order", "3", "--decimal")
        assert ctx.prec == prec
        code2, out2, _ = run(capsys, "sum", "--poly=x^2/3", "--from=1/7", "--at=2/3", "--decimal")
        assert ctx.prec == prec
    assert (code, out) == (0, "(decimal, lossy) 1 1 0.5 0.166666666667\n")
    assert (code2, out2) == (0, "-0.00897431282919\n")


def test_failing_report_exits_one_with_counterexample(capsys, monkeypatch):
    # exercise the identity-failure contract through main, with a failing report in place
    def failing_report(*args, **kwargs):
        rep = Report()
        rep.record("fake", "broken_identity", {}, {"n": 3, "k": 1})
        return rep

    monkeypatch.setattr(catalog, "identity_check", failing_report)
    code, out, _ = run(capsys, "check", "--family", "falling", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["status"] == "fail"
    assert payload[0]["counterexample"] == {"n": "3", "k": "1"}
    # pretty mode appends the JSON counterexample after the FAIL line
    code, out, _ = run(capsys, "check", "--family", "falling", "--format", "pretty")
    assert code == 1
    assert out.startswith("FAIL") and '"counterexample"' in out


def test_family_missing_parameter_is_named(capsys):
    code, out, err = run(capsys, "check", "--family", "abel")
    assert code == 2 and out == ""
    assert err == "error: bad parameters for family 'abel': missing parameter 'a' (accepted: a)\n"


def test_family_unknown_parameter_is_named(capsys):
    code, out, err = run(capsys, "check", "--family", "abel", "--params", "a=1,b=2")
    assert code == 2 and out == ""
    assert err == "error: bad parameters for family 'abel': unknown parameter 'b' (accepted: a)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # each name collided with a keyword of identity_check or family and ended in a traceback
        (["check", "--family=falling", "--params=seed=3"], "unknown parameter 'seed' (accepted: none)"),
        (["check", "--family=falling", "--params=n=3"], "unknown parameter 'n' (accepted: none)"),
        (["check", "--family=falling", "--params=report=3"], "unknown parameter 'report' (accepted: none)"),
        (["check", "--family=falling", "--params=name=3"], "unknown parameter 'name' (accepted: none)"),
        (["triangle", "--family=stretch", "--params=lam=2,name=3"], "unknown parameter 'name' (accepted: lam)"),
    ],
    ids=["seed", "n", "report", "name", "triangle_name"],
)
def test_params_that_name_a_keyword_exit_2(capsys, argv, message):
    family = argv[1].split("=")[1]
    assert run(capsys, *argv) == (2, "", f"error: bad parameters for family {family!r}: {message}\n")


@pytest.mark.parametrize("command", ["check", "triangle"])
def test_repeated_parameter_exits_2(capsys, command):
    # the last value used to win silently
    code, out, err = run(capsys, command, "--family=abel", "--params=a=1,a=2")
    assert (code, out, err) == (2, "", "error: parameter 'a' given twice\n")


@pytest.mark.parametrize(
    "poly, order",
    [("x^2", "1"), ("x^20", "16"), ("x^16+x^17", "16"), ("exp(x)", "16"), ("1/(1-x)", "16"), ("(1+x)^(1/2)", "16")],
)
def test_sum_refuses_a_polynomial_the_order_would_cut(capsys, poly, order):
    # --poly is read as a series cut at x^order; summing what was left printed a wrong polynomial
    for at in ([], ["--at=3"]):
        code, out, err = run(capsys, "sum", f"--poly={poly}", "--from=0", f"--order={order}", *at)
        assert (code, out) == (2, "")
        assert err == f"error: --poly {poly!r} is not a polynomial of degree at most --order ({order})\n"


@pytest.mark.parametrize(
    "poly, lower, order, expected",
    [
        (
            "x^16",
            "0",
            "16",
            "0\t-3617/510\t0\t140/3\t0\t-1382/15\t0\t260/3\t0\t-143/3\t0\t52/3\t0\t-14/3\t0\t4/3\t-1/2\t1/17\n",
        ),
        ("(1+x)^2/2-x/(3/2)", "1/2", "2", "-5/24\t5/12\t-1/12\t1/6\n"),
    ],
)
def test_sum_of_a_polynomial_within_the_order_is_exact(capsys, poly, lower, order, expected):
    argv = ["sum", f"--poly={poly}", f"--from={lower}", f"--order={order}", "--format=tsv"]
    assert run(capsys, *argv) == (0, expected, "")


def test_faulhaber_n_cap(capsys):
    code, out, err = run(capsys, "faulhaber", "--n", "65")
    assert code == 2 and out == ""
    assert "n must be between 0 and 64" in err


# SHA-256 of --format json stdout, captured before the integer kernel replaced
# the Fraction loops; any change of representation must keep these bytes.
GOLDEN_JSON = {
    ("basic", "--delta=2*D-D^2/3+3*D^3/5", "--route=all", "--order=16"):
        "01b36674410bf1ee19da1919181b4c9d54b528bb90f3039e751106dd5e6bd77a",
    ("triangle", "--family=touchard", "--order=24"):
        "97f2443d7161f13376787b45bbfaa49b886aa838a41050a69bbfb7cb82ed2dc8",
    ("sheffer", "--appell=1/(1-D/2)", "--delta=D-D^2/3+D^3/7", "--order=16"):
        "6f98c3d30e9bdc03f9754400558e0a2454570de85392d7d215676e49c9aca746",
    ("series", "(1+x/2-x^2/3)^(-5/2)", "--order=32"):
        "ccfc347ddf22ca796c173c75e0b73b71f09e44535550b4f6e4d60bd57a1021de",
    ("inverse", "x-x^2/2+x^3/3", "--order=32"):
        "45648fd884cf00c370051826ad0e89bf738d9b6ae512ec1398fc6a8e9b88a1b6",
    # captured before Miller's recurrence replaced the binomial series in pow_rat
    ("series", "sqrt(1+x/3-2*x^2/7+x^3/11)", "--order=64"):
        "44a8d3bec2a6554ec3c684438efbb02f2dd812031a548714b5a6e065c72ff190",
    ("series", "(1-3*x/5+x^2/9+7*x^3)^(-22/7)", "--order=64"):
        "fae764348737213225c472117034213b2338c55e3786e2521470b066366caec5",
    # captured before Julia's equation replaced the iterate sum in itlog and the
    # Bell table moved to integers
    ("itlog", "--series=exp(x)-1", "--order=32"):
        "e67b3ed0f1415982db53b3e2c8f250963132cfad26c982f48f0bdbc8344acac2",
    ("phipow", "--delta=exp(D)-1", "--s=1/2", "--order=32"):
        "4b2433df15d671388eed61bc6e3ea956d3866205b5ff3f978375259e33f616a1",
    # captured before the catalog's grid identities shared one binomial-convolution grid
    ("check", "--all"):
        "eea5bbdd0a8fe9ec0549ef082a5e3f207bb851252ee447468e4deb16902f71d1",
    # captured before the mul_inv, exp and log recurrences and the Kurbanov-Maksimov
    # route moved onto the kernel's solved-prefix loop and power table
    ("series", "exp(x/2-3*x^2/7+x^3/5)", "--order=64"):
        "92743d458a0d1adbcf9fef5b1265b6b2bac033b0d61f94c604b41ed4a4a4d0d9",
    ("series", "log(1-x/5+3*x^2/7+x^3/2)", "--order=64"):
        "2a3ba61d4b37fb2b0c4c510aed173b8afb4dfc0298c777a5517fc87121fa0377",
    ("series", "1/(1-x/5-x^2/2+3*x^3/7)", "--order=64"):
        "049a0c6494566dbb623877b0934abdb118804a5c84d73c4c9250cbe9826febba",
    ("basic", "--delta=2*D-D^2/3+3*D^3/5", "--route=km", "--order=20"):
        "0045409a638db79eb02074b4b142a05305a2632880873da6ce861f9bdf2342a6",
    # captured before polynomial nodes got short values and the transfer and Steffensen
    # routes moved onto the divided (D/Q)^k table
    ("basic", "--delta=2*D-D^2/3+3*D^3/5", "--route=transfer", "--order=56"):
        "380910aa649ca7ada522ec6351bac09d1cf7b9741ed746c25ebcb4bac1cb3f08",
    ("basic", "--delta=2*D-D^2/3+3*D^3/5", "--route=steffensen", "--order=56"):
        "380910aa649ca7ada522ec6351bac09d1cf7b9741ed746c25ebcb4bac1cb3f08",
    ("basic", "--delta=-3/2*D+D^2/5-2*D^4/7", "--route=transfer", "--order=56"):
        "cbbee140670f2dab0fbcffe1e1e9dae0a533830bbf084bbf78ca5cd965ba9cbe",
    ("basic", "--delta=-3/2*D+D^2/5-2*D^4/7", "--route=steffensen", "--order=56"):
        "cbbee140670f2dab0fbcffe1e1e9dae0a533830bbf084bbf78ca5cd965ba9cbe",
    ("series", "1-x/5+3*x^2/7+x^3/2", "--order=64"):
        "69763dc7e4ba21af2f366af020c5d6d18a8bd5b6ba7bb709991a5ec3fd9e6705",
    ("series", "(1-3*x/5+x^2/9+7*x^3)^5-1/3*(x-x^2)^7", "--order=64"):
        "7d1589967c671afc1bfa0cd7afab1d47336deef5bacea27cb7250ecf539c0680",
    ("inverse", "2*x-x^2/3+3*x^3/5", "--order=64"):
        "3c927ae58f6282904aee19f93cd9d8e9adf0f52efb11b8b1761e8644a6ff284c",
    ("inverse", "(-3/2)*x+x^2/5-2*x^4/7", "--order=64"):
        "816d8182de3d9430de7db1fd03a3a06a9b6cf0f2b1dfb75b97d5429ca2bb2f55",
    # captured before the flow layer and compose moved onto integer Krylov columns and
    # power tables
    ("iterate", "--series=x - 1/2*x^2 + 1/5*x^3", "--s=-2/3", "--order=64"):
        "be9c7c334a1bbfa99531e7ee3902cb2e5b52057ec036d93d6f68e3500cdd1a3c",
    ("phipow", "--delta=D+D^2", "--s=1/2", "--order=48"):
        "e9be62cb9e36fbec59bf4b8a6a573b8eb6c4bd9159fe93bf6d2ba7afdb0f233d",
    ("iterate", "--series=x+x^2/3-2/5*x^3", "--s=3/2", "--k=3", "--order=20"):
        "713fb102eb9151905d3fc9bec97fbcee43041d7402ebe4e108af742e02f55ee8",
    # captured while phi_pow still ran the flow exponential e^(-sG) against the Bell
    # triangle of (q^-1)^s
    ("phipow", "--delta=exp(D)-1", "--s=1/2", "--order=64"):
        "3a1de94f580205ed0ad8b96e6bcb3a11fe6e452ba9bd346b3f0660188393f20c",
    ("phipow", "--delta=D-D^2/2+3*D^3/7+D^4/5", "--s=-2/3", "--order=64"):
        "17568e0d82091f36194ebd611b6b9edf24cbebae91b615a461bb72eade8b81c5",
    # captured before the recurrence route and sheffer scaled their operator once per
    # triangle, and before pow_rat, itlog, frac_iterate and phi_pow compared their checks
    # as integers
    ("basic", "--delta=2*D-D^2/3+3*D^3/5", "--route=recurrence", "--order=64"):
        "fd8e25e9935680ce853e24448cf7b31c83015b6ec009dc916cefb11753bf1a6a",
    ("basic", "--delta=D-1/5*D^2+3/2*D^3+1/7*D^4", "--route=recurrence", "--order=64"):
        "28cce7aa711583b550f73d2eafd0e1506717d92555c4b0cf20778d25c8cf544a",
    ("sheffer", "--appell=1/(1-D/2)", "--delta=D-D^2/3+D^3/7", "--order=36"):
        "a3d3b53fcfb3776eb4a6704eddc18a2f9013311928fcccd9a7af90387087d480",
    ("sheffer", "--appell=exp(D/3)-D^2", "--delta=exp(D)-1", "--order=36"):
        "3e16df152a9648ac7df7fdf565c707661eb0c09d579eecac780cad8eafeaff12",
    ("iterate", "--series=exp(x)-1", "--s=-2/3", "--order=32"):
        "e38ebc65325f08a787927d7532e510cccc069096918909f0cff66ecefb9203df",
    ("iterate", "--series=x+x^2/3-2/5*x^3", "--s=-2/3", "--order=32"):
        "67a48cd239234c8661d8a1916922803b1068cb0a1131d39ce72c60ceb41040a4",
    ("itlog", "--series=x+3/5*x^3+x^5", "--order=32"):
        "a41240f7e877b9b91b4b9a823b39c3e2899a40f88aa1ad23153cbf311e396d0f",
    ("phipow", "--delta=D+D^2/3", "--s=-2/3", "--order=32"):
        "bf91c998f35aa69084821ba69531023a280dac1202df53e7f24a3a36feda48f1",
    ("series", "(1+x)^(1/2)", "--order=64"):
        "340bf4dbb65d3291ccbcd713b5776dc3bb637ffd242a301142846acd33754eb7",
    # captured before the recurrence route divided by a short Q' and the generating-function
    # route stepped its power table by Q(g) = t
    ("basic", "--delta=-3/2*D+3/7*D^2-1/5*D^3+1/2*D^4", "--route=genfunc", "--order=64"):
        "dbfe27474eab099f691ac053d9fb031555edbf491346ed5c7e14f8a01b268d54",
    ("basic", "--delta=-3/2*D+3/7*D^2-1/5*D^3+1/2*D^4", "--route=recurrence", "--order=64"):
        "dbfe27474eab099f691ac053d9fb031555edbf491346ed5c7e14f8a01b268d54",
    ("triangle", "--family=catalan", "--order=64"):
        "f9262729ee22be828e74546f3bf77993f719464914d330440a266aea0adcbabb",
}


def test_json_stdout_matches_golden_digests(capsys):
    for argv, digest in GOLDEN_JSON.items():
        code, out, _ = run(capsys, *argv, "--format=json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# exit code, stdout and stderr at --order 0..3, captured before the flow layer and
# compose moved onto integer Krylov columns and power tables; order 0 prints the
# trivial result, as basic and sheffer do, since the input is read through x^1
LOW_ORDERS = {
    ("iterate", "--series=exp(x)-1", "--s=1/2"): [
        (0, '{"coeffs":["0"],"kind":"series","trunc":0}\n', ""),
        (0, '{"coeffs":["0","1"],"kind":"series","trunc":1}\n', ""),
        (0, '{"coeffs":["0","1","1/4"],"kind":"series","trunc":2}\n', ""),
        (0, '{"coeffs":["0","1","1/4","1/48"],"kind":"series","trunc":3}\n', ""),
    ],
    ("iterate", "--series=x+x^2", "--s=-3", "--k=2"): [
        (0, '{"coeffs":["0"],"kind":"series","trunc":0}\n', ""),
        (0, '{"coeffs":["0","0"],"kind":"series","trunc":1}\n', ""),
        (0, '{"coeffs":["0","0","1/2"],"kind":"series","trunc":2}\n', ""),
        (0, '{"coeffs":["0","0","1/2","-3"],"kind":"series","trunc":3}\n', ""),
    ],
    ("itlog", "--series=exp(x)-1"): [
        (0, '{"coeffs":["0"],"kind":"series","trunc":0}\n', ""),
        (0, '{"coeffs":["0","0"],"kind":"series","trunc":1}\n', ""),
        (0, '{"coeffs":["0","0","1/2"],"kind":"series","trunc":2}\n', ""),
        (0, '{"coeffs":["0","0","1/2","-1/12"],"kind":"series","trunc":3}\n', ""),
    ],
    ("itlog", "--series=x"): [
        (0, '{"coeffs":["0"],"kind":"series","trunc":0}\n', ""),
        (0, '{"coeffs":["0","0"],"kind":"series","trunc":1}\n', ""),
        (0, '{"coeffs":["0","0","0"],"kind":"series","trunc":2}\n', ""),
        (0, '{"coeffs":["0","0","0","0"],"kind":"series","trunc":3}\n', ""),
    ],
    ("phipow", "--delta=exp(D)-1", "--s=1/2"): [
        (0, '{"kind":"triangle","n":0,"rows":[["1"]]}\n', ""),
        (0, '{"kind":"triangle","n":1,"rows":[["1"],["0","1"]]}\n', ""),
        (0, '{"kind":"triangle","n":2,"rows":[["1"],["0","1"],["0","-1/2","1"]]}\n', ""),
        (0, '{"kind":"triangle","n":3,"rows":[["1"],["0","1"],["0","-1/2","1"],["0","5/8","-3/2","1"]]}\n', ""),
    ],
    ("phipow", "--delta=D+D^2", "--s=0"): [
        (0, '{"kind":"triangle","n":0,"rows":[["1"]]}\n', ""),
        (0, '{"kind":"triangle","n":1,"rows":[["1"],["0","1"]]}\n', ""),
        (0, '{"kind":"triangle","n":2,"rows":[["1"],["0","1"],["0","0","1"]]}\n', ""),
        (0, '{"kind":"triangle","n":3,"rows":[["1"],["0","1"],["0","0","1"],["0","0","0","1"]]}\n', ""),
    ],
}


@pytest.mark.parametrize("argv", sorted(LOW_ORDERS), ids=" ".join)
def test_flow_subcommands_keep_their_low_order_output(capsys, argv):
    for order, (code, out, err) in enumerate(LOW_ORDERS[argv]):
        assert run(capsys, *argv, f"--order={order}", "--format=json") == (code, out, err), order


# stdout of every printing subcommand in the other formats, captured before one
# printer replaced the per-type emitters; every row exits 0 with an empty stderr
GOLDEN_FORMATS = {
    ("series", "exp(x)*log(1+x)", "--order=4", "--format=tsv"):
        "0\t1\t1/2\t1/3\t0\n",
    ("series", "exp(x)*log(1+x)", "--order=4", "--format=pretty"):
        "x + 1/2*x^2 + 1/3*x^3 + O(x^5)\n",
    ("series", "exp(x)*log(1+x)", "--order=4", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 1 0.5 0.333333333333 0\n",
    ("series", "exp(x)", "--order=0", "--format=tsv"):
        "1\n",
    ("series", "exp(x)", "--order=0", "--format=pretty"):
        "1 + O(x^1)\n",
    ("series", "exp(x)", "--order=0", "--format=pretty", "--decimal"):
        "(decimal, lossy) 1\n",
    ("inverse", "x-x^2/3", "--order=4", "--format=tsv"):
        "0\t1\t1/3\t2/9\t5/27\n",
    ("inverse", "x-x^2/3", "--order=4", "--format=pretty"):
        "x + 1/3*x^2 + 2/9*x^3 + 5/27*x^4 + O(x^5)\n",
    ("inverse", "x-x^2/3", "--order=4", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 1 0.333333333333 0.222222222222 0.185185185185\n",
    ("basic", "--delta=exp(D)-1", "--route=all", "--order=4", "--format=tsv"):
        (
            "1\n"
            "0\t1\n"
            "0\t-1\t1\n"
            "0\t2\t-3\t1\n"
            "0\t-6\t11\t-6\t1\n"
        ),
    ("basic", "--delta=exp(D)-1", "--route=all", "--order=4", "--format=pretty"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  2  -3  1\n"
            "0  -6  11  -6  1\n"
        ),
    ("basic", "--delta=exp(D)-1", "--route=all", "--order=4", "--format=pretty", "--decimal"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  2  -3  1\n"
            "0  -6  11  -6  1\n"
        ),
    ("basic", "--delta=D/(1-D/2)", "--route=genfunc", "--order=3", "--format=tsv"):
        (
            "1\n"
            "0\t1\n"
            "0\t-1\t1\n"
            "0\t3/2\t-3\t1\n"
        ),
    ("basic", "--delta=D/(1-D/2)", "--route=genfunc", "--order=3", "--format=pretty"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  3/2  -3  1\n"
        ),
    ("basic", "--delta=D/(1-D/2)", "--route=genfunc", "--order=3", "--format=pretty", "--decimal"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  1.5  -3  1\n"
        ),
    ("triangle", "--family=abel", "--params=a=1/2", "--order=3", "--format=tsv"):
        (
            "1\n"
            "0\t1\n"
            "0\t-1\t1\n"
            "0\t9/4\t-3\t1\n"
        ),
    ("triangle", "--family=abel", "--params=a=1/2", "--order=3", "--format=pretty"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  9/4  -3  1\n"
        ),
    ("triangle", "--family=abel", "--params=a=1/2", "--order=3", "--format=pretty", "--decimal"):
        (
            "1\n"
            "0  1\n"
            "0  -1  1\n"
            "0  2.25  -3  1\n"
        ),
    ("sheffer", "--appell=D/(exp(D)-1)", "--delta=D", "--order=3", "--format=tsv"):
        (
            "1\n"
            "-1/2\t1\n"
            "1/6\t-1\t1\n"
            "0\t1/2\t-3/2\t1\n"
        ),
    ("sheffer", "--appell=D/(exp(D)-1)", "--delta=D", "--order=3", "--format=pretty"):
        (
            "1\n"
            "-1/2  1\n"
            "1/6  -1  1\n"
            "0  1/2  -3/2  1\n"
        ),
    ("sheffer", "--appell=D/(exp(D)-1)", "--delta=D", "--order=3", "--format=pretty", "--decimal"):
        (
            "1\n"
            "-0.5  1\n"
            "0.166666666667  -1  1\n"
            "0  0.5  -1.5  1\n"
        ),
    ("iterate", "--series=exp(x)-1", "--s=1/2", "--k=2", "--order=4", "--format=tsv"):
        "0\t0\t1/2\t1/4\t5/96\n",
    ("iterate", "--series=exp(x)-1", "--s=1/2", "--k=2", "--order=4", "--format=pretty"):
        "1/2*x^2 + 1/4*x^3 + 5/96*x^4 + O(x^5)\n",
    ("iterate", "--series=exp(x)-1", "--s=1/2", "--k=2", "--order=4", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 0 0.5 0.25 0.0520833333333\n",
    ("itlog", "--series=exp(x)-1", "--order=4", "--format=tsv"):
        "0\t0\t1/2\t-1/12\t1/48\n",
    ("itlog", "--series=exp(x)-1", "--order=4", "--format=pretty"):
        "1/2*x^2 - 1/12*x^3 + 1/48*x^4 + O(x^5)\n",
    ("itlog", "--series=exp(x)-1", "--order=4", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 0 0.5 -0.0833333333333 0.0208333333333\n",
    ("phipow", "--delta=exp(D)-1", "--s=1/2", "--order=3", "--format=tsv"):
        (
            "1\n"
            "0\t1\n"
            "0\t-1/2\t1\n"
            "0\t5/8\t-3/2\t1\n"
        ),
    ("phipow", "--delta=exp(D)-1", "--s=1/2", "--order=3", "--format=pretty"):
        (
            "1\n"
            "0  1\n"
            "0  -1/2  1\n"
            "0  5/8  -3/2  1\n"
        ),
    ("phipow", "--delta=exp(D)-1", "--s=1/2", "--order=3", "--format=pretty", "--decimal"):
        (
            "1\n"
            "0  1\n"
            "0  -0.5  1\n"
            "0  0.625  -1.5  1\n"
        ),
    ("sum", "--poly=x^2/3", "--from=1/2", "--format=tsv"):
        "0\t1/18\t-1/6\t1/9\n",
    ("sum", "--poly=x^2/3", "--from=1/2", "--format=pretty"):
        "1/18*x - 1/6*x^2 + 1/9*x^3\n",
    ("sum", "--poly=x^2/3", "--from=1/2", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 0.0555555555556 -0.166666666667 0.111111111111\n",
    ("sum", "--poly=x^2/3", "--from=1/2", "--at=7/3", "--format=tsv"):
        "154/243\n",
    ("sum", "--poly=x^2/3", "--from=1/2", "--at=7/3", "--format=pretty"):
        "154/243\n",
    ("sum", "--poly=x^2/3", "--from=1/2", "--at=7/3", "--format=pretty", "--decimal"):
        "0.633744855967\n",
    ("sum", "--poly=0", "--from=1", "--format=tsv"):
        "0\n",
    ("sum", "--poly=0", "--from=1", "--format=pretty"):
        "0\n",
    ("sum", "--poly=0", "--from=1", "--format=pretty", "--decimal"):
        "(decimal, lossy) \n",
    ("faulhaber", "--n=0", "--format=tsv"):
        "0\t1\n",
    ("faulhaber", "--n=0", "--format=pretty"):
        "x\n",
    ("faulhaber", "--n=0", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 1\n",
    ("faulhaber", "--n=3", "--format=tsv"):
        "0\t0\t1/4\t-1/2\t1/4\n",
    ("faulhaber", "--n=3", "--format=pretty"):
        "1/4*x^2 - 1/2*x^3 + 1/4*x^4\n",
    ("faulhaber", "--n=3", "--format=pretty", "--decimal"):
        "(decimal, lossy) 0 0 0.25 -0.5 0.25\n",
    ("check", "--family=falling", "--order=4", "--format=tsv"):
        (
            "PASS\tfalling\tfive_routes\n"
            "PASS\tfalling\tbinomial_type\n"
            "PASS\tfalling\ttransform_roundtrip\n"
            "PASS\tfalling\tchu_vandermonde\n"
            "PASS\tfalling\tstirling_recurrences\n"
            "PASS\tfalling\tgen_bernoulli\n"
            "PASS\tfalling\tspecial_class\n"
        ),
    ("check", "--family=falling", "--order=4", "--format=pretty"):
        (
            "PASS\tfalling\tfive_routes\n"
            "PASS\tfalling\tbinomial_type\n"
            "PASS\tfalling\ttransform_roundtrip\n"
            "PASS\tfalling\tchu_vandermonde\n"
            "PASS\tfalling\tstirling_recurrences\n"
            "PASS\tfalling\tgen_bernoulli\n"
            "PASS\tfalling\tspecial_class\n"
        ),
    ("check", "--family=falling", "--order=4", "--format=pretty", "--decimal"):
        (
            "PASS\tfalling\tfive_routes\n"
            "PASS\tfalling\tbinomial_type\n"
            "PASS\tfalling\ttransform_roundtrip\n"
            "PASS\tfalling\tchu_vandermonde\n"
            "PASS\tfalling\tstirling_recurrences\n"
            "PASS\tfalling\tgen_bernoulli\n"
            "PASS\tfalling\tspecial_class\n"
        ),
    ("check", "--family=stretch", "--params=lam=3/2", "--order=2", "--format=tsv"):
        (
            "PASS\tstretch(lam=3/2)\tfive_routes\n"
            "PASS\tstretch(lam=3/2)\tbinomial_type\n"
            "PASS\tstretch(lam=3/2)\ttransform_roundtrip\n"
        ),
    ("check", "--family=stretch", "--params=lam=3/2", "--order=2", "--format=pretty"):
        (
            "PASS\tstretch(lam=3/2)\tfive_routes\n"
            "PASS\tstretch(lam=3/2)\tbinomial_type\n"
            "PASS\tstretch(lam=3/2)\ttransform_roundtrip\n"
        ),
    ("check", "--family=stretch", "--params=lam=3/2", "--order=2", "--format=pretty", "--decimal"):
        (
            "PASS\tstretch(lam=3/2)\tfive_routes\n"
            "PASS\tstretch(lam=3/2)\tbinomial_type\n"
            "PASS\tstretch(lam=3/2)\ttransform_roundtrip\n"
        ),
}

# stdout of `check --family=falling --order=4` with its binomial_type identity made to
# fail, in every format; it exits 1 with an empty stderr
GOLDEN_FAILING_REPORT = {
    ("--format=json",): (
        '[{"family":"falling","identity":"five_routes","params":{},"status":"pass"},'
        '{"counterexample":{"k":"1","n":"3"},"family":"falling","identity":"binomial_type","params":{},"status":"fail"},'
        '{"family":"falling","identity":"transform_roundtrip","params":{},"status":"pass"},'
        '{"family":"falling","identity":"chu_vandermonde","params":{},"status":"pass"},'
        '{"family":"falling","identity":"stirling_recurrences","params":{},"status":"pass"},'
        '{"family":"falling","identity":"gen_bernoulli","params":{},"status":"pass"},'
        '{"family":"falling","identity":"special_class","params":{},"status":"pass"}]\n'
    ),
    ("--format=tsv",): (
        "PASS\tfalling\tfive_routes\n"
        "FAIL\tfalling\tbinomial_type\n"
        "PASS\tfalling\ttransform_roundtrip\n"
        "PASS\tfalling\tchu_vandermonde\n"
        "PASS\tfalling\tstirling_recurrences\n"
        "PASS\tfalling\tgen_bernoulli\n"
        "PASS\tfalling\tspecial_class\n"
        '[{"counterexample":{"k":"1","n":"3"},"family":"falling","identity":"binomial_type","params":{},"status":"fail"}]\n'
    ),
    ("--format=pretty",): (
        "PASS\tfalling\tfive_routes\n"
        "FAIL\tfalling\tbinomial_type\n"
        "PASS\tfalling\ttransform_roundtrip\n"
        "PASS\tfalling\tchu_vandermonde\n"
        "PASS\tfalling\tstirling_recurrences\n"
        "PASS\tfalling\tgen_bernoulli\n"
        "PASS\tfalling\tspecial_class\n"
        '[{"counterexample":{"k":"1","n":"3"},"family":"falling","identity":"binomial_type","params":{},"status":"fail"}]\n'
    ),
    ("--format=pretty", "--decimal"): (
        "PASS\tfalling\tfive_routes\n"
        "FAIL\tfalling\tbinomial_type\n"
        "PASS\tfalling\ttransform_roundtrip\n"
        "PASS\tfalling\tchu_vandermonde\n"
        "PASS\tfalling\tstirling_recurrences\n"
        "PASS\tfalling\tgen_bernoulli\n"
        "PASS\tfalling\tspecial_class\n"
        '[{"counterexample":{"k":"1","n":"3"},"family":"falling","identity":"binomial_type","params":{},"status":"fail"}]\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_FORMATS), ids=" ".join)
def test_every_format_keeps_its_bytes(capsys, argv):
    assert run(capsys, *argv) == (0, GOLDEN_FORMATS[argv], "")


@pytest.mark.parametrize("fmt", list(GOLDEN_FAILING_REPORT), ids=" ".join)
def test_failing_report_keeps_its_bytes_in_every_format(capsys, monkeypatch, fmt):
    monkeypatch.setattr(catalog, "_check_binomial", lambda spec, n, sets: {"n": 3, "k": 1})
    assert run(capsys, "check", "--family=falling", "--order=4", *fmt) == (1, GOLDEN_FAILING_REPORT[fmt], "")


def test_check_all_digest_holds_under_optimize_flag():
    # `python -O` strips assert statements; no catalog check may go with them
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "umbra.cli", "check", "--all", "--format=json"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_JSON["check", "--all"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for this import; the set before it is what the interpreter and
    # any site .pth files preload, so only what umbra.cli adds is judged
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import umbra.cli; umbra.cli.build_parser(); print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "umbra.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "99999999999999999999999999999999999999999999^999999",
            "power ^999999 would grow a coefficient past 65536 bits (at offset 44)",
        ),
        ("2^99999999", "power ^99999999 would grow a coefficient past 65536 bits (at offset 1)"),
        ("x+(1+x)^1048577", "power ^1048577 has an exponent above 1048576 (at offset 7)"),
        ("2^65536*2^65536", "a coefficient would exceed 21845 digits (at offset 0)"),
        ("2^60000*x*2^60000", "a coefficient would exceed 21845 digits (at offset 0)"),
        ("exp(2^60000*x)", "a coefficient would exceed 21845 digits (at offset 0)"),
    ],
)
def test_oversized_power_is_refused_up_front(capsys, text, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "series", text)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        # 21,845 digits, the bound; the leading zeros keep the value printable
        ("x+" + "0" * 21844 + "7", (0, "7 + x + O(x^3)\n", "")),
        ("x+" + "0" * 21845 + "7", (2, "", "error: integer literal longer than 21845 digits at offset 2\n")),
        ("7" * 30000 + "*x", (2, "", "error: integer literal longer than 21845 digits at offset 0\n")),
    ],
    ids=["at-the-bound", "one-digit-over", "30000-digits"],
)
def test_integer_literal_length_is_bounded(capsys, text, expected):
    assert run(capsys, "series", text, "--order", "2") == expected


@pytest.mark.parametrize("text, offset", [("1/0", 2), ("(1+x)^(1/0)", 9)], ids=["literal", "exponent"])
def test_zero_denominator_is_refused_at_its_offset(capsys, text, offset):
    assert run(capsys, "series", text) == (2, "", f"error: zero denominator at offset {offset}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["inverse", "x+2^6000*x^2", "--order", "64"],
        ["basic", "--delta", "D+2^6000*D^2", "--route", "transfer"],  # pretty rows: none printed
        ["basic", "--delta", "D+2^6000*D^2", "--route", "transfer", "--format", "json"],
        ["basic", "--delta", "D+2^6000*D^2", "--route", "transfer", "--format", "tsv"],
        # lossy decimals obey the same digit limit, refused before any decimal division
        ["basic", "--delta", "D+2^6000*D^2", "--route", "transfer", "--format", "pretty", "--decimal"],
    ],
)
def test_unprintable_result_is_refused(capsys, argv):
    # each input is within the expression bound; the construction's result is not
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: a coefficient would exceed 21845 digits\n"


def test_power_within_the_bound_prints_exactly(capsys):
    code, out, err = run(capsys, "series", "2^20000", "--order", "2", "--format", "tsv")
    with localcontext() as ctx:
        ctx.prec = 7000  # 2^20000 has 6021 digits; decimal is not bound by the int limit
        expected = str(Decimal(2) ** 20000)
    assert code == 0 and err == ""
    assert out == f"{expected}\t0\t0\n"
    code, out, err = run(capsys, "series", "2^65536+2^65536", "--order", "0", "--format", "tsv")
    with localcontext() as ctx:
        ctx.prec = 20000  # 2^65537 has 19729 digits
        expected = str(Decimal(2) ** 65537)
    assert code == 0 and err == ""
    assert out == f"{expected}\n"
    code, out, _ = run(capsys, "series", "(1+x)^999999", "--order", "8", "--format", "tsv")
    assert code == 0
    assert out.split("\t")[:3] == ["1", "999999", str(999999 * 999998 // 2)]


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 200 + "x" + ")" * 200, 100),
        ("exp(" * 200 + "x" + ")" * 200, 400),
        ("+".join(["x"] * 1000), 199),
        ("*".join(["1"] * 1000), 199),
    ],
    ids=["parentheses", "calls", "sum_chain", "product_chain"],
)
def test_deep_expression_is_refused_with_offset(capsys, text, offset):
    code, out, err = run(capsys, "series", text, "--order", "2")
    assert code == 2 and out == ""
    assert err == f"error: expression nested more than 100 deep at offset {offset}\n"


def test_expression_at_the_depth_bound_evaluates(capsys):
    code, out, _ = run(capsys, "series", "(" * 100 + "+".join(["x"] * 100) + ")" * 100, "--order", "2")
    assert code == 0 and out == "100*x + O(x^3)\n"


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["iterate", "--series=x+x^2", "--s=1/0"], "--s", "1/0"),
        (["phipow", "--delta=D+D^2", "--s=1/0"], "--s", "1/0"),
        (["sum", "--poly=x^2", "--from=1/0"], "--from", "1/0"),
        (["sum", "--poly=x^2", "--from=0", "--at=1/0"], "--at", "1/0"),
    ],
)
def test_bad_rational_option_names_option_and_value(capsys, argv, option, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad value {value!r} for {option}: expected a rational such as 3 or -2/3\n"


class _GoneReader(io.TextIOBase):
    """A stdout whose reader has gone (`umbra check --all | head -1`).  If ``fails`` is
    "write", every write raises BrokenPipeError, as the write past a full pipe buffer
    does; otherwise writes are kept and the flush that would send them raises, as
    for a short output.  Its descriptor is a file the test owns."""

    def __init__(self, fd, fails):
        self.fd, self.fails, self.pending = fd, fails, ""

    def write(self, text):
        if self.fails == "write":
            raise BrokenPipeError(32, "Broken pipe")
        self.pending += text
        return len(text)

    def flush(self):
        if self.pending:
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def _failing_report(*args, **kwargs):
    report = Report()
    report.record("fake", "broken_identity", {}, {"n": 3})
    return report


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        (["series", "exp(x)"], None, 0),
        (["check", "--family", "falling", "--order", "4"], None, 0),
        (
            ["check", "--family", "falling", "--order", "4"],
            lambda mp: mp.setattr(catalog, "identity_check", _failing_report),
            1,
        ),
        (
            ["basic", "--delta", "exp(D)-1", "--order", "5"],
            lambda mp: mp.setitem(umbral.BASIC_ROUTES, "km", lambda Q, n: umbral.basic_recurrence(Q, n - 1)),
            1,
        ),
    ],
    ids=["series", "passing_report", "failing_report", "route_disagreement"],
)
@pytest.mark.parametrize("fails", ["write", "flush"])
def test_gone_reader_ends_quietly_with_the_run_exit_code(argv, patch, code, fails, monkeypatch, tmp_path, capsys):
    if patch:
        patch(monkeypatch)
    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _GoneReader(sink.fileno(), fails))
        assert main(argv) == code
        os.write(sink.fileno(), b"late")  # the descriptor now points at the null device
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""

"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import umbra.cli  # noqa: E402
import umbra.umbral  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def run(request) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = umbra.cli.main(list(request.argv))
    return rc, out.getvalue()


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_request_parses(workload, seed):
    parser = umbra.cli.build_parser()
    for request in wl.generate(workload, seed):
        args = parser.parse_args(list(request.argv))
        assert args.command == request.argv[0]
        assert all(a.startswith("--") and "=" in a for a in request.argv if a.startswith("-"))


def test_generator_is_seeded():
    assert [r.argv for r in wl.generate("high_order", 3)] == [r.argv for r in wl.generate("high_order", 3)]
    assert [r.argv for r in wl.generate("high_order", 3)] != [r.argv for r in wl.generate("high_order", 4)]


def test_small_order_covers_the_default_check_set():
    from umbra.catalog import DEFAULT_CHECK_SET

    assert len(wl.CHECK_SET) == len(DEFAULT_CHECK_SET)
    for (name, params), (want_name, want_params) in zip(wl.CHECK_SET, DEFAULT_CHECK_SET):
        assert name == want_name
        assert params == ",".join(f"{k}={wl.rat_text(Fraction(v))}" for k, v in want_params.items())


# -- output checks ----------------------------------------------------------------


def _samples() -> list:
    """One small request of every kind the checks know."""
    rng = random.Random(7)
    reqs = [wl._series(rng, kind, 8) for kind in ("sqrt", "exp", "log", "recip")]
    reqs += [wl._series(rng, "pow", 8, e) for e in wl.POW_EXPONENTS]
    reqs += [wl._inverse(rng, 8, lead) for lead in wl.LEADS]
    reqs += [wl._basic(rng, route, 8, Fraction(2)) for route in ("all", "km")]
    for name in ("touchard", "falling", "rising", "laguerre", "catalan", "derivative"):
        reqs.append(wl._triangle(name, 8, {}))
    for name, params in (
        ("abel", {"a": Fraction(-1)}),
        ("degenerate_laguerre", {"p": 3}),
        ("divided_difference", {"h": Fraction(-1, 2)}),
        ("stretch", {"lam": Fraction(3)}),
    ):
        reqs.append(wl._triangle(name, 8, params))
    reqs.append(wl._sheffer(rng, 8))
    reqs += [wl._iterate(rng, s, 8) for s in (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 2))]
    reqs += [wl._itlog(rng, 8), wl._phipow(rng, 7), wl._faulhaber(6)]
    reqs += [wl._sum(rng, with_at=False), wl._sum(rng, with_at=True), wl._check("falling", "", 8, 0)]
    return reqs


SAMPLES = _samples()


def _ids(reqs):
    return [" ".join(r.argv[:2])[:40] for r in reqs]


def _corrupt(request, stdout: str) -> list[str]:
    """Copies of a correct output, each with one value changed."""
    if request.kind == "check":
        return [stdout.replace("PASS", "FAIL", 1)]
    if request.kind == "sum_at":
        return [str(checks.parse_rat(stdout.strip()) + 1)]
    obj = json.loads(stdout)
    out = []
    if obj["kind"] == "triangle":
        n = obj["n"]
        for m, k in ((n, n), (n, 1), (n - 1, 2), (n // 2, 0), (3, 3)):
            bad = json.loads(stdout)
            bad["rows"][m][k] = wl.rat_text(checks.parse_rat(bad["rows"][m][k]) + Fraction(1, 3))
            out.append(json.dumps(bad))
    else:
        for j in sorted({1, len(obj["coeffs"]) // 2, len(obj["coeffs"]) - 1}):
            bad = json.loads(stdout)
            bad["coeffs"][j] = wl.rat_text(checks.parse_rat(bad["coeffs"][j]) + Fraction(1, 3))
            out.append(json.dumps(bad))
    return out


@pytest.mark.parametrize("request_", SAMPLES, ids=_ids(SAMPLES))
def test_check_accepts_output_and_rejects_one_changed_value(request_):
    rc, stdout = run(request_)
    assert checks.verify(request_, rc, stdout) is None
    for bad in _corrupt(request_, stdout):
        assert checks.verify(request_, rc, bad) is not None, bad[:200]
    assert checks.verify(request_, 2, stdout) is not None


def test_every_kind_has_a_sample():
    assert {r.kind for r in SAMPLES} == set(checks.CHECKS)


# -- span recorder ------------------------------------------------------------------


def test_recorder_wraps_every_binding_and_restores_it():
    originals = {name: spans.resolve(name)[2] for name in spans.FUNCTIONS}
    before = {name: len(spans.binding_sites(fn)) for name, fn in originals.items()}
    routes = dict(umbra.umbral.BASIC_ROUTES)
    rec = spans.SpanRecorder()
    counts = rec.install()
    try:
        assert counts == before
        for name, fn in originals.items():
            assert counts[name] >= 1, name
            assert spans.binding_sites(fn) == [], f"{name} is still reachable unwrapped"
            assert spans.resolve(name)[2].__umbra_original__ is fn
        # the route table and methods' aliases are wrapped too
        assert all(umbra.umbral.BASIC_ROUTES[k].__umbra_original__ is v for k, v in routes.items())
        from umbra.fps import Series

        assert Series.__rmul__ is Series.__mul__ and hasattr(Series.__mul__, "__umbra_original__")
        assert counts["umbral.basic_transfer"] >= 4  # umbral, BASIC_ROUTES, catalog, sigma, ...
    finally:
        rec.uninstall()
    assert {name: len(spans.binding_sites(fn)) for name, fn in originals.items()} == before
    assert umbra.umbral.BASIC_ROUTES == routes


def _mini_list():
    rng = random.Random(11)
    return [
        wl._basic(rng, "all", 6),
        wl._itlog(rng, 6),
        wl._faulhaber(4),
        wl._check("touchard", "", 6, 0),
        wl._series(rng, "sqrt", 6),
        wl.Request(("series", "1/x", "--format=json"), "series", {}),  # exits 2: expr raises
    ]


def test_traced_pass_gives_same_stdout_and_consistent_totals():
    reqs = _mini_list()
    timer = worker._Timer()
    plain = worker.run_pass(reqs, timer, deadline=float("inf"))
    rec = spans.SpanRecorder()
    rec.install()
    try:
        traced = worker.run_pass(reqs, timer, deadline=float("inf"), recorder=rec)
    finally:
        rec.uninstall()
    assert traced["digest"] == plain["digest"]
    m = spans.layer_metrics(rec)
    assert m["cli.calls"] == len(reqs)
    assert m["expr.errors"] >= 1 and m["cli.errors"] == 0
    assert m["bell.partial_bell.calls"] > 0 and m["catalog.identity_check.calls"] == 1
    for layer in spans.LAYERS:
        fns = [f for f in spans.REPORTED_FUNCTIONS if f.startswith(layer + ".")]
        if fns:
            assert m[f"{layer}.calls"] == sum(m[f"{f}.calls"] for f in fns)
        assert m[f"{layer}.busy_s"] >= m[f"{layer}.self_s"] - 1e-9
    # self times partition the time inside the root (cli) spans
    total_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total_self == pytest.approx(m["cli.busy_s"], rel=1e-6)
    assert len(set(rec.requests)) == len(reqs)


def test_layer_metrics_on_a_hand_made_tree():
    rec = spans.SpanRecorder()
    # cli.main [0, 10] > fps.compose [1, 6] > fps.mul_inv [2, 3] ; umbral.tri_compose [7, 9] raises
    for name, start, end, parent, raised in (
        ("cli.main", 0.0, 10.0, -1, False),
        ("fps.compose", 1.0, 6.0, 0, False),
        ("fps.mul_inv", 2.0, 3.0, 1, False),
        ("umbral.tri_compose", 7.0, 9.0, 0, True),
    ):
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.raised.append(raised)
        rec.requests.append(0)
    m = spans.layer_metrics(rec)
    assert (m["cli.calls"], m["cli.busy_s"], m["cli.self_s"]) == (1, 10.0, 3.0)
    assert (m["fps.calls"], m["fps.busy_s"], m["fps.self_s"]) == (2, 5.0, 5.0)
    assert (m["fps.compose.self_s"], m["fps.mul_inv.self_s"]) == (4.0, 1.0)
    assert (m["umbral.errors"], m["umbral.busy_s"], m["fps.errors"]) == (1, 2.0, 0)


# -- measurement details -------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 41)]
    value, pct = worker.tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10 and pct == 75.0


def test_request_cap_is_a_failure(monkeypatch):
    monkeypatch.setattr(worker, "REQUEST_CAP_S", 0.05)
    req = wl._basic(random.Random(1), "km", 40)
    latency, rc, _, failure = worker.run_request(req.argv, worker._Timer())
    assert rc is None and "cap" in failure and latency < 5


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "small_order", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Runs one workload in this process and prints its measurements as JSON.

Started by ``run.py`` in a fresh interpreter with a fixed hash seed.  One
client sends the workload's requests to ``umbra.cli.main(argv)`` in a closed
loop, with stdout and stderr captured:

- untraced (``--trace 0``): whole passes over the request list are repeated
  until the next one would end after ``--seconds``; every pass is timed;
- traced (``--trace 1``): an untraced pass, a pass with the span recorder
  installed on every traced function, and another untraced pass.

Each request has a time cap, enforced by an interval timer; a request that
reaches it is a failure.  Output checks run after the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import umbra.cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

REQUEST_CAP_S = 30.0  # per request
RUN_CAP_S = 150.0  # no request starts after this; the rest count as failed
_RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")


class RequestTimeout(Exception):
    """Raised by the interval timer inside a request that reached its cap."""


class _Timer:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise RequestTimeout

    def start(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_request(argv, timer: _Timer, recorder=None, index: int = -1):
    """(latency_s, exit_code or None, stdout, failure or None) for one request."""
    out, err = io.StringIO(), io.StringIO()
    if recorder is not None:
        recorder.request = index
    rc, failure = None, None
    t0 = perf_counter()
    try:
        timer.start(REQUEST_CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = umbra.cli.main(list(argv))
        finally:
            timer.stop()  # disarmed before any handler below runs
    except RequestTimeout:
        failure = f"reached the {REQUEST_CAP_S:g} s cap"
    except Exception as exc:  # a raised exception is a failed request, not a crash
        failure = f"raised {exc!r}"
    latency = perf_counter() - t0
    return latency, rc, out.getvalue(), failure


def run_pass(requests, timer: _Timer, deadline: float, recorder=None) -> dict:
    latencies, results, refs = [], [], []
    digest = hashlib.sha256()
    t0 = perf_counter()
    for i, req in enumerate(requests):
        refs.append(reference.sample())
        if perf_counter() > deadline:
            latency, rc, stdout, failure = 0.0, None, "", "not started: run cap reached"
        else:
            latency, rc, stdout, failure = run_request(req.argv, timer, recorder, i)
        latencies.append(latency)
        results.append((rc, stdout, failure))
        digest.update(f"{' '.join(req.argv)}\0{rc}\0{stdout}\0".encode())
    refs.append(reference.sample())
    return {
        "wall_s": perf_counter() - t0,
        "latencies": latencies,
        "refs": refs,  # refs[i] and refs[i + 1] bracket request i
        "results": results,
        "digest": digest.hexdigest(),
    }


def share_outputs(passes: list[dict]):
    """Point the last pass's outputs that repeat the first pass's at the first
    pass's strings, so that memory does not grow with the number of passes."""
    first, last = passes[0]["results"], passes[-1]["results"]
    passes[-1]["results"] = [
        (rc, f_out if out == f_out else out, failure) for (rc, out, failure), (_, f_out, _) in zip(last, first)
    ]


def verify_passes(requests, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure reasons); each distinct output is checked once."""
    attempted = failed = 0
    reasons: list[str] = []
    verdicts: dict[tuple[int, str], str | None] = {}
    for p in passes:
        for i, (req, (rc, stdout, failure)) in enumerate(zip(requests, p["results"])):
            attempted += 1
            if failure is None:
                key = (i, stdout)
                if key not in verdicts:
                    verdicts[key] = checks.verify(req, rc, stdout)
                failure = verdicts[key]
            if failure is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(req.argv)}: {failure}")
    return attempted, failed, reasons


def coeff_bits_max(passes) -> int:
    """Largest numerator or denominator bit length printed by any request."""
    best = 0
    for p in passes:
        for _, stdout, _ in p["results"]:
            for num, den in _RATIONAL.findall(stdout):
                best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples above it: the 11th largest value."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(latencies: list[float]) -> dict[str, float]:
    return {
        "wall_s": sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
    }


def measure(requests, seconds: float, timer: _Timer):
    start = perf_counter()
    deadline = start + RUN_CAP_S
    passes: list[dict] = []
    while True:
        passes.append(run_pass(requests, timer, deadline))
        share_outputs(passes)
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds or perf_counter() > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # One sample per request: its fastest pass, after scaling each latency by
    # the two reference samples taken just before and just after it.
    # Every pass does the same deterministic work, and noise from other
    # tenants of the machine only ever adds time, so the fastest scaled pass
    # is the least-disturbed measurement.  With one sample per request, the
    # tail percentile depends only on the workload, not on the pass count.
    indices = range(len(requests))
    scaled = [min(reference.scaled(p["latencies"][i], p["refs"][i : i + 2]) for p in passes) for i in indices]
    unscaled = [min(p["latencies"][i] for p in passes) for i in indices]
    refs = [r for p in passes for r in p["refs"]]
    metrics = dict(summarize(scaled), peak_rss_mb=peak_rss_mb)
    info = {
        "tail_percentile": tail(scaled)[1],
        "latency_samples": len(scaled),
        "unscaled": summarize(unscaled),
        "reference_s": {"min": min(refs), "median": statistics.median(refs), "nominal": reference.NOMINAL_S},
    }
    return passes, metrics, info


def measure_traced(requests, timer: _Timer):
    """Untraced, traced and untraced passes; the overhead is the traced pass
    minus the faster untraced one, so warm-up in the first pass is not
    charged to tracing."""
    deadline = perf_counter() + RUN_CAP_S
    passes = [run_pass(requests, timer, deadline)]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        passes.append(run_pass(requests, timer, deadline, recorder))
    finally:
        recorder.uninstall()
    share_outputs(passes)
    passes.append(run_pass(requests, timer, deadline))
    share_outputs(passes)
    before, traced, after = passes
    metrics = spans.layer_metrics(recorder)
    metrics["fps.coeff_bits_max"] = coeff_bits_max(passes)
    metrics["trace.overhead_s"] = traced["wall_s"] - min(before["wall_s"], after["wall_s"])
    return passes, metrics, {"spans": len(recorder.names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(umbra.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported umbra from {umbra.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    requests = generate(args.workload, args.seed)
    timer = _Timer()
    if args.trace:
        passes, metrics, info = measure_traced(requests, timer)
    else:
        passes, metrics, info = measure(requests, args.seconds, timer)
    attempted, failed, reasons = verify_passes(requests, passes)
    digests = [p["digest"] for p in passes]
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "failures": reasons,
                "requests": len(requests),
                "passes": len(passes),
                "pass_wall_s": [p["wall_s"] for p in passes],
                "stdout_sha256": digests[0],
                "digest_repeats": len(set(digests)) == 1,
                "metrics": metrics,
                **info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

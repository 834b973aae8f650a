"""Benchmark entry point: one run of one workload against the umbra CLI.

    python3 perfbench/run.py --workload high_order --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (``src/umbra`` must exist; nothing is
installed).  The run

1. times ``setup_s``: fresh interpreters each import ``umbra.cli`` and build
   its parser; the median of several is reported;
2. starts ``worker.py`` in a fresh interpreter with a fixed hash seed; it
   sends the seeded requests to ``umbra.cli.main`` and checks every output;
3. prints one JSON line to stderr with the run's metadata and details, and,
   as the last line of stdout, the result:
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced pass (see spans.py).  The exit code is 0 whenever a
result was printed, 2 when the checkout has no umbra sources, and 1 when the
worker failed to report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
_SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import umbra.cli; umbra.cli.build_parser(); t = time.perf_counter() - t; "
    "import reference; print(t, *(reference.sample() for _ in range(3)))"
)


def setup_seconds() -> float:
    """Median import-and-parser time over fresh isolated interpreters, each
    scaled by reference samples taken in the same interpreter right after
    (see reference.py); one unreported interpreter first, so that bytecode
    caches exist."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            seconds, *refs = map(float, out.stdout.split())
            samples.append(reference.scaled(seconds, refs))
    return statistics.median(samples)


def git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "fps.coeff_bits_max":
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "umbra" / "cli.py").is_file():
        print(f"error: no umbra sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    meta = metadata()
    setup_s = None if args.trace else setup_seconds()
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in report["metrics"].items()
        }
    else:
        values = dict(report["metrics"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = report["failed"] == 0 and report["digest_repeats"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": report["failed"] / report["attempted"],
        **{k: v for k, v in report.items() if k != "metrics"},
        **meta,
    }
    print(json.dumps(details), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

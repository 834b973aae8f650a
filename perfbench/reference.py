"""Machine-speed reference for scaling measured times.

The benchmark runs on shared machines whose speed drifts: a fixed loop of
``Fraction`` arithmetic takes anywhere from 1x to 2x its quiet time, for
minutes at a stretch, with CPU time equal to wall time.  ``sample`` times
such a loop.  A time t measured next to reference samples r is reported as
``t * NOMINAL_S / r``: seconds at the speed where the loop takes NOMINAL_S.
The loop shares no code with umbra, so a change to umbra moves t and not r.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time on a quiet 2-vCPU 2.0 GHz VM with CPython 3.11
NOMINAL_S = 0.006


def sample() -> float:
    """Seconds for a fixed loop of exact rational arithmetic."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return perf_counter() - t0


def scaled(seconds: float, references) -> float:
    """``seconds`` at nominal speed, given reference samples taken around it."""
    return seconds * NOMINAL_S / statistics.median(references)

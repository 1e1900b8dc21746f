"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a CPU-bound Python process drifts by
tens of percent over seconds and minutes, and it drifts alike for the
program and for other Python code running at the same moment.  The
benchmark therefore times `reference()`, a fixed stdlib-only computation
(Fraction arithmetic and dict/tuple churn, like the program's exact
path), before and after every CLI call, and rescales the call's wall time
by REF_NOMINAL_S / (mean of the two reference times).  The result is in
calibrated seconds: the wall time the call would take on a machine that
runs the reference in REF_NOMINAL_S.  Changing this file changes every
calibrated figure, so it belongs to the benchmark's definition.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_ITERATIONS = 2000
REF_REPEATS = 3
REF_NOMINAL_S = 0.01  # about the reference time on a 2.0 GHz Xeon vCPU


def reference() -> float:
    """Median wall seconds of REF_REPEATS runs of the reference computation."""
    return statistics.median(_reference_once() for _ in range(REF_REPEATS))


def _reference_once() -> float:
    t = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(1, REF_ITERATIONS):
        f = Fraction(i * 7919 % 1009, 1 + i % 17) * Fraction(3, 1 + i % 5)
        acc += f.numerator * f.denominator
        seen[(i % 101, f)] = acc & 0xFF
    return time.perf_counter() - t


class Clock:
    """Reference readings taken between timed calls."""

    def __init__(self):
        self.last = reference()

    def scale(self) -> float:
        """Calibration factor for the call made since the previous reading."""
        now = reference()
        factor = REF_NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor

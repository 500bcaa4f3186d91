"""How fast the host is running, from a fixed reference computation.

On a shared machine the same work can take 1.7 times longer a few minutes
later.  A run therefore times, off the clock and every SAMPLE_INTERVAL_S,
a fixed pure-Python computation in the benchmark's own code (exact
fractions, string keys, dict and list churn: the kind of work mathsynth
does).  The median of those samples against REFERENCE_S, the time the same
computation takes on this 2-core box when it is quiet, is the host factor
by which measured times are scaled to that quiet speed.  No change to
mathsynth can move the reference; garbage collection is off while it runs,
so the program's live objects do not slow it either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# REFERENCE_S is what reference_work() takes on this 2-core box when it is
# quiet; it holds only for REFERENCE_ITERATIONS, so change both together
REFERENCE_ITERATIONS = 800
REFERENCE_S = 0.030
SAMPLE_INTERVAL_S = 0.5


def reference_work():
    counts: dict = {}
    recent: list = []
    x = Fraction(1, 3)
    for i in range(REFERENCE_ITERATIONS):
        x = (x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)).limit_denominator(10**6)
        key = f"k{i % 97}:{i % 13}"
        counts[key] = counts.get(key, 0) + 1
        recent.append((key, i))
        if len(recent) > 50:
            recent = [t for t in recent if t[1] % 3]
    return x, len(counts)


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken during a run, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to be kept off any clock
        self._next = time.perf_counter() + SAMPLE_INTERVAL_S

    def sample(self, n: int = 1):
        start = time.perf_counter()
        self.samples.extend(time_reference() for _ in range(n))
        now = time.perf_counter()
        self.spent += now - start
        self._next = now + SAMPLE_INTERVAL_S

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self) -> float:
        """Above 1 when the host ran slower than the quiet reference."""
        return statistics.median(self.samples) / REFERENCE_S

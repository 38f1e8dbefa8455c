"""The host's current speed, measured by a fixed reference loop.

The benchmark runs on shared hosts whose cores change speed for seconds to
minutes at a time, by up to 1.8x, as other tenants load them; a whole run of
a workload can fall inside one slow stretch, so no statistic within a run
removes that from wall-clock times.  So the benchmark keeps sampling a fixed
reference loop (``Fraction`` sums: pure-Python object arithmetic like the
package's own, and no code of the package): once after every request, and
every ``INTERVAL`` seconds during a request, from a timer signal.  Each
request's wall time, less the time the samples inside it took, is scaled by
``REFERENCE_S`` over the median of the samples taken during it and at its
two ends.  The result is the request's time in *nominal* seconds: its time on
a host where the reference loop takes ``REFERENCE_S``.  A change to the
package moves nominal times in the same proportion as wall times; a change
in the host's speed moves the request and the reference alike and cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# A round figure inside the range of the reference loop's time on the 2-vCPU
# Xeon VM the benchmark was tuned on (0.4 to 0.8 ms as the host's load
# changed), so that nominal times read like wall times there.
REFERENCE_S = 0.0006

# Seconds between samples during a request: a request shorter than this is
# scaled by the samples at its ends, a longer one mostly by those inside it.
INTERVAL = 0.02


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1)
    return total


def sample(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` reference loops, with the cyclic GC
    held off so that the package's heap cannot slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the reference every ``INTERVAL`` seconds inside a block.

    ``with sampler:`` runs the block under a timer signal; afterwards
    ``refs`` holds the samples taken during it and ``spent`` the wall time
    they took.  An inactive sampler takes none.  The handler stays installed
    after the block, so a signal raised as the timer stops finds it and is
    ignored.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.refs: list[float] = []
        self.spent = 0.0
        self._on = False

    def _handler(self, signum, frame) -> None:
        if not self._on:
            return
        start = time.perf_counter()
        self.refs.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.refs, self.spent = [], 0.0
        if self.active:
            signal.signal(signal.SIGALRM, self._handler)
            self._on = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._on = False


def to_nominal(walls: list[float], ends: list[float],
               inside: list[list[float]] | None = None) -> list[float]:
    """Nominal times of ``walls``.

    ``ends[i]`` was sampled right after ``walls[i]`` (so ``ends[i - 1]``
    right before it) and ``inside[i]`` during it.  Each time is scaled by the
    median of its inside samples, its two ends and the next end, so that one
    disturbed sample does not move a short request.
    """
    out = []
    for i, wall in enumerate(walls):
        pool = ends[max(0, i - 1):i + 2] + (inside[i] if inside else [])
        out.append(wall * REFERENCE_S / statistics.median(pool))
    return out

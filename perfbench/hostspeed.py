"""The host's current speed, measured with a fixed piece of reference work.

The benchmark shares a few cores with other tenants, whose load slows every
instruction by up to about 1.5x in spells that last from seconds to minutes;
the slowdown shows in CPU time as much as in wall time.  So the runner times
reference_work() next to every op and reports each latency scaled by
REFERENCE_S / (the reference work's time beside that op): the op's time on
the host at the speed at which reference_work() takes REFERENCE_S.  A
faster library lowers the scaled figure as much as the raw one, while a slow
spell lengthens both the op and the reference work beside it and cancels
out.  The raw latencies and the reference timings stay in the run's record.

reference_work() does the library's kind of work (short strings sliced,
swapped and reversed, dict and list traffic, small function calls) and none
of its code, so no change to the library moves it.  The collector is off
while it runs, so that a collection of the library's heap is never charged
to it.
"""

import gc
import statistics
from time import perf_counter

# Fastest time of reference_work() seen on the 2-core x86-64 host the
# benchmark was written on (CPython 3.11); it only sets the scale.
REFERENCE_S = 0.0015


def _rotate(w, i):
    return w[i:] + w[:i]


def reference_work():
    counts = {}
    out = []
    w = "abABabbaBAabBA"
    for i in range(2500):
        k = _rotate(w, i % 11)
        counts[k] = counts.get(k, 0) + 1
        out.append((k.swapcase()[::-1], i & 7))
    return len(out) + len(counts)


def reference_time(repeats=1):
    """Seconds that reference_work() takes now: the median of repeats runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t = perf_counter()
            reference_work()
            times.append(perf_counter() - t)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(seconds, before, after):
    """seconds at reference speed, given the reference timings on each side."""
    return seconds * REFERENCE_S / ((before + after) / 2)

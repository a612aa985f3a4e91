"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the speed of the same
Python code can swing by a factor of 1.5 to 2 from one second to the next,
so raw times from two runs, or from the parent commit and a change, are
not comparable.  Every timed sample is therefore bracketed by a short
calibration loop and reported in reference time:

    reference seconds = raw seconds * REF_S / calibration seconds

that is, the time the sample would take on a machine where one calibration
loop takes exactly REF_S (1 ms, about its median on a 2-core Xeon VM
running CPython 3.11).  The loop is fixed, plain Python and independent of
objlog, so no change to objlog can move it; it allocates no container
objects, so the size of objlog's heap cannot move it through the garbage
collector either.  The raw medians are reported next to the reference ones.
"""

from __future__ import annotations

from time import perf_counter

CAL_N = 5000
REF_S = 1e-3

_TABLE = {i: i * 7 + 3 for i in range(64)}


class _Probe:
    __slots__ = ("k",)

    def __init__(self):
        self.k = 5

    def step(self, i):
        return (i * self.k) & 63


_PROBE = _Probe()


def calibrate() -> float:
    """Seconds one calibration loop takes right now: method calls,
    attribute loads, dict lookups and integer arithmetic."""
    t0 = perf_counter()
    acc = 0
    probe = _PROBE
    table = _TABLE
    for i in range(CAL_N):
        acc = (acc + table[probe.step(i)]) & 0xFFFF
    return perf_counter() - t0


class Bracket:
    """Chained calibrations around consecutive samples: each call to
    `factor` calibrates once and returns the raw-to-reference factor for
    the interval since the previous calibration."""

    def __init__(self):
        self.before = calibrate()

    def factor(self) -> float:
        after = calibrate()
        f = 2 * REF_S / (self.before + after)
        self.before = after
        return f

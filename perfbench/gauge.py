"""A fixed piece of pure-Python work that gauges the speed of the host.

The machine this benchmark was made on is a virtual machine on a shared
host whose speed switches between a fast and a slow state, about 1.7x
apart, every few seconds, and drifts over minutes; whole runs come out
up to 2x slower than others.  The work below does what h14cert's hot
path does -- an integer convolution over exponent tuples into a dict,
Fractions with growing denominators, a JSON round trip -- but it does not
use h14cert, so no change to the program moves it.  Sampled evenly in
time over a run, its mean is the host's speed during that run; the
benchmark reports every time scaled to a host on which `sample()` takes
`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from time import perf_counter

# About the mean of sample() on the development machine.  It only makes the
# scaled times read as seconds; it does not change their ratios.
REFERENCE_S = 0.025
# One sample per this many seconds of the run (about a tenth of the run),
# so that the samples spread over the run evenly in time, whatever the
# lengths of its operations.
EVERY_S = 0.25

_A = [((i, j, k), (7 * i + 3 * j - k) * 1000003 + 1)
      for i in range(12) for j in range(10) for k in range(3)]
_B = [((i, j, k), 3 * i - j + 7 * k + 1)
      for i in range(5) for j in range(4) for k in range(2)]


def _work():
    out: dict[tuple, int] = {}
    for e1, c1 in _A:
        for e2, c2 in _B:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    terms = {e: Fraction(v, 360) for e, v in out.items() if v}
    s, f = Fraction(0), 1
    for i in range(1, 40):
        f *= i
        s += Fraction(i * i + 1, f)
    text = json.dumps([[list(e), str(c)] for e, c in terms.items()] + [str(s)])
    return len(json.loads(text))


def sample() -> float:
    """Seconds that one fixed piece of work takes now.  The collector is
    off while it runs, so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest tenth of the values.  Like
    the mean, it follows the share of time the host spent slow; unlike
    it, one long stall does not move it."""
    v = sorted(values)
    cut = len(v) // 10
    v = v[cut:len(v) - cut]
    return sum(v) / len(v)


class Gauge:
    """Samples of the host's speed, about one per EVERY_S seconds of a run.

    Call `tick()` between timed steps; it takes the samples that the time
    since the last tick has earned."""

    def __init__(self):
        self.samples: list[float] = []
        self.owed = 1.0                 # the first tick samples at once
        self.last = perf_counter()

    def tick(self):
        self.owed += (perf_counter() - self.last) / EVERY_S
        while self.owed >= 1:
            self.samples.append(sample())
            self.owed -= 1
        self.last = perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's wall times into seconds at the
        reference speed."""
        return REFERENCE_S / trimmed_mean(self.samples)

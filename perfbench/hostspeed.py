"""Host-speed sampler, so that timings can be corrected for a shared host's drift.

On a shared 2-core host the speed of the same code drifts by up to 1.75x,
and it can flip between a fast and a slow state every few seconds.  The
share of a run spent in each state differs from run to run, so a 20 s run
reads fast or slow as a whole, and no statistic over its calls can undo that.
`HostSpeed` times two fixed probes from a SIGALRM handler every `INTERVAL_S`
during the run (about 1.5 % of the run's time).  A time measured in a window
is multiplied by `factor(window)`, the relative speed of the host in and
around the window.  That gives the time the same work would have taken at
the reference speed.  The probes are the benchmark's own code, so a change
to the package cannot move them.

The two probes slow down by different amounts, and so does the package's
code.  In one 2-minute study on the Intel Xeon host, the host flipped
between two states every few seconds.  The interpreter loop `_loop` slowed
1.4x between them, and the numpy probe `_fixed_point` slowed 1.9x.  Each
probe's smoothed log duration was fitted against that of a call.  The
slopes were 0.93 against the loop and 0.58 against the numpy probe for
`cli decompose`, 1.33 and 0.83 for `cli solve` and `branch`, and 0.74 and
0.45 for a particle step.  No single probe fits all of them, so `factor` is
the geometric mean of the two probes' relative speeds.  Over eleven 20 s `cli`
runs, that cut the spread of `call_ms.p90` from 0.127 (loop alone) to 0.064.
Over six runs each of `particles` and `noise`, it raised the spreads by
about 0.01.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Samples this far around a window count for it, so that a window shorter
# than INTERVAL_S still has several.
PAD_S = 1.0

# Median durations of the probes, measured on the 2-core Intel Xeon host
# with Python 3.11 and numpy 2.4 in calibration runs made before the origin
# runs.  They set the scale of the corrected times: at these durations,
# corrected and raw times agree.  origin.json records the probes' medians
# in each origin run.
REFERENCE_LOOP_S = 0.87e-3
REFERENCE_FIXED_POINT_S = 0.52e-3

_MATRIX = np.cos(np.outer(np.arange(48), np.arange(48)) / 48.0) / 48.0
_START = np.full(48, 1.0 / 48.0)


def _loop() -> None:
    x = 0
    for i in range(10_000):
        x += i * i


def _fixed_point() -> None:
    """60 steps of a fixed-point map on a 48-vector: small numpy calls, as in the solver."""
    y = _START
    for _ in range(60):
        y = np.exp(-0.1 * (_MATRIX @ y))
        y = y / y.sum()


class HostSpeed:
    """Samples the probes' durations from SIGALRM while entered (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, loop s, fixed point s)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        middle = time.perf_counter()
        _fixed_point()
        self.samples.append((start, middle - start, time.perf_counter() - middle))

    def __enter__(self) -> "HostSpeed":
        self._tick(None, None)  # so that there is always a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def medians_s(self) -> dict:
        return {
            "loop": statistics.median(s[1] for s in self.samples),
            "fixed_point": statistics.median(s[2] for s in self.samples),
        }

    def factor(self, start: float, end: float) -> float:
        """Relative speed over [start - PAD_S, end + PAD_S].

        For each probe, the mean of its reference duration over its measured
        durations; the factor is the geometric mean of the two.  Work done in
        a window is the integral of the speed over it, so the time at the
        reference speed is the measured time times the mean speed.
        """
        near = [s for s in self.samples if start - PAD_S <= s[0] <= end + PAD_S] or self.samples
        loop = statistics.fmean(REFERENCE_LOOP_S / s[1] for s in near)
        fixed_point = statistics.fmean(REFERENCE_FIXED_POINT_S / s[2] for s in near)
        return math.sqrt(loop * fixed_point)

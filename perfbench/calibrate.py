"""Host-speed calibration, to take the speed of a shared host out of times.

The benchmark runs on a few cores of a shared host whose speed swings by a
third within a minute.  A process's CPU time swings with its wall time, so
neither measures the program alone.  This module times a fixed loop of
plain Python, independent of coxfold, many times while the program runs:

* ``Sampler`` takes one sample every ``INTERVAL_S`` of wall time from a
  SIGALRM handler, in the measured process itself, and keeps the time the
  handler spent so that it can be taken out of the measured time;
* ``burst`` takes samples back to back, around a region too short for
  the timer.

A time is normalised as ``raw * REF_S / mean(samples)``: what it would
have been on a host where one sample takes ``REF_S``.  The mean, not the
median, because the program suffers the slow spells that the mean counts.

The loop does what coxfold does most, Fraction arithmetic and dicts keyed by
tuples; a loop of small-int arithmetic over a table tracked the program
worse.  The collector is paused while it runs, so that a change to the
collector settings of the program does not change its speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.002      # nominal seconds of one sample
INTERVAL_S = 0.05  # wall seconds between two timer samples
LOOPS = 100

_X, _Y = Fraction(1, 3), Fraction(2, 7)


def _loop() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(LOOPS):
        acc = _X * _Y + Fraction(i, 7) - acc / 3
        if i % 8 == 0:
            acc = Fraction(i, 5)
        for j in range(12):
            key = (i, j, i ^ j)
            table[key] = table.get((i, j - 1, i ^ (j - 1)), acc)


def sample() -> float:
    """Seconds taken by one run of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst(k: int) -> list[float]:
    return [sample() for _ in range(k)]


def factor(samples: list[float]) -> float:
    """How much slower than nominal the host ran while samples were taken."""
    return statistics.fmean(samples) / REF_S


class Sampler:
    """Samples host speed every INTERVAL_S while a region runs.

    ``spent_s`` is the wall time of the handler calls so far; ``now`` is a
    clock that stands still while the handler runs.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - t0

    def now(self) -> float:
        """perf_counter() less the handler time so far."""
        while True:
            spent = self.spent_s
            t = time.perf_counter()
            if self.spent_s == spent:  # no handler ran in between
                return t - spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is None:  # not running
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

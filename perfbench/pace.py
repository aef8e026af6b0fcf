"""The host's pace, and times scaled to a reference pace.

The benchmark's host is shared: it runs at two speeds about a third apart,
switches between them every few seconds, and sometimes stays at one for
minutes, so a run, or a whole set of runs, can land mostly at either. Taking
the fastest of a few repetitions does not get round that. So every time the
benchmark reports is scaled to a reference pace: its wall time times
``REFERENCE_S`` over what a fixed kernel took around it. The kernel is the
program's own kind of work, NumPy row distances and an interpreter loop, so
the two slow down alike. Over 160 one-second windows of census SFDM2 updates
on a 4-vCPU shared VM, the update time varied by 12.9% (coefficient of
variation) as measured and by 5.1% scaled by the row-distance part of the
kernel, whose slowdowns it matched one for one (log-log slope 1.06).

Sequential steps take the kernel's time right before and right after
themselves, on the same thread (``scaled``); a thread sampling beside them
would slow them down. A Spark drain runs on every core for seconds while the
driver's main thread waits, and readings at its two ends miss the slow
spells inside it, so there a :class:`Meter` samples the kernel on a
background thread throughout. Kernel times are thread CPU times, so that
waiting for the interpreter lock or for a core does not count as a slow host.
"""
from __future__ import annotations

import statistics
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

import numpy as np

REFERENCE_S = 1.5e-3  # the kernel's time at the reference pace

_M = np.random.default_rng(0).random((1000, 25))


def kernel_s() -> float:
    """CPU time of one fixed piece of work on this thread, in seconds: row
    distances over a 200 KB array, as the program computes them, and a plain
    interpreter loop."""
    t0 = thread_time()
    for i in range(12):
        np.abs(_M - _M[i]).sum(1).min()
    x = 0
    for i in range(10_000):
        x += i * i
    return thread_time() - t0


def pace_s(samples: int) -> float:
    """Mean time of ``samples`` kernel runs."""
    return sum(kernel_s() for _ in range(samples)) / samples


def scaled(thunk, samples: int = 3):
    """(``thunk()``, its wall time scaled to the reference pace). The pace is
    the mean of ``samples`` kernel runs right before and as many right after:
    the host also switches speed within milliseconds, so one kernel run is a
    noisy reading."""
    p0 = pace_s(samples)
    t0 = perf_counter()
    out = thunk()
    wall = perf_counter() - t0
    return out, wall * REFERENCE_S * 2 / (p0 + pace_s(samples))


class Meter:
    """Kernel times sampled on a background thread every ``EVERY_S``, from
    ``__enter__`` until ``__exit__``, which waits for the thread."""

    EVERY_S = 0.1

    def __init__(self):
        self.at: list[float] = []  # perf_counter() after each sample
        self.took: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace-meter", daemon=True)

    def _sample(self) -> None:
        self.took.append(kernel_s())
        self.at.append(perf_counter())

    def _run(self) -> None:
        while not self._stop.wait(self.EVERY_S):
            self._sample()

    def __enter__(self) -> "Meter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from wall time in [t0, t1] to time at the reference pace:
        over the median of the samples taken in it, or of the two nearest."""
        at = self.at[:]
        lo, hi = bisect_left(at, t0), bisect_right(at, t1)
        inside = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return REFERENCE_S / statistics.median(inside)

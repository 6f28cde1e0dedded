"""Machine-speed probe: converts measured seconds into reference seconds.

The machines this benchmark runs on are shared.  Over seconds to minutes
their speed drifts by up to a factor of two, which no amount of repetition
inside one run removes.  So while a pass runs, a SIGALRM timer interrupts it
every INTERVAL_S and runs a fixed Fraction-arithmetic kernel, the same kind
of work cisym does, and records when it ran and how long it took.  An
interval measured during the pass loses the kernel time inside it and is
scaled by NOMINAL_S / (mean kernel time within WINDOW_S of it): it then
reads as it would have at the speed where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.02
NOMINAL_S = 5e-4
WINDOW_S = 0.1
BURST = 3


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
    return total


class SpeedProbe:
    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def burst(self) -> None:
        for _ in range(BURST):
            self._sample()

    @contextmanager
    def running(self):
        """Sample the speed during the block; samples start afresh."""
        self.clear()
        self.burst()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.burst()

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_right(self.starts, end))

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor from measured to reference seconds around [start, end],
        from the whole block when fewer than BURST samples fall near it."""
        lo, hi = self._range(start - WINDOW_S, end + WINDOW_S)
        near = self.samples[lo:hi] if hi - lo >= BURST else self.samples
        return NOMINAL_S / statistics.fmean(near)

    def unscaled_s(self, start: float, end: float) -> float:
        """The interval [start, end] without probe time, in measured seconds."""
        lo, hi = self._range(start, end)
        return end - start - sum(self.samples[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """The interval [start, end] without probe time, in reference seconds."""
        return self.unscaled_s(start, end) * self.scale(start, end)

    def window_scales(self, start: float, end: float) -> list[float]:
        """The scale factor of each WINDOW_S-long window from start to end,
        from the samples that started in it (windows without one are left
        out)."""
        windows: dict[int, list[float]] = {}
        lo, hi = self._range(start, end)
        for when, took in zip(self.starts[lo:hi], self.samples[lo:hi]):
            windows.setdefault(int((when - start) / WINDOW_S), []).append(took)
        return [NOMINAL_S / statistics.fmean(windows[i]) for i in sorted(windows)]

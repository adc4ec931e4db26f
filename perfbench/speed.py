"""Machine-speed samples that put every reported time in reference seconds.

The machine is shared, and the speed of one CPU drifts by tens of percent
within seconds.  A sample times ``speed_loop``, a fixed small load that does
not touch contourcalc; its value is ``LOOP_REFERENCE_S`` over the loop's
time.  Times scaled by the mean sample taken alongside them are *reference
seconds*: the drift cancels, and a change in contourcalc does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# samples this close to a pass count toward its speed: the drift holds for
# about a second, a single sample is noisier than that
WINDOW_S = 0.25
# seconds speed_loop takes on a quiet machine
LOOP_REFERENCE_S = 0.003


def speed_loop() -> None:
    """Python object work and NumPy array work, the two kinds of work
    contourcalc does."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13, str(i % 31))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    x = np.linspace(0.0, 1.0, 8000)
    for _ in range(10):
        x = np.cos(x * 1.1 + 0.3) * (x > 0.2)
    float(x.sum())


def sample() -> float:
    start = time.perf_counter()
    speed_loop()
    return LOOP_REFERENCE_S / (time.perf_counter() - start)


class SpeedSampler:
    """Speed samples taken through the timed passes.

    While installed, a timer interrupts the passes every ``INTERVAL_S`` to
    take a sample.  ``clock()`` stands still while a sample runs, so
    sampling costs no reported time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # clock() at each sample
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self, *_signal_args):
        self.times.append(self.clock())
        start = time.perf_counter()
        self.samples.append(sample())
        self._spent += time.perf_counter() - start

    def speed(self, start: float, end: float) -> float:
        """Mean of the samples taken from ``WINDOW_S`` before to ``WINDOW_S``
        after an interval of clock(), or of a fresh sample if there are none."""
        near = [
            s for s, t in zip(self.samples, self.times)
            if start - WINDOW_S <= t <= end + WINDOW_S
        ]
        if not near:
            self.sample()
            near = self.samples[-1:]
        return statistics.mean(near)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

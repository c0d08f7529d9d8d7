"""Machine speed, sampled while the benchmark runs.

On a shared machine the same pass can take twice as long from one minute to
the next, and process CPU time moves with wall time, so neither repeats from
run to run. A fixed calibration loop, timed next to the work, slows down in
step with it. ``SpeedProbe`` runs that loop from an interval timer every
``INTERVAL`` seconds; ``elapsed`` rescales a stretch of wall time to the
speed at which the loop takes its reference time, after taking the loop's
own time out. Python-bound work is compared with a Python loop of tuple
hashing and dict updates, numpy-bound work with a small matrix product.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

import numpy as np

INTERVAL = 0.1

_KEYS = [(i, i & 7, i >> 3) for i in range(6000)]
_A = np.random.default_rng(0).standard_normal((500, 64))
_W = np.random.default_rng(1).standard_normal((64, 64))


def _python_loop() -> None:
    counts: dict[tuple[int, int, int], int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1


def _numpy_loop() -> None:
    h = np.tanh(_A @ _W)
    z = h @ _W.T
    np.exp(z - z.max(axis=1, keepdims=True))


# Calibration loops, each with the time it takes at the reference speed
# (its typical time on a 2-core x86-64 box with Python 3.11 and numpy 2.4).
LOOPS: dict[str, tuple[Callable[[], None], float]] = {
    "python": (_python_loop, 1.0e-3),
    "numpy": (_numpy_loop, 0.6e-3),
}


class SpeedProbe:
    """Times a calibration loop on request and, while started, every INTERVAL seconds."""

    def __init__(self, kind: str, clock: Callable[[], float] = time.perf_counter):
        self.loop, self.reference = LOOPS[kind]
        self.clock = clock
        self.samples: list[float] = []  # calibration durations, in order
        self.spent = 0.0  # total time inside the calibration loop

    def sample(self) -> float:
        start = self.clock()
        self.loop()
        took = self.clock() - start
        self.samples.append(took)
        self.spent += took
        return took

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float]:
        """The start of a timed stretch, for ``elapsed``."""
        return self.clock(), len(self.samples), self.spent

    def elapsed(self, mark: tuple[float, int, float]) -> tuple[float, float]:
        """(wall seconds, seconds at the reference speed) since mark, both
        less the time spent in the calibration loop.

        The rescaling uses the samples taken since mark, or the latest one
        before it when the stretch was shorter than the timer interval.
        """
        start, first, spent = mark
        wall = self.clock() - start - (self.spent - spent)
        taken = self.samples[first:] or self.samples[-1:]
        if not taken:
            taken = [self.sample()]
        return wall, wall * statistics.fmean(self.reference / s for s in taken)

"""Host-speed reference: a fixed kernel timed between steps.

The benchmark shares its host, whose speed drifts by a fifth or more over
seconds to minutes, moving every kernel by the same factor (README,
"Why the timings are normalised"). A fixed kernel that does not touch
pairmask, small matmuls and elementwise numpy calls driven from a
Python loop like pairmask's own graph code, is timed every
``EVERY_S`` seconds. Each step's time is multiplied by
``REFERENCE_S / kernel time``, the kernel time being the median of the
last ``SMOOTH`` timings, which expresses it at the speed the host has
when the kernel takes ``REFERENCE_S``. A change to pairmask
moves the scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0025    # kernel time at the reference host speed
EVERY_S = 0.25
SMOOTH = 5
_ITERS = 200


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 32))
        self._b = rng.normal(size=(32, 32)) / 6.0
        self.kernel_s: list = []
        self._last = 0.0
        self.factor = 1.0
        self.measure()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x = self._a
        for _ in range(_ITERS):
            x = np.tanh(x @ self._b) + self._a
        return time.perf_counter() - t0

    def measure(self) -> None:
        seconds = self._kernel()
        self.kernel_s.append(seconds)
        self.factor = REFERENCE_S / statistics.median(self.kernel_s[-SMOOTH:])
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Re-time the kernel when the last timing is ``EVERY_S`` old."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    def median_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3

"""Machine-speed calibration for the gated throughput.

On a shared machine the speed of one core drifts with the load of its
neighbours: on the 2-core Xeon VM where the benchmark was set up, the same
``snpwoe woe --w-t`` call took 38 ms in one spell and 74 ms a few seconds
later. A fixed kernel of the same kind of work (small numpy arrays driven
from Python) slows in step: over 2.4 s blocks the call time moved by +-25%
while the ratio of call to kernel time stayed within +-3%.

``Calibration`` runs that kernel on SIGALRM every ``INTERVAL_S`` of wall
time while operations run, keeps the time it takes out of the operations'
clocks (``now``), and reports how much slower than ``REFERENCE_S`` the kernel
ran (``slowness``). Multiplying a measured throughput by the slowness gives
the throughput at the reference speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Kernel time in a quiet spell on the machine where the benchmark was set up.
REFERENCE_S = 0.005


def kernel() -> float:
    p = np.array([0.25, 0.5, 0.25])
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(600):
        w = np.full(3, 1e-3 * (1 + i % 7))
        t = np.einsum("z,z->", p, w * (1.0 - w))
        table[i % 13] = table.get(i % 13, 0.0) + math.log10(float(t) + 1.0)
        acc += sum(table.values())
    return acc


class Calibration:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        """Wall clock with the calibration time taken out."""
        return time.perf_counter() - self.spent

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, start: int = 0, stop: int | None = None) -> float:
        """Mean kernel time over the reference, for the samples in
        ``[start, stop)``; 1.0 without samples."""
        samples = self.samples[start:stop]
        if not samples:
            return 1.0
        return statistics.fmean(samples) / REFERENCE_S

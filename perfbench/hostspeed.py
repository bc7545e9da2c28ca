"""How fast the host runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds, as neighbours contend for caches and
memory: a fixed loop of interpreter work and small numpy calls takes
2.4 ms in one stretch of a run and 3.7 ms in the next, and the train
steps around it follow.  So the benchmark times such a kernel just
before and just after each block of work, and reports each host time
also at a *reference speed*: the wall time times ``REFERENCE_S`` over the
mean of the two probes.  The kernel is the benchmark's own code, so a
change to the program moves the scaled time as it moves the wall time;
only the host's drift is divided out.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: The kernel's time at the reference speed, near its median on a
#: 2-vCPU KVM guest (Intel Xeon, 4 MiB L2 per core).
REFERENCE_S = 0.5e-3
#: Kernel repeats per probe; a probe reports their median.
REPEATS = 5

_SMALL = np.random.default_rng(0).standard_normal((48, 48)).astype(np.float32)
_ROW = np.zeros(64)


class _Counter:
    def __init__(self) -> None:
        self.value = 1


def _kernel() -> None:
    """Interpreter work (dict, attribute, integer ops), then small numpy
    calls, which is what a simulator step is made of."""
    table, counter = {}, _Counter()
    for i in range(1500):
        table[i % 64] = counter.value + i
        counter.value = table[i % 64] & 7
    for _ in range(20):
        np.tanh(_SMALL @ _SMALL)
    for _ in range(100):
        np.add(_ROW, 1.0)


def factor(before: float, after: float) -> float:
    """Factor to the reference speed for work between two probes."""
    return 2 * REFERENCE_S / (before + after)


class HostSpeed:
    """Probes of the reference kernel, taken around blocks of work."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> float:
        """Median seconds of the kernel now (also kept in ``probes``)."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        self.probes.append(median(times))
        return self.probes[-1]

    def timed(self, fn):
        """``(fn(), wall seconds, factor to the reference speed)``."""
        before = self.probe()
        t0 = perf_counter()
        result = fn()
        wall_s = perf_counter() - t0
        return result, wall_s, factor(before, self.probe())

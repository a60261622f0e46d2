"""Machine-speed reference for timings on a shared host.

On a host shared with other tenants the same operation can run 15 % to 2x
slower for seconds to minutes at a time, while a fixed reference kernel
slows by the same factor: the ratio of the two stays within a few percent.
The benchmark therefore runs the kernel at most every EVERY_S seconds,
between timed operations, and scales each operation's time by
NOMINAL_S / (median of the last WINDOW kernel times).  Timings are then in
seconds at reference speed: the speed at which the kernel takes NOMINAL_S,
its typical time on a 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy
2.4.6.  The raw times are printed in the run record beside them.

Set-up is mostly interpreter start and imports, which the kernel does not
track: a fresh process is slowed by other things (process creation, the
page cache) than a warm loop is.  Set-up probes are scaled instead by
STARTUP_NOMINAL_S over the time of a child that starts the interpreter and
imports numpy, run right after each probe.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

PERF = time.perf_counter
NOMINAL_S = 5.0e-3
EVERY_S = 0.25
WINDOW = 5
STARTUP_NOMINAL_S = 0.2


_RNG = np.random.default_rng(0)
_A = _RNG.uniform(-1.0, 1.0, (12, 12)) + 12.0 * np.eye(12)
_B = _RNG.uniform(-1.0, 1.0, 12)
_X = np.linspace(0.0, 1.0, 8)


def kernel() -> float:
    """The library's hot-path mix: an interpreted loop over small numpy
    calls (elementwise functions, list-built arrays, dense solves)."""
    acc = 0.0
    for i in range(120):
        t = _X * (1.0 + 1e-3 * i)
        row = np.array([np.cos(t + k) for k in range(4)], dtype=float)
        acc += float(np.linalg.solve(_A, _B)[i % 12]) + float(row.sum())
        acc += float(np.abs(_A).max(axis=1).sum()) * 1e-3
    return acc


class Speed:
    def __init__(self, warmup: int = 5):
        self.samples: list[float] = []
        self._at = -math.inf
        for _ in range(warmup):
            self._sample()

    def _sample(self):
        t0 = PERF()
        kernel()
        self.samples.append(PERF() - t0)
        self._at = PERF()

    def factor(self) -> float:
        """NOMINAL_S over the current kernel time; below 1 on a slow host."""
        if PERF() - self._at >= EVERY_S:
            self._sample()
        return NOMINAL_S / statistics.median(self.samples[-WINDOW:])


def startup_factor() -> float:
    """STARTUP_NOMINAL_S over the time of `python -c "import numpy"`."""
    t0 = PERF()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return STARTUP_NOMINAL_S / (PERF() - t0)

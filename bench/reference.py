"""A fixed numpy kernel that gauges how fast the machine runs right now.

The machine this benchmark was built on is shared: load from outside the
container changes how fast the same work runs by up to half, over seconds
to minutes, and no length of run averages that away.  The kernel below
does not call ``qmultimeter``, so no change to the package moves it.
Timing it between operations and dividing each operation's time by the
kernel's time around it removes the machine's drift and keeps the
program's: see ``NOTES.md``.

The kernel mixes the two kinds of work the workloads do: many LAPACK calls
on small matrices driven from Python, and one dense product of the size
the bundles reach.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of one kernel run on the machine the benchmark was defined
#: on (2-vCPU Xeon VM, OpenBLAS 0.3.31 on one thread, numpy 2.4.6, Python
#: 3.11.7).  Calibrated figures are stated in that machine's time.
NOMINAL_SECONDS = 0.0065


class Reference:
    """The kernel and the times it took, in the order they were measured."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._large = rng.normal(size=(192, 192)) + 1j * rng.normal(size=(192, 192))
        self.times: list = []
        self._kernel()  # the first call loads code paths; it is not timed

    def _kernel(self) -> None:
        a = self._small
        for _ in range(100):
            q, r = np.linalg.qr(a)
            np.linalg.norm(q @ r - a)
            np.linalg.eigvalsh(a + a.conj().T)
        self._large @ self._large

    def measure(self) -> float:
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def scale(self, index: int) -> float:
        """Factor to nominal speed for work between measurements ``index - 1`` and ``index``."""
        around = self.times[index - 1 : index + 1]
        return NOMINAL_SECONDS / (sum(around) / len(around))

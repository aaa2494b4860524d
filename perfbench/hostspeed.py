"""Host-speed reference: a fixed piece of work timed inside every pass.

Shared machines change speed for the same code by up to half within a
minute, as other tenants come and go, and the program's wall time
follows.  Medians over a run do not remove that: on a shared 2-core
2.1 GHz Xeon host the median of ten 30 s runs of the analyze workload
moved by 18% between two sets of runs minutes apart.  So each pass
also times this fixed reference work three times right after each of
its commands, and reports

    pass time * NOMINAL_S / (median reference time within that pass)

which is the pass time on a host where the reference takes
``NOMINAL_S``.  The reference mixes the three kinds of work the program
does: an interpreted walk over floats (peak picking), float formatting
(the CSV writer) and numpy array arithmetic (field maps, the forward
model).  It is timed with the garbage collector off and on fixed inputs,
so nothing the program leaves behind can change it, and parent and
child commits are scaled alike.  The median keeps one timing that
another tenant interrupted from scaling a whole pass.  The figures as
measured are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# about the reference time on a 2.1 GHz Xeon host, so scaled and measured
# figures read alike there
NOMINAL_S = 0.0025
TIMINGS = 3  # timings of the reference work per sample() call


class HostSpeed:
    """Times the reference work; ``factor`` turns measured into scaled times."""

    def __init__(self):
        rng = np.random.default_rng(20260817)
        self._walk = rng.normal(size=1500).tolist()
        self._text = rng.normal(size=400).tolist()
        self._grid = rng.random((128, 128))
        self.samples: list[float] = []

    def _work(self) -> float:
        y = self._walk
        kept = 0
        for i in range(1, len(y) - 1):
            if y[i] > y[i - 1] and y[i] >= y[i + 1]:
                low = y[i]
                j = i - 1
                while j >= 0 and y[j] <= y[i] and j > i - 6:
                    low = min(low, y[j])
                    j -= 1
                kept += y[i] - low > 0.5
        text = "".join(f"{v:.9e},{v * 3.0:.9e},{v * 7.0:.9e}\n" for v in self._text)
        g = self._grid
        return kept + len(text) + float((np.hypot(g, g.T) * np.log10(g + 1.0)).sum())

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(TIMINGS):
                t0 = time.perf_counter()
                self._work()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """NOMINAL_S over the median sample since the last call; then reset."""
        median = statistics.median(self.samples)
        self.samples.clear()
        return NOMINAL_S / median

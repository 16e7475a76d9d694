"""A fixed reference computation that does not use sumkit.

The hosts this benchmark runs on change speed by a third or more, in
phases of a minute or longer.  Timings are therefore reported at the
nominal speed of this computation, timed alongside them: a value ``v``
measured while the reference took ``ref`` seconds is reported as
``v * NOMINAL_S / ref`` (or divided by that factor for a rate).

Half of the computation is small-array numpy in a Python loop, as in the
quadrature panels; half is streaming over 64K-element complex blocks, as
in the certified sums.  numpy is imported on first use, not at module
level, so that the fresh-import probe can time ``import sumkit`` before
anything else is loaded.
"""

from __future__ import annotations

import statistics
import time

#: Nominal time of one reference computation.
NOMINAL_S = 0.005


class Reference:
    def __init__(self):
        import numpy as np

        self._np = np
        self.block = np.exp(1j * np.arange(65536) / 7.0)
        self.nodes = np.linspace(0.0, 1.0, 7)

    def seconds(self) -> float:
        """Time one reference computation."""
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float(np.sum(np.exp(-self.nodes * i)))
        for _ in range(8):
            acc += float(np.abs(self.block * 1.0001 + 0.5).sum())
        return time.perf_counter() - start

    def median_seconds(self, repeats: int) -> float:
        """Median of ``repeats`` timings, after one untimed warm-up."""
        self.seconds()
        return statistics.median(self.seconds() for _ in range(repeats))
